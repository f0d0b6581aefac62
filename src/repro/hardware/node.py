"""Assembled node model.

A :class:`NodeSpec` is the complete intra-node hardware description: CPU
sockets, accelerators, the NUMA layout, and the interconnect topology.
It also enumerates *hardware threads* the way Linux does (core-major:
hwthread ``i`` for ``i < ncores`` is SMT sibling 0 of core ``i``), which
is what the OpenMP binding model places threads onto.
"""

from __future__ import annotations

from dataclasses import field

from .._dataclass import dataclass
from ..errors import HardwareConfigError
from .cpu import CpuSpec
from .gpu import GpuSpec
from .numa import NumaLayout, per_socket, single_domain
from .topology import Topology


@dataclass(frozen=True)
class HardwareThread:
    """One schedulable hardware thread (a Linux "CPU")."""

    os_id: int
    core: int       # global core id
    sibling: int    # SMT sibling index within the core
    socket: int


@dataclass
class NodeSpec:
    """One compute node."""

    name: str
    sockets: list[CpuSpec]
    gpus: list[GpuSpec] = field(default_factory=list)
    topology: Topology = field(default_factory=Topology)
    numa: NumaLayout | None = None

    def __post_init__(self) -> None:
        if not self.sockets:
            raise HardwareConfigError(f"node {self.name} has no CPU sockets")
        models = {s.model for s in self.sockets}
        if len(models) != 1:
            raise HardwareConfigError(
                f"node {self.name} mixes CPU models: {sorted(models)}"
            )
        if self.numa is None:
            cpu = self.sockets[0]
            if cpu.is_manycore:
                # KNL quad mode: one NUMA domain for the whole chip.
                self.numa = single_domain(cpu.cores)
            else:
                self.numa = per_socket(len(self.sockets), cpu.cores)
        # Derived geometry is immutable after construction (nothing in
        # the tree mutates sockets), so precompute it: these properties
        # sit inside simulation callbacks (OpenMP placement, pingpong
        # setup) and recomputation dominated sustained-study profiles.
        # Plain attributes, not dataclass fields, so dataclasses.fields
        # walkers (the cell-cache fingerprint, asdict) never see them.
        cpu = self.sockets[0]
        self._cpu = cpu
        self._n_sockets = len(self.sockets)
        self._total_cores = cpu.cores * self._n_sockets
        self._total_hardware_threads = self._total_cores * cpu.smt
        self._hwthreads: list[HardwareThread] | None = None
        #: repro.openmp.team.build_team's resolved team per
        #: OmpEnvironment; a team depends on the CPU geometry alone
        self._teams: dict = {}

    # ------------------------------------------------------------------
    # CPU geometry
    # ------------------------------------------------------------------
    @property
    def cpu(self) -> CpuSpec:
        """The socket spec (all sockets are identical)."""
        return self._cpu

    @property
    def n_sockets(self) -> int:
        return self._n_sockets

    @property
    def total_cores(self) -> int:
        return self._total_cores

    @property
    def total_hardware_threads(self) -> int:
        return self._total_hardware_threads

    def socket_of_core(self, core: int) -> int:
        if not 0 <= core < self._total_cores:
            raise HardwareConfigError(
                f"core {core} out of range on {self.name} ({self._total_cores} cores)"
            )
        return core // self._cpu.cores

    def _enumerate_hwthreads(self) -> list[HardwareThread]:
        if self._hwthreads is None:
            out = []
            ncores = self._total_cores
            for sib in range(self._cpu.smt):
                for core in range(ncores):
                    out.append(
                        HardwareThread(
                            os_id=sib * ncores + core,
                            core=core,
                            sibling=sib,
                            socket=self.socket_of_core(core),
                        )
                    )
            self._hwthreads = out
        return self._hwthreads

    def hardware_threads(self) -> list[HardwareThread]:
        """Enumerate hardware threads Linux-style (all sibling-0 first)."""
        return list(self._enumerate_hwthreads())

    def hardware_thread(self, os_id: int) -> HardwareThread:
        if not 0 <= os_id < self._total_hardware_threads:
            raise HardwareConfigError(
                f"hwthread {os_id} out of range on {self.name} "
                f"({self._total_hardware_threads} threads)"
            )
        return self._enumerate_hwthreads()[os_id]

    # ------------------------------------------------------------------
    # accelerators
    # ------------------------------------------------------------------
    @property
    def has_gpus(self) -> bool:
        return bool(self.gpus)

    @property
    def n_gpus(self) -> int:
        return len(self.gpus)

    def gpu_names(self) -> list[str]:
        """Topology component names of the GPUs, in device order."""
        return self.topology.gpus()

    def gpu_spec(self, device: int) -> GpuSpec:
        if not 0 <= device < self.n_gpus:
            raise HardwareConfigError(
                f"device {device} out of range on {self.name} ({self.n_gpus} GPUs)"
            )
        return self.gpus[device]

    # ------------------------------------------------------------------
    # aggregate memory
    # ------------------------------------------------------------------
    @property
    def host_peak_bandwidth(self) -> float:
        """Aggregate near-memory peak bandwidth across sockets, bytes/s."""
        return sum(s.memory.peak_bandwidth for s in self.sockets)

    def validate(self) -> None:
        """Consistency checks between topology and declared devices."""
        topo_gpus = self.topology.gpus()
        if len(topo_gpus) != self.n_gpus:
            raise HardwareConfigError(
                f"node {self.name}: topology has {len(topo_gpus)} GPUs, "
                f"spec declares {self.n_gpus}"
            )
        topo_cpus = self.topology.cpus()
        if self.has_gpus and len(topo_cpus) != self.n_sockets:
            raise HardwareConfigError(
                f"node {self.name}: topology has {len(topo_cpus)} CPU sockets, "
                f"spec declares {self.n_sockets}"
            )
