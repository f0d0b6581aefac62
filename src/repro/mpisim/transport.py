"""Transport cost models for one rank pair.

A :class:`PathCost` decomposes one message's one-way cost:

    total = o_send + wire_latency + nbytes / bandwidth + o_recv

``o_send``/``o_recv`` are the per-side MPI software overheads (library,
matching, queue management) from the machine calibration; ``wire``
aggregates the hardware path: cache-coherent line exchange, socket hops,
KNL mesh distance, GPU RMA or the CUDA pipeline overhead.
"""

from __future__ import annotations

import enum

from .._dataclass import dataclass
from ..errors import MpiSimError
from ..machines.base import Machine
from ..machines.calibration import GpuMpiMode
from .placement import RankLocation

#: Sustained shared-memory copy fraction of the socket's memory peak
#: (one CMA copy reads and writes through the same memory system).
SHM_BANDWIDTH_FRACTION = 0.30
#: Fabric RMA efficiency on device-memory paths.
RMA_BANDWIDTH_FRACTION = 0.80
#: Pipelined (staged) device path efficiency.
PIPELINE_BANDWIDTH_FRACTION = 0.70


class BufferKind(enum.Enum):
    HOST = "host"
    DEVICE = "device"


@dataclass(frozen=True, slots=True)
class PathCost:
    """One-way cost decomposition for a rank pair.

    ``shared_links`` (used by the inter-node extension) lists stateful
    network links the transfer must reserve; when present, ``wire``
    holds only the endpoint-side latency and the link latencies come
    from the reservation.
    """

    o_send: float
    o_recv: float
    wire: float
    bandwidth: float
    shared_links: tuple = ()

    def link_latency(self) -> float:
        """Sum of per-link propagation latencies of the shared path."""
        return sum(link.latency for link in self.shared_links)

    def one_way(self, nbytes: int) -> float:
        """Uncontended one-way cost (contention needs the simulator)."""
        if nbytes < 0:
            raise MpiSimError(f"negative message size: {nbytes}")
        return (
            self.o_send + self.wire + self.link_latency()
            + nbytes / self.bandwidth + self.o_recv
        )

    @property
    def zero_byte(self) -> float:
        return self.o_send + self.wire + self.link_latency() + self.o_recv

    def degraded(
        self, bandwidth_factor: float = 1.0, extra_latency: float = 0.0
    ) -> "PathCost":
        """This path under a link-degradation fault window.

        ``bandwidth_factor`` scales the sustained bandwidth down and
        ``extra_latency`` is added to the wire term — the intra-node
        analogue of :class:`repro.faults.LinkFault` on fabric links.
        """
        if not 0.0 < bandwidth_factor <= 1.0:
            raise MpiSimError(
                f"bandwidth_factor must be in (0, 1]: {bandwidth_factor}"
            )
        if extra_latency < 0:
            raise MpiSimError(f"negative extra latency: {extra_latency}")
        return PathCost(
            o_send=self.o_send,
            o_recv=self.o_recv,
            wire=self.wire + extra_latency,
            bandwidth=self.bandwidth * bandwidth_factor,
            shared_links=self.shared_links,
        )


class Transport:
    """Per-machine transport selection and cost computation."""

    def __init__(self, machine: Machine) -> None:
        if machine.calibration.mpi is None:
            raise MpiSimError(f"{machine.name} has no MPI calibration")
        self.machine = machine
        self.cal = machine.calibration.mpi

    # ------------------------------------------------------------------
    def path(
        self, src: RankLocation, dst: RankLocation, kind: BufferKind
    ) -> PathCost:
        if kind == BufferKind.DEVICE:
            return self._device_path(src, dst)
        return self._host_path(src, dst)

    # ------------------------------------------------------------------
    def _host_path(self, src: RankLocation, dst: RankLocation) -> PathCost:
        node = self.machine.node
        cal = self.cal
        wire = cal.hw_exchange
        if node.cpu.is_manycore:
            hops = node.cpu.mesh_hops(src.core, dst.core)
            wire += hops * cal.mesh_hop
        elif not node.numa.same_socket(src.core, dst.core):
            wire += cal.cross_socket_extra
        bandwidth = node.cpu.memory.peak_bandwidth * SHM_BANDWIDTH_FRACTION
        return PathCost(cal.sw_overhead, cal.sw_overhead, wire, bandwidth)

    def _device_path(self, src: RankLocation, dst: RankLocation) -> PathCost:
        node = self.machine.node
        cal = self.cal
        if src.device is None or dst.device is None:
            raise MpiSimError("device transport requires device-bound ranks")
        if not node.has_gpus:
            raise MpiSimError(f"{self.machine.name} has no accelerators")
        names = node.gpu_names()
        gpu_a, gpu_b = names[src.device], names[dst.device]
        topo = node.topology

        if cal.gpu_mode == GpuMpiMode.RMA:
            # Slingshot/cray-mpich on the MI250X machines: the fabric
            # reads/writes HBM directly; the class of the pair is
            # irrelevant to latency (paper Table 5: A-D all equal).
            wire = cal.gpu_rma_exchange
            bandwidth = (
                topo.path_bandwidth(topo.route(gpu_a, gpu_b))
                * RMA_BANDWIDTH_FRACTION
            )
            return PathCost(cal.sw_overhead, cal.sw_overhead, wire, bandwidth)

        # PIPELINE: staged through driver machinery on the host path.
        wire = cal.hw_exchange + cal.gpu_pipeline_overhead
        if topo.direct_link(gpu_a, gpu_b) is None:
            wire += cal.gpu_cross_fabric_extra
        route = topo.route(gpu_a, gpu_b)
        bandwidth = topo.path_bandwidth(route) * PIPELINE_BANDWIDTH_FRACTION
        return PathCost(cal.sw_overhead, cal.sw_overhead, wire, bandwidth)
