"""Per-machine model calibration records.

This module is the single place where the simulation's free parameters
live.  Two kinds of constants appear:

1. **Architectural efficiencies** — the fraction of a vendor peak a real
   benchmark sustains (STREAM efficiency of HBM/DDR, PCIe protocol
   efficiency, ...).  These are well-known platform properties; typical
   published values are cited in the comments.

2. **Software-overhead constants** — MPI per-message software cost,
   kernel-launch driver cost, DMA-engine command latency.  These depend
   on the MPI library / CUDA / ROCm generation installed on each machine
   (paper Tables 8/9) and on the host CPU's single-thread speed, and are
   calibrated per machine.  Where the paper itself flags a value as
   anomalous (Theta's MPI latency and all-core bandwidth), the anomaly is
   carried as an explicit, documented factor rather than silently tuned.

The *behaviour* — which pairs land in which link class, how sweeps pick
the best configuration, how byte counting interacts with write-allocate
traffic, protocol state machines — is implemented in the simulators and
benchmark reimplementations; nothing in this file encodes a table row
directly.
"""

from __future__ import annotations

import enum
from dataclasses import field

from .._dataclass import dataclass
from ..errors import HardwareConfigError
from ..hardware.topology import LinkClass


class GpuMpiMode(enum.Enum):
    """How the machine's MPI moves device memory for pt2pt messages.

    ``RMA``: the NIC/fabric can read and write GPU memory directly
    (Slingshot + cray-mpich on the MI250X machines) — device latency is
    essentially host latency.  ``PIPELINE``: the library stages the
    message through host/driver machinery (the CUDA systems measured) —
    device latency carries a large fixed driver/registration overhead.
    """

    RMA = "rma"
    PIPELINE = "pipeline"


@dataclass(frozen=True)
class CpuStreamCalibration:
    """Host-memory bandwidth model parameters.

    ``mlp`` is the per-core sustained miss-level parallelism (number of
    in-flight 64 B cache-line transfers a single thread keeps going);
    single-thread bandwidth follows Little's law:
    ``mlp * 64 B / idle_latency``.  ``allcore_efficiency`` is the
    fraction of the socket peak that the best all-core configuration
    sustains for a read-only kernel (STREAM efficiencies of 75-90 % are
    typical for Xeon DDR4 systems; memory-side-cache systems lose more).
    ``anomaly_factor`` multiplies all-core bandwidth and is 1.0 except on
    Theta, where the paper measured a "suspiciously low" value it could
    not explain; we reproduce the anomaly explicitly.
    """

    mlp: float
    allcore_efficiency: float
    anomaly_factor: float = 1.0
    #: write-allocate traffic on stores (no non-temporal stores in the
    #: BabelStream OpenMP backend)
    write_allocate: bool = True

    def __post_init__(self) -> None:
        if self.mlp <= 0:
            raise HardwareConfigError(f"mlp must be positive: {self.mlp}")
        if not 0 < self.allcore_efficiency <= 1:
            raise HardwareConfigError(
                f"allcore_efficiency must be in (0,1]: {self.allcore_efficiency}"
            )
        if not 0 < self.anomaly_factor <= 1:
            raise HardwareConfigError(
                f"anomaly_factor must be in (0,1]: {self.anomaly_factor}"
            )


@dataclass(frozen=True)
class MpiCalibration:
    """MPI software cost model parameters.

    On-socket pt2pt latency = ``2 * sw_overhead + hw cacheline exchange``;
    crossing sockets adds ``cross_socket_extra``; on KNL, distance is a
    mesh-hop cost.  Device pt2pt follows :class:`GpuMpiMode`.
    """

    #: per-side software overhead, seconds (library + syscall + matching)
    sw_overhead: float
    #: extra one-way cost when ranks sit on different sockets, seconds
    cross_socket_extra: float = 0.0
    #: per-mesh-hop cost on manycore chips, seconds
    mesh_hop: float = 0.0
    #: cache-coherent line exchange cost between two cores, seconds
    hw_exchange: float = 60e-9
    #: how device buffers are moved
    gpu_mode: GpuMpiMode = GpuMpiMode.PIPELINE
    #: fixed extra cost for device buffers in PIPELINE mode, seconds
    gpu_pipeline_overhead: float = 0.0
    #: extra cost for PIPELINE-mode pairs without a direct link (class B)
    gpu_cross_fabric_extra: float = 0.0
    #: fabric read/write of device memory in RMA mode, seconds
    gpu_rma_exchange: float = 50e-9
    #: receive-side saving when the receive is preposted (the message
    #: bypasses the unexpected-message queue and its copy).  Zero on
    #: healthy stacks; large on Theta, where the paper found the ALCF
    #: MPI benchmarks (which prepost) measure sub-5 us against OSU's
    #: 5.95 us on the same machine.
    prepost_discount: float = 0.0

    def __post_init__(self) -> None:
        if self.sw_overhead < 0:
            raise HardwareConfigError(f"negative sw_overhead: {self.sw_overhead}")
        if self.hw_exchange <= 0:
            raise HardwareConfigError(f"hw_exchange must be positive: {self.hw_exchange}")
        if self.prepost_discount < 0:
            raise HardwareConfigError(
                f"negative prepost_discount: {self.prepost_discount}"
            )


@dataclass(frozen=True)
class GpuRuntimeCalibration:
    """Device-runtime (CUDA/ROCm) cost model parameters.

    Launch/sync costs are driver-generation properties (CUDA 10 vs 11,
    ROCm 5.3 vs 5.6) scaled by host single-thread speed; DMA parameters
    govern Comm|Scope's memcpy experiments.  ``d2d_class_extra`` adds the
    per-link-class latency increment on top of the base peer-copy cost —
    the *classes themselves* come from the topology, not from here.
    """

    #: host wall time to enqueue an empty kernel, seconds
    launch_overhead: float
    #: host wall time for a deviceSynchronize with an empty queue, seconds
    sync_overhead: float
    #: host-to-device DMA latency for a tiny (128 B) pinned copy, seconds
    h2d_latency: float
    #: device-to-host DMA latency for a tiny (128 B) pinned copy, seconds
    d2h_latency: float
    #: sustained fraction of the CPU-GPU link peak for 1 GB pinned copies
    h2d_bw_efficiency: float
    #: base peer-to-peer DMA latency for a tiny copy, seconds
    d2d_base: float
    #: per-link-class additive latency, seconds
    d2d_class_extra: dict[LinkClass, float] = field(default_factory=dict)
    #: sustained fraction of the GPU-GPU path peak for large peer copies
    d2d_bw_efficiency: float = 0.80
    #: BabelStream fraction of HBM peak (device triad/copy efficiency)
    stream_efficiency: float = 0.85
    #: relative throughput of the dot kernel vs copy/triad on device
    dot_penalty: float = 0.97

    def __post_init__(self) -> None:
        for name in ("launch_overhead", "sync_overhead", "h2d_latency",
                     "d2h_latency", "d2d_base"):
            if getattr(self, name) <= 0:
                raise HardwareConfigError(f"{name} must be positive")
        for name in ("h2d_bw_efficiency", "d2d_bw_efficiency",
                     "stream_efficiency", "dot_penalty"):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise HardwareConfigError(f"{name} must be in (0,1]: {v}")

    def class_extra(self, link_class: LinkClass) -> float:
        return self.d2d_class_extra.get(link_class, 0.0)


@dataclass(frozen=True)
class MachineCalibration:
    """Everything the simulators need for one machine."""

    cpu_stream: CpuStreamCalibration | None = None
    mpi: MpiCalibration | None = None
    gpu_runtime: GpuRuntimeCalibration | None = None
    #: free-text provenance note rendered into reports
    provenance: str = ""
