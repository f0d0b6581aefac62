"""Host and device memory buffers.

Only metadata is tracked (no payload bytes are stored — the simulation
moves *time*, not data).  Host buffers carry the page-locked flag the
async-copy path checks, mirroring ``cudaHostAlloc``/``hipHostMalloc``.
"""

from __future__ import annotations

import itertools
from dataclasses import field

from .._dataclass import dataclass
from ..errors import GpuRuntimeError

_ids = itertools.count()


@dataclass(frozen=True)
class Buffer:
    """Common buffer metadata."""

    nbytes: int
    buffer_id: int = field(default_factory=lambda: next(_ids))

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise GpuRuntimeError(f"buffer size must be positive: {self.nbytes}")


@dataclass(frozen=True)
class HostBuffer(Buffer):
    """Host allocation; ``pinned`` maps to cudaHostAlloc/hipHostMalloc.

    ``numa_node`` is the socket whose memory holds the pages (first
    touch / numactl placement).  Copies to a GPU on another socket must
    cross the socket fabric — the affinity effect Comm|Scope's libnuma
    support exists to control (paper Appendix A's Theta note).
    """

    pinned: bool = False
    numa_node: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.numa_node < 0:
            raise GpuRuntimeError(f"negative NUMA node: {self.numa_node}")

    @property
    def location(self) -> str:
        return "host"


@dataclass(frozen=True)
class DeviceBuffer(Buffer):
    """Device allocation on a specific device index."""

    device: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.device < 0:
            raise GpuRuntimeError(f"negative device index: {self.device}")

    @property
    def location(self) -> str:
        return f"gpu{self.device}"
