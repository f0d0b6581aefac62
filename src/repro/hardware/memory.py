"""Memory technology models.

:class:`MemorySpec` captures the *capability* of a memory system: channel
configuration, peak bandwidth and idle (unloaded) latency.  Performance
under load is computed by :mod:`repro.memsys`.

Peak bandwidth provenance (matching the paper's "Peak" columns):

* DDR4-2933 × 6 channels: ``6 × 8 B × 2.933 GT/s = 140.75 GB/s`` per
  socket — two-socket Xeon Platinum 8268 nodes: **281.50 GB/s** [13].
* DDR4-2666 × 6 channels: ``127.99 GB/s``/socket — two-socket Xeon Gold
  6154 nodes: **255.97 GB/s** [12].
* KNL MCDRAM: Intel claims **> 450 GB/s** [34]; no precise figure is
  published, so we model a nominal 485 GB/s device capability behind the
  quad-cache mode (the paper's "Peak" column shows "> 450").
* HBM2 (V100): **900 GB/s** [1].
* HBM2e (A100-40GB): **1555.2 GB/s** [3].
* HBM2e (MI250X, per GCD): **1638.4 GB/s** — half of the 3276.8 GB/s
  advertised for the full two-GCD package [4, 9].  The paper's Table 5
  lists the peak as 1600 GB/s; we carry both (nominal vendor figure and
  the paper's rounded figure) in the machine records.
"""

from __future__ import annotations

import enum

from .._dataclass import dataclass
from ..errors import HardwareConfigError
from ..units import GiB, gb_per_s, ns


class MemoryKind(enum.Enum):
    DDR4 = "ddr4"
    MCDRAM = "mcdram"
    HBM2 = "hbm2"
    HBM2E = "hbm2e"


class MemoryMode(enum.Enum):
    """KNL memory modes (only FLAT and CACHE are relevant to the paper).

    Trinity and Theta both ran MCDRAM in "quad cache" mode, where MCDRAM
    is a memory-side cache in front of DDR4.
    """

    FLAT = "flat"
    CACHE = "cache"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class MemorySpec:
    """One memory system (per socket for CPUs, per device for GPUs)."""

    kind: MemoryKind
    capacity: int                 # bytes
    peak_bandwidth: float         # bytes/second, per socket or device
    idle_latency: float           # seconds, unloaded load-to-use
    channels: int = 0             # 0 for stacked memories where N/A

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise HardwareConfigError(f"memory capacity must be positive: {self.capacity}")
        if self.peak_bandwidth <= 0:
            raise HardwareConfigError(
                f"memory peak bandwidth must be positive: {self.peak_bandwidth}"
            )
        if self.idle_latency <= 0:
            raise HardwareConfigError(
                f"memory idle latency must be positive: {self.idle_latency}"
            )

    @property
    def is_device_memory(self) -> bool:
        return self.kind in (MemoryKind.HBM2, MemoryKind.HBM2E)


def ddr4(channels: int, mts: float, capacity_gib: int, idle_latency_ns: float) -> MemorySpec:
    """Build a DDR4 spec from channel count and transfer rate (MT/s)."""
    if channels < 1:
        raise HardwareConfigError(f"DDR4 channel count must be >= 1: {channels}")
    if mts <= 0:
        raise HardwareConfigError(f"DDR4 rate must be positive: {mts}")
    peak = channels * 8 * mts * 1e6  # 8 bytes per transfer per channel
    return MemorySpec(
        kind=MemoryKind.DDR4,
        capacity=capacity_gib * GiB,
        peak_bandwidth=peak,
        idle_latency=ns(idle_latency_ns),
        channels=channels,
    )


def mcdram(capacity_gib: int = 16, peak_gbs: float = 485.0,
           idle_latency_ns: float = 150.0) -> MemorySpec:
    """KNL on-package MCDRAM (nominal capability; Intel claims >450 GB/s)."""
    return MemorySpec(
        kind=MemoryKind.MCDRAM,
        capacity=capacity_gib * GiB,
        peak_bandwidth=gb_per_s(peak_gbs),
        idle_latency=ns(idle_latency_ns),
        channels=8,
    )


def hbm2(capacity_gib: int, peak_gbs: float, idle_latency_ns: float = 450.0) -> MemorySpec:
    return MemorySpec(
        kind=MemoryKind.HBM2,
        capacity=capacity_gib * GiB,
        peak_bandwidth=gb_per_s(peak_gbs),
        idle_latency=ns(idle_latency_ns),
    )


def hbm2e(capacity_gib: int, peak_gbs: float, idle_latency_ns: float = 400.0) -> MemorySpec:
    return MemorySpec(
        kind=MemoryKind.HBM2E,
        capacity=capacity_gib * GiB,
        peak_bandwidth=gb_per_s(peak_gbs),
        idle_latency=ns(idle_latency_ns),
    )
