"""KNL MCDRAM quad-cache-mode model.

Trinity and Theta ran MCDRAM as a direct-mapped, memory-side cache in
front of DDR4 (paper section 4).  Consequences modelled here:

* working sets inside MCDRAM stream at the MCDRAM rate, minus a
  management overhead (tag checks, dirty handling) already folded into
  the machine's ``allcore_efficiency``;
* working sets *beyond* the 16 GiB MCDRAM fall off a cliff to DDR4
  bandwidth — with extra traffic, because a miss both fills from DDR
  and (for dirty lines) writes back;
* in between, hits and misses mix in proportion to the fraction of the
  working set that fits (the direct-mapped steady-state approximation
  for a streaming workload).

The paper's sweep tops out at 128 MB vectors (~0.4 GB working set), so
its tables sit entirely on the MCDRAM plateau; the cliff beyond 16 GiB
is exercised by ``tests/memsys/test_knl_cache.py``.
"""

from __future__ import annotations

from ..errors import HardwareConfigError
from ..hardware.cpu import CpuSpec
from ..hardware.memory import MemoryMode

#: extra DDR traffic factor on a streaming miss (fill + victim writeback)
MISS_TRAFFIC_FACTOR = 1.5


def mcdram_hit_fraction(cpu: CpuSpec, working_set: int) -> float:
    """Steady-state fraction of accesses served by the MCDRAM cache."""
    if cpu.memory_mode != MemoryMode.CACHE:
        raise HardwareConfigError(f"{cpu.model} is not in cache memory mode")
    if working_set <= 0:
        raise HardwareConfigError(f"working set must be positive: {working_set}")
    capacity = cpu.memory.capacity
    if working_set <= capacity:
        return 1.0
    # streaming over a direct-mapped memory-side cache: the resident
    # fraction survives between passes
    return capacity / working_set


def cache_mode_bandwidth_factor(cpu: CpuSpec, working_set: int) -> float:
    """Multiplier on the MCDRAM-plateau bandwidth for ``working_set``.

    1.0 while the working set fits; approaches the DDR/MCDRAM ratio
    (with miss-traffic amplification) far beyond capacity.
    """
    hit = mcdram_hit_fraction(cpu, working_set)
    if hit >= 1.0:
        return 1.0
    if cpu.far_memory is None:
        raise HardwareConfigError(f"{cpu.model} has no far memory configured")
    mcdram_bw = cpu.memory.peak_bandwidth
    ddr_bw = cpu.far_memory.peak_bandwidth / MISS_TRAFFIC_FACTOR
    # time per byte is the hit/miss-weighted harmonic combination
    time_per_byte = hit / mcdram_bw + (1.0 - hit) / ddr_bw
    return (1.0 / time_per_byte) / mcdram_bw


def effective_bandwidth(
    cpu: CpuSpec, plateau_bandwidth: float, working_set: int
) -> float:
    """Achieved bandwidth at ``working_set`` given the in-cache plateau."""
    if cpu.memory_mode != MemoryMode.CACHE:
        return plateau_bandwidth
    return plateau_bandwidth * cache_mode_bandwidth_factor(cpu, working_set)
