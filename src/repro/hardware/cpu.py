"""CPU socket models.

A :class:`CpuSpec` is one *socket*: core count, SMT width, clocks, its
attached memory system, and — for Xeon Phi — the on-die mesh geometry
used to model "far core pair" latency (the paper's KNL "on-node" case).
"""

from __future__ import annotations

import enum
import math
from dataclasses import field

from .._dataclass import dataclass
from ..errors import HardwareConfigError
from .memory import MemoryMode, MemorySpec


class CpuVendor(enum.Enum):
    INTEL = "Intel"
    AMD = "AMD"
    IBM = "IBM"


@dataclass(frozen=True)
class CpuSpec:
    """One CPU socket."""

    model: str
    vendor: CpuVendor
    cores: int
    smt: int                      # hardware threads per core
    base_clock_ghz: float
    memory: MemorySpec            # per-socket near memory (DDR or MCDRAM)
    #: second-level memory behind a memory-side cache (KNL cache mode)
    far_memory: MemorySpec | None = None
    memory_mode: MemoryMode = MemoryMode.FLAT
    #: self-hosted manycore (Xeon Phi): single socket, mesh interconnect
    is_manycore: bool = False
    #: mesh geometry (rows, cols) for manycore parts; empty otherwise
    mesh_shape: tuple[int, int] = field(default=(0, 0))

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise HardwareConfigError(f"core count must be >= 1: {self.cores}")
        if self.smt < 1:
            raise HardwareConfigError(f"SMT width must be >= 1: {self.smt}")
        if self.base_clock_ghz <= 0:
            raise HardwareConfigError(f"clock must be positive: {self.base_clock_ghz}")
        if self.memory_mode == MemoryMode.CACHE and self.far_memory is None:
            raise HardwareConfigError(
                "cache memory mode requires a far_memory (the cached DRAM)"
            )
        if self.is_manycore and self.mesh_shape == (0, 0):
            raise HardwareConfigError("manycore CPUs must declare a mesh_shape")

    @property
    def hardware_threads(self) -> int:
        """Total hardware threads on this socket."""
        return self.cores * self.smt

    def mesh_position(self, core: int) -> tuple[int, int]:
        """Grid coordinates of ``core`` on the on-die mesh (manycore only).

        Cores are laid out row-major across active tiles; two cores share a
        tile on KNL, so core ``i`` lives on tile ``i // 2``.
        """
        if not self.is_manycore:
            raise HardwareConfigError(f"{self.model} has no mesh")
        if not 0 <= core < self.cores:
            raise HardwareConfigError(
                f"core {core} out of range for {self.model} ({self.cores} cores)"
            )
        tile = core // 2
        rows, cols = self.mesh_shape
        if tile >= rows * cols:
            raise HardwareConfigError(
                f"core {core} maps to tile {tile} beyond mesh {self.mesh_shape}"
            )
        return divmod(tile, cols)

    def mesh_hops(self, core_a: int, core_b: int) -> int:
        """Manhattan hop distance between two cores on the mesh."""
        ra, ca = self.mesh_position(core_a)
        rb, cb = self.mesh_position(core_b)
        return abs(ra - rb) + abs(ca - cb)

    def mesh_diameter_hops(self) -> int:
        """Worst-case hop distance across the active mesh."""
        used_tiles = math.ceil(self.cores / 2)
        rows, cols = self.mesh_shape
        used_rows = math.ceil(used_tiles / cols)
        return (used_rows - 1) + (cols - 1)
