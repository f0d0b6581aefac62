"""BabelStream 4.0 byte accounting, including write-allocate traffic.

BabelStream's reported bandwidth divides a *counted* byte figure by the
kernel's runtime: two array-sizes for Copy, Mul and Dot, three for Add
and Triad.  The paper explicitly notes (section 3.1) that version 4.0
"does not account for any write-allocate traffic": on a CPU, a plain
store to ``c[i]`` first reads the line into cache, so Copy actually
moves *three* arrays of traffic while being credited with two.  Dot is
read-only, which is why it usually posts the best CPU figure and why a
best-over-operations selection matters.

GPUs do not pay the write-allocate penalty for streaming stores, so all
operations run at the same fraction of HBM peak there (the dot reduction
carries a small cost instead).
"""

from __future__ import annotations

from .._dataclass import dataclass
from ..errors import BenchmarkConfigError


@dataclass(frozen=True)
class KernelTraffic:
    """Per-iteration memory traffic of one BabelStream kernel.

    All figures are in units of the array size (``N * sizeof(dtype)``).
    ``alloc_writes`` is the number of written arrays whose lines were
    *not* already read by the kernel and therefore trigger
    write-allocate traffic; it defaults to all writes, but
    read-modify-write kernels (Nstream's ``a[i] += ...``) already own
    the line and set it to 0.
    """

    name: str
    reads: int
    writes: int
    alloc_writes: int | None = None

    def __post_init__(self) -> None:
        if self.reads < 0 or self.writes < 0:
            raise BenchmarkConfigError(f"negative traffic on {self.name}")
        if self.reads + self.writes == 0:
            raise BenchmarkConfigError(f"kernel {self.name} moves no data")
        if self.alloc_writes is not None and not (
            0 <= self.alloc_writes <= self.writes
        ):
            raise BenchmarkConfigError(
                f"alloc_writes out of range on {self.name}"
            )

    @property
    def allocating_writes(self) -> int:
        return self.writes if self.alloc_writes is None else self.alloc_writes

    @property
    def counted_arrays(self) -> int:
        """Arrays BabelStream credits the kernel with (reads + writes)."""
        return self.reads + self.writes

    def actual_arrays(self, write_allocate: bool) -> int:
        """Arrays of traffic the memory system really moves."""
        extra = self.allocating_writes if write_allocate else 0
        return self.reads + self.writes + extra

    def counted_bytes(self, array_bytes: int) -> int:
        return self.counted_arrays * array_bytes

    def actual_bytes(self, array_bytes: int, write_allocate: bool) -> int:
        return self.actual_arrays(write_allocate) * array_bytes

    def reported_fraction(self, write_allocate: bool) -> float:
        """Reported/achieved bandwidth ratio for this kernel.

        E.g. Copy with write-allocate: counted 2 arrays, actual 3, so the
        reported number is 2/3 of what the memory system sustained.
        """
        return self.counted_arrays / self.actual_arrays(write_allocate)


#: The five BabelStream operations (c = a; c = k*a; c = a+b; a = b+k*c; sum a*b).
COPY = KernelTraffic("Copy", reads=1, writes=1)
MUL = KernelTraffic("Mul", reads=1, writes=1)
ADD = KernelTraffic("Add", reads=2, writes=1)
TRIAD = KernelTraffic("Triad", reads=2, writes=1)
DOT = KernelTraffic("Dot", reads=2, writes=0)

#: BabelStream's optional sixth kernel (a[i] += b[i] + k*c[i]).  The
#: paper's tables use the classic five; Nstream is provided as the
#: suite provides it.  Its destination is also read, so no
#: write-allocate traffic is triggered even on CPUs.
NSTREAM = KernelTraffic("Nstream", reads=3, writes=1, alloc_writes=0)

ALL_KERNELS: tuple[KernelTraffic, ...] = (COPY, MUL, ADD, TRIAD, DOT)
EXTENDED_KERNELS: tuple[KernelTraffic, ...] = ALL_KERNELS + (NSTREAM,)

_BY_NAME = {k.name.lower(): k for k in EXTENDED_KERNELS}


def traffic_for(name: str) -> KernelTraffic:
    """Look a kernel up by (case-insensitive) name."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise BenchmarkConfigError(
            f"unknown BabelStream kernel {name!r}; known: {sorted(_BY_NAME)}"
        ) from None
