"""The five BabelStream kernels, executed for real on float64 lists.

The simulation decides how *long* each kernel takes; this module makes
sure the kernels also *compute the right thing*, replicating upstream
BabelStream's initial values and solution check.  Every benchmark run
that validates calls :func:`validate_kernels`, which runs a (small) real
array through every kernel once per process, so a broken kernel can
never silently report a bandwidth.
"""

from __future__ import annotations

from functools import cache
from operator import mul

from ...errors import BenchmarkConfigError
from ...memsys.writealloc import ALL_KERNELS, KernelTraffic

#: Upstream BabelStream initial values (main.cpp defaults).
START_A = 0.1
START_B = 0.2
START_C = 0.0
START_SCALAR = 0.4


class StreamArrays:
    """The a/b/c arrays and the kernel implementations."""

    def __init__(self, n: int) -> None:
        if n < 2:
            raise BenchmarkConfigError(f"array length must be >= 2: {n}")
        self.n = n
        self.a = [START_A] * n
        self.b = [START_B] * n
        self.c = [START_C] * n
        self.scalar = START_SCALAR
        self.last_dot: float | None = None

    @property
    def array_bytes(self) -> int:
        return self.n * 8  # float64

    # -- kernels ---------------------------------------------------------
    def copy(self) -> None:
        self.c[:] = self.a

    def mul(self) -> None:
        s = self.scalar
        self.b[:] = [c * s for c in self.c]

    def add(self) -> None:
        self.c[:] = [a + b for a, b in zip(self.a, self.b)]

    def triad(self) -> None:
        s = self.scalar
        self.a[:] = [c * s + b for b, c in zip(self.b, self.c)]

    def dot(self) -> float:
        self.last_dot = float(sum(map(mul, self.a, self.b)))
        return self.last_dot

    def nstream(self) -> None:
        """BabelStream's optional sixth kernel: a += b + scalar * c."""
        s = self.scalar
        self.a[:] = [a + (b + s * c) for a, b, c in zip(self.a, self.b, self.c)]

    def run_kernel(self, traffic: KernelTraffic) -> None:
        getattr(self, traffic.name.lower())()

    def run_all(self, repetitions: int = 1) -> None:
        """One BabelStream outer iteration: all five kernels in order."""
        if repetitions < 1:
            raise BenchmarkConfigError(f"repetitions must be >= 1: {repetitions}")
        for _ in range(repetitions):
            for kernel in ALL_KERNELS:
                self.run_kernel(kernel)

    # -- validation --------------------------------------------------------
    def expected_values(self, repetitions: int) -> tuple[float, float, float, float]:
        """Scalar-evolution of a, b, c and the dot value (upstream check)."""
        a, b, c, s = START_A, START_B, START_C, START_SCALAR
        for _ in range(repetitions):
            c = a           # copy
            b = s * c       # mul
            c = a + b       # add
            a = b + s * c   # triad
        return a, b, c, a * b * self.n

    def check_solution(self, repetitions: int, rtol: float = 1e-8) -> bool:
        """Replicates BabelStream's epsilon check against the evolution."""
        exp_a, exp_b, exp_c, exp_dot = self.expected_values(repetitions)
        ok = all(
            sum(abs(v - exp) for v in values) / self.n < abs(exp) * rtol + 1e-12
            for values, exp in ((self.a, exp_a), (self.b, exp_b), (self.c, exp_c))
        )
        if self.last_dot is not None:
            ok = ok and abs(self.last_dot - exp_dot) <= abs(exp_dot) * 1e-6
        return ok


@cache
def validate_kernels() -> None:
    """Run every kernel once on a 1,024-element array and raise if
    BabelStream's solution check fails.

    The check is a pure function of constants, so one passing run per
    process stands for every later call.
    """
    arrays = StreamArrays(1024)
    arrays.run_all(repetitions=1)
    arrays.dot()
    if not arrays.check_solution(repetitions=1):
        raise BenchmarkConfigError("BabelStream validation failed")
