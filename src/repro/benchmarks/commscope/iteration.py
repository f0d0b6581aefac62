"""google/benchmark-style adaptive iteration control.

Comm|Scope delegates "how many times do I run this op" to the benchmark
support library [10]: it runs a probe batch, estimates the per-iteration
time, and grows the iteration count (by a 1.4x multiplier, capped at
10x per step) until the measured batch covers the minimum benchmark
time (0.5 s by default), then reports the per-iteration mean.
"""

from __future__ import annotations

from dataclasses import field

from ..._dataclass import dataclass
from ...errors import BenchmarkConfigError

#: google/benchmark defaults
MIN_BENCH_TIME = 0.5
MAX_ITERATIONS = 1_000_000_000
GROWTH_MULTIPLIER = 1.4
MAX_GROWTH_PER_STEP = 10.0


@dataclass
class IterationController:
    """Decides iteration counts the way google/benchmark does."""

    min_time: float = MIN_BENCH_TIME
    max_iterations: int = MAX_ITERATIONS
    #: (iterations, batch_seconds) of every batch attempted
    history: list[tuple[int, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.min_time <= 0:
            raise BenchmarkConfigError(f"min_time must be positive: {self.min_time}")

    def record(self, iterations: int, batch_seconds: float) -> None:
        if iterations < 1:
            raise BenchmarkConfigError(f"batch iterations must be >= 1: {iterations}")
        if batch_seconds < 0:
            raise BenchmarkConfigError(f"negative batch time: {batch_seconds}")
        self.history.append((iterations, batch_seconds))

    def is_done(self) -> bool:
        if not self.history:
            return False
        iterations, seconds = self.history[-1]
        return seconds >= self.min_time or iterations >= self.max_iterations

    def next_iterations(self) -> int:
        """Iteration count for the next batch."""
        if not self.history:
            return 1
        iterations, seconds = self.history[-1]
        if seconds <= 0:
            multiplier = MAX_GROWTH_PER_STEP
        else:
            # aim past min_time with the safety multiplier, bounded growth
            multiplier = min(
                MAX_GROWTH_PER_STEP,
                max(GROWTH_MULTIPLIER, GROWTH_MULTIPLIER * self.min_time / seconds),
            )
        return min(self.max_iterations, max(iterations + 1, int(iterations * multiplier)))

    def final(self) -> tuple[int, float]:
        """(iterations, per-iteration seconds) of the reporting batch."""
        if not self.history:
            raise BenchmarkConfigError("no batches recorded")
        iterations, seconds = self.history[-1]
        return iterations, seconds / iterations


def run_adaptive(op_seconds: float, controller: IterationController | None = None):
    """Drive a controller against a fixed-cost operation.

    Returns ``(controller, per_iteration_seconds)``.  Used by the tests
    and by the Comm|Scope runners to decide realistic iteration counts
    without spinning the simulated clock through half a wall-second of
    1.5 us launches one event at a time.
    """
    if op_seconds <= 0:
        raise BenchmarkConfigError(f"op cost must be positive: {op_seconds}")
    ctrl = controller or IterationController()
    while not ctrl.is_done():
        n = ctrl.next_iterations()
        ctrl.record(n, n * op_seconds)
    return ctrl, ctrl.final()[1]
