"""Aggregated measurement statistics (the "mean +- std over 100 runs")."""

from __future__ import annotations

from .._dataclass import dataclass
from ..errors import BenchmarkConfigError
from ..sim.random import sample_mean, sample_std


@dataclass(frozen=True)
class Statistic:
    """Mean and standard deviation of a repeated measurement."""

    mean: float
    std: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise BenchmarkConfigError(f"sample count must be >= 1: {self.n}")
        if self.std < 0:
            raise BenchmarkConfigError(f"negative std: {self.std}")

    @classmethod
    def from_samples(cls, samples) -> "Statistic":
        """numpy's ``mean()`` and ``std(ddof=1)`` of a 1-D sequence."""
        try:
            values = [float(v) for v in samples]
        except TypeError:  # a 0-d array, or rows that are sequences
            values = []
        if not values or getattr(samples, "ndim", 1) != 1:
            raise BenchmarkConfigError("from_samples needs a non-empty 1-D array")
        return cls(
            mean=sample_mean(values), std=sample_std(values), n=len(values)
        )

    def scaled(self, factor: float) -> "Statistic":
        """Unit conversion (e.g. seconds -> microseconds)."""
        return Statistic(self.mean * factor, self.std * abs(factor), self.n)

    def format(self, digits: int = 2) -> str:
        """The paper's cell format: ``12.36 +- 0.16``."""
        return f"{self.mean:.{digits}f} ± {self.std:.{digits}f}"

    def relative_std(self) -> float:
        """Coefficient of variation (0 for a zero mean)."""
        return self.std / self.mean if self.mean else 0.0
