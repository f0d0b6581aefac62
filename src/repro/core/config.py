"""The knobs of one study pass, validated before anything runs.

:class:`StudyConfig` lives apart from :mod:`repro.core.study` so that
validating a command line, fingerprinting a config or recording a run
that reads no benchmark cell loads neither numpy nor the model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import BenchmarkConfigError
from ..faults.models import FaultPlan


@dataclass(frozen=True)
class StudyConfig:
    """Knobs for one study pass.

    Every parameter is validated here, at construction — a bad value
    raises :class:`~repro.errors.ReproError` immediately with a clear
    message instead of failing hundreds of events deep inside a sweep.
    """

    runs: int = 100
    seed: int = 20230612
    exact: bool = False
    #: array size for the CPU BabelStream sweep (None = paper default)
    cpu_array_bytes: int | None = None
    #: array size for the device BabelStream run (None = paper's 1 GB)
    gpu_array_bytes: int | None = None
    #: fault plan injected into the study (None or a null plan = clean)
    faults: FaultPlan | None = None
    #: extra attempts per benchmark cell before it degrades
    max_retries: int = 2
    #: per-cell simulation event budget (watchdog); None = unbounded
    cell_max_events: int | None = 5_000_000
    #: explicit osu_latency sweep sizes (None = upstream power-of-two set)
    latency_sweep_sizes: tuple[int, ...] | None = None
    #: worker processes for benchmark cells (1 = serial, 0 = all cores)
    jobs: int = 1
    #: serve unchanged benchmark cells from the persistent result cache
    cache: bool = False
    #: cache directory override (None = ``~/.cache/repro``)
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.runs, int) or self.runs < 1:
            raise BenchmarkConfigError(f"runs must be an int >= 1: {self.runs!r}")
        if (
            not isinstance(self.jobs, int)
            or isinstance(self.jobs, bool)
            or self.jobs < 0
        ):
            raise BenchmarkConfigError(
                f"jobs must be an int >= 0 (0 = all cores): {self.jobs!r}"
            )
        if not isinstance(self.seed, int):
            raise BenchmarkConfigError(f"seed must be an int: {self.seed!r}")
        for name in ("cpu_array_bytes", "gpu_array_bytes"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int) or value <= 0):
                raise BenchmarkConfigError(
                    f"{name} must be a positive int or None: {value!r}"
                )
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise BenchmarkConfigError(
                f"max_retries must be an int >= 0: {self.max_retries!r}"
            )
        if self.cell_max_events is not None and (
            not isinstance(self.cell_max_events, int) or self.cell_max_events < 1
        ):
            raise BenchmarkConfigError(
                f"cell_max_events must be a positive int or None: "
                f"{self.cell_max_events!r}"
            )
        if not isinstance(self.cache, bool):
            raise BenchmarkConfigError(f"cache must be a bool: {self.cache!r}")
        if self.cache_dir is not None and not isinstance(self.cache_dir, str):
            raise BenchmarkConfigError(
                f"cache_dir must be a str or None: {self.cache_dir!r}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise BenchmarkConfigError(
                f"faults must be a FaultPlan or None: {self.faults!r}"
            )
        sizes = self.latency_sweep_sizes
        if sizes is not None:
            if len(sizes) == 0:
                raise BenchmarkConfigError("latency_sweep_sizes must not be empty")
            for size in sizes:
                if not isinstance(size, int) or size < 0:
                    raise BenchmarkConfigError(
                        f"latency_sweep_sizes entries must be ints >= 0: {size!r}"
                    )
            if any(b <= a for a, b in zip(sizes, sizes[1:])):
                raise BenchmarkConfigError(
                    "latency_sweep_sizes must be strictly increasing: "
                    f"{sizes!r}"
                )

    @property
    def faults_armed(self) -> bool:
        """Whether a non-null fault plan is armed (a study then has a
        fault injector and reports its resilience summary)."""
        return self.faults is not None and not self.faults.is_null()

    def cell_cache(self):
        """A new :class:`~repro.core.cellcache.CellCache` on
        :attr:`cache_dir` when :attr:`cache` is armed, else ``None``."""
        if not self.cache:
            return None
        from .cellcache import CellCache

        return CellCache(self.cache_dir)


def study_state(run) -> tuple:
    """``(config, cell results, resilience log, cell cache)`` of a run.

    ``run`` is a :class:`~repro.core.study.Study`, or the
    :class:`StudyConfig` of a run whose targets read no cell, which
    reads as a fresh ``Study(config)`` would: no cell results, a clean
    resilience log and an untouched cache.
    """
    if isinstance(run, StudyConfig):
        from .resilience import ResilienceLog

        return run, {}, ResilienceLog(), run.cell_cache()
    return run.config, run.cell_results, run.resilience, run.scheduler.cache
