"""Analysis over recorded observability artifacts.

* :mod:`repro.obs.analyze.critical_path` — exclusive per-phase latency
  attribution of each benchmark cell window;
* :mod:`repro.obs.analyze.baseline` — the ``repro.bench/v1`` metrics
  schema and its Welch-tested comparator (``repro runs diff``);
* :mod:`repro.obs.analyze.flamegraph` — text icicle rendering of the
  attribution (the ``repro runs flame`` drill-down);
* :mod:`repro.obs.analyze.report` — table rendering of metrics
  documents, comparisons and attributions.
"""

from .baseline import (
    BENCH_SCHEMA,
    BenchComparison,
    BenchRun,
    DEFAULT_ALPHA,
    DEFAULT_THRESHOLD,
    MetricComparison,
    MetricStat,
    TargetRecord,
    compare_metric,
    compare_runs,
)
from .critical_path import (
    OVERHEAD_PHASE,
    PhaseAttribution,
    ReadSpan,
    Segment,
    attribute_cells,
    attribute_window,
    attributions_from_tracer,
    phase_of,
)
from .flamegraph import render_flame
from .report import render_attribution, render_comparison, render_run

__all__ = [
    "ReadSpan",
    "PhaseAttribution",
    "Segment",
    "OVERHEAD_PHASE",
    "phase_of",
    "attribute_window",
    "attribute_cells",
    "attributions_from_tracer",
    "render_flame",
    "BENCH_SCHEMA",
    "DEFAULT_THRESHOLD",
    "DEFAULT_ALPHA",
    "MetricStat",
    "TargetRecord",
    "BenchRun",
    "MetricComparison",
    "BenchComparison",
    "compare_metric",
    "compare_runs",
    "render_run",
    "render_comparison",
    "render_attribution",
]
