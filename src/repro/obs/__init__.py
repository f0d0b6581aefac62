"""Unified observability: spans, metrics, sim profiler, exporters.

The layer has four pieces (see DESIGN.md §5c):

* :mod:`repro.obs.span` — nested :class:`Span`/:class:`Tracer` in both
  simulated and host wall-time over a bounded ring buffer;
* :mod:`repro.obs.metrics` — namespaced :class:`Counter` /
  :class:`Gauge` / :class:`Histogram` instruments with no-op stubs;
* :mod:`repro.obs.profiler` — :class:`SimProfiler`, the engine hook
  attributing events and host time per subsystem;
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON, metrics JSON
  and text summaries.

Everything activates through :mod:`repro.obs.runtime`: the CLI builds
an :class:`ObsContext` for ``--trace-out`` / ``--metrics-out`` /
``--profile`` and instrumented call sites read ``runtime.current()``.
With no context active, every instrument is a shared no-op and the run
stays byte-identical to an uninstrumented build.

*Run* telemetry (DESIGN.md §5h) is the sibling activation chain in
:mod:`repro.obs.live`: ``--events-out`` builds a :class:`RunTelemetry`
session that records each cell's lifecycle in the structured event log
(:mod:`repro.obs.events`); the run manifest (:mod:`repro.obs.manifest`)
records the session's provenance in the artifact bundle.  The two
chains are deliberately independent — telemetry never re-keys the cell
cache and never touches stdout.

The persistent *run ledger* (:mod:`repro.obs.ledger`, DESIGN.md §5i)
sits one level above both: every CLI invocation records its
manifest, metrics, outcome and attribution under a content-addressed
run id, making runs comparable across time via ``repro runs``.
"""

from .events import (
    EVENT_KINDS,
    EVENT_SCHEMA,
    EventLog,
    check_invariants,
    read_events,
)
from .export import (
    EXECUTION_NAMESPACES,
    chrome_trace,
    metrics_snapshot,
    simulation_metrics,
    text_summary,
    write_chrome_trace,
    write_metrics,
)
from .ledger import (
    LEDGER_SCHEMA,
    LedgerEntry,
    LedgerRun,
    RunLedger,
    default_ledger_dir,
    record_study_run,
    study_metrics_doc,
    study_outcome_doc,
)
from .live import NULL_TELEMETRY, NullRunTelemetry, RunTelemetry
from .manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    config_fingerprint,
    render_manifest,
    write_manifest,
)
from .metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
)
from .profiler import ProfileReport, SimProfiler, SubsystemStats
from .runtime import (
    NULL_CONTEXT,
    ObsContext,
    activate,
    count,
    current,
    observability,
    observe,
)
from .span import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    SpanRecord,
    Tracer,
)

__all__ = [
    "Span",
    "SpanRecord",
    "Tracer",
    "NullTracer",
    "NULL_SPAN",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "DEFAULT_BUCKETS",
    "SimProfiler",
    "SubsystemStats",
    "ProfileReport",
    "ObsContext",
    "NULL_CONTEXT",
    "current",
    "activate",
    "observability",
    "count",
    "observe",
    "chrome_trace",
    "metrics_snapshot",
    "simulation_metrics",
    "EXECUTION_NAMESPACES",
    "text_summary",
    "write_chrome_trace",
    "write_metrics",
    "EventLog",
    "EVENT_SCHEMA",
    "EVENT_KINDS",
    "read_events",
    "check_invariants",
    "RunTelemetry",
    "NullRunTelemetry",
    "NULL_TELEMETRY",
    "MANIFEST_SCHEMA",
    "config_fingerprint",
    "build_manifest",
    "render_manifest",
    "write_manifest",
    "LEDGER_SCHEMA",
    "LedgerEntry",
    "LedgerRun",
    "RunLedger",
    "default_ledger_dir",
    "study_metrics_doc",
    "study_outcome_doc",
    "record_study_run",
]
