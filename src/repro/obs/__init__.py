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

from .. import _lazy_exports

__all__, __getattr__ = _lazy_exports(__name__, {
    ".span": (
        "Span",
        "SpanRecord",
        "Tracer",
        "NullTracer",
        "NULL_SPAN",
        "NULL_TRACER",
    ),
    ".metrics": (
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "NullMetrics",
        "NULL_METRICS",
        "DEFAULT_BUCKETS",
    ),
    ".profiler": ("SimProfiler", "SubsystemStats", "ProfileReport"),
    ".runtime": (
        "ObsContext",
        "NULL_CONTEXT",
        "current",
        "activate",
        "observability",
        "count",
        "observe",
    ),
    ".export": (
        "chrome_trace",
        "metrics_snapshot",
        "simulation_metrics",
        "EXECUTION_NAMESPACES",
        "text_summary",
        "write_chrome_trace",
        "write_metrics",
    ),
    ".events": (
        "EventLog",
        "EVENT_SCHEMA",
        "EVENT_KINDS",
        "read_events",
        "check_invariants",
    ),
    ".live": ("RunTelemetry", "NullRunTelemetry", "NULL_TELEMETRY"),
    ".manifest": (
        "MANIFEST_SCHEMA",
        "config_fingerprint",
        "build_manifest",
        "render_manifest",
        "write_manifest",
    ),
    ".ledger": (
        "LEDGER_SCHEMA",
        "LedgerEntry",
        "LedgerRun",
        "RunLedger",
        "default_ledger_dir",
        "study_metrics_doc",
        "study_outcome_doc",
        "record_study_run",
    ),
})
