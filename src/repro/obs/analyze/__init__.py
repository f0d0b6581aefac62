"""Analysis over recorded observability artifacts.

* :mod:`repro.obs.analyze.critical_path` — exclusive per-phase latency
  attribution of each benchmark cell window;
* :mod:`repro.obs.analyze.flamegraph` — text icicle rendering of the
  attribution (the ``repro runs flame`` drill-down);
* :mod:`repro.obs.analyze.report` — table rendering of attributions.

A name is imported from its module on first access, so loading the
package loads none of them.  A ``repro.bench/v1`` metrics document is
read by :class:`repro.checks.extract.MetricsSource`, and ``repro runs
diff`` judges two of them through :func:`repro.checks.evaluate.evaluate`.
"""

from ... import _lazy_exports

__all__, __getattr__ = _lazy_exports(__name__, {
    ".critical_path": (
        "ReadSpan",
        "PhaseAttribution",
        "Segment",
        "OVERHEAD_PHASE",
        "phase_of",
        "attribute_window",
        "attribute_cells",
        "attributions_from_tracer",
    ),
    ".flamegraph": ("render_flame",),
    ".report": ("render_attribution",),
})
