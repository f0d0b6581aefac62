"""OpenMetrics (Prometheus text) rendering of a run's live state.

The ``/metrics`` endpoint of the status server — and, eventually, the
ROADMAP-1 ``repro serve`` daemon — speaks the Prometheus exposition
format: ``# HELP`` / ``# TYPE`` comment pairs followed by sample lines,
terminated by ``# EOF``.  Two sections are rendered:

* **run gauges** from a :meth:`~repro.obs.live.LiveAggregator.snapshot`
  (cells planned/done/degraded, supervisor recovery tallies, ETA,
  engine events/sec) — always present when the status server is up;
* **instrument metrics** from the active
  :class:`~repro.obs.metrics.MetricsRegistry` snapshot — counters
  render as Prometheus counters (``_total`` suffix), gauges as gauges,
  histograms as cumulative-bucket histograms with ``_sum``/``_count``.
  The HELP text reuses the :data:`~repro.obs.metrics.DECLARED_COUNTERS`
  taxonomy so every declared instrument carries a stable description
  even at zero.

Empty histograms render as zero-count series (buckets, sum 0, count 0)
— never a fabricated quantile; the PR 3 rule that an empty histogram
has ``None`` quantiles carries over as "no value, not 0.0".
"""

from __future__ import annotations

import math
from typing import Optional

from .metrics import DECLARED_COUNTERS

#: every exported family is prefixed so a shared Prometheus server can
#: namespace us away from other jobs
PREFIX = "repro"

#: HELP text per declared-counter namespace; the specific instrument's
#: dotted name is appended, so `mpisim.send.eager` reads
#: "mpisim subsystem counter: mpisim.send.eager"
_NAMESPACE_HELP = {
    "mpisim": "MPI simulation counter",
    "netsim": "network simulation counter",
    "gpurt": "GPU runtime counter",
    "faults": "fault injection counter",
    "study": "study cell counter",
    "cache": "persistent cell-cache counter",
    "supervisor": "worker supervision counter (advisory)",
}


def metric_name(dotted: str, suffix: str = "") -> str:
    """``mpisim.send.eager`` -> ``repro_mpisim_send_eager<suffix>``."""
    return f"{PREFIX}_{dotted.replace('.', '_')}{suffix}"


def help_text(dotted: str) -> str:
    namespace = dotted.split(".", 1)[0]
    family = _NAMESPACE_HELP.get(namespace, "instrument")
    return f"{family}: {dotted}"


def _sample(value) -> str:
    """One sample value, Prometheus-style (no None, no inf surprises)."""
    if value is None:
        return "0"
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        return repr(value)
    return str(value)


def _family(lines: list[str], name: str, kind: str, help_: str) -> None:
    lines.append(f"# HELP {name} {help_}")
    lines.append(f"# TYPE {name} {kind}")


def _render_run_section(lines: list[str], snapshot: dict) -> None:
    cells = snapshot.get("cells", {})
    supervisor = snapshot.get("supervisor", {})
    gauges = (
        ("run_cells_planned", "Benchmark cells planned for this run",
         cells.get("total", 0)),
        ("run_cells_done", "Cells that reached a terminal state",
         cells.get("done", 0)),
        ("run_cells_completed", "Cells completed cleanly",
         cells.get("completed", 0)),
        ("run_cells_degraded", "Cells degraded to the —† marker",
         cells.get("degraded", 0)),
        ("run_cells_running", "Cells currently executing",
         cells.get("running", 0)),
        ("run_cache_hits", "Cells served from the persistent cell cache",
         cells.get("cache_hits", 0)),
        ("run_supervisor_retries", "Cell dispatch retries after crashes",
         supervisor.get("retries", 0)),
        ("run_worker_crashes", "Worker processes lost mid-cell",
         supervisor.get("worker_crashes", 0)),
        ("run_pool_rebuilds", "Worker pool rebuilds after breaks",
         supervisor.get("pool_rebuilds", 0)),
        ("run_jobs", "Resolved worker count for this run",
         snapshot.get("jobs", 1)),
    )
    for stem, help_, value in gauges:
        name = f"{PREFIX}_{stem}"
        _family(lines, name, "gauge", help_)
        lines.append(f"{name} {_sample(value)}")
    eta = snapshot.get("eta_seconds")
    name = f"{PREFIX}_run_eta_seconds"
    _family(lines, name, "gauge",
            "Estimated seconds to completion (absent before the first "
            "completed cell)")
    if eta is not None:
        lines.append(f"{name} {_sample(eta)}")
    rate = snapshot.get("events_per_second")
    name = f"{PREFIX}_run_events_per_second"
    _family(lines, name, "gauge",
            "Engine events per host second (requires --profile)")
    if rate is not None:
        lines.append(f"{name} {_sample(rate)}")
    name = f"{PREFIX}_run_state"
    _family(lines, name, "gauge", "1 while the run is live, 0 once done")
    lines.append(
        f"{name} {0 if snapshot.get('state') == 'done' else 1}"
    )


def _render_histogram(lines: list[str], dotted: str, entry: dict) -> None:
    name = metric_name(dotted)
    _family(lines, name, "histogram", help_text(dotted))
    buckets = entry.get("buckets", {})
    cumulative = 0
    for key, count in buckets.items():
        if key == "overflow":
            continue
        cumulative += count
        bound = key.removeprefix("le_")
        lines.append(f'{name}_bucket{{le="{bound}"}} {cumulative}')
    cumulative += buckets.get("overflow", 0)
    lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
    count = entry.get("count", 0)
    mean = entry.get("mean")
    total = mean * count if (count and mean is not None) else 0.0
    lines.append(f"{name}_sum {_sample(total)}")
    lines.append(f"{name}_count {count}")


def _render_instruments(lines: list[str], instruments: dict) -> None:
    #: declared-but-silent counters still render (at zero) so scrapes
    #: see the whole taxonomy from the first sample on
    seen = set()
    for dotted in DECLARED_COUNTERS:
        entry = instruments.get(dotted, {"type": "counter", "value": 0})
        seen.add(dotted)
        name = metric_name(dotted, "_total")
        _family(lines, name, "counter", help_text(dotted))
        lines.append(f"{name} {_sample(entry.get('value', 0))}")
    for dotted in sorted(instruments):
        if dotted in seen:
            continue
        entry = instruments[dotted]
        kind = entry.get("type")
        if kind == "counter":
            name = metric_name(dotted, "_total")
            _family(lines, name, "counter", help_text(dotted))
            lines.append(f"{name} {_sample(entry.get('value', 0))}")
        elif kind == "gauge":
            name = metric_name(dotted)
            _family(lines, name, "gauge", help_text(dotted))
            lines.append(f"{name} {_sample(entry.get('value', 0))}")
        elif kind == "histogram":
            _render_histogram(lines, dotted, entry)


def render_openmetrics(
    snapshot: dict,
    instruments: Optional[dict] = None,
) -> str:
    """The full exposition: run gauges + instrument families + ``# EOF``.

    ``snapshot`` is a :meth:`LiveAggregator.snapshot` dict;
    ``instruments`` is a :meth:`MetricsRegistry.snapshot` dict (or
    ``None`` when observability is off — the declared-counter taxonomy
    still renders, at zero).
    """
    lines: list[str] = []
    _render_run_section(lines, snapshot)
    _render_instruments(lines, instruments or {})
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


__all__ = [
    "PREFIX",
    "metric_name",
    "help_text",
    "render_openmetrics",
]
