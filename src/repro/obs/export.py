"""Exporters: Chrome ``trace_event`` JSON, metrics JSON, text summary.

The Chrome trace format (loadable in ``chrome://tracing`` and Perfetto)
is a JSON object with a ``traceEvents`` list; we emit:

* complete events (``ph: "X"``) for finished spans, with microsecond
  ``ts``/``dur``;
* begin events (``ph: "B"``) for spans still open at export time,
  flagged ``args.unfinished`` so a crashed run's last open span is
  visible instead of silently vanishing.

Two timelines coexist: spans carrying simulated time render under the
``pid`` :data:`PID_SIM`; wall-time-only spans (study cells) under
:data:`PID_WALL`.  Categories map to ``tid`` lanes, named via metadata
events, so Perfetto shows one lane per subsystem.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from .span import SpanRecord, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from .profiler import SimProfiler

#: pid for the simulated-time timeline
PID_SIM = 1
#: pid for the host wall-time timeline
PID_WALL = 2


def _tid_table(tracer: Tracer) -> dict[str, int]:
    categories = sorted(
        {r.category for r in tracer.records()}
        | {r.category for r in tracer.open_spans()}
    )
    return {category: idx + 1 for idx, category in enumerate(categories)}


def _span_event(record: SpanRecord, origin: float, tids: dict[str, int]) -> dict:
    if record.sim_begin is not None and record.sim_end is not None:
        pid, ts = PID_SIM, record.sim_begin * 1e6
        dur = (record.sim_end - record.sim_begin) * 1e6
    else:
        pid, ts = PID_WALL, (record.wall_begin - origin) * 1e6
        dur = (record.wall_end - record.wall_begin) * 1e6
    args: dict[str, Any] = dict(record.attrs)
    if record.wall_end is not None:
        args["wall_ms"] = (record.wall_end - record.wall_begin) * 1e3
    return {
        "name": record.name,
        "cat": record.category,
        "ph": "X",
        "ts": ts,
        "dur": dur,
        "pid": pid,
        "tid": tids[record.category],
        "args": args,
    }


def _open_span_event(record: SpanRecord, origin: float,
                     tids: dict[str, int]) -> dict:
    if record.sim_begin is not None:
        pid, ts = PID_SIM, record.sim_begin * 1e6
    else:
        pid, ts = PID_WALL, (record.wall_begin - origin) * 1e6
    return {
        "name": record.name,
        "cat": record.category,
        "ph": "B",
        "ts": ts,
        "pid": pid,
        "tid": tids[record.category],
        "args": {**record.attrs, "unfinished": True},
    }


def chrome_trace(tracer: Tracer) -> dict:
    """The full trace as a Chrome ``trace_event`` JSON object."""
    tids = _tid_table(tracer)
    origin = tracer.wall_origin
    events: list[dict] = []
    for pid, label in ((PID_SIM, "simulated time"), (PID_WALL, "host wall time")):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "ts": 0, "args": {"name": label},
        })
        for category, tid in tids.items():
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "ts": 0, "args": {"name": category},
            })
    open_records = set(map(id, tracer.open_spans()))
    for record in tracer.records():
        if record.finished:
            events.append(_span_event(record, origin, tids))
        elif id(record) in open_records:
            events.append(_open_span_event(record, origin, tids))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "recorded": len(tracer),
            "dropped": tracer.dropped,
        },
    }


def write_chrome_trace(path: str, tracer: Tracer) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer), fh, indent=1, default=str)
        fh.write("\n")


def metrics_snapshot(registry) -> dict:
    """Flat metrics dict (already JSON-ready) with a tiny header."""
    return {
        "schema": "repro.metrics/v1",
        "instruments": registry.snapshot(),
    }


#: instrument namespaces that describe how a run *executed* — cache
#: traffic — rather than what it computed.  They are advisory like host
#: wall-times (DESIGN.md 5f): a warm run bumps ``cache.*`` while
#: producing byte-identical simulation results, so determinism
#: comparisons go through :func:`simulation_metrics` to exclude them.
EXECUTION_NAMESPACES = ("cache.",)


def simulation_metrics(snapshot: dict) -> dict:
    """A copy of a :func:`metrics_snapshot` without execution-layer
    instruments — the part of the taxonomy the determinism contract
    covers byte for byte."""
    return {
        **snapshot,
        "instruments": {
            name: entry
            for name, entry in snapshot.get("instruments", {}).items()
            if not name.startswith(EXECUTION_NAMESPACES)
        },
    }


def write_metrics(path: str, registry) -> None:
    with open(path, "w") as fh:
        json.dump(metrics_snapshot(registry), fh, indent=1, sort_keys=True)
        fh.write("\n")


def _fmt(value) -> str:
    """One numeric field for the text digest; absent values render
    as ``-`` (an empty histogram has ``None`` quantiles by the PR 3
    rule — never a fabricated 0.0, and never a formatting crash)."""
    if value is None:
        return "-"
    return f"{value:.3g}"


def text_summary(
    tracer: Tracer | None = None,
    registry=None,
    profiler: SimProfiler | None = None,
) -> str:
    """Human-readable digest of whatever observability data exists."""
    parts: list[str] = []
    if tracer is not None and tracer.enabled:
        finished = sum(1 for s in tracer.records() if s.finished)
        parts.append(
            f"trace: {len(tracer)} records ({finished} finished spans, "
            f"{len(tracer.open_spans())} open, {tracer.dropped} dropped)"
        )
    if registry is not None and getattr(registry, "enabled", False):
        snapshot = registry.snapshot()
        nonzero = [
            (name, entry) for name, entry in snapshot.items()
            if entry.get("value") or entry.get("count")
        ]
        parts.append(f"metrics: {len(snapshot)} instruments, "
                     f"{len(nonzero)} active")
        for name, entry in nonzero:
            if entry["type"] == "histogram":
                parts.append(
                    f"  {name}: n={entry.get('count', 0)} "
                    f"mean={_fmt(entry.get('mean'))} "
                    f"p95={_fmt(entry.get('p95'))}"
                )
            else:
                parts.append(f"  {name}: {entry['value']:g}")
    if profiler is not None:
        parts.append(profiler.render())
    return "\n".join(parts)
