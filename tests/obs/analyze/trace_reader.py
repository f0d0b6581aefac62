"""Chrome ``trace_event`` JSON read back into typed spans, and the
span-vs-counter cross-check — test helpers beside :mod:`.scan_oracle`.

:func:`repro.obs.export.chrome_trace` writes traces for humans (load
in Perfetto); :class:`TraceDocument` parses one back — a trace file or
the in-memory dict — into :class:`~repro.obs.analyze.ReadSpan` /
:class:`ReadInstant` records with the original categories, timelines
(simulated vs host wall-time) and second-denominated timestamps, so
tests can hold the exporter to a lossless round trip and feed recorded
traces to the attribution.

Every event the exporter can write is reconstructible:

* ``ph: "X"`` complete events → finished :class:`ReadSpan`;
* ``ph: "B"`` begin events (spans still open at export) → unfinished
  :class:`ReadSpan` with ``end = None``;
* ``ph: "i"`` instants → :class:`ReadInstant`;
* ``ph: "M"`` metadata → the process/lane name tables.

Anything structurally off — missing required keys, an unknown phase, a
``tid`` with no lane — raises
:class:`~repro.errors.TraceAnalysisError` rather than silently skipping
records.

:func:`cross_check_counters` compares the span multiplicities of a
trace with the counters of the same run's metrics snapshot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import TraceAnalysisError
from repro.obs.analyze import ReadSpan
from repro.obs.export import PID_SIM, PID_WALL

_US = 1e-6


@dataclass(frozen=True)
class ReadInstant:
    """One instant event read back from a trace."""

    name: str
    category: str
    time: float
    args: dict[str, Any] = field(default_factory=dict)


@dataclass
class TraceDocument:
    """A fully parsed trace: spans, instants and the name tables."""

    spans: list[ReadSpan] = field(default_factory=list)
    instants: list[ReadInstant] = field(default_factory=list)
    #: pid -> timeline label ("simulated time", "host wall time")
    processes: dict[int, str] = field(default_factory=dict)
    #: (pid, tid) -> category lane name
    lanes: dict[tuple[int, int], str] = field(default_factory=dict)
    recorded: int = 0
    dropped: int = 0

    # -- construction ------------------------------------------------------
    @classmethod
    def from_dict(cls, doc: dict) -> "TraceDocument":
        if not isinstance(doc, dict) or "traceEvents" not in doc:
            raise TraceAnalysisError(
                "not a Chrome trace_event document (no 'traceEvents' key)"
            )
        events = doc["traceEvents"]
        if not isinstance(events, list):
            raise TraceAnalysisError("'traceEvents' must be a list")
        other = doc.get("otherData", {})
        out = cls(
            recorded=int(other.get("recorded", 0)),
            dropped=int(other.get("dropped", 0)),
        )
        for event in events:
            out._ingest(event)
        return out

    @classmethod
    def load(cls, path: str) -> "TraceDocument":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise TraceAnalysisError(f"cannot read trace {path}: {exc}") from exc
        return cls.from_dict(doc)

    def _require(self, event: dict, keys: Iterable[str]) -> None:
        missing = [k for k in keys if k not in event]
        if missing:
            raise TraceAnalysisError(
                f"trace event {event.get('name', '?')!r} missing keys "
                f"{missing} (got {sorted(event)})"
            )

    def _timeline(self, pid: int) -> str:
        if pid == PID_SIM:
            return "sim"
        if pid == PID_WALL:
            return "wall"
        raise TraceAnalysisError(f"unknown trace pid: {pid}")

    def _ingest(self, event: dict) -> None:
        if not isinstance(event, dict):
            raise TraceAnalysisError(f"trace event is not an object: {event!r}")
        ph = event.get("ph")
        if ph == "M":
            self._require(event, ("name", "pid", "tid", "args"))
            label = event["args"].get("name", "")
            if event["name"] == "process_name":
                self.processes[event["pid"]] = label
            elif event["name"] == "thread_name":
                self.lanes[(event["pid"], event["tid"])] = label
            else:
                raise TraceAnalysisError(
                    f"unknown metadata event {event['name']!r}"
                )
            return
        if ph == "X":
            self._require(event, ("name", "cat", "ts", "dur", "pid", "tid"))
            args = dict(event.get("args", {}))
            args.pop("wall_ms", None)  # exporter-added annotation
            self.spans.append(ReadSpan(
                name=event["name"],
                category=event["cat"],
                timeline=self._timeline(event["pid"]),
                begin=event["ts"] * _US,
                end=(event["ts"] + event["dur"]) * _US,
                args=args,
            ))
            return
        if ph == "B":
            self._require(event, ("name", "cat", "ts", "pid", "tid"))
            args = dict(event.get("args", {}))
            args.pop("unfinished", None)
            self.spans.append(ReadSpan(
                name=event["name"],
                category=event["cat"],
                timeline=self._timeline(event["pid"]),
                begin=event["ts"] * _US,
                end=None,
                args=args,
            ))
            return
        if ph == "i":
            self._require(event, ("name", "cat", "ts", "pid", "tid"))
            self.instants.append(ReadInstant(
                name=event["name"],
                category=event["cat"],
                time=event["ts"] * _US,
                args=dict(event.get("args", {})),
            ))
            return
        raise TraceAnalysisError(f"unknown trace phase {ph!r}")

    # -- queries -----------------------------------------------------------
    def sim_spans(self) -> list[ReadSpan]:
        return [s for s in self.spans if s.timeline == "sim"]

    def wall_spans(self) -> list[ReadSpan]:
        return [s for s in self.spans if s.timeline == "wall"]

    def by_category(self, category: str) -> list[ReadSpan]:
        return [s for s in self.spans if s.category == category]

    def categories(self) -> set[str]:
        return {s.category for s in self.spans} | {
            i.category for i in self.instants
        }

    def cell_windows(self, category: str = "benchmarks") -> list[ReadSpan]:
        """The benchmark *cell windows*: sim-time spans the instrumented
        benchmarks wrap around their timed section (``osu.pingpong``,
        ``cs.memcpy``), in begin order."""
        windows = [
            s for s in self.sim_spans()
            if s.category == category and s.finished
        ]
        return sorted(windows, key=lambda s: s.begin)

    def span_names(self) -> dict[str, int]:
        """Multiplicity of every span name (the cross-check currency)."""
        out: dict[str, int] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + 1
        return out


#: span name (exact or ``prefix:``) -> counter that must agree with its
#: multiplicity in a lossless trace
SPAN_COUNTER_MAP: dict[str, str] = {
    "send.eager": "mpisim.send.eager",
    "send.rendezvous": "mpisim.send.rendezvous",
    "xfer:": "netsim.link.reserved",
    "launch:": "gpurt.kernel.launched",
    "exec:": "gpurt.kernel.completed",
    "dma:": "gpurt.dma.issued",
}


def cross_check_counters(
    span_names: dict[str, int],
    snapshot: dict,
    dropped: int = 0,
) -> list[str]:
    """Compare span multiplicities against the metrics snapshot.

    Returns human-readable findings (empty = consistent).  A trace with
    dropped records cannot be checked exactly, so only counters the
    trace *over*-reports are flagged then.
    """
    findings: list[str] = []
    for key, counter in SPAN_COUNTER_MAP.items():
        if key.endswith(":"):
            observed = sum(
                n for name, n in span_names.items() if name.startswith(key)
            )
        else:
            observed = span_names.get(key, 0)
        entry = snapshot.get(counter)
        if entry is None:
            if observed:
                findings.append(
                    f"{observed} {key!r} span(s) but counter {counter} "
                    "is absent from the snapshot"
                )
            continue
        expected = entry.get("value", 0)
        if observed == expected:
            continue
        if dropped and observed < expected:
            continue  # the ring dropped records; undercount is expected
        findings.append(
            f"span/counter mismatch: {observed} {key!r} span(s) vs "
            f"{counter} = {expected}"
        )
    return findings
