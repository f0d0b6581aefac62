"""Critical-path extraction and per-phase latency attribution.

Given the simulated-time spans recorded inside one benchmark *cell
window* (the ``benchmarks``-category span an instrumented benchmark
wraps around its timed section), this module answers the question the
paper keeps circling — *where does the latency actually go?* — by
decomposing the window into an exclusive, gap-free timeline:

* at every instant the **innermost** live span wins (latest begin, then
  shortest, then first recorded), so an ``xfer:<link>`` reservation
  inside a ``send.eager`` claims its own time and the remainder of the
  send attributes to the protocol phase;
* instants covered by no span at all become the ``overhead`` phase —
  the software o_send/o_recv costs and scheduling waits that the paper
  notes "obscure latency" for small messages.

Because the segments partition the window exactly, the phase times sum
to the cell's span total by construction (the property the regression
harness asserts).  For a serialised microbenchmark — a ping-pong, a
single memcpy — this exclusive timeline *is* the critical path.

Works on both live :class:`repro.obs.span.SpanRecord` objects and
:class:`ReadSpan` records; anything exposing ``name``/``category``/
``sim_begin``/``sim_end`` qualifies.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import field
from heapq import heappop, heappush
from typing import Any, Iterable, Optional, Sequence

from ..._dataclass import dataclass
from ...errors import TraceAnalysisError

#: the phase charged for time no span covers (software/protocol gaps)
OVERHEAD_PHASE = "overhead"

#: categories whose spans participate in attribution (the ``benchmarks``
#: window itself and wall-time ``study`` cells are containers, not phases)
_PHASE_CATEGORIES = frozenset({"mpisim", "netsim", "gpurt"})


@dataclass(frozen=True)
class ReadSpan:
    """One span as attribution reads it (times in seconds)."""

    name: str
    category: str
    #: ``"sim"`` (simulated clock) or ``"wall"`` (host, origin-relative)
    timeline: str
    begin: float
    #: ``None`` for a span that was still open when it was read
    end: Optional[float]
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.begin

    @property
    def sim_begin(self) -> Optional[float]:
        """Simulated begin time, mirroring ``SpanRecord`` (None on wall)."""
        return self.begin if self.timeline == "sim" else None

    @property
    def sim_end(self) -> Optional[float]:
        return self.end if self.timeline == "sim" else None


def phase_of(name: str, category: str) -> str:
    """Map a span to its attribution phase.

    The mapping mirrors the instrumentation taxonomy: MPI protocol
    spans by name (``send.eager`` → *eager*, the RTS/CTS handshake →
    *match*, ``send.rendezvous`` → *rendezvous*), prefixed device spans
    by stage (``launch:``/``queue:``/``exec:``/``dma:``), link
    reservations (``xfer:``) → *link*.
    """
    if category == "mpisim":
        if name == "send.eager":
            return "eager"
        if name == "rendezvous.handshake":
            return "match"
        if name == "send.rendezvous":
            return "rendezvous"
        return "mpi"
    if category == "netsim":
        return "link"
    if category == "gpurt":
        prefix = name.split(":", 1)[0]
        if prefix in ("launch", "queue", "exec", "dma"):
            return prefix
        return "gpu"
    return "other"


@dataclass(frozen=True)
class Segment:
    """One exclusive slice of the cell timeline."""

    begin: float
    end: float
    phase: str
    #: span name that owned the slice; ``None`` for overhead gaps
    span: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.begin


@dataclass
class PhaseAttribution:
    """Critical-path decomposition of one benchmark cell."""

    cell: str
    begin: float
    end: float
    segments: list[Segment] = field(default_factory=list)

    @property
    def total(self) -> float:
        return self.end - self.begin

    @property
    def phases(self) -> dict[str, float]:
        """Exclusive seconds per phase; sums to :attr:`total` exactly."""
        out: dict[str, float] = {}
        for seg in self.segments:
            out[seg.phase] = out.get(seg.phase, 0.0) + seg.duration
        return out

    def phase_shares(self) -> dict[str, float]:
        total = self.total
        if total <= 0.0:
            return {phase: 0.0 for phase in self.phases}
        return {phase: t / total for phase, t in self.phases.items()}

    def to_json(self) -> dict:
        return {
            "cell": self.cell,
            "total_us": self.total * 1e6,
            "phases_us": {
                phase: seconds * 1e6
                for phase, seconds in sorted(self.phases.items())
            },
        }

    def to_detailed_json(self) -> dict:
        """:meth:`to_json` plus per-span microseconds within each phase
        (``spans_us``) — the drill-down level the run ledger persists so
        ``repro runs flame`` can break a phase open after the fact.
        Overhead gaps carry no span name and fold into ``(uncovered)``.
        """
        spans: dict[str, dict[str, float]] = {}
        for seg in self.segments:
            per = spans.setdefault(seg.phase, {})
            name = seg.span if seg.span is not None else "(uncovered)"
            per[name] = per.get(name, 0.0) + seg.duration * 1e6
        doc = self.to_json()
        doc["spans_us"] = {
            phase: dict(sorted(per.items()))
            for phase, per in sorted(spans.items())
        }
        return doc


def _sim_phase_spans(spans: Iterable[Any]) -> list[Any]:
    out = []
    for span in spans:
        if getattr(span, "category", None) not in _PHASE_CATEGORIES:
            continue
        if span.sim_begin is None or span.sim_end is None:
            continue
        out.append(span)
    return out


class _PhaseTimeline:
    """The phase spans of one group (a cell), sorted by begin, swept
    per window.

    Every simulation starts its clock near zero, so windows from the
    separate simulations of one cell overlap on one simulated timeline
    and each window clips a share of the cell's spans.  :meth:`segments`
    therefore sweeps each window once: a linear filter over the spans
    that begin before the window ends, then O(k log k) for the k spans
    overlapping it, instead of rescanning every span for every
    elementary interval.
    """

    def __init__(self, spans: Iterable[Any]) -> None:
        phase_spans = _sim_phase_spans(spans)
        # the record index breaks the heap's ties: first recorded wins
        self._spans = sorted(
            (
                (span.sim_begin, span.sim_end, index,
                 phase_of(span.name, span.category), span.name)
                for index, span in enumerate(phase_spans)
            ),
            key=lambda entry: entry[0],
        )
        self._begins = [entry[0] for entry in self._spans]

    def segments(
        self, window_begin: float, window_end: float
    ) -> list[Segment]:
        """Exclusive segments of ``[window_begin, window_end]``."""
        if window_end < window_begin:
            raise TraceAnalysisError(
                f"cell window ends before it begins "
                f"({window_end} < {window_begin})"
            )
        clipped = []
        cuts = {window_begin, window_end}
        for begin, end, index, phase, name in self._spans[
            :bisect_left(self._begins, window_end)
        ]:
            begin = max(begin, window_begin)
            end = min(end, window_end)
            if end > begin:  # zero-length spans attribute no time
                clipped.append((begin, end, index, phase, name))
                cuts.add(begin)
                cuts.add(end)
        ordered = sorted(cuts)
        # live spans keyed so the heap top is the innermost: latest
        # begin, then earliest end (shortest), then first recorded
        live: list[tuple] = []
        opened = 0
        segments: list[Segment] = []
        owner = start = None
        for a in ordered[:-1]:  # the elementary interval [a, next cut)
            while opened < len(clipped) and clipped[opened][0] <= a:
                begin, end, index, phase, name = clipped[opened]
                heappush(live, (-begin, end, index, phase, name))
                opened += 1
            while live and live[0][1] <= a:
                heappop(live)
            here = live[0][3:] if live else (OVERHEAD_PHASE, None)
            if here != owner:
                if owner is not None:
                    segments.append(Segment(start, a, *owner))
                owner, start = here, a
        if owner is not None:
            segments.append(Segment(start, ordered[-1], *owner))
        return segments


def attribute_window(
    spans: Iterable[Any],
    window_begin: float,
    window_end: float,
    cell: str = "cell",
) -> PhaseAttribution:
    """Decompose ``[window_begin, window_end]`` into exclusive segments.

    ``spans`` is any iterable of span-like records; only simulated-time
    spans of the phase categories participate, clipped to the window.
    """
    return PhaseAttribution(
        cell=cell, begin=window_begin, end=window_end,
        segments=_PhaseTimeline(spans).segments(window_begin, window_end),
    )


def attribute_cells(
    spans: Sequence[Any],
    windows: Sequence[Any] | None = None,
) -> list[PhaseAttribution]:
    """Attribute every benchmark cell window found in ``spans``.

    ``windows`` defaults to the finished simulated-time spans of the
    ``benchmarks`` category (one per instrumented timed section).
    Windows over the same range share one sweep; each attribution gets
    its own copy of the segments.
    """
    if windows is None:
        windows = [
            s for s in spans
            if getattr(s, "category", None) == "benchmarks"
            and s.sim_begin is not None and s.sim_end is not None
        ]
    timeline = _PhaseTimeline(spans)
    swept: dict[tuple[float, float], list[Segment]] = {}
    out = []
    for window in sorted(windows, key=lambda s: s.sim_begin):
        key = (window.sim_begin, window.sim_end)
        if key not in swept:
            swept[key] = timeline.segments(*key)
        out.append(PhaseAttribution(
            cell=window.name, begin=window.sim_begin, end=window.sim_end,
            segments=list(swept[key]),
        ))
    return out


def attributions_from_tracer(tracer) -> list[PhaseAttribution]:
    """Attribute every benchmark window a live tracer recorded, each
    over the spans of its own cell only.

    ``study`` spans are the only spans opened on the tracer's stack, so
    a cell's records are its depth-0 ``study`` span and the deeper
    records after it, up to the next depth-0 record.  Records outside
    any cell (the ``sweeps`` curves) form one more group, attributed
    after the cells, which come in the order they were recorded.
    """
    cells: list[list[Any]] = []
    loose: list[Any] = []
    group = loose
    for record in tracer.records():
        if record.depth == 0:
            if record.category == "study":
                group = []
                cells.append(group)
            else:
                group = loose
        group.append(record)
    return [
        attribution for spans in (*cells, loose)
        for attribution in attribute_cells(spans)
    ]
