"""The original per-interval rescan, kept as the attribution oracle.

Before the sweep, ``attribute_window`` cut the window at every span
boundary and, for each elementary interval, rescanned every clipped span
to find the innermost one covering it.  That is quadratic in the number
of spans a window clips, but simple enough to be obviously right, so the
differential tests hold the sweep in :mod:`repro.obs.analyze.critical_path`
to exactly its segments.  The scan below is the original, unchanged.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.errors import TraceAnalysisError
from repro.obs.analyze.critical_path import (
    OVERHEAD_PHASE,
    PhaseAttribution,
    Segment,
    phase_of,
)

_PHASE_CATEGORIES = frozenset({"mpisim", "netsim", "gpurt"})


def _sim_phase_spans(spans: Iterable[Any]) -> list[Any]:
    out = []
    for span in spans:
        if getattr(span, "category", None) not in _PHASE_CATEGORIES:
            continue
        if span.sim_begin is None or span.sim_end is None:
            continue
        out.append(span)
    return out


def scan_window(
    spans: Iterable[Any],
    window_begin: float,
    window_end: float,
    cell: str = "cell",
) -> PhaseAttribution:
    """Decompose ``[window_begin, window_end]`` into exclusive segments.

    ``spans`` is any iterable of span-like records; only simulated-time
    spans of the phase categories participate, clipped to the window.
    """
    if window_end < window_begin:
        raise TraceAnalysisError(
            f"cell window ends before it begins "
            f"({window_end} < {window_begin})"
        )
    clipped = []
    for span in _sim_phase_spans(spans):
        begin = max(span.sim_begin, window_begin)
        end = min(span.sim_end, window_end)
        if end > begin:  # zero-length spans attribute no time
            clipped.append((begin, end, span))
    # elementary intervals between every span boundary inside the window
    cuts = {window_begin, window_end}
    for begin, end, _span in clipped:
        cuts.add(begin)
        cuts.add(end)
    ordered = sorted(cuts)
    segments: list[Segment] = []
    for a, b in zip(ordered, ordered[1:]):
        if b <= a:
            continue
        covering = [s for s in clipped if s[0] <= a and s[1] >= b]
        if covering:
            # innermost wins: latest begin, then earliest end (shortest)
            begin, end, owner = max(covering, key=lambda s: (s[0], -s[1]))
            phase = phase_of(owner.name, owner.category)
            name = owner.name
        else:
            phase, name = OVERHEAD_PHASE, None
        if segments and segments[-1].phase == phase \
                and segments[-1].span == name and segments[-1].end == a:
            segments[-1] = Segment(segments[-1].begin, b, phase, name)
        else:
            segments.append(Segment(a, b, phase, name))
    return PhaseAttribution(
        cell=cell, begin=window_begin, end=window_end, segments=segments
    )


def scan_cells(
    spans: Sequence[Any],
    windows: Sequence[Any] | None = None,
) -> list[PhaseAttribution]:
    """Attribute every benchmark cell window found in ``spans``.

    ``windows`` defaults to the finished simulated-time spans of the
    ``benchmarks`` category (one per instrumented timed section).
    """
    if windows is None:
        windows = [
            s for s in spans
            if getattr(s, "category", None) == "benchmarks"
            and s.sim_begin is not None and s.sim_end is not None
        ]
    out = []
    for window in sorted(windows, key=lambda s: s.sim_begin):
        out.append(scan_window(
            spans, window.sim_begin, window.sim_end, cell=window.name
        ))
    return out
