"""The attribution sweep against the original rescan, plus a scaling guard.

:mod:`.scan_oracle` keeps the quadratic per-interval rescan the sweep
replaced; every test here holds the sweep to exactly its segments.
"""

import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceAnalysisError
from repro.harness.cli import main
from repro.obs.analyze import TraceDocument, attribute_cells, attribute_window
from repro.obs.analyze.reader import ReadSpan

from .scan_oracle import scan_cells, scan_window

NAMES = ["send.eager", "rendezvous.handshake", "xfer:a", "xfer:b",
         "exec:k", "dma:h2d", "osu.pingpong", "cell"]
CATEGORIES = ["mpisim", "netsim", "gpurt", "benchmarks", "study"]

#: whole numbers collide often (shared boundaries, equal-begin ties,
#: windows clipping spans on either side); arbitrary floats rarely do
coordinate = st.one_of(
    st.integers(min_value=0, max_value=8).map(float),
    st.floats(min_value=0.0, max_value=8.0),
)


def sim_span(name, category, begin, end) -> ReadSpan:
    return ReadSpan(name=name, category=category, timeline="sim",
                    begin=begin, end=end)


@st.composite
def spans(draw):
    begin = draw(coordinate)
    shape = draw(st.integers(min_value=0, max_value=5))
    if shape == 0:
        end = None  # unfinished
    elif shape == 1:
        end = draw(coordinate)  # any end, even one before the begin
    else:
        end = begin + draw(coordinate)  # zero-length when the length is 0
    return sim_span(draw(st.sampled_from(NAMES)),
                    draw(st.sampled_from(CATEGORIES)), begin, end)


@st.composite
def span_sets(draw):
    base = draw(st.lists(spans(), max_size=25))
    if not base:
        return base
    # exact duplicates: the same record again, anywhere in the list
    base += draw(st.lists(st.sampled_from(base), max_size=5))
    return draw(st.permutations(base))


@st.composite
def window_sets(draw):
    ranges = draw(st.lists(
        st.tuples(coordinate, coordinate).map(sorted),
        min_size=1, max_size=6,
    ))
    # repeated ranges share one sweep; each window still gets its own copy
    ranges += draw(st.lists(st.sampled_from(ranges), max_size=3))
    return [sim_span(f"w{i}", "benchmarks", begin, end)
            for i, (begin, end) in enumerate(draw(st.permutations(ranges)))]


def outcome(attribute, *args):
    """Each window's identity and segments, or the error raised."""
    try:
        return [(a.cell, a.begin, a.end, a.segments)
                for a in attribute(*args)]
    except TraceAnalysisError as exc:
        return str(exc)


@given(spans=span_sets(), window=st.tuples(coordinate, coordinate))
@settings(max_examples=300, deadline=None)
def test_window_segments_equal_the_scan(spans, window):
    begin, end = sorted(window)
    new = attribute_window(spans, begin, end)
    assert new.segments == scan_window(spans, begin, end).segments


@given(spans=span_sets(), windows=window_sets())
@settings(max_examples=300, deadline=None)
def test_cell_segments_equal_the_scan(spans, windows):
    assert outcome(attribute_cells, spans, windows) == \
        outcome(scan_cells, spans, windows)
    # a window's segments are its own, even when its range repeats
    attributions = attribute_cells(spans, windows)
    assert len({id(a.segments) for a in attributions}) == len(windows)


@given(spans=span_sets())
@settings(max_examples=150, deadline=None)
def test_default_windows_equal_the_scan(spans):
    # a benchmarks span ending before it begins raises the same error
    assert outcome(attribute_cells, spans) == outcome(scan_cells, spans)


def test_recorded_trace_equals_the_scan(tmp_path, capsys):
    path = tmp_path / "trace.json"
    assert main(["table5", "--runs", "3", "--quiet", "--no-ledger",
                 "--trace-out", str(path)]) == 0
    capsys.readouterr()
    doc = TraceDocument.load(path)
    new = attribute_cells(doc.sim_spans(), doc.cell_windows())
    old = scan_cells(doc.sim_spans(), doc.cell_windows())
    assert new
    assert [a.to_detailed_json() for a in new] == \
        [a.to_detailed_json() for a in old]
    assert [a.segments for a in new] == [a.segments for a in old]


def test_overlapping_windows_scale():
    # every span overlaps every other and every window clips all of
    # them: the shape of windows on the shared simulated clock.  The
    # rescan takes tens of seconds here, the sweep about one.
    rng = random.Random(0)
    kinds = [("send.eager", "mpisim"), ("xfer:a", "netsim"),
             ("exec:k", "gpurt")]
    spans = [
        sim_span(*rng.choice(kinds),
                 rng.uniform(0.0, 1.0), rng.uniform(2.0, 3.0))
        for _ in range(2000)
    ]
    windows = [
        sim_span(f"w{i}", "benchmarks",
                 rng.uniform(0.0, 1.0), rng.uniform(2.0, 3.0))
        for i in range(100)
    ]
    start = time.perf_counter()
    attributions = attribute_cells(spans, windows)
    elapsed = time.perf_counter() - start
    assert len(attributions) == 100
    assert elapsed < 8.0, f"100 windows over 2000 spans took {elapsed:.1f}s"
