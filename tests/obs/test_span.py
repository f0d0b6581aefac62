"""Span/Tracer semantics: nesting, misuse, ring-buffer accounting."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import NULL_SPAN, NULL_TRACER, Tracer


class TestNesting:
    def test_context_manager_records_finished_span(self):
        tr = Tracer()
        with tr.span("outer", "study") as span:
            span.set(machine="sawtooth")
        [record] = tr.records()
        assert record.name == "outer"
        assert record.category == "study"
        assert record.finished
        assert record.wall_duration >= 0.0
        assert record.attrs == {"machine": "sawtooth"}

    def test_nested_spans_carry_depth(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("middle"):
                with tr.span("inner"):
                    pass
        depths = {r.name: r.depth for r in tr.records()}
        assert depths == {"outer": 0, "middle": 1, "inner": 2}

    def test_exception_closes_span_and_tags_error(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("doomed"):
                raise ValueError("boom")
        [record] = tr.records()
        assert record.finished
        assert record.attrs["error"] == "ValueError"
        assert tr.open_spans() == []


class TestMisuse:
    def test_exit_order_violation_raises(self):
        tr = Tracer()
        outer = tr.begin("outer")
        tr.begin("inner")
        with pytest.raises(ObservabilityError, match="exit-order"):
            outer.end()

    def test_double_end_raises(self):
        tr = Tracer()
        span = tr.begin("once")
        span.end()
        # the span is off the stack, so a second end is an order violation
        with pytest.raises(ObservabilityError):
            span.end()

    def test_unclosed_span_visible_at_export(self):
        from repro.obs import chrome_trace

        tr = Tracer()
        tr.begin("left-open", "study")
        [record] = tr.open_spans()
        assert not record.finished
        events = chrome_trace(tr)["traceEvents"]
        begins = [e for e in events if e["ph"] == "B"]
        assert [e["name"] for e in begins] == ["left-open"]
        assert begins[0]["args"]["unfinished"] is True

    def test_clear_with_open_span_raises(self):
        tr = Tracer()
        tr.begin("open")
        with pytest.raises(ObservabilityError, match="open span"):
            tr.clear()

    def test_complete_span_rejects_negative_duration(self):
        tr = Tracer()
        with pytest.raises(ObservabilityError, match="ends before"):
            tr.complete("bad", "mpisim", 2.0, 1.0)


class TestRingBuffer:
    def test_drops_are_counted_not_silent(self):
        tr = Tracer(capacity=3)
        for i in range(10):
            tr.complete(f"s{i}", "c", 0.0, 1.0)
        assert len(tr) == 3
        assert tr.dropped == 7
        # the oldest records are the ones kept (drop-new policy)
        assert [r.name for r in tr.records()] == ["s0", "s1", "s2"]

    def test_unbounded_tracer(self):
        tr = Tracer(capacity=None)
        for i in range(100):
            tr.complete("l", "c", float(i), float(i))
        assert len(tr) == 100
        assert tr.dropped == 0

    def test_capacity_below_one_rejected(self):
        with pytest.raises(ObservabilityError):
            Tracer(capacity=0)

    def test_clear_resets_drop_count(self):
        tr = Tracer(capacity=1)
        tr.complete("a", "c", 0.0, 0.0)
        tr.complete("b", "c", 0.0, 0.0)
        assert tr.dropped == 1
        tr.clear()
        assert len(tr) == 0
        assert tr.dropped == 0


class TestSimClock:
    def test_clocked_view_records_sim_time(self):
        now = {"t": 1.5}
        tr = Tracer()
        with tr.begin("timed", "mpisim", clock=lambda: now["t"]):
            now["t"] = 2.5
        [record] = tr.records()
        assert record.sim_begin == 1.5
        assert record.sim_end == 2.5
        assert record.sim_duration == 1.0

    def test_retrospective_complete_span(self):
        tr = Tracer()
        tr.complete("xfer", "netsim", 3.0, 7.0, nbytes=64)
        [record] = tr.records()
        assert record.finished
        assert record.sim_duration == 4.0
        assert record.attrs["nbytes"] == 64


class TestNullTracer:
    def test_shared_noop_span(self):
        assert NULL_TRACER.span("x", "y") is NULL_SPAN
        assert NULL_TRACER.begin("x") is NULL_SPAN
        with NULL_TRACER.span("x") as span:
            assert span.set(a=1) is NULL_SPAN

    def test_records_nothing(self):
        NULL_TRACER.complete("s", "c", 0.0, 1.0)
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.records() == []
        assert NULL_TRACER.begin("x", "y", clock=lambda: 0.0) is NULL_SPAN


class TestAbsorb:
    """The worker-ring merge the parallel study scheduler performs."""

    def _donor(self):
        from repro.obs.span import Tracer as T

        donor = T()
        with donor.span("cell", "study", machine="sawtooth"):
            donor.complete("xfer", "netsim", 3.0, 7.0, nbytes=64)
        donor.complete("match", "mpisim", 1.0, 1.0)
        return donor

    def test_absorb_copies_records(self):
        donor = self._donor()
        parent = Tracer()
        parent.absorb(donor.records(), wall_origin=donor.wall_origin)
        assert len(parent) == len(donor)
        donor_spans = donor.records()
        parent_spans = parent.records()
        for mine, theirs in zip(parent_spans, donor_spans):
            assert mine is not theirs
            assert mine.attrs == theirs.attrs
            assert mine.attrs is not theirs.attrs

    def test_sim_times_travel_untouched(self):
        donor = self._donor()
        parent = Tracer()
        parent.absorb(donor.records(), wall_origin=donor.wall_origin)
        times = {r.name: (r.sim_begin, r.sim_end) for r in parent.records()}
        assert times["xfer"] == (3.0, 7.0)
        assert times["match"] == (1.0, 1.0)

    def test_wall_times_rebase_onto_parent_origin(self):
        donor = self._donor()
        parent = Tracer()
        parent.absorb(donor.records(), wall_origin=donor.wall_origin)
        offset = parent.wall_origin - donor.wall_origin
        for mine, theirs in zip(parent.records(), donor.records()):
            assert mine.wall_begin == theirs.wall_begin + offset
            assert mine.wall_duration == pytest.approx(theirs.wall_duration)

    def test_double_absorb_is_idempotent_per_call(self):
        # the scheduler keeps an outcome after the study absorbs it, and
        # the cell cache may have stored it: absorb must copy and rebase,
        # never mutate the donor's records, so absorbing them again
        # starts from the records as the worker recorded them
        donor = self._donor()
        parent = Tracer()
        parent.absorb(donor.records(), wall_origin=donor.wall_origin)
        parent.absorb(donor.records(), wall_origin=donor.wall_origin)
        spans = [r for r in parent.records() if r.name == "cell"]
        assert len(spans) == 2
        assert spans[0].wall_begin == spans[1].wall_begin

    def test_dropped_counts_fold_in(self):
        parent = Tracer()
        parent.absorb([], dropped=3)
        assert parent.dropped == 3

    def test_capacity_applies_to_absorbed_records(self):
        donor = self._donor()
        parent = Tracer(capacity=1)
        parent.absorb(donor.records(), wall_origin=donor.wall_origin)
        assert len(parent) == 1
        assert parent.dropped == len(donor.records()) - 1

    def test_null_tracer_absorbs_nothing(self):
        NULL_TRACER.absorb([object()], wall_origin=0.0, dropped=5)
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.dropped == 0
