"""Critical-path attribution: exclusive segments, exact phase sums."""

import pytest

from repro.errors import TraceAnalysisError
from repro.obs.analyze import (
    OVERHEAD_PHASE,
    ReadSpan,
    attribute_cells,
    attribute_window,
    attributions_from_tracer,
    phase_of,
)

from .trace_reader import SPAN_COUNTER_MAP, TraceDocument, cross_check_counters


def span(name, category, begin, end) -> ReadSpan:
    return ReadSpan(name=name, category=category, timeline="sim",
                    begin=begin, end=end)


class TestPhaseOf:
    @pytest.mark.parametrize("name,category,phase", [
        ("send.eager", "mpisim", "eager"),
        ("rendezvous.handshake", "mpisim", "match"),
        ("send.rendezvous", "mpisim", "rendezvous"),
        ("recv.wait", "mpisim", "mpi"),
        ("xfer:numalink", "netsim", "link"),
        ("launch:empty", "gpurt", "launch"),
        ("queue:empty", "gpurt", "queue"),
        ("exec:empty", "gpurt", "exec"),
        ("dma:h2d", "gpurt", "dma"),
        ("other:thing", "gpurt", "gpu"),
        ("anything", "benchmarks", "other"),
    ])
    def test_taxonomy(self, name, category, phase):
        assert phase_of(name, category) == phase


class TestAttributeWindow:
    def test_gap_becomes_overhead(self):
        att = attribute_window(
            [span("send.eager", "mpisim", 2.0, 4.0)], 0.0, 10.0
        )
        assert att.phases == {"eager": 2.0, OVERHEAD_PHASE: 8.0}
        assert sum(att.phases.values()) == att.total == 10.0

    def test_innermost_span_wins(self):
        spans = [
            span("send.eager", "mpisim", 0.0, 10.0),
            span("xfer:link0", "netsim", 3.0, 7.0),
        ]
        att = attribute_window(spans, 0.0, 10.0)
        assert att.phases == {"eager": 6.0, "link": 4.0}

    def test_tie_on_begin_prefers_shorter(self):
        spans = [
            span("send.eager", "mpisim", 0.0, 10.0),
            span("xfer:link0", "netsim", 0.0, 4.0),
        ]
        att = attribute_window(spans, 0.0, 10.0)
        assert att.phases == {"link": 4.0, "eager": 6.0}

    def test_spans_clipped_to_window(self):
        spans = [span("send.eager", "mpisim", -5.0, 3.0),
                 span("dma:h2d", "gpurt", 8.0, 20.0)]
        att = attribute_window(spans, 0.0, 10.0)
        assert att.phases == {"eager": 3.0, "dma": 2.0, OVERHEAD_PHASE: 5.0}

    def test_non_phase_categories_ignored(self):
        spans = [span("osu.pingpong", "benchmarks", 0.0, 10.0),
                 span("cell", "study", 0.0, 10.0)]
        att = attribute_window(spans, 0.0, 10.0)
        assert att.phases == {OVERHEAD_PHASE: 10.0}

    def test_unfinished_spans_ignored(self):
        att = attribute_window(
            [span("send.eager", "mpisim", 1.0, None)], 0.0, 10.0
        )
        assert att.phases == {OVERHEAD_PHASE: 10.0}

    def test_adjacent_same_owner_segments_merge(self):
        # one eager span split by an inner xfer: three segments, merged
        # neighbours only where owner matches
        spans = [
            span("send.eager", "mpisim", 0.0, 6.0),
            span("xfer:l", "netsim", 2.0, 4.0),
        ]
        att = attribute_window(spans, 0.0, 6.0)
        assert [(s.phase, s.begin, s.end) for s in att.segments] == [
            ("eager", 0.0, 2.0), ("link", 2.0, 4.0), ("eager", 4.0, 6.0),
        ]

    def test_phases_sum_exactly_to_total(self):
        spans = [
            span("send.eager", "mpisim", 0.1, 0.9),
            span("xfer:a", "netsim", 0.2, 0.5),
            span("dma:h2d", "gpurt", 0.85, 1.4),
        ]
        att = attribute_window(spans, 0.0, 1.2)
        assert sum(att.phases.values()) == pytest.approx(att.total, rel=1e-12)
        shares = att.phase_shares()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_inverted_window_rejected(self):
        with pytest.raises(TraceAnalysisError, match="ends before"):
            attribute_window([], 5.0, 1.0)

    def test_to_json_microseconds(self):
        att = attribute_window(
            [span("send.eager", "mpisim", 0.0, 1e-6)], 0.0, 2e-6, cell="c"
        )
        doc = att.to_json()
        assert doc["cell"] == "c"
        assert doc["total_us"] == pytest.approx(2.0)
        assert doc["phases_us"]["eager"] == pytest.approx(1.0)


class TestAttributeCells:
    def test_default_windows_are_benchmark_spans(self):
        spans = [
            span("osu.pingpong", "benchmarks", 0.0, 4.0),
            span("osu.pingpong", "benchmarks", 10.0, 12.0),
            span("send.eager", "mpisim", 1.0, 2.0),
            span("send.eager", "mpisim", 10.5, 11.0),
        ]
        atts = attribute_cells(spans)
        assert [a.cell for a in atts] == ["osu.pingpong", "osu.pingpong"]
        assert atts[0].phases == {"eager": 1.0, OVERHEAD_PHASE: 3.0}
        assert atts[1].phases == {"eager": 0.5, OVERHEAD_PHASE: 1.5}

    def test_no_windows_no_cells(self):
        assert attribute_cells([span("send.eager", "mpisim", 0.0, 1.0)]) == []


class TestCrossCheck:
    def _snapshot(self, **values):
        return {
            name: {"type": "counter", "value": value}
            for name, value in values.items()
        }

    def test_consistent_trace_is_clean(self):
        names = {"send.eager": 3, "xfer:a": 2, "xfer:b": 1}
        snap = self._snapshot(**{
            "mpisim.send.eager": 3,
            "netsim.link.reserved": 3,
        })
        assert cross_check_counters(names, snap) == []

    def test_mismatch_flagged(self):
        names = {"send.eager": 2}
        snap = self._snapshot(**{"mpisim.send.eager": 5})
        findings = cross_check_counters(names, snap)
        assert len(findings) == 1
        assert "mpisim.send.eager" in findings[0]

    def test_dropped_records_tolerate_undercount(self):
        names = {"send.eager": 2}
        snap = self._snapshot(**{"mpisim.send.eager": 5})
        assert cross_check_counters(names, snap, dropped=3) == []
        # but an overcount is still a bug even with drops
        names = {"send.eager": 9}
        assert cross_check_counters(names, snap, dropped=3)

    def test_absent_counter_with_spans_flagged(self):
        findings = cross_check_counters({"dma:h2d": 1}, {})
        assert any("gpurt.dma.issued" in f for f in findings)

    def test_map_covers_core_subsystems(self):
        counters = set(SPAN_COUNTER_MAP.values())
        assert {"mpisim.send.eager", "netsim.link.reserved",
                "gpurt.kernel.launched", "gpurt.dma.issued"} <= counters


class TestAttribution:
    """Attribution of live traced runs, as the ledger records it."""

    @staticmethod
    def _traced(*runs):
        from repro.obs import ObsContext, runtime

        ctx = ObsContext.create()
        with runtime.observability(ctx):
            for run in runs:
                run()
        return ctx

    @staticmethod
    def _pingpong():
        from repro.benchmarks.osu.latency import measure_pingpong
        from repro.machines.registry import get_machine
        from repro.mpisim.placement import on_socket_pair
        from repro.mpisim.transport import BufferKind

        machine = get_machine("sawtooth")
        measure_pingpong(machine, on_socket_pair(machine), 0, BufferKind.HOST)

    @staticmethod
    def _memcpy():
        from repro.benchmarks.commscope.memcpy_tests import (
            memcpy_pinned_to_gpu,
        )
        from repro.machines.registry import get_machine

        memcpy_pinned_to_gpu(get_machine("frontier"), 128)

    def test_phases_sum_within_one_percent_of_window(self):
        ctx = self._traced(self._pingpong, self._memcpy)
        attributions = attributions_from_tracer(ctx.tracer)
        assert {"osu.pingpong", "cs.memcpy"} <= {a.cell for a in attributions}
        for attribution in attributions:
            assert attribution.total > 0
            drift = abs(sum(attribution.phases.values()) - attribution.total)
            assert drift <= 0.01 * attribution.total

    def test_cross_check_clean_on_fault_free_run(self):
        from repro.obs import chrome_trace, metrics_snapshot

        ctx = self._traced(self._pingpong)
        doc = TraceDocument.from_dict(chrome_trace(ctx.tracer))
        assert doc.span_names().get("send.eager")
        snapshot = metrics_snapshot(ctx.metrics)["instruments"]
        assert cross_check_counters(
            doc.span_names(), snapshot, dropped=doc.dropped
        ) == []
