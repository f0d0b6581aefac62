"""Metrics instruments: naming, counters, histogram bucket semantics."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import Histogram, MetricsRegistry, NULL_METRICS
from repro.obs.metrics import NULL_INSTRUMENT, validate_name


class TestNaming:
    def test_dotted_lowercase_accepted(self):
        assert validate_name("mpisim.send.eager") == "mpisim.send.eager"
        assert validate_name("gpurt.kernel.queue_wait_us")

    @pytest.mark.parametrize("bad", [
        "single", "Has.Upper", "spa ce.x", "trailing.", ".leading",
        "dash-es.x", "",
    ])
    def test_bad_names_rejected(self, bad):
        with pytest.raises(ObservabilityError, match="convention"):
            validate_name(bad)


class TestCounterGauge:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("mpisim.send.eager")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert reg.counter("mpisim.send.eager") is c

    def test_counter_rejects_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError, match="cannot decrease"):
            reg.counter("mpisim.send.eager").inc(-1)

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("mpisim.send.eager")
        with pytest.raises(ObservabilityError, match="already registered"):
            reg.histogram("mpisim.send.eager")


class TestHistogramEdges:
    def test_boundary_value_lands_in_its_bucket(self):
        h = Histogram("t.edges", bounds=(1.0, 10.0, 100.0))
        h.observe(1.0)    # exactly on the first bound -> le_1
        h.observe(10.0)   # exactly on the second -> le_10
        h.observe(10.5)   # between -> le_100
        buckets = h.snapshot()["buckets"]
        assert buckets == {"le_1": 1, "le_10": 1, "le_100": 1, "overflow": 0}

    def test_overflow_bucket(self):
        h = Histogram("t.overflow", bounds=(1.0,))
        h.observe(2.0)
        h.observe(1e9)
        snap = h.snapshot()
        assert snap["buckets"] == {"le_1": 0, "overflow": 2}
        assert snap["max"] == 1e9

    def test_quantiles_are_bucket_resolution(self):
        h = Histogram("t.quant", bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 0.5, 0.5, 3.0):
            h.observe(v)
        assert h.quantile(0.5) == 1.0   # upper bound of the median bucket
        assert h.quantile(1.0) == 4.0
        assert h.quantile(0.0) == 0.0 or h.quantile(0.0) == 1.0

    def test_overflow_quantile_reports_observed_max(self):
        h = Histogram("t.max", bounds=(1.0,))
        h.observe(7.0)
        assert h.quantile(0.99) == 7.0

    def test_mean_and_count(self):
        h = Histogram("t.mean", bounds=(10.0,))
        h.observe(2.0)
        h.observe(4.0)
        assert h.count == 2
        assert h.mean == 3.0

    def test_empty_histogram_snapshot_omits_quantiles(self):
        snap = Histogram("t.empty", bounds=(1.0,)).snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None
        assert snap["mean"] is None
        # nonexistent quantiles are omitted, not fabricated as 0.0
        assert "p50" not in snap and "p95" not in snap and "p99" not in snap

    def test_empty_histogram_quantile_is_none(self):
        h = Histogram("t.empty", bounds=(1.0,))
        assert h.quantile(0.0) is None
        assert h.quantile(0.5) is None
        assert h.quantile(1.0) is None
        assert h.mean is None
        # out-of-range q still raises, empty or not
        with pytest.raises(ObservabilityError):
            h.quantile(-0.1)

    def test_empty_histogram_snapshot_is_json_ready(self):
        import json

        json.dumps(Histogram("t.empty", bounds=(1.0,)).snapshot())

    def test_quantiles_reappear_after_first_observation(self):
        h = Histogram("t.lazy", bounds=(1.0,))
        assert h.quantile(0.5) is None
        h.observe(0.5)
        snap = h.snapshot()
        assert snap["p50"] == 1.0
        assert h.quantile(0.5) == 1.0
        assert h.mean == 0.5

    def test_bounds_must_increase(self):
        with pytest.raises(ObservabilityError, match="strictly increasing"):
            Histogram("t.bad", bounds=(2.0, 1.0))
        with pytest.raises(ObservabilityError, match="at least one"):
            Histogram("t.none", bounds=())

    def test_quantile_out_of_range(self):
        h = Histogram("t.range", bounds=(1.0,))
        with pytest.raises(ObservabilityError):
            h.quantile(1.5)


class TestRegistry:
    def test_snapshot_is_sorted_and_json_ready(self):
        import json

        reg = MetricsRegistry()
        reg.counter("b.x.y").inc()
        reg.histogram("a.x.y", bounds=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert list(snap) == ["a.x.y", "b.x.y"]
        json.dumps(snap)  # must not raise

    def test_declare_pre_registers_zeros(self):
        reg = MetricsRegistry()
        reg.declare(["faults.injected.drop", "netsim.link.reserved"])
        snap = reg.snapshot()
        assert snap["faults.injected.drop"] == {"type": "counter", "value": 0}
        assert len(reg) == 2


class TestStateMerge:
    """The process-boundary merge contract the parallel scheduler uses."""

    def test_counter_deltas_add_exactly(self):
        worker = MetricsRegistry()
        worker.counter("mpisim.send.eager").inc(7)
        worker.declare(["faults.injected.drop"])  # zero counter travels too
        parent = MetricsRegistry()
        parent.counter("mpisim.send.eager").inc(3)
        parent.merge_state(worker.dump_state())
        assert parent.counter("mpisim.send.eager").value == 10
        # zero-valued counters still register (full taxonomy in snapshots)
        assert parent.counter("faults.injected.drop").value == 0

    def test_histogram_replay_is_bit_identical(self):
        values = [0.1, 0.2, 0.30000000000000004, 7.5, 1e-9]
        worker = MetricsRegistry(record_values=True)
        for v in values:
            worker.histogram("t.merge.h", bounds=(1.0, 10.0)).observe(v)
        parent = MetricsRegistry()
        parent.merge_state(worker.dump_state())
        direct = Histogram("t.merge.h", bounds=(1.0, 10.0))
        for v in values:
            direct.observe(v)
        assert parent.histogram("t.merge.h").snapshot() == direct.snapshot()
        assert parent.histogram("t.merge.h").total == direct.total

    def test_merge_order_replays_serial_accumulation(self):
        # two workers merged in consumption order == one serial registry
        # observing both value sequences in that order
        a = MetricsRegistry(record_values=True)
        b = MetricsRegistry(record_values=True)
        for v in (1.0, 2.0):
            a.histogram("t.order.h", bounds=(4.0,)).observe(v)
        for v in (3.0, 0.5):
            b.histogram("t.order.h", bounds=(4.0,)).observe(v)
        parent = MetricsRegistry()
        parent.merge_state(a.dump_state())
        parent.merge_state(b.dump_state())
        serial = Histogram("t.order.h", bounds=(4.0,))
        for v in (1.0, 2.0, 3.0, 0.5):
            serial.observe(v)
        assert parent.histogram("t.order.h").snapshot() == serial.snapshot()

    def test_unrecorded_populated_histogram_refuses_to_dump(self):
        reg = MetricsRegistry()  # record_values=False
        reg.histogram("t.norec.h", bounds=(1.0,)).observe(0.5)
        with pytest.raises(ObservabilityError, match="record_values"):
            reg.dump_state()

    def test_empty_unrecorded_histogram_dumps_fine(self):
        reg = MetricsRegistry()
        reg.histogram("t.norec.empty", bounds=(1.0,))
        state = reg.dump_state()
        assert state["t.norec.empty"]["values"] == []

    def test_state_is_picklable(self):
        import pickle

        reg = MetricsRegistry(record_values=True)
        reg.counter("a.b.c").inc()
        reg.counter("d.e.f").inc(2)
        reg.histogram("g.h.i", bounds=(1.0,)).observe(0.5)
        state = pickle.loads(pickle.dumps(reg.dump_state()))
        parent = MetricsRegistry()
        parent.merge_state(state)
        assert parent.counter("a.b.c").value == 1
        assert parent.counter("d.e.f").value == 2
        assert parent.histogram("g.h.i").count == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ObservabilityError, match="unknown instrument"):
            MetricsRegistry().merge_state(
                {"x.y.z": {"kind": "exotic", "value": 1}}
            )


class TestNullMetrics:
    def test_shared_noop_instrument(self):
        assert NULL_METRICS.counter("any.name") is NULL_INSTRUMENT
        assert NULL_METRICS.histogram("any.name") is NULL_INSTRUMENT
        NULL_INSTRUMENT.inc()
        NULL_INSTRUMENT.observe(1.0)
        assert NULL_METRICS.snapshot() == {}
        assert len(NULL_METRICS) == 0
