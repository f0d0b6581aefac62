"""Metrics documents: schema validation, round trip, comparator verdicts."""

import json

import pytest

from repro.errors import BenchDataError
from repro.obs.analyze import (
    BENCH_SCHEMA,
    BenchRun,
    MetricStat,
    TargetRecord,
    compare_metric,
    compare_runs,
    render_comparison,
    render_run,
)


def _run(**target_metrics) -> BenchRun:
    run = BenchRun(repeats=3, seed=7)
    record = TargetRecord()
    for name, stat in target_metrics.items():
        record.metrics[name] = stat
    run.targets["t"] = record
    return run


def stat(mean, std=0.0, n=3, **kw) -> MetricStat:
    return MetricStat(mean=mean, std=std, n=n, **kw)


def round_trip(run: BenchRun) -> BenchRun:
    """``run`` through JSON text, as a ledgered ``metrics.json``."""
    return BenchRun.from_json(json.loads(json.dumps(run.to_json())))


class TestStoreRoundTrip:
    def test_save_load_identity(self):
        run = _run(**{
            "sim.latency_us": stat(1.5, unit="us"),
            "wall_seconds": stat(0.1, std=0.02, unit="s", gate=False),
        })
        run.targets["t"].attribution = [{"cell": "c", "total_us": 1.0,
                                         "phases_us": {"eager": 1.0}}]
        loaded = round_trip(run)
        assert loaded.repeats == 3 and loaded.seed == 7
        assert loaded.faults == "none"
        assert loaded.targets["t"].metrics == run.targets["t"].metrics
        assert loaded.targets["t"].attribution == run.targets["t"].attribution

    def test_schema_header_written(self):
        assert _run().to_json()["schema"] == BENCH_SCHEMA

    def test_wrong_schema_rejected(self):
        with pytest.raises(BenchDataError, match="unsupported bench schema"):
            BenchRun.from_json({"schema": "repro.bench/v0", "targets": {}})

    def test_malformed_metric_rejected(self):
        with pytest.raises(BenchDataError, match="bad metric record"):
            BenchRun.from_json({
                "schema": BENCH_SCHEMA,
                "targets": {"t": {"metrics": {"m": {"mean": "x"}}}},
            })

    def test_invalid_stat_fields_rejected(self):
        with pytest.raises(BenchDataError, match=">= 1"):
            MetricStat(mean=1.0, std=0.0, n=0)
        with pytest.raises(BenchDataError, match="negative"):
            MetricStat(mean=1.0, std=-0.1, n=2)
        with pytest.raises(BenchDataError, match="better"):
            MetricStat(mean=1.0, std=0.0, n=2, better="sideways")

    def test_degraded_flag_round_trips(self):
        run = _run(**{"sim.x_us": stat(1.0)})
        run.targets["t"].degraded = True
        assert round_trip(run).targets["t"].degraded


class TestCompareMetric:
    def test_identical_deterministic_unchanged(self):
        row = compare_metric("t", "m", stat(5.0), stat(5.0))
        assert row.verdict == "unchanged"
        assert row.p_value == 1.0

    def test_deterministic_regression_certain(self):
        row = compare_metric("t", "m", stat(5.0), stat(6.0))
        assert row.verdict == "regressed"
        assert row.p_value == 0.0

    def test_deterministic_improvement(self):
        row = compare_metric("t", "m", stat(5.0), stat(4.0))
        assert row.verdict == "improved"

    def test_higher_is_better_flips_direction(self):
        base = stat(100.0, better="higher")
        row = compare_metric("t", "m", base, stat(50.0, better="higher"))
        assert row.verdict == "regressed"
        row = compare_metric("t", "m", base, stat(200.0, better="higher"))
        assert row.verdict == "improved"

    def test_small_delta_below_threshold_is_noise(self):
        row = compare_metric("t", "m", stat(100.0), stat(101.0),
                             threshold=0.02)
        assert row.verdict == "unchanged"

    def test_noisy_delta_needs_significance(self):
        # 10% shift but huge variance: Welch must hold it back
        row = compare_metric(
            "t", "m", stat(10.0, std=8.0, n=3), stat(11.0, std=8.0, n=3)
        )
        assert row.verdict == "unchanged"
        assert row.p_value > 0.01


class TestCompareRuns:
    def test_gating_regression_detected_and_named(self):
        base = _run(**{"sim.latency_us": stat(1.0),
                       "wall_seconds": stat(0.1, gate=False)})
        cur = _run(**{"sim.latency_us": stat(2.0),
                      "wall_seconds": stat(0.5, gate=False)})
        comparison = compare_runs(base, cur)
        assert comparison.regressed
        names = {(r.target, r.metric) for r in comparison.regressions()}
        assert names == {("t", "sim.latency_us")}
        assert "sim.latency_us" in render_comparison(comparison)
        assert "REGRESSED" in render_comparison(comparison)

    def test_advisory_regression_does_not_gate(self):
        base = _run(**{"wall_seconds": stat(0.1, gate=False)})
        cur = _run(**{"wall_seconds": stat(9.9, gate=False)})
        comparison = compare_runs(base, cur)
        assert not comparison.regressed
        assert any(r.verdict == "regressed" for r in comparison.rows)

    def test_missing_target_reported(self):
        base = _run(**{"sim.x_us": stat(1.0)})
        cur = BenchRun(repeats=3, seed=7)
        comparison = compare_runs(base, cur)
        assert not comparison.regressed
        assert [r.target for r in comparison.missing()] == ["t"]

    def test_missing_metric_reported(self):
        base = _run(**{"sim.x_us": stat(1.0), "sim.y_us": stat(2.0)})
        cur = _run(**{"sim.x_us": stat(1.0)})
        missing = compare_runs(base, cur).missing()
        assert [(r.target, r.metric) for r in missing] == [("t", "sim.y_us")]

    def test_clean_comparison_renders_ok(self):
        base = _run(**{"sim.x_us": stat(1.0)})
        text = render_comparison(compare_runs(base, base))
        assert "no regressions" in text


class TestRenderRun:
    def test_lists_every_metric(self):
        run = _run(**{"sim.x_us": stat(1.0, unit="us"),
                      "wall_seconds": stat(0.5, std=0.1, unit="s",
                                           gate=False)})
        text = render_run(run)
        assert "sim.x_us" in text and "wall_seconds" in text
        assert "gate" in text and "advisory" in text

    def test_degraded_marker_shown(self):
        run = _run(**{"sim.x_us": stat(1.0)})
        run.targets["t"].degraded = True
        assert "—†" in render_run(run)
