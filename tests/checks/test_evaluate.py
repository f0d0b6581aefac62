"""Tests for the check evaluator: boundaries, modes, exit discipline."""

import math

import pytest

from repro.checks.evaluate import (
    EXIT_INFLATED,
    EXIT_OK,
    EXIT_REGRESSION,
    adaptive_observe,
    evaluate,
)
from repro.checks.extract import CallableSource, MetricsSource, TableSource
from repro.checks.paper_refs import paper_suite
from repro.checks.report import render_report, render_report_json
from repro.checks.spec import CheckSpec, CheckSuite, Reference, StatPolicy
from repro.core.resilience import Degraded
from repro.core.results import Statistic
from repro.core.tables import Table4Row

pytestmark = pytest.mark.checks


def one_check_suite(reference, policy=None, better=None,
                    path="metrics:sim.lat", name="lat"):
    return CheckSuite(
        name="t",
        checks=(CheckSpec(
            name=name, path=path, reference=reference,
            policy=policy or StatPolicy(), better=better,
        ),),
    )


def metric_source(mean, std=0.0, n=1, name="sim.lat"):
    return MetricsSource({name: {"mean": mean, "std": std, "n": n}})


class TestIntervalBoundaries:
    def test_exactly_at_threshold_passes(self):
        suite = one_check_suite(Reference(100.0, -0.1, 0.05))
        assert evaluate(suite, metric_source(90.0)).exit_code == EXIT_OK
        assert evaluate(suite, metric_source(105.0)).exit_code == EXIT_OK

    def test_just_past_threshold_fails(self):
        suite = one_check_suite(Reference(100.0, -0.1, 0.05))
        report = evaluate(suite, metric_source(105.0001))
        assert report.failed and report.exit_code == EXIT_REGRESSION

    def test_one_sided_none_bounds(self):
        no_lower = one_check_suite(Reference(10.0, None, 0.05))
        assert evaluate(no_lower, metric_source(0.001)).exit_code == EXIT_OK
        assert evaluate(no_lower, metric_source(10.6)).failed
        no_upper = one_check_suite(Reference(10.0, -0.05, None))
        assert evaluate(no_upper, metric_source(1e9)).exit_code == EXIT_OK
        report = evaluate(no_upper, metric_source(9.0))
        assert report.failed

    def test_failure_side_maps_to_exit_code(self):
        # latency (lower-better): above band = regression, below = inflated
        suite = one_check_suite(Reference(10.0, -0.05, 0.05))
        assert evaluate(suite, metric_source(11.0)).exit_code \
            == EXIT_REGRESSION
        assert evaluate(suite, metric_source(9.0)).exit_code == EXIT_INFLATED
        # bandwidth (higher-better): below band = regression
        bw = one_check_suite(Reference(100.0, -0.05, 0.05), better="higher")
        assert evaluate(bw, metric_source(90.0)).exit_code == EXIT_REGRESSION
        assert evaluate(bw, metric_source(110.0)).exit_code == EXIT_INFLATED

    def test_regression_outranks_inflated(self):
        suite = CheckSuite(name="t", checks=(
            CheckSpec("a", "metrics:a", Reference(10.0, -0.05, 0.05)),
            CheckSpec("b", "metrics:b", Reference(10.0, -0.05, 0.05)),
        ))
        source = MetricsSource({"a": {"mean": 11.0}, "b": {"mean": 9.0}})
        assert evaluate(suite, source).exit_code == EXIT_REGRESSION


class TestSkips:
    def test_nan_observation_skips_with_reason(self):
        suite = one_check_suite(Reference(10.0, -0.05, 0.05))
        report = evaluate(suite, metric_source(float("nan")))
        assert report.exit_code == EXIT_OK
        (result,) = report.skipped
        assert "non-finite" in result.reason

    def test_missing_path_skips_with_reason(self):
        suite = one_check_suite(Reference(10.0, -0.05, 0.05),
                                path="metrics:sim.nope")
        report = evaluate(suite, metric_source(1.0))
        (result,) = report.skipped
        assert result.status == "skip" and "no metric" in result.reason

    def test_skips_never_crash_rendering(self):
        suite = one_check_suite(Reference(10.0, -0.05, 0.05),
                                path="metrics:sim.nope")
        report = evaluate(suite, metric_source(1.0))
        assert "skip" in render_report(report)
        assert "skip" in render_report_json(report)


class TestZeroVariance:
    def test_zero_variance_in_band_passes(self):
        suite = one_check_suite(
            Reference(10.0, -0.05, 0.05, std=0.0, n=100),
            policy=StatPolicy(mode="welch"),
        )
        report = evaluate(suite, metric_source(10.0, std=0.0, n=5))
        assert report.exit_code == EXIT_OK

    def test_zero_variance_out_of_band_fails_certainly(self):
        # both sides deterministic: Welch degenerates to p=0
        suite = one_check_suite(
            Reference(10.0, -0.05, 0.05, std=0.0, n=100),
            policy=StatPolicy(mode="welch"),
        )
        report = evaluate(suite, metric_source(11.0, std=0.0, n=5))
        assert report.exit_code == EXIT_REGRESSION


class TestWelchMode:
    def test_out_of_band_but_noisy_passes(self):
        # the observed mean leaves the band, but the dispersion is so
        # wide the t-test cannot call it: not a regression
        suite = one_check_suite(
            Reference(10.0, -0.05, 0.05, std=3.0, n=5),
            policy=StatPolicy(mode="welch", alpha=0.01),
        )
        report = evaluate(suite, metric_source(11.0, std=3.0, n=5))
        assert report.exit_code == EXIT_OK
        assert "not significant" in report.results[0].reason

    def test_out_of_band_and_significant_fails(self):
        suite = one_check_suite(
            Reference(10.0, -0.05, 0.05, std=0.01, n=50),
            policy=StatPolicy(mode="welch", alpha=0.01),
        )
        report = evaluate(suite, metric_source(11.0, std=0.01, n=50))
        assert report.exit_code == EXIT_REGRESSION

    def test_missing_dispersion_falls_back_to_interval(self):
        suite = one_check_suite(
            Reference(10.0, -0.05, 0.05),  # no std on the reference
            policy=StatPolicy(mode="welch"),
        )
        report = evaluate(suite, metric_source(11.0, std=0.01, n=50))
        assert report.exit_code == EXIT_REGRESSION
        assert "welch unavailable" in report.results[0].reason


class TestAdaptive:
    def policy(self, **kw):
        defaults = dict(min_repeats=3, max_repeats=64, ci_rel=0.05)
        defaults.update(kw)
        return StatPolicy(**defaults)

    def test_low_variance_stops_at_min_repeats(self):
        calls = []

        def sampler(path, n):
            calls.append(n)
            return [5.0] * n

        spec = CheckSpec("c", "cell", Reference(5.0, -0.1, 0.1),
                         policy=self.policy())
        obs, repeats = adaptive_observe(CallableSource(sampler), spec)
        assert repeats == 3 and calls == [3]

    def test_noisy_cell_never_exceeds_max_repeats(self):
        def sampler(path, n):
            return [5.0 * (1 + (0.5 if i % 2 else -0.5)) for i in range(n)]

        spec = CheckSpec("c", "cell", Reference(5.0, -0.1, 0.1),
                         policy=self.policy(max_repeats=40))
        obs, repeats = adaptive_observe(CallableSource(sampler), spec)
        assert repeats == 40 and obs.n == 40

    def test_escalation_doubles_until_target(self):
        calls = []

        def sampler(path, n):
            calls.append(n)
            # variance shrinks once enough repeats are taken
            if n >= 12:
                return [5.0 + 0.001 * i for i in range(n)]
            return [5.0 * (1 + (0.4 if i % 2 else -0.4)) for i in range(n)]

        spec = CheckSpec("c", "cell", Reference(5.0, -0.1, 0.1),
                         policy=self.policy())
        obs, repeats = adaptive_observe(CallableSource(sampler), spec)
        assert calls == [3, 6, 12]
        assert repeats == 12

    def test_adaptive_repeats_reported(self):
        src = CallableSource(lambda p, n: [5.0] * n)
        suite = one_check_suite(Reference(5.0, -0.1, 0.1),
                                policy=self.policy(), path="cell")
        report = evaluate(suite, src, adaptive=True)
        assert report.adaptive
        assert report.results[0].repeats == 3
        assert "adaptive: 3 repeats" in render_report(report)


def delta_verdict(base, current, better="lower", threshold=0.02,
                  alpha=0.01):
    """The verdict of the check ``runs diff`` builds for one metric row:
    the baseline's mean ± ``threshold`` with its std and n, in welch
    mode, judged against the current ``(mean, std, n)``."""
    mean, std, n = base
    suite = one_check_suite(
        Reference(mean, -threshold, threshold, std=std, n=n),
        policy=StatPolicy(mode="welch", alpha=alpha),
        better=better,
    )
    (result,) = evaluate(suite, metric_source(*current)).results
    return {
        "": "unchanged", "regression": "regressed", "inflated": "improved",
    }[result.failure_kind]


class TestDeltaVerdicts:
    def test_identical_deterministic_unchanged(self):
        assert delta_verdict((5.0, 0.0, 3), (5.0, 0.0, 3)) == "unchanged"

    def test_deterministic_regression_certain(self):
        assert delta_verdict((5.0, 0.0, 3), (6.0, 0.0, 3)) == "regressed"

    def test_deterministic_improvement(self):
        assert delta_verdict((5.0, 0.0, 3), (4.0, 0.0, 3)) == "improved"

    def test_higher_is_better_flips_direction(self):
        base = (100.0, 0.0, 3)
        assert delta_verdict(
            base, (50.0, 0.0, 3), better="higher"
        ) == "regressed"
        assert delta_verdict(
            base, (200.0, 0.0, 3), better="higher"
        ) == "improved"

    def test_small_delta_below_threshold_is_noise(self):
        assert delta_verdict((100.0, 0.0, 3), (101.0, 0.0, 3)) == "unchanged"

    def test_noisy_delta_needs_significance(self):
        # 10% shift but huge variance: Welch must hold it back
        assert delta_verdict((10.0, 8.0, 3), (11.0, 8.0, 3)) == "unchanged"

    def test_change_requires_both_tests(self):
        # large but noisy: unchanged
        assert delta_verdict((10.0, 5.0, 3), (12.0, 5.0, 3)) == "unchanged"
        # significant but tiny: unchanged
        assert delta_verdict(
            (10.0, 0.001, 50), (10.01, 0.001, 50)
        ) == "unchanged"
        # large and significant: direction decides
        base = (10.0, 0.01, 50)
        assert delta_verdict(base, (11.0, 0.01, 50)) == "regressed"
        assert delta_verdict(base, (9.0, 0.01, 50)) == "improved"
        assert delta_verdict(
            base, (9.0, 0.01, 50), better="higher"
        ) == "regressed"

    def test_single_sample_baseline_lets_welch_decide(self):
        # the baseline's std and n are known even at n = 1, so the
        # t-test runs on the current run's dispersion alone
        base = (10.0, 0.0, 1)
        assert delta_verdict(base, (11.0, 2.0, 5)) == "unchanged"
        assert delta_verdict(base, (11.0, 0.1, 5)) == "regressed"

    def test_band_edge_is_inclusive(self):
        # deterministic on both sides, so any change off the band is
        # significant; exactly on the edge still passes
        edge = 10.0 + 0.02 * 10.0
        assert delta_verdict((10.0, 0.0, 5), (edge, 0.0, 5)) == "unchanged"
        beyond = math.nextafter(edge, math.inf)
        assert delta_verdict((10.0, 0.0, 5), (beyond, 0.0, 5)) == "regressed"


class TestComparisonGate:
    """The sim-vs-paper agreement gate: the paper-reference suite at a
    5 % band, resolved through the same table map ``compare`` reads."""

    @staticmethod
    def _eagle(on_socket):
        return Table4Row(
            machine="Eagle", rank=100,
            single=Statistic(13.50, 0.03, 10),
            all_threads=Statistic(208.24, 0.92, 10), peak_label="",
            on_socket=on_socket, on_node=Statistic(0.38, 0.01, 10),
        )

    def test_compare_rows_gate_through_evaluator(self, fast_study):
        from repro.core.tables import build_table4
        from repro.machines.registry import cpu_machines

        source = TableSource(build_table4(fast_study, cpu_machines()))
        suite = paper_suite(tables=("table4",), tolerance=0.05)
        report = evaluate(suite, source)
        assert report.exit_code == EXIT_OK
        assert len(report.results) == len(suite) == 20
        assert not report.skipped

    def test_gate_comparison_flags_out_of_band_row(self):
        suite = paper_suite(tables=("table4",), tolerance=0.05).subset(
            ["table4.eagle.on_socket", "table4.eagle.single"]
        )
        source = TableSource([self._eagle(Statistic(0.30, 0.001, 10))])
        report = evaluate(suite, source)
        assert report.exit_code == EXIT_REGRESSION
        (fail,) = report.failed
        assert fail.name == "table4.eagle.on_socket"
        assert fail.failure_kind == "regression"
        # direction came from the shared inference: GB/s is higher-better
        by_name = {r.name: r for r in report.results}
        assert by_name["table4.eagle.single"].direction == "higher"

    def test_degraded_rows_excluded(self):
        suite = paper_suite(tables=("table4",), tolerance=0.05).subset(
            ["table4.eagle.on_socket"]
        )
        source = TableSource([self._eagle(Degraded("x", "fault", 1))])
        report = evaluate(suite, source)
        (skip,) = report.skipped
        assert "cell degraded (fault)" in skip.reason
        assert report.exit_code == EXIT_OK
