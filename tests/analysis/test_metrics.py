"""Tests for error metrics and the Welch's t-test machinery."""

import math

import pytest

from repro.analysis.metrics import (
    ratio,
    regularized_incomplete_beta,
    relative_error,
    student_t_sf_two_sided,
    welch_t_test,
    within_factor,
)


class TestRelativeError:
    def test_basic(self):
        assert relative_error(11.0, 10.0) == pytest.approx(0.1)

    def test_symmetric_in_sign(self):
        assert relative_error(9.0, 10.0) == pytest.approx(0.1)

    def test_zero_reference(self):
        assert relative_error(1.0, 0.0) == math.inf
        assert relative_error(0.0, 0.0) == 0.0


class TestRatio:
    def test_basic(self):
        assert ratio(20.0, 10.0) == 2.0

    def test_zero_reference(self):
        assert ratio(1.0, 0.0) == math.inf


class TestWithinFactor:
    def test_inside(self):
        assert within_factor(15.0, 10.0, 2.0)
        assert within_factor(6.0, 10.0, 2.0)

    def test_outside(self):
        assert not within_factor(25.0, 10.0, 2.0)
        assert not within_factor(4.0, 10.0, 2.0)

    def test_exact_boundary(self):
        assert within_factor(20.0, 10.0, 2.0)

    def test_factor_below_one_rejected(self):
        with pytest.raises(ValueError):
            within_factor(1.0, 1.0, 0.5)

    def test_nonpositive_values(self):
        assert within_factor(0.0, 0.0, 2.0)
        assert not within_factor(0.0, 1.0, 2.0)


class TestIncompleteBeta:
    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_symmetric_midpoint(self):
        # I_{1/2}(a, a) = 1/2 for any a
        for a in (0.5, 1.0, 2.0, 7.5):
            assert regularized_incomplete_beta(a, a, 0.5) == pytest.approx(0.5)

    def test_uniform_case(self):
        # I_x(1, 1) is the uniform CDF
        assert regularized_incomplete_beta(1.0, 1.0, 0.3) == pytest.approx(0.3)

    def test_known_value(self):
        # I_x(2, 2) = x^2 (3 - 2x)
        x = 0.7
        assert regularized_incomplete_beta(2.0, 2.0, x) == pytest.approx(
            x * x * (3 - 2 * x)
        )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)


class TestStudentT:
    def test_t_zero_is_one(self):
        assert student_t_sf_two_sided(0.0, 5.0) == pytest.approx(1.0)

    def test_known_cauchy_quantile(self):
        # df=1 is the Cauchy distribution: |t| = 1 -> p = 0.5
        assert student_t_sf_two_sided(1.0, 1.0) == pytest.approx(0.5)

    def test_large_t_vanishes(self):
        assert student_t_sf_two_sided(50.0, 10.0) < 1e-10
        assert student_t_sf_two_sided(math.inf, 10.0) == 0.0

    def test_symmetric_in_sign(self):
        assert student_t_sf_two_sided(-2.0, 7.0) == pytest.approx(
            student_t_sf_two_sided(2.0, 7.0)
        )

    def test_classic_table_value(self):
        # t = 2.571 at df = 5 is the classic two-sided 5% critical value
        assert student_t_sf_two_sided(2.571, 5.0) == pytest.approx(
            0.05, abs=2e-4
        )


class TestWelch:
    def test_identical_samples_not_significant(self):
        r = welch_t_test(10.0, 1.0, 5, 10.0, 1.0, 5)
        assert r.t == 0.0
        assert r.p_value == pytest.approx(1.0)
        assert not r.significant()

    def test_clear_separation_significant(self):
        r = welch_t_test(10.0, 0.1, 10, 20.0, 0.1, 10)
        assert r.p_value < 1e-6
        assert r.significant()
        assert r.t > 0  # b above a

    def test_deterministic_zero_variance_equal(self):
        r = welch_t_test(5.0, 0.0, 3, 5.0, 0.0, 3)
        assert r.p_value == 1.0
        assert not r.significant()

    def test_deterministic_zero_variance_different(self):
        r = welch_t_test(5.0, 0.0, 3, 6.0, 0.0, 3)
        assert r.p_value == 0.0
        assert r.significant()
        assert math.isinf(r.t) and r.t > 0

    def test_welch_satterthwaite_df(self):
        # equal n and variance degenerates to the pooled df = 2n - 2
        r = welch_t_test(0.0, 2.0, 8, 1.0, 2.0, 8)
        assert r.df == pytest.approx(14.0)

    def test_noise_swamps_delta(self):
        r = welch_t_test(10.0, 5.0, 3, 11.0, 5.0, 3)
        assert not r.significant()

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            welch_t_test(0.0, 1.0, 0, 0.0, 1.0, 5)
        with pytest.raises(ValueError):
            welch_t_test(0.0, -1.0, 5, 0.0, 1.0, 5)


class TestBetterDirection:
    """Token-level pins live in tests/checks/test_directions.py; this
    covers the inference rule itself."""

    def test_bandwidth_signals(self):
        from repro.analysis.metrics import better_direction

        assert better_direction("sim.Eagle/babelstream-cpu/single") == "higher"
        assert better_direction("table5.frontier.device_bw") == "higher"
        assert better_direction("anything GB/s") == "higher"
        assert better_direction("nic_bw") == "higher"

    def test_latency_default(self):
        from repro.analysis.metrics import better_direction

        assert better_direction("sim.latency_us") == "lower"
        assert better_direction("") == "lower"
        assert better_direction("table6.frontier.launch") == "lower"

    def test_token_not_substring(self):
        from repro.analysis.metrics import better_direction

        # 'alltoall' contains 'all' but is not the 'all' token
        assert better_direction("osu.alltoall") == "lower"
        # 'ballpark' contains 'bw'? no - contains 'all'? not as token
        assert better_direction("ballpark_metric") == "lower"


class TestStudentTQuantile:
    def test_inverts_the_sf(self):
        from repro.analysis.metrics import (
            student_t_quantile_two_sided,
        )

        for alpha in (0.2, 0.05, 0.01):
            for df in (1, 4, 30):
                t = student_t_quantile_two_sided(alpha, df)
                assert student_t_sf_two_sided(t, df) == pytest.approx(
                    alpha, rel=1e-6
                )

    def test_known_value(self):
        from repro.analysis.metrics import student_t_quantile_two_sided

        # t*(0.05, 9) = 2.262 (classic table value)
        assert student_t_quantile_two_sided(0.05, 9) == pytest.approx(
            2.262, abs=1e-3
        )

    def test_rejects_bad_inputs(self):
        from repro.analysis.metrics import student_t_quantile_two_sided

        with pytest.raises(ValueError):
            student_t_quantile_two_sided(0.0, 5)
        with pytest.raises(ValueError):
            student_t_quantile_two_sided(0.05, 0)

    def test_memoized_value_equals_a_fresh_solve(self):
        from repro.analysis.metrics import student_t_quantile_two_sided

        for alpha in (0.2, 0.05, 0.01, 1e-6):
            for df in (1, 2.5, 9, 9.0, 30, 1000):
                for _ in range(2):  # a miss, then a hit
                    assert student_t_quantile_two_sided(alpha, df) == (
                        student_t_quantile_two_sided.__wrapped__(alpha, df)
                    )


class TestCIHalfWidth:
    def test_matches_formula(self):
        from repro.analysis.metrics import (
            ci_half_width,
            student_t_quantile_two_sided,
        )

        hw = ci_half_width(2.0, 16, alpha=0.05)
        assert hw == pytest.approx(
            student_t_quantile_two_sided(0.05, 15) * 2.0 / 4.0
        )

    def test_degenerate_cases_converge(self):
        from repro.analysis.metrics import ci_half_width

        assert ci_half_width(0.0, 50) == 0.0
        assert ci_half_width(1.0, 1) == 0.0

    def test_shrinks_with_n(self):
        from repro.analysis.metrics import ci_half_width

        widths = [ci_half_width(1.0, n) for n in (3, 6, 12, 24)]
        assert widths == sorted(widths, reverse=True)

    def test_rejects_bad_inputs(self):
        from repro.analysis.metrics import ci_half_width

        with pytest.raises(ValueError):
            ci_half_width(1.0, 0)
        with pytest.raises(ValueError):
            ci_half_width(-1.0, 5)
