"""Tests for the real BabelStream kernels and their validation."""

import numpy as np
import pytest

from repro.benchmarks.babelstream.kernels import (
    START_A,
    START_B,
    START_C,
    START_SCALAR,
    StreamArrays,
)
from repro.errors import BenchmarkConfigError
from repro.memsys.writealloc import ALL_KERNELS, COPY, DOT, TRIAD


class TestKernels:
    def test_initial_values(self):
        s = StreamArrays(16)
        assert np.all(np.asarray(s.a) == START_A)
        assert np.all(np.asarray(s.b) == START_B)
        assert np.all(np.asarray(s.c) == START_C)
        assert s.scalar == START_SCALAR

    def test_copy(self):
        s = StreamArrays(16)
        s.copy()
        np.testing.assert_allclose(s.c, s.a)

    def test_mul(self):
        s = StreamArrays(16)
        s.copy()
        s.mul()
        np.testing.assert_allclose(s.b, START_SCALAR * np.asarray(s.c))

    def test_add(self):
        s = StreamArrays(16)
        s.add()
        np.testing.assert_allclose(s.c, START_A + START_B)

    def test_triad(self):
        s = StreamArrays(16)
        s.c[:] = [1.0] * 16
        s.triad()
        np.testing.assert_allclose(s.a, START_B + START_SCALAR * 1.0)

    def test_dot(self):
        s = StreamArrays(8)
        value = s.dot()
        assert value == pytest.approx(8 * START_A * START_B)

    def test_run_kernel_dispatch(self):
        s = StreamArrays(16)
        s.run_kernel(COPY)
        np.testing.assert_allclose(s.c, START_A)

    def test_run_all_order(self):
        """One outer iteration leaves the scalar-evolution state."""
        s = StreamArrays(32)
        s.run_all(1)
        exp_a, exp_b, exp_c, _ = s.expected_values(1)
        np.testing.assert_allclose(s.a, exp_a)
        np.testing.assert_allclose(s.b, exp_b)
        np.testing.assert_allclose(s.c, exp_c)


class TestValidation:
    def test_check_passes_after_run(self):
        s = StreamArrays(64)
        s.run_all(3)
        s.dot()
        assert s.check_solution(3)

    def test_check_fails_on_corruption(self):
        s = StreamArrays(64)
        s.run_all(1)
        s.a[7] = 1e6
        assert not s.check_solution(1)

    def test_check_fails_on_bad_dot(self):
        s = StreamArrays(64)
        s.run_all(1)
        s.last_dot = -1.0
        assert not s.check_solution(1)

    def test_many_repetitions_stay_finite(self):
        s = StreamArrays(16)
        s.run_all(100)
        assert np.isfinite(s.a).all()
        assert s.check_solution(100)

    def test_minimum_length(self):
        with pytest.raises(BenchmarkConfigError):
            StreamArrays(1)

    def test_zero_repetitions_rejected(self):
        with pytest.raises(BenchmarkConfigError):
            StreamArrays(16).run_all(0)

    def test_array_bytes(self):
        assert StreamArrays(100).array_bytes == 800

    def test_five_kernels_match_traffic_table(self):
        s = StreamArrays(16)
        for kernel in ALL_KERNELS:
            s.run_kernel(kernel)  # every traffic entry is executable
