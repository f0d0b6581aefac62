"""Tests for the BabelStream OpenMP (CPU) backend."""

import numpy as np
import pytest

from repro.benchmarks.babelstream.cpu import run_cpu_config
from repro.benchmarks.babelstream.sweep import (
    best_cpu_bandwidth,
    cpu_size_curve,
    default_cpu_sizes,
)
from repro.errors import BenchmarkConfigError
from repro.openmp.env import OmpEnvironment
from repro.sim.random import Generator, RandomStreams
from repro.units import MiB, to_gb_per_s

ALL_CORES = OmpEnvironment(num_threads=48, proc_bind="spread", places="cores")


class TestSingleRun:
    def test_reports_all_five_ops(self, sawtooth):
        run = run_cpu_config(sawtooth, ALL_CORES, 128 * MiB)
        assert set(run.reported) == {"Copy", "Mul", "Add", "Triad", "Dot"}

    def test_dot_wins_on_cpu(self, sawtooth):
        """Write-allocate traffic makes Dot the best reported op."""
        run = run_cpu_config(sawtooth, ALL_CORES, 128 * MiB)
        op, _ = run.best_op()
        assert op == "Dot"

    def test_reported_below_raw(self, sawtooth):
        run = run_cpu_config(sawtooth, ALL_CORES, 128 * MiB)
        for op, bw in run.reported.items():
            assert bw <= run.raw_bandwidth * 1.0001

    def test_copy_is_two_thirds_of_raw(self, sawtooth):
        run = run_cpu_config(sawtooth, ALL_CORES, 512 * MiB)
        assert run.reported["Copy"] == pytest.approx(
            run.raw_bandwidth * 2 / 3, rel=0.01
        )

    def test_deterministic_without_rng(self, sawtooth):
        a = run_cpu_config(sawtooth, ALL_CORES, 128 * MiB)
        b = run_cpu_config(sawtooth, ALL_CORES, 128 * MiB)
        assert a.reported == b.reported

    def test_rng_adds_jitter(self, sawtooth):
        rng = np.random.default_rng(0)
        a = run_cpu_config(sawtooth, ALL_CORES, 128 * MiB, rng=rng)
        b = run_cpu_config(sawtooth, ALL_CORES, 128 * MiB, rng=rng)
        assert a.reported["Dot"] != b.reported["Dot"]

    def test_too_small_array_rejected(self, sawtooth):
        with pytest.raises(BenchmarkConfigError):
            run_cpu_config(sawtooth, ALL_CORES, 8)

    def test_gpu_machine_without_cpu_calibration_rejected(self, frontier):
        with pytest.raises(BenchmarkConfigError):
            run_cpu_config(frontier, OmpEnvironment(num_threads=1), 128 * MiB)


class TestBestSelection:
    def test_single_thread_in_paper_band(self, sawtooth):
        best = best_cpu_bandwidth(sawtooth, single_thread=True, runs=5)
        assert 12.0 < to_gb_per_s(best.mean) < 14.0

    def test_all_threads_near_efficiency_cap(self, sawtooth):
        best = best_cpu_bandwidth(sawtooth, single_thread=False, runs=5)
        cap = (
            2 * sawtooth.node.cpu.memory.peak_bandwidth
            * sawtooth.calibration.cpu_stream.allcore_efficiency
        )
        assert best.mean == pytest.approx(cap, rel=0.05)

    def test_winner_is_bound_config(self, sawtooth):
        best = best_cpu_bandwidth(sawtooth, single_thread=False, runs=5)
        assert best.env.proc_bind is not None

    def test_deterministic_mode(self, sawtooth):
        a = best_cpu_bandwidth(
            sawtooth, single_thread=True, runs=1, deterministic=True
        )
        b = best_cpu_bandwidth(
            sawtooth, single_thread=True, runs=1, deterministic=True
        )
        assert a.mean == b.mean and a.std == 0.0

    def test_deterministic_mode_builds_no_generator(self, sawtooth, monkeypatch):
        def refuse(self, seed):
            raise AssertionError("a deterministic sweep built a generator")

        monkeypatch.setattr(Generator, "__init__", refuse)
        best = best_cpu_bandwidth(
            sawtooth, single_thread=False, runs=2, deterministic=True
        )
        assert best.std == 0.0

    def test_reproducible_with_same_streams(self, sawtooth):
        a = best_cpu_bandwidth(
            sawtooth, single_thread=False, runs=5, streams=RandomStreams(3)
        )
        b = best_cpu_bandwidth(
            sawtooth, single_thread=False, runs=5, streams=RandomStreams(3)
        )
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_zero_runs_rejected(self, sawtooth):
        with pytest.raises(BenchmarkConfigError):
            best_cpu_bandwidth(sawtooth, single_thread=True, runs=0)


class TestSizeSweep:
    def test_default_sizes_span_paper_range(self):
        sizes = default_cpu_sizes()
        assert sizes[0] == (1 << 14) * 8    # 16k doubles
        assert sizes[-1] == (1 << 27) * 8   # 128M doubles
        # powers of two
        for a, b in zip(sizes, sizes[1:]):
            assert b == 2 * a

    def test_curve_monotone_to_plateau(self, sawtooth):
        curve = cpu_size_curve(sawtooth, ALL_CORES)
        values = [bw for _size, bw in curve]
        assert values == sorted(values)
        # plateau: last two sizes within 2%
        assert values[-1] == pytest.approx(values[-2], rel=0.02)

    def test_small_sizes_overhead_bound(self, sawtooth):
        curve = cpu_size_curve(sawtooth, ALL_CORES)
        assert curve[0][1] < 0.5 * curve[-1][1]
