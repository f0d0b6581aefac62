"""Tests for the BabelStream device backend."""

import numpy as np
import pytest

from repro.benchmarks.babelstream.gpu import run_gpu_stream
from repro.benchmarks.babelstream.sweep import best_gpu_bandwidth, default_gpu_size
from repro.errors import BenchmarkConfigError
from repro.units import to_gb_per_s

ONE_GIB = 1 << 30


class TestSingleRun:
    def test_reports_all_five_ops(self, frontier):
        run = run_gpu_stream(frontier, ONE_GIB)
        assert set(run.reported) == {"Copy", "Mul", "Add", "Triad", "Dot"}

    def test_no_write_allocate_on_device(self, frontier):
        """Copy ~ Triad on GPU (unlike CPU, where Dot wins)."""
        run = run_gpu_stream(frontier, ONE_GIB)
        assert run.reported["Copy"] == pytest.approx(
            run.reported["Triad"], rel=0.01
        )

    def test_dot_is_not_the_winner_on_device(self, frontier):
        run = run_gpu_stream(frontier, ONE_GIB)
        op, _bw = run.best_op()
        assert op != "Dot"

    def test_cpu_machine_rejected(self, sawtooth):
        with pytest.raises(BenchmarkConfigError):
            run_gpu_stream(sawtooth, ONE_GIB)

    def test_exceeding_device_memory_rejected(self, summit):
        # V100 has 16 GiB; three 8 GiB arrays cannot fit
        with pytest.raises(BenchmarkConfigError):
            run_gpu_stream(summit, 8 * ONE_GIB)

    def test_small_size_launch_bound(self, frontier):
        small = run_gpu_stream(frontier, 16 * 1024)
        large = run_gpu_stream(frontier, ONE_GIB)
        assert small.best_op()[1] < 0.1 * large.best_op()[1]


class TestBestSelection:
    def test_default_size_is_1gib(self):
        assert default_gpu_size() == (1 << 27) * 8

    def test_paper_bands(self, gpu_machines_list):
        for m in gpu_machines_list:
            best = best_gpu_bandwidth(m, runs=3)
            bw = to_gb_per_s(best.mean)
            if m.accelerator_family == "V100":
                assert 750 < bw < 880
            elif m.accelerator_family == "A100":
                assert 1300 < bw < 1400
            else:
                assert 1250 < bw < 1360

    def test_below_vendor_peak(self, gpu_machines_list):
        for m in gpu_machines_list:
            best = best_gpu_bandwidth(m, runs=3)
            assert best.mean < m.node.gpus[0].peak_bandwidth

    def test_device_index_respected(self, frontier):
        a = best_gpu_bandwidth(frontier, runs=3, device=0)
        b = best_gpu_bandwidth(frontier, runs=3, device=5)
        # same GCD spec: same distribution (not identical samples)
        assert a.mean == pytest.approx(b.mean, rel=0.01)

    def test_reproducible(self, frontier):
        from repro.sim.random import RandomStreams

        a = best_gpu_bandwidth(frontier, runs=4, streams=RandomStreams(9))
        b = best_gpu_bandwidth(frontier, runs=4, streams=RandomStreams(9))
        np.testing.assert_array_equal(a.samples, b.samples)


class TestDualGcd:
    def test_both_gcds_roughly_double(self, frontier):
        """Paper section 4: an MI250X's bandwidth "would be roughly
        double what is reported if another GPU stream were copying data
        at the same time" — each GCD has its own HBM stacks."""
        from repro.gpurt.api import DeviceRuntime
        from repro.gpurt.kernel import stream_kernel
        from repro.memsys.writealloc import TRIAD

        single = run_gpu_stream(frontier, ONE_GIB).reported["Triad"]
        rt = DeviceRuntime(frontier)
        spec = stream_kernel(TRIAD, ONE_GIB)
        done = {}

        def host():
            t0 = rt.env.now
            c0 = yield from rt.launch_kernel(spec, device=0)
            c1 = yield from rt.launch_kernel(spec, device=1)
            yield c0.completion
            yield c1.completion
            done["elapsed"] = rt.env.now - t0

        rt.run(host())
        aggregate = 2 * TRIAD.counted_bytes(ONE_GIB) / done["elapsed"]
        assert 1.85 < aggregate / single < 2.05
        # and the aggregate approaches the advertised package figure
        assert to_gb_per_s(aggregate) > 2500
