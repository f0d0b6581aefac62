"""Statistical validation of the measurement protocol.

The study's fast path vectorises run-to-run jitter instead of running
every binary through the discrete-event simulator; these tests verify
(with scipy) that the two paths produce the *same distribution*, and
that reported standard deviations behave like the paper's.
"""

import numpy as np
import pytest
from scipy import stats

from repro.benchmarks.commscope.launch import launch_latency
from repro.benchmarks.commscope.memcpy_tests import memcpy_pinned_to_gpu
from repro.benchmarks.osu.latency import measure_pingpong
from repro.benchmarks.osu.runner import PairKind, latency_for_pair
from repro.core.study import Study, StudyConfig
from repro.core.tables import build_table4
from repro.machines.registry import get_machine
from repro.mpisim.placement import on_socket_pair
from repro.mpisim.transport import BufferKind
from repro.sim.random import NOISE_LATENCY, NoiseModel, RandomStreams
from repro.units import to_us


def _sawtooth_pingpong_us(nbytes):
    machine = get_machine("sawtooth")
    return to_us(measure_pingpong(
        machine, on_socket_pair(machine), nbytes, BufferKind.HOST,
        timed_iterations=1500, warmup=8,
    ))


def _sawtooth_table4_us(column):
    study = Study(StudyConfig(runs=5, seed=20230612))
    row = build_table4(study, machines=[get_machine("sawtooth")])[0]
    return getattr(row, column).mean


class TestDistributionAgreement:
    def test_exact_vs_vectorised_ks(self, eagle):
        """KS test cannot distinguish the two execution modes."""
        runs = 200
        # exact: rerun the DES benchmark per execution with jitter
        rng = np.random.default_rng(123)
        exact = np.array([
            latency_for_pair(eagle, PairKind.ON_SOCKET, rng=rng).latency
            for _ in range(runs)
        ])
        # vectorised: one DES run + sampled jitter
        base = latency_for_pair(eagle, PairKind.ON_SOCKET).latency
        vec = NOISE_LATENCY.sample_many(
            np.random.default_rng(456), base, runs
        )
        _stat, pvalue = stats.ks_2samp(exact, vec)
        assert pvalue > 0.01

    def test_lognormal_shape(self):
        """The jitter model is lognormal: log-samples pass normality."""
        noise = NoiseModel(sigma=0.05)
        samples = noise.sample_many(np.random.default_rng(7), 1.0, 2000)
        _stat, pvalue = stats.normaltest(np.log(samples))
        assert pvalue > 0.01

    def test_study_std_scales_with_sigma(self, sawtooth):
        """Reported CoV tracks the configured noise class."""
        study = Study(StudyConfig(runs=400, seed=9))
        stat = study.cpu_bandwidth(sawtooth, single_thread=False)
        from repro.sim.random import NOISE_CPU_BANDWIDTH

        assert stat.relative_std() == pytest.approx(
            NOISE_CPU_BANDWIDTH.sigma, rel=0.3
        )


class TestReproducibility:
    def test_full_study_bit_stable(self, eagle):
        """Two studies with the same seed agree to the last bit."""
        a = Study(StudyConfig(runs=50, seed=2024))
        b = Study(StudyConfig(runs=50, seed=2024))
        sa = a.host_latency(eagle, PairKind.ON_SOCKET)
        sb = b.host_latency(eagle, PairKind.ON_SOCKET)
        assert sa.mean == sb.mean and sa.std == sb.std

    def test_metrics_use_independent_streams(self, eagle):
        """Different metrics on one machine draw independent jitter."""
        streams = RandomStreams(1)
        a = streams.get("Eagle", "osu", "on-socket").standard_normal(64)
        b = streams.get("Eagle", "osu", "on-node").standard_normal(64)
        corr = abs(np.corrcoef(a, b)[0, 1])
        assert corr < 0.35

    def test_machines_use_independent_streams(self):
        streams = RandomStreams(1)
        a = streams.get("Eagle", "osu", "on-socket").standard_normal(64)
        b = streams.get("Manzano", "osu", "on-socket").standard_normal(64)
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("measure, reference", [
        pytest.param(lambda: _sawtooth_pingpong_us(0),
                     (0.48000, -0.02, 0.02, "us"),
                     id="osu/sawtooth/on-socket-0b"),
        pytest.param(lambda: _sawtooth_pingpong_us(1 << 20),
                     (25.4271, -0.02, 0.02, "us"),
                     id="osu/sawtooth/on-socket-1mb"),
        pytest.param(lambda: to_us(memcpy_pinned_to_gpu(
                         get_machine("frontier"), 128).seconds),
                     (12.6151, -0.02, 0.02, "us"),
                     id="commscope/frontier/h2d-128b"),
        pytest.param(lambda: to_us(launch_latency(get_machine("summit"))),
                     (4.84, -0.02, 0.02, "us"),
                     id="commscope/summit/launch"),
        pytest.param(lambda: _sawtooth_table4_us("on_socket"),
                     (0.478641, -0.02, 0.02, "us"),
                     id="study/table4-sawtooth/on-socket"),
        pytest.param(lambda: _sawtooth_table4_us("on_node"),
                     (0.480253, -0.02, 0.02, "us"),
                     id="study/table4-sawtooth/on-node"),
    ])
    def test_committed_baseline_values(self, measure, reference):
        """The six simulated values ``BENCH_baseline.json`` gates stay
        within 2 % of its means, ReFrame-style ``(value, lower, upper,
        unit)`` references with relative bounds."""
        value, lower, upper, _unit = reference
        assert value * (1 + lower) <= measure() <= value * (1 + upper)


class TestPaperLikeSpread:
    def test_reported_cov_in_paper_range(self, paper_study, frontier):
        """Paper CoVs run ~0.05%-3%; ours must land in that band."""
        stat = paper_study.gpu_bandwidth(frontier)
        assert 0.0002 < stat.relative_std() < 0.03
        cs = paper_study.commscope(frontier)
        assert 0.0005 < cs.launch.relative_std() < 0.03
