"""Tests for the study orchestration (the 100-execution protocol)."""

import pytest

from repro.benchmarks.osu.runner import PairKind
from repro.core.study import Study, StudyConfig
from repro.errors import BenchmarkConfigError
from repro.hardware.topology import LinkClass
from repro.units import to_gb_per_s, to_us


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = StudyConfig()
        assert cfg.runs == 100
        assert not cfg.exact

    def test_zero_runs_rejected(self):
        with pytest.raises(BenchmarkConfigError):
            StudyConfig(runs=0)

    def test_jobs_default_is_serial(self):
        assert StudyConfig().jobs == 1
        assert Study(StudyConfig(runs=2)).scheduler.jobs == 1

    @pytest.mark.parametrize("bad", [-1, -7, 1.5, 2.0, "2", None, True])
    def test_invalid_jobs_rejected(self, bad):
        with pytest.raises(BenchmarkConfigError):
            StudyConfig(runs=2, jobs=bad)

    @pytest.mark.parametrize("ok", [0, 1, 2, 16])
    def test_valid_jobs_accepted(self, ok):
        assert StudyConfig(runs=2, jobs=ok).jobs == ok

    @pytest.mark.parametrize("bad", [0, -1.0, True, "30"])
    def test_invalid_cell_timeout_rejected(self, bad):
        with pytest.raises(BenchmarkConfigError):
            StudyConfig(runs=2, cell_timeout=bad)

    @pytest.mark.parametrize("bad", [-1, 1.5, True, None])
    def test_invalid_max_cell_retries_rejected(self, bad):
        with pytest.raises(BenchmarkConfigError):
            StudyConfig(runs=2, max_cell_retries=bad)



class TestCellReuse:
    """A registry cell is computed once per study; a repeated request
    replays that computation instead of running the cell again."""

    @pytest.fixture
    def computed(self, monkeypatch):
        from repro.core import study as study_module

        labels = []
        real = study_module.run_cell

        def counting(fn, **kwargs):
            labels.append(kwargs["label"])
            return real(fn, **kwargs)

        monkeypatch.setattr(study_module, "run_cell", counting)
        return labels

    def test_repeated_request_runs_the_cell_once(self, computed, sawtooth):
        study = Study(StudyConfig(runs=2, seed=7))
        first = study.host_latency(sawtooth, PairKind.ON_SOCKET)
        again = study.host_latency(sawtooth, PairKind.ON_SOCKET)
        assert computed == [("Sawtooth", "osu", "on-socket")]
        assert (again.mean, again.std) == (first.mean, first.std)
        assert study.parallel_stats()["cells"] == 1

    def test_only_the_requested_cell_is_computed(self, computed, frontier):
        study = Study(StudyConfig(runs=2, seed=7))
        study.gpu_bandwidth(frontier)
        assert computed == [("Frontier", "babelstream-gpu")]

    def test_user_built_machine_runs_on_every_request(self, computed,
                                                      sawtooth):
        from dataclasses import replace

        mutated = replace(sawtooth, location="elsewhere")
        study = Study(StudyConfig(runs=2, seed=7))
        study.host_latency(mutated, PairKind.ON_SOCKET)
        study.host_latency(mutated, PairKind.ON_SOCKET)
        assert computed == [("Sawtooth", "osu", "on-socket")] * 2
        assert study.parallel_stats()["cells"] == 0


class TestCellExecutionError:
    def test_bug_in_cell_is_wrapped_with_identity(self, monkeypatch):
        # a genuine programming error must surface as CellExecutionError
        # naming the cell — and never degrade into a —† marker
        from repro.errors import CellExecutionError
        from repro.machines.registry import get_machine

        study = Study(StudyConfig(runs=2, seed=7))
        monkeypatch.setattr(
            Study, "_cpu_bandwidth",
            lambda self, machine, single: 1 / 0,
        )
        with pytest.raises(CellExecutionError) as excinfo:
            study.cpu_bandwidth(get_machine("sawtooth"), single_thread=True)
        message = str(excinfo.value)
        assert "Sawtooth/babelstream-cpu/single" in message
        assert "seed 7" in message
        assert "ZeroDivisionError" in message
        assert isinstance(excinfo.value.__cause__, ZeroDivisionError)
        assert study.resilience.degraded_count == 0


class TestStatistics:
    def test_sample_count_matches_runs(self, fast_study, sawtooth):
        stat = fast_study.cpu_bandwidth(sawtooth, single_thread=True)
        assert stat.n == fast_study.config.runs

    def test_reproducible_across_instances(self, sawtooth):
        a = Study(StudyConfig(runs=5, seed=11)).cpu_bandwidth(sawtooth, True)
        b = Study(StudyConfig(runs=5, seed=11)).cpu_bandwidth(sawtooth, True)
        assert a.mean == b.mean and a.std == b.std

    def test_seed_changes_samples(self, sawtooth):
        a = Study(StudyConfig(runs=5, seed=1)).cpu_bandwidth(sawtooth, True)
        b = Study(StudyConfig(runs=5, seed=2)).cpu_bandwidth(sawtooth, True)
        assert a.mean != b.mean

    def test_nonzero_spread(self, fast_study, sawtooth):
        stat = fast_study.cpu_bandwidth(sawtooth, single_thread=False)
        assert stat.std > 0


class TestExactVsVectorised:
    """The two execution modes must agree in distribution."""

    def test_cpu_bandwidth_means_agree(self, sawtooth):
        fast = Study(StudyConfig(runs=30, seed=5))
        exact = Study(StudyConfig(runs=30, seed=5, exact=True))
        a = fast.cpu_bandwidth(sawtooth, single_thread=True)
        b = exact.cpu_bandwidth(sawtooth, single_thread=True)
        assert a.mean == pytest.approx(b.mean, rel=0.02)

    def test_host_latency_means_agree(self, eagle):
        fast = Study(StudyConfig(runs=20, seed=5))
        exact = Study(StudyConfig(runs=20, seed=5, exact=True))
        a = fast.host_latency(eagle, PairKind.ON_SOCKET)
        b = exact.host_latency(eagle, PairKind.ON_SOCKET)
        assert a.mean == pytest.approx(b.mean, rel=0.05)

    def test_commscope_means_agree(self, frontier):
        fast = Study(StudyConfig(runs=10, seed=5))
        exact = Study(StudyConfig(runs=10, seed=5, exact=True))
        a = fast.commscope(frontier)
        b = exact.commscope(frontier)
        assert a.launch.mean == pytest.approx(b.launch.mean, rel=0.02)
        assert a.d2d_latency[LinkClass.A].mean == pytest.approx(
            b.d2d_latency[LinkClass.A].mean, rel=0.05
        )

    def test_gpu_bandwidth_means_agree(self, frontier):
        fast = Study(StudyConfig(runs=10, seed=5))
        exact = Study(StudyConfig(runs=10, seed=5, exact=True))
        a = fast.gpu_bandwidth(frontier)
        b = exact.gpu_bandwidth(frontier)
        assert a.mean == pytest.approx(b.mean, rel=0.02)


class TestMeasurements:
    def test_device_latency_classes(self, fast_study, frontier):
        stats = fast_study.device_latency(frontier)
        assert set(stats) == {
            LinkClass.A, LinkClass.B, LinkClass.C, LinkClass.D
        }

    def test_commscope_all_fields(self, fast_study, summit):
        cs = fast_study.commscope(summit)
        assert to_us(cs.launch.mean) == pytest.approx(4.84, rel=0.05)
        assert to_us(cs.wait.mean) == pytest.approx(4.31, rel=0.05)
        assert to_gb_per_s(cs.hd_bandwidth.mean) == pytest.approx(44.9, rel=0.05)
        assert set(cs.d2d_latency) == {LinkClass.A, LinkClass.B}

    def test_custom_gpu_size(self, frontier):
        study = Study(StudyConfig(runs=3, gpu_array_bytes=1 << 26))
        stat = study.gpu_bandwidth(frontier)
        assert stat.mean > 0
