"""Tests for the parallel cell scheduler building blocks."""

import pickle

import pytest

from repro.benchmarks.osu.runner import PairKind
from repro.core.parallel import (
    CellOutcome,
    CellScheduler,
    CellTask,
    execute_cell,
    plan_tasks,
    resolve_jobs,
)
from repro.core.study import Study, StudyConfig
from repro.errors import BenchmarkConfigError
from repro.machines.registry import get_machine


class TestResolveJobs:
    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_positive_passthrough(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7


class TestCellTask:
    def test_tasks_pickle_small(self):
        task = CellTask("frontier", "commscope")
        assert pickle.loads(pickle.dumps(task)) == task

    def test_label_matches_study_cell_labels(self):
        assert CellTask("sawtooth", "cpu_bandwidth", "single").label() == (
            "Sawtooth", "babelstream-cpu", "single"
        )
        assert CellTask("frontier", "gpu_bandwidth").label() == (
            "Frontier", "babelstream-gpu"
        )
        assert CellTask("eagle", "host_latency", "on-node").label() == (
            "Eagle", "osu", "on-node"
        )
        assert CellTask("summit", "device_latency").label() == (
            "Summit", "osu", "device"
        )
        assert CellTask("polaris", "commscope").label() == ("Polaris", "cs")

    def test_unknown_method_rejected(self):
        with pytest.raises(BenchmarkConfigError):
            CellTask("frontier", "frobnicate").label()

    def test_run_on_matches_direct_call(self):
        study_a = Study(StudyConfig(runs=2, seed=3))
        study_b = Study(StudyConfig(runs=2, seed=3))
        via_task = CellTask("sawtooth", "cpu_bandwidth", "single").run_on(
            study_a
        )
        direct = study_b.cpu_bandwidth(get_machine("sawtooth"), True)
        assert via_task.mean == direct.mean
        assert via_task.std == direct.std


class TestPlanTasks:
    def test_cpu_roster_covers_table4(self):
        tasks = plan_tasks("cpu")
        assert len(tasks) == 20  # 5 machines x (2 openmp + 2 pair kinds)
        assert len({t.label() for t in tasks}) == 20

    def test_gpu_roster_covers_tables_5_and_6(self):
        tasks = plan_tasks("gpu")
        assert len(tasks) == 32  # 8 machines x 4 cells
        methods = {t.method for t in tasks}
        assert methods == {
            "gpu_bandwidth", "host_latency", "device_latency", "commscope"
        }

    def test_unknown_group_rejected(self):
        with pytest.raises(BenchmarkConfigError):
            plan_tasks("tpu")


class TestExecuteCell:
    def test_outcome_is_picklable_and_correct(self):
        config = StudyConfig(runs=2, seed=3)
        task = CellTask("sawtooth", "host_latency", "on-socket")
        outcome = execute_cell(config, task, obs_enabled=False, profile=False)
        assert isinstance(outcome, CellOutcome)
        roundtrip = pickle.loads(pickle.dumps(outcome))
        serial = Study(config).host_latency(
            get_machine("sawtooth"), PairKind.ON_SOCKET
        )
        assert roundtrip.result.mean == serial.mean
        assert roundtrip.degraded == []
        assert roundtrip.wall_seconds >= 0


class TestCellScheduler:
    def test_non_registry_machine_falls_back_to_serial(self):
        from dataclasses import replace

        scheduler = CellScheduler(StudyConfig(runs=2, jobs=2))
        mutated = replace(get_machine("sawtooth"), location="elsewhere")
        assert scheduler.lookup(mutated, ("Sawtooth", "osu", "on-socket")) is None
        assert scheduler.stats()["cells"] == 0

    def test_mutated_copy_with_registry_name_not_cached(self):
        # a copy sharing the registry name must not be served stale
        # outcomes computed from the registry definition
        import copy

        scheduler = CellScheduler(StudyConfig(runs=2, jobs=2))
        clone = copy.deepcopy(get_machine("sawtooth"))
        assert scheduler.lookup(clone, ("Sawtooth", "osu", "on-socket")) is None

    def test_parallel_study_serves_all_cpu_cells(self):
        study = Study(StudyConfig(runs=2, seed=3, jobs=2))
        assert study.scheduler is not None
        stat = study.host_latency(
            get_machine("sawtooth"), PairKind.ON_SOCKET
        )
        stats = study.parallel_stats()
        assert stat.mean > 0
        assert stats["cells"] == 20
        assert set(stats["group_wall_seconds"]) == {"cpu"}
        assert all(w >= 0 for w in stats["cell_wall_seconds"].values())
        assert stats["jobs"] == 2

    def test_serial_study_stats_carry_no_supervisor(self):
        stats = Study(StudyConfig(runs=2)).parallel_stats()
        assert stats["jobs"] == 1
        assert stats["cells"] == 0
        assert "supervisor" not in stats
