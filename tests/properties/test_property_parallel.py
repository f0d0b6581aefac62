"""Determinism-equivalence properties of parallel study execution.

The contract under test (DESIGN.md 5e): for any worker count, a study
is a pure function of ``(seed, config)`` — results, degraded cells,
resilience order and every merged ``sim.*``/``study.*`` counter and
histogram are *exactly* equal to the serial run, not statistically
close.  These tests pin that with full-roster table builds, both clean
and under a seeded fault plan that degrades real cells.

Equality is asserted on :func:`simulation_metrics` — the
execution-layer ``cache.*`` instruments record how a run executed on
this host and are advisory, like wall times.
"""

import pytest

from repro.core.study import Study, StudyConfig
from repro.core.tables import build_table4, build_table5, build_table6
from repro.faults import get_profile
from repro.obs import ObsContext, metrics_snapshot, simulation_metrics
from repro.obs import runtime as obs

pytestmark = pytest.mark.parallel

JOBS = (1, 2, 4)


def _study_outputs(jobs: int, faults: str = "none"):
    """Everything observable from one full study pass, exactly."""
    ctx = ObsContext.create()
    with obs.observability(ctx):
        study = Study(StudyConfig(
            runs=2, seed=404, jobs=jobs, faults=get_profile(faults),
        ))
        tables = (
            build_table4(study), build_table5(study), build_table6(study)
        )
    return {
        "tables": tables,
        "resilience": list(study.resilience.entries),
        "summary": study.resilience.summary(),
        "metrics": simulation_metrics(metrics_snapshot(ctx.metrics)),
    }


class TestCleanEquivalence:
    @pytest.fixture(scope="class")
    def runs(self):
        return {jobs: _study_outputs(jobs) for jobs in JOBS}

    @pytest.mark.parametrize("jobs", JOBS[1:])
    def test_tables_exactly_equal(self, runs, jobs):
        assert runs[jobs]["tables"] == runs[1]["tables"]

    @pytest.mark.parametrize("jobs", JOBS[1:])
    def test_no_degradation_anywhere(self, runs, jobs):
        assert runs[jobs]["resilience"] == []

    @pytest.mark.parametrize("jobs", JOBS[1:])
    def test_merged_metrics_match_serial(self, runs, jobs):
        assert runs[jobs]["metrics"] == runs[1]["metrics"]


class TestFaultEquivalence:
    """--faults must compose with --jobs: same degraded cells, same order."""

    @pytest.fixture(scope="class")
    def runs(self):
        return {jobs: _study_outputs(jobs, faults="chaos") for jobs in JOBS}

    def test_fault_plan_actually_bites(self, runs):
        # the equivalence below must not hold vacuously
        assert runs[1]["resilience"]

    @pytest.mark.parametrize("jobs", JOBS[1:])
    def test_tables_exactly_equal_under_faults(self, runs, jobs):
        assert runs[jobs]["tables"] == runs[1]["tables"]

    @pytest.mark.parametrize("jobs", JOBS[1:])
    def test_degraded_cells_identical(self, runs, jobs):
        assert runs[jobs]["resilience"] == runs[1]["resilience"]
        assert runs[jobs]["summary"] == runs[1]["summary"]

    @pytest.mark.parametrize("jobs", JOBS[1:])
    def test_fault_counters_match_serial(self, runs, jobs):
        mine, serial = runs[jobs]["metrics"], runs[1]["metrics"]
        assert mine == serial
        fired = [
            name for name, entry in serial["instruments"].items()
            if name.startswith("faults.injected.") and entry["value"] > 0
        ]
        assert fired  # injections really happened and still merged equal


class TestRepeatability:
    def test_parallel_run_equals_itself(self):
        assert _study_outputs(2) == _study_outputs(2)
