"""Chaos properties: crashed workers and killed runs leave no trace.

Two acceptance contracts (DESIGN.md 5g):

* **crash transparency** — a run whose workers are deterministically
  SIGKILLed mid-study (``WorkerCrash``) renders tables, resilience
  logs, artifacts and simulation metrics byte-identical to a clean
  serial run at any jobs count; the only evidence is the advisory
  ``supervisor.*`` instruments.
* **resume transparency** — a study killed partway (simulated by
  deleting some entries of its ``--resume`` cache directory and
  leaving a half-written temp file behind) and rerun on the same
  directory replays the stored cells, recomputes the rest, and emits
  byte-identical final output.
"""

import warnings
from pathlib import Path

import pytest

from repro.core.study import Study, StudyConfig
from repro.core.tables import build_table4, build_table5, render_table4
from repro.faults import FaultPlan, WorkerCrash, WorkerStall
from repro.harness.cli import main
from repro.obs import ObsContext, metrics_snapshot, simulation_metrics
from repro.obs import runtime as obs

pytestmark = pytest.mark.chaos

CRASH_PLAN = FaultPlan(
    "crash-only",
    (WorkerCrash(at_cell=3, crashes=1), WorkerCrash(at_cell=11, crashes=2)),
)


def _outputs(jobs: int, plan=None):
    ctx = ObsContext.create()
    with obs.observability(ctx):
        study = Study(StudyConfig(runs=2, seed=404, jobs=jobs, faults=plan))
        tables = (build_table4(study), build_table5(study))
    return {
        "tables": tables,
        "resilience": list(study.resilience.entries),
        "metrics": simulation_metrics(metrics_snapshot(ctx.metrics)),
        "supervisor": (study.parallel_stats() or {}).get("supervisor"),
    }


class TestCrashTransparency:
    @pytest.fixture(scope="class")
    def clean_serial(self):
        return _outputs(1)

    @pytest.mark.parametrize("jobs", (2, 4))
    def test_killed_workers_leave_identical_bytes(self, clean_serial, jobs):
        chaotic = _outputs(jobs, plan=CRASH_PLAN)
        assert chaotic["tables"] == clean_serial["tables"]
        assert chaotic["resilience"] == []
        assert chaotic["metrics"] == clean_serial["metrics"]
        # ...and the crashes really happened
        assert chaotic["supervisor"]["retried"] >= 1
        assert chaotic["supervisor"]["pool_rebuilds"] >= 1

    def test_stall_under_deadline_leaves_identical_bytes(self, clean_serial):
        plan = FaultPlan("stall-only", (WorkerStall(at_cell=2, seconds=30.0),))
        ctx = ObsContext.create()
        with obs.observability(ctx):
            study = Study(StudyConfig(
                runs=2, seed=404, jobs=2, faults=plan, cell_timeout=1.0,
            ))
            tables = (build_table4(study), build_table5(study))
        assert tables == clean_serial["tables"]
        assert study.parallel_stats()["supervisor"]["timeouts"] >= 1

    def test_exhausted_cell_degrades_with_footnote(self):
        plan = FaultPlan("crash-only", (WorkerCrash(at_cell=1, crashes=99),))
        study = Study(StudyConfig(
            runs=2, seed=404, jobs=2, faults=plan, max_cell_retries=1,
        ))
        text = render_table4(build_table4(study))
        assert "—†" in text
        entry = study.resilience.entries[0]
        assert "worker failure" in entry.reason
        assert entry.attempts == 2

    def test_exhaustion_exits_3_from_the_cli(self, capsys, tmp_path,
                                             monkeypatch):
        # crash-degraded runs reuse the degraded exit status: the tables
        # rendered, but some cells carry the —† marker
        from repro.faults import profiles

        plan = FaultPlan("crash-only", (WorkerCrash(at_cell=1, crashes=99),))
        monkeypatch.setitem(profiles.PROFILES, "crash-test", plan)
        code = main(["table4", "--runs", "2", "--jobs", "2",
                     "--faults", "crash-test", "--max-cell-retries", "0"])
        captured = capsys.readouterr()
        assert code == 3
        assert "worker failure" in captured.err


class TestArtifactTransparency:
    def _bundle(self, capsys, tmp_path, name, argv):
        out = tmp_path / name
        assert main(["artifacts", "--runs", "2",
                     "--output", str(out), *argv]) == 0
        capsys.readouterr()
        return {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in out.rglob("*") if p.is_file()
        }

    def test_crashy_bundle_matches_clean_serial(self, capsys, tmp_path,
                                                monkeypatch):
        from repro.faults import profiles

        clean = self._bundle(capsys, tmp_path, "clean", [])
        # route a crash-only plan through the CLI via a patched profile
        monkeypatch.setitem(profiles.PROFILES, "crash-test", CRASH_PLAN)
        crashy = self._bundle(capsys, tmp_path, "crashy",
                              ["--jobs", "2", "--faults", "crash-test"])
        assert set(crashy) == set(clean)
        for relpath in sorted(clean):
            assert crashy[relpath] == clean[relpath], relpath


class TestResumeTransparency:
    def _run(self, capsys, directory, extra=()):
        code = main(["table4", "table5", "--runs", "2",
                     "--resume", str(directory), *extra])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def _interrupt(directory: Path, keep: int) -> int:
        """Simulate a kill mid-study: keep ``keep`` entries, delete the
        rest, and leave the half-written temp file an interrupted store
        leaves behind.  Returns how many entries the full run stored."""
        entries = sorted(directory.glob("*.pkl"))
        assert len(entries) > keep
        raw = entries[keep].read_bytes()
        for victim in entries[keep:]:
            victim.unlink()
        Path(f"{entries[keep]}.tmp.99999").write_bytes(raw[: len(raw) // 2])
        return len(entries)

    def test_interrupted_study_resumes_byte_identically(self, capsys,
                                                        tmp_path):
        directory = tmp_path / "study.cells"
        code_a, full_out, _ = self._run(capsys, directory)
        assert code_a == 0
        stored = self._interrupt(directory, keep=7)

        code_b, resumed_out, err = self._run(capsys, directory)
        assert code_b == 0
        assert resumed_out == full_out
        missed = stored - 7
        assert (f"cell cache: 7 hit(s), {missed} miss(es), {missed} "
                f"store(s)") in err

        # a third run replays everything and recomputes nothing
        code_c, again_out, err = self._run(capsys, directory)
        assert code_c == 0
        assert again_out == full_out
        assert f"{stored} hit(s), 0 miss(es), 0 store(s)" in err

    def test_resume_composes_with_jobs_and_crashes(self, capsys, tmp_path,
                                                   monkeypatch):
        from repro.faults import profiles

        monkeypatch.setitem(profiles.PROFILES, "crash-test", CRASH_PLAN)
        chaos = ["--jobs", "2", "--faults", "crash-test"]
        directory = tmp_path / "study.cells"
        code_a, full_out, _ = self._run(capsys, directory, chaos)
        assert code_a == 0

        self._interrupt(directory, keep=5)
        code_b, resumed_out, err = self._run(capsys, directory, chaos)
        assert code_b == 0
        assert resumed_out == full_out
        assert "cell cache: 5 hit(s)" in err

    def test_old_journal_file_runs_uncached_with_one_warning(self, capsys,
                                                             tmp_path):
        # a checkpoint journal from an older release is a *file*; as a
        # cache directory it is unwritable, so the run warns once and
        # proceeds without the cache
        journal = tmp_path / "study.ckpt"
        journal.write_text('{"schema": 1}\n')
        code_a = main(["table4", "table5", "--runs", "2"])
        plain_out = capsys.readouterr().out
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code_b, out, err = self._run(capsys, journal)
        assert code_a == code_b == 0
        assert out == plain_out
        assert "0 hit(s)" in err and "0 store(s)" in err
        assert len([w for w in caught
                    if "cannot write cell-cache entry" in str(w.message)]) == 1
