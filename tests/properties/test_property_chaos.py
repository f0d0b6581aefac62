"""Resume properties: a killed run, or one a dead worker ended, leaves
no trace.

The acceptance contract (DESIGN.md 5g): a study killed partway
(simulated by deleting some entries of its ``--resume`` cache directory
and leaving a half-written temp file behind), or ended by a worker
process that died under ``--jobs``, and rerun on the same directory
replays the stored cells, recomputes the rest, and emits byte-identical
final output.
"""

import multiprocessing
import os
import signal
import warnings
from pathlib import Path

import pytest

from repro.harness.cli import main

pytestmark = pytest.mark.chaos


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

    def test_resume_composes_with_jobs_and_crashes(self, capsys, tmp_path):
        jobs = ["--jobs", "2"]
        directory = tmp_path / "study.cells"
        code_a, full_out, _ = self._run(capsys, directory, jobs)
        assert code_a == 0

        self._interrupt(directory, keep=5)
        code_b, resumed_out, err = self._run(capsys, directory, jobs)
        assert code_b == 0
        assert resumed_out == full_out
        assert "cell cache: 5 hit(s)" in err

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the worker must inherit the patched CellTask.run_on",
    )
    def test_dead_worker_ends_the_run_and_resume_finishes_it(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.core.parallel import CellTask
        from repro.errors import CellExecutionError

        assert main(["table4", "table5", "--runs", "2"]) == 0
        clean_out = capsys.readouterr().out

        parent = os.getpid()
        real_run_on = CellTask.run_on

        def run_on(task, study):
            # SIGKILL the worker that computes this one cell
            if (os.getpid() != parent
                    and task.label() == ("Trinity", "osu", "on-node")):
                os.kill(os.getpid(), signal.SIGKILL)
            return real_run_on(task, study)

        directory = tmp_path / "study.cells"
        monkeypatch.setattr(CellTask, "run_on", run_on)
        with pytest.raises(CellExecutionError) as excinfo:
            self._run(capsys, directory, ["--jobs", "2"])
        monkeypatch.undo()
        capsys.readouterr()
        assert "Trinity/osu/on-node" in str(excinfo.value)
        # the cells that finished before the worker died are stored;
        # the rest of the 20-cell CPU roster and the GPU roster are not
        stored = len(list(directory.glob("*.pkl")))
        assert 0 < stored < 20

        code, resumed_out, err = self._run(capsys, directory)
        assert code == 0
        assert resumed_out == clean_out
        assert f"cell cache: {stored} hit(s)" in err

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
