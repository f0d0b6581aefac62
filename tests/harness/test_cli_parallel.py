"""CLI ``--jobs``: golden byte-identity between serial and parallel runs.

The acceptance property of the parallel scheduler: ``--jobs N`` is an
execution detail, not an output mode.  stdout, the resilience summary,
the exit code and every file in the artifact bundle must match the
serial run byte for byte (host wall-times never reach any artifact —
they are advisory-only by design).
"""

import pytest

from repro.harness.cli import main

pytestmark = pytest.mark.parallel

FAST = ["--runs", "2"]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStdoutGolden:
    def test_table4_jobs4_byte_identical(self, capsys):
        code_a, serial, _ = _run(capsys, ["table4", *FAST])
        code_b, parallel, _ = _run(capsys, ["table4", *FAST, "--jobs", "4"])
        assert code_a == code_b == 0
        assert parallel == serial

    def test_gpu_tables_jobs2_byte_identical(self, capsys):
        code_a, serial, _ = _run(capsys, ["table5", "table6", "table7", *FAST])
        code_b, parallel, _ = _run(
            capsys, ["table5", "table6", "table7", *FAST, "--jobs", "2"]
        )
        assert code_a == code_b == 0
        assert parallel == serial

    def test_faulty_run_matches_serial_exit_and_stderr(self, capsys):
        # --no-ledger: the ledger notice names a content-addressed run id
        # whose manifest records the jobs count, so it legitimately
        # differs between the serial and parallel run
        argv = ["table4", "table5", *FAST, "--faults", "chaos",
                "--seed", "77", "--no-ledger"]
        code_a, out_a, err_a = _run(capsys, argv)
        code_b, out_b, err_b = _run(capsys, argv + ["--jobs", "4"])
        assert code_a == code_b  # EXIT_DEGRADED propagates identically
        assert out_a == out_b
        assert err_a == err_b  # same resilience summary, same order

    def test_jobs_zero_resolves_to_all_cores(self, capsys):
        code_a, serial, _ = _run(capsys, ["table4", *FAST])
        code_b, parallel, _ = _run(capsys, ["table4", *FAST, "--jobs", "0"])
        assert code_a == code_b == 0
        assert parallel == serial


class TestRepeatedCellRequests:
    """table7, compare and report request cells that table5/6 already
    did.  A repeated request replays the cell's one computation at any
    jobs count, so fault draws never continue into a second run."""

    @pytest.mark.parametrize("argv", [
        ["table5", "table7", "--faults", "chaos"],
        ["all", "--faults", "noisy"],
    ])
    def test_faulty_serial_run_matches_parallel(self, capsys, argv):
        argv = [*argv, *FAST, "--seed", "4", "--no-ledger"]
        code_a, out_a, err_a = _run(capsys, argv)
        code_b, out_b, err_b = _run(capsys, argv + ["--jobs", "2"])
        assert code_a == code_b
        assert out_a == out_b
        assert err_a == err_b  # the resilience summary


class TestArtifactGolden:
    def _bundle(self, capsys, tmp_path, jobs):
        out = tmp_path / f"bundle-{jobs}"
        code = main(["artifacts", *FAST, "--jobs", str(jobs),
                     "--output", str(out)])
        capsys.readouterr()
        assert code == 0
        return {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in out.rglob("*") if p.is_file()
        }

    def test_bundle_byte_identical(self, capsys, tmp_path):
        serial = self._bundle(capsys, tmp_path, 1)
        parallel = self._bundle(capsys, tmp_path, 4)
        assert set(parallel) == set(serial)
        for relpath in sorted(serial):
            assert parallel[relpath] == serial[relpath], relpath


class TestJobsValidation:
    def test_negative_jobs_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table4", *FAST, "--jobs", "-2"])
        capsys.readouterr()
        assert excinfo.value.code == 2

    def test_non_integer_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table4", *FAST, "--jobs", "2.5"])
        capsys.readouterr()
        assert excinfo.value.code == 2
