"""Tests for the command-line harness."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.study import Study, StudyConfig
from repro.harness.cli import TARGETS, main, run_target


@pytest.fixture(scope="module")
def tiny_study():
    return Study(StudyConfig(runs=2, seed=1))


class TestRunTarget:
    def test_table1_lists_omp_combos(self, tiny_study):
        text = run_target("table1", tiny_study)
        assert "OMP_NUM_THREADS" in text
        assert "#cores" in text and "#threads" in text
        assert '"spread"' in text

    def test_table2_rows(self, tiny_study):
        text = run_target("table2", tiny_study)
        assert "29. Trinity" in text and "141. Manzano" in text

    def test_table3_rows(self, tiny_study):
        text = run_target("table3", tiny_study)
        assert "1. Frontier" in text and "MI250X" in text

    def test_table4(self, tiny_study):
        assert "109. Sawtooth" in run_target("table4", tiny_study)

    def test_table5(self, tiny_study):
        assert "Host-to-Host" in run_target("table5", tiny_study)

    def test_table6(self, tiny_study):
        assert "Launch (us)" in run_target("table6", tiny_study)

    def test_table7(self, tiny_study):
        text = run_target("table7", tiny_study)
        assert "V100" in text and "MI250X" in text

    def test_table8(self, tiny_study):
        assert "intel-mpi/2019.0.117" in run_target("table8", tiny_study)

    def test_table9(self, tiny_study):
        assert "cuda/11.0.3" in run_target("table9", tiny_study)

    def test_figures(self, tiny_study):
        assert "Frontier node" in run_target("figure1", tiny_study)
        assert "Summit node" in run_target("figure2", tiny_study)
        assert "Perlmutter node" in run_target("figure3", tiny_study)

    def test_compare(self, tiny_study):
        assert "RelErr" in run_target("compare", tiny_study)

    def test_unknown_target(self, tiny_study):
        with pytest.raises(ValueError):
            run_target("table99", tiny_study)


class TestMain:
    def test_single_target(self, capsys):
        assert main(["table2", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "==> table2" in out

    def test_multiple_targets(self, capsys):
        assert main(["table2", "table3", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "==> table2" in out and "==> table3" in out

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "out.txt"
        assert main(["table2", "--runs", "2", "--output", str(path)]) == 0
        assert "Trinity" in path.read_text()

    def test_bad_target_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["not-a-table"])

    def test_every_advertised_target_runs(self, capsys, tiny_study):
        for target in TARGETS:
            if target in ("all", "report", "artifacts", "sweeps"):
                continue  # covered elsewhere / too slow to repeat here
            assert run_target(target, tiny_study)

    def test_internode_target(self, tiny_study):
        text = run_target("internode", tiny_study)
        assert "Slingshot-11" in text and "Frontier" in text

    def test_artifacts_target_writes_bundle(self, tmp_path, capsys):
        assert main(["artifacts", "--runs", "2",
                     "--output", str(tmp_path / "bundle")]) == 0
        out = capsys.readouterr().out
        assert "files under" in out
        assert (tmp_path / "bundle" / "tables" / "table4.txt").exists()


#: the sections ``all`` prints, in order; ``check`` is the structural
#: self-check's header there, not the regression-check subcommand
ALL_SECTIONS = [
    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
    "table8", "table9", "figure1", "figure2", "figure3",
    "compare", "sweeps", "internode", "check", "report",
]
SELFCHECK_LINE = (
    "self-check passed: 13 machines, 6 check families, no findings"
)


class TestOneSelfCheck:
    @pytest.mark.parametrize(
        "argv", [["--seed", "3", "check"], ["table4", "check"]]
    )
    def test_check_is_not_a_positional_target(self, argv, capsys):
        # `check` is the regression-check subcommand: it must come first
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert "invalid choice: 'check'" in captured.err
        assert captured.out == ""

    def test_selfcheck_flags_add_no_sections(self, capsys, tmp_path):
        assert main(["selfcheck", "--runs", "2"]) == 0
        bare = capsys.readouterr().out
        assert bare.splitlines() == ["==> selfcheck", SELFCHECK_LINE, ""]
        for flags in (["--faults", "smoke"], ["--faults", "chaos"],
                      ["--cache-dir", str(tmp_path / "cells")]):
            assert main(["selfcheck", "--runs", "2", *flags]) == 0
            assert capsys.readouterr().out == bare, flags

    def test_all_keeps_its_check_section_in_place(self, capsys):
        assert main(["all", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        headers = [
            line.removeprefix("==> ") for line in out.splitlines()
            if line.startswith("==> ")
        ]
        assert headers == ALL_SECTIONS
        assert out.split("==> check\n", 1)[1].startswith(SELFCHECK_LINE)


#: blocks networkx (``import networkx`` raises ImportError), runs two
#: targets, then checks the block was never replaced by a real import
WITHOUT_NETWORKX = """
import sys
sys.modules["networkx"] = None
from repro.harness.cli import main
for argv in (["table2", "--no-ledger"],
             ["all", "--runs", "2", "--seed", "3", "--no-ledger"]):
    assert main(argv) == 0, argv
assert sys.modules.pop("networkx") is None
assert not [m for m in sys.modules if m.partition(".")[0] == "networkx"]
"""


def test_package_runs_without_networkx(tmp_path):
    src = Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_NETWORKX],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert "==> table2" in proc.stdout and "==> report" in proc.stdout
