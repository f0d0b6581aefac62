"""End-to-end tests for ``python -m repro check``.

These pin the acceptance criteria for the checks gate: exit 0 on the
committed paper references against a real study, exit 3 when a spec is
violated on the regression side, exit 4 when only inflated, exit 2 on
usage/spec errors, plus the ``--json``/``--only``/``--metrics``/
``--adaptive`` surfaces and the ``main()`` subcommand interception.
"""

import json
from pathlib import Path

import pytest

from repro.harness.check_cli import check_main
from repro.harness.cli import main

pytestmark = pytest.mark.checks

SUBSET = "table4.sawtooth.single,table4.sawtooth.on_socket"


def write_spec(path, *, value, lower=-0.05, upper=0.05,
               metric="sim.lat", mode="interval"):
    doc = {
        "schema": "repro.checks/v1",
        "suite": "tmp",
        "checks": [{
            "name": "lat",
            "path": f"metrics:{metric}",
            "reference": {"value": value, "lower": lower, "upper": upper,
                          "unit": "us"},
            "policy": {"mode": mode},
        }],
    }
    path.write_text(json.dumps(doc))
    return str(path)


def write_metrics(path, mean, name="sim.lat"):
    path.write_text(json.dumps(
        {name: {"mean": mean, "std": 0.0, "n": 1, "unit": "us"}}
    ))
    return str(path)


class TestPaperRefsGate:
    def test_committed_refs_exit_zero(self, capsys):
        """The CI invocation, on a table4 subset for speed: the
        committed references hold against a fresh study."""
        code = check_main(["--only", SUBSET, "--runs", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK: 2 passed" in out

    def test_json_report_is_valid_and_complete(self, capsys):
        code = check_main(["--only", SUBSET, "--runs", "6", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["schema"] == "repro.checks/v1"
        assert {r["name"] for r in doc["results"]} == set(SUBSET.split(","))
        assert all(r["status"] == "pass" for r in doc["results"])


class TestInjectedRegression:
    def test_regression_exits_three(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "s.json", value=1.0)
        metrics = write_metrics(tmp_path / "m.json", 1.5)
        code = check_main(["--spec", spec, "--metrics", metrics])
        assert code == 3
        assert "REGRESSION" in capsys.readouterr().out

    def test_inflated_exits_four(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "s.json", value=1.0)
        metrics = write_metrics(tmp_path / "m.json", 0.5)
        code = check_main(["--spec", spec, "--metrics", metrics])
        assert code == 4
        assert "INFLATED" in capsys.readouterr().out

    def test_in_band_exits_zero(self, tmp_path):
        spec = write_spec(tmp_path / "s.json", value=1.0)
        metrics = write_metrics(tmp_path / "m.json", 1.02)
        assert check_main(["--spec", spec, "--metrics", metrics]) == 0

    def test_dangling_path_is_an_advisory_skip(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "s.json", value=1.0,
                          metric="sim.other")
        metrics = write_metrics(tmp_path / "m.json", 1.0)
        code = check_main(["--spec", spec, "--metrics", metrics])
        captured = capsys.readouterr()
        assert code == 0
        assert "skip" in captured.out
        assert "1 check(s) skipped" in captured.err

    def test_quiet_suppresses_the_skip_note(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "s.json", value=1.0,
                          metric="sim.other")
        metrics = write_metrics(tmp_path / "m.json", 1.0)
        check_main(["--spec", spec, "--metrics", metrics, "--quiet"])
        assert capsys.readouterr().err == ""


class TestErrors:
    def test_malformed_spec_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope/v9", "checks": []}))
        code = check_main(["--spec", str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_only_name_exits_two(self, capsys):
        assert check_main(["--only", "no.such.check", "--runs", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_metrics_file_exits_two(self, tmp_path, capsys):
        code = check_main(["--metrics", str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("policy, message", [
        ({"mode": "mannwhitney"}, "unknown check mode 'mannwhitney'"),
        ({"mode": "welch", "bootstrap_resamples": 400},
         "unknown policy key(s) ['bootstrap_resamples']"),
    ])
    def test_removed_mode_or_key_exits_two(self, tmp_path, capsys, policy,
                                           message):
        path = tmp_path / "spec.json"
        doc = json.loads(Path(write_spec(path, value=5.0)).read_text())
        doc["checks"][0]["policy"] = policy
        path.write_text(json.dumps(doc))
        metrics = write_metrics(tmp_path / "m.json", 5.0)
        assert check_main(["--spec", str(path), "--metrics", metrics]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")


class TestAdaptive:
    def test_adaptive_gate_on_a_quiet_cell(self, capsys):
        """Adaptive sampling over a real table cell: the report carries
        the repeat counts and the committed reference still holds."""
        code = check_main([
            "--only", "table4.sawtooth.on_socket",
            "--adaptive", "--runs", "4", "--json",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["adaptive"] is True
        (result,) = doc["results"]
        assert result["status"] == "pass"
        assert result["repeats"] >= 3

    def test_row_study_computes_only_its_row(self, monkeypatch):
        """A per-row study is serial whatever the base ``jobs``: a pool
        would compute the machine class's whole roster for one row."""
        from repro.core.config import StudyConfig
        from repro.harness import check_cli

        studies = []

        class Recorded(check_cli.Study):
            def __init__(self, config):
                super().__init__(config)
                studies.append(self)

        monkeypatch.setattr(check_cli, "Study", Recorded)
        source = check_cli.StudyCellSource(StudyConfig(runs=2, jobs=2))
        source.resolve("table4.sawtooth.single")
        [study] = studies
        assert study.parallel_stats()["cells"] == 4

    def test_adaptive_rejects_metrics_paths(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "s.json", value=1.0)
        code = check_main(["--spec", spec, "--adaptive"])
        out = capsys.readouterr().out
        assert code == 0  # skip is advisory
        assert "table cells only" in out


class TestSubcommandRouting:
    def test_main_routes_check(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "s.json", value=1.0)
        metrics = write_metrics(tmp_path / "m.json", 1.5)
        code = main(["check", "--spec", spec, "--metrics", metrics])
        assert code == 3
        assert "REGRESSION" in capsys.readouterr().out

    def test_module_invocation(self, tmp_path):
        import os
        import pathlib
        import subprocess
        import sys

        repo = pathlib.Path(__file__).resolve().parents[2]
        spec = write_spec(tmp_path / "s.json", value=1.0)
        metrics = write_metrics(tmp_path / "m.json", 0.5)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "check",
             "--spec", spec, "--metrics", metrics],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(repo / "src")},
            cwd=str(repo),
        )
        assert proc.returncode == 4
        assert "INFLATED" in proc.stdout
