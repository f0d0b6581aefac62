"""``repro runs``: cross-run analytics CLI over the ledger.

Covers the full subcommand family against a real recorded history:
list filtering and the ``—†`` footnote discipline, show, the
diff-against-self zero-delta contract, the golden injected-regression
fixture (exit 3), trend over ledger runs, flame
drill-down, and gc — plus the ``python -m repro runs`` dispatch.
"""

import copy

import pytest

from repro.core.resilience import DEGRADED_MARK
from repro.core.study import Study, StudyConfig
from repro.core.tables import build_table4
from repro.harness.cli import main
from repro.harness.runs_cli import (
    EXIT_REGRESSED,
    runs_main,
    sparkline,
)
from repro.machines.registry import get_machine
from repro.obs.ledger import RunLedger, record_study_run, study_metrics_doc

pytestmark = pytest.mark.ledger


@pytest.fixture()
def history(tmp_path):
    """A ledger with two identical study runs and one injected regression."""
    ledger = RunLedger(tmp_path / "runs")
    study = Study(StudyConfig(runs=2, seed=77))
    build_table4(study, machines=[get_machine("sawtooth")])
    first = record_study_run(study, targets=["table4"], ledger=ledger,
                             started=1.0, finished=2.0)
    second = record_study_run(study, targets=["table4"], ledger=ledger,
                              started=3.0, finished=4.0)
    worse = copy.deepcopy(study_metrics_doc(study))
    metrics = worse["targets"]["study"]["metrics"]
    victim = next(
        k for k in sorted(metrics)
        if k.startswith("sim.") and metrics[k]["better"] == "lower"
    )
    metrics[victim]["mean"] *= 1.5
    injected = ledger.record(
        kind="cli", targets=["table4"], metrics=worse,
        outcome={"outcome": "ok", "exit_code": 0,
                 "started": 5.0, "finished": 6.0},
    )
    return {
        "dir": str(tmp_path / "runs"),
        "ledger": ledger,
        "first": first.run_id,
        "second": second.run_id,
        "injected": injected.run_id,
        "victim": victim,
    }


def _runs(argv, history):
    return runs_main(["--ledger-dir", history["dir"], *argv])


class TestList:
    def test_lists_newest_first(self, history, capsys):
        assert _runs(["list"], history) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if "cli" in line]
        assert lines[0].startswith(history["injected"])
        assert lines[-1].startswith(history["first"])

    def test_limit_and_target_filter(self, history, capsys):
        assert _runs(["list", "--limit", "1"], history) == 0
        out = capsys.readouterr().out
        assert history["injected"] in out
        assert history["first"] not in out
        assert _runs(["list", "--target", "zzz"], history) == 0
        assert "no recorded runs match" in capsys.readouterr().out

    def test_degraded_runs_render_footnoted_mark(self, history, capsys):
        history["ledger"].record(
            kind="cli", targets=["table4"],
            outcome={"outcome": "ok", "exit_code": 3, "started": 9.0,
                     "cells": {"total": 4, "degraded": 1}},
        )
        assert _runs(["list"], history) == 0
        out = capsys.readouterr().out
        assert f"3/4 {DEGRADED_MARK}" in out
        assert f"{DEGRADED_MARK} " in out.rsplit("\n\n", 1)[-1]
        assert "1 degraded cell(s)" in out

    def test_skipped_lines_reported_on_stderr(self, history, capsys):
        with open(history["ledger"].index_path, "a") as fh:
            fh.write("garbage\n")
        assert _runs(["list"], history) == 0
        assert "skipped 1 unreadable" in capsys.readouterr().err


class TestShow:
    def test_show_renders_config_and_metrics(self, history, capsys):
        assert _runs(["show", history["first"]], history) == 0
        out = capsys.readouterr().out
        assert f"run {history['first']}" in out
        assert "fingerprint:" in out
        assert "sim." in out  # the rendered bench-run metric table

    def test_show_latest_token(self, history, capsys):
        assert _runs(["show", "latest"], history) == 0
        assert history["injected"] in capsys.readouterr().out

    def test_unknown_run_exits_2(self, history, capsys):
        assert _runs(["show", "zzzzzzzzzzzz"], history) == 2
        assert "error:" in capsys.readouterr().err

    def test_config_without_runs_shows_placeholder(self, history, capsys):
        entry = history["ledger"].record(
            kind="cli", targets=["t"],
            manifest={"config": {"seed": 7, "jobs": 1}},
            outcome={"outcome": "ok", "exit_code": 0,
                     "started": 7.0, "finished": 8.0},
        )
        assert _runs(["show", entry.run_id], history) == 0
        out = capsys.readouterr().out
        assert "config: seed=7 runs=— jobs=1 faults=none" in out


class TestDiff:
    def test_identical_runs_report_zero_deltas(self, history, capsys):
        code = _runs(["diff", history["first"], history["second"]], history)
        out = capsys.readouterr().out
        assert code == 0
        assert "config fingerprints identical" in out
        assert "no regressions" in out
        assert "regressed" not in out.replace("no regressions", "")

    def test_injected_regression_exits_3(self, history, capsys):
        code = _runs(["diff", history["first"], history["injected"]], history)
        out = capsys.readouterr().out
        assert code == EXIT_REGRESSED == 3
        assert history["victim"] in out

    def test_run_without_metrics_exits_2(self, history, capsys):
        bare = history["ledger"].record(
            kind="cli", targets=["t"],
            outcome={"outcome": "error", "started": 9.0},
        )
        code = _runs(["diff", history["first"], bare.run_id], history)
        assert code == 2
        assert "no metrics document" in capsys.readouterr().err


class TestTrend:
    def test_trend_over_ledger_history(self, history, capsys):
        code = _runs(["trend", history["victim"]], history)
        out = capsys.readouterr().out
        assert code == 0
        assert out.count(history["victim"]) >= 1
        assert "trend:" in out
        assert "3 point(s)" in out

    def test_unknown_metric_exits_1(self, history, capsys):
        assert _runs(["trend", "sim.not_a_metric"], history) == 1
        assert "no recorded value" in capsys.readouterr().out

    def test_sparkline_shapes(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0]) == "▄▄"
        line = sparkline([0.0, 1.0, 2.0])
        assert line[0] == "▁" and line[-1] == "█"


class TestFlame:
    def test_run_without_attribution_is_friendly(self, history, capsys):
        assert _runs(["flame", history["first"]], history) == 0
        assert "no recorded attribution" in capsys.readouterr().out

    def test_flame_renders_recorded_attribution(self, history, capsys):
        attribution = [{
            "cell": "osu.latency", "total_us": 10.0,
            "phases_us": {"eager": 7.0, "overhead": 3.0},
            "spans_us": {"eager": {"send.eager": 7.0},
                         "overhead": {"(uncovered)": 3.0}},
        }]
        entry = history["ledger"].record(
            kind="cli", targets=["t"],
            outcome={"outcome": "ok", "started": 9.0},
            attribution=attribution,
        )
        assert _runs(["flame", entry.run_id], history) == 0
        out = capsys.readouterr().out
        assert "osu.latency" in out and "eager" in out
        assert "send.eager" not in out  # no drill without --cell
        assert _runs(["flame", entry.run_id, "--cell", "osu"], history) == 0
        assert "send.eager" in capsys.readouterr().out


class TestGc:
    def test_gc_prunes_and_reports(self, history, capsys):
        assert _runs(["gc", "--keep", "1"], history) == 0
        assert "removed 2 run(s), kept 1" in capsys.readouterr().out
        assert _runs(["list"], history) == 0
        out = capsys.readouterr().out
        assert history["injected"] in out
        assert history["first"] not in out


class TestDispatch:
    def test_main_dispatches_runs_subcommand(self, history, capsys):
        assert main(["runs", "--ledger-dir", history["dir"], "list"]) == 0
        assert history["first"] in capsys.readouterr().out

    def test_cli_run_lands_in_env_ledger(self, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "led"))
        assert main(["table2", "--runs", "2"]) == 0
        err = capsys.readouterr().err
        assert "ledger: recorded run" in err
        assert main(["runs", "list"]) == 0
        assert "table2" in capsys.readouterr().out

    def test_no_ledger_opts_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "led"))
        assert main(["table2", "--runs", "2", "--no-ledger"]) == 0
        assert "ledger:" not in capsys.readouterr().err
        assert not (tmp_path / "led").exists()

    def test_recording_is_stdout_byte_neutral(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "led"))
        assert main(["table2", "--runs", "2"]) == 0
        with_ledger = capsys.readouterr().out
        assert main(["table2", "--runs", "2", "--no-ledger"]) == 0
        without = capsys.readouterr().out
        assert with_ledger == without
