"""``repro runs``: cross-run analytics CLI over the ledger.

Covers the full subcommand family against a real recorded history:
list filtering and the ``—†`` footnote discipline, show and its metrics
block, diff as a welch check suite (the against-self zero-delta
contract, the golden injected-regression fixture with exit 3, skipped
and unjudged metrics), trend over ledger runs, flame drill-down, and
gc — plus the ``python -m repro runs`` dispatch.
"""

import copy

import pytest

from repro.core.resilience import DEGRADED_MARK
from repro.core.study import Study, StudyConfig
from repro.core.tables import build_table4
from repro.faults.models import FaultPlan, NodeFailure
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


def _bench_doc(**targets):
    """A ``repro.bench/v1`` document over ``{target: metrics}``."""
    return {
        "schema": "repro.bench/v1",
        "config": {"repeats": 3, "seed": 7, "faults": "none"},
        "targets": {
            name: {"metrics": metrics} for name, metrics in targets.items()
        },
    }


def _row(mean, std=0.0, n=3, unit="us", gate=True):
    return {"mean": mean, "std": std, "n": n, "unit": unit,
            "better": "lower", "gate": gate}


def _record(history, metrics, kind="bench", started=9.0):
    return history["ledger"].record(
        kind=kind, targets=sorted(metrics.get("targets", ())),
        metrics=metrics,
        outcome={"outcome": "ok", "exit_code": 0,
                 "started": started, "finished": started + 1},
    ).run_id


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

    def test_metrics_block_marks_advisory_and_degraded(self, history,
                                                       capsys):
        doc = _bench_doc(
            t={"sim.x_us": _row(1.0),
               "wall_seconds": _row(0.5, std=0.1, unit="s", gate=False)},
            a={},
        )
        doc["targets"]["t"]["degraded"] = True
        doc["targets"]["a"]["degraded"] = True
        assert _runs(["show", _record(history, doc)], history) == 0
        block = capsys.readouterr().out.split("\n\n")[1]
        assert block == (
            "bench run: 2 target(s), 3 repeat(s), seed 7, faults none\n"
            "target  metric        value     unit  n  role\n"
            "------  ------------  --------  ----  -  --------\n"
            f"a       (degraded)    {DEGRADED_MARK}\n"
            "t       sim.x_us      1         us    3  gate\n"
            "t       wall_seconds  0.5 ±0.1  s     3  advisory\n"
            f"t       (degraded)    {DEGRADED_MARK}\n"
        )

    def test_degraded_study_run_shows_marker(self, history, capsys):
        # every cell fails, so the recorded study target is degraded
        study = Study(StudyConfig(
            runs=2, seed=7, max_retries=0,
            faults=FaultPlan("fail", (NodeFailure(probability=1.0),)),
        ))
        build_table4(study, machines=[get_machine("sawtooth")])
        entry = record_study_run(study, targets=["table4"],
                                 ledger=history["ledger"],
                                 started=9.0, finished=10.0)
        assert _runs(["show", entry.run_id], history) == 0
        block = capsys.readouterr().out.split("\n\n")[1]
        assert block.splitlines()[0] == (
            "bench run: 1 target(s), 2 repeat(s), seed 7, faults fail"
        )
        assert block.splitlines()[-1].split() == [
            "study", "(degraded)", DEGRADED_MARK,
        ]

    def test_foreign_metrics_schema_exits_2(self, history, capsys):
        doc = {**_bench_doc(t={"sim.x_us": _row(1.0)}),
               "schema": "repro.bench/v0"}
        assert _runs(["show", _record(history, doc)], history) == 2
        assert "unsupported metrics schema 'repro.bench/v0'" in \
            capsys.readouterr().err

    def test_malformed_metric_row_exits_2(self, history, capsys):
        bad = _record(history, _bench_doc(t={"sim.x_us": {"mean": "x"}}))
        for argv in (["show", bad], ["diff", bad, history["first"]]):
            assert _runs(argv, history) == 2
            assert "t:sim.x_us: malformed metric row" in \
                capsys.readouterr().err


def _verdicts(out: str) -> dict:
    """``{check: (status, rest of the row)}`` from a rendered diff."""
    table = out.split("check suite: ", 1)[1].splitlines()[3:]
    rows = {}
    for line in table:
        if line.startswith(("OK:", "REGRESSION:", "INFLATED:")):
            break
        name, status, *rest = line.split()
        rows[name] = (status, " ".join(rest))
    return rows


class TestDiff:
    def test_identical_runs_report_zero_deltas(self, history, capsys):
        code = _runs(["diff", history["first"], history["second"]], history)
        out = capsys.readouterr().out
        assert code == 0
        assert "config fingerprints identical" in out
        gating = len(history["ledger"].load(history["first"])
                     .metrics["targets"]["study"]["metrics"])
        assert f"OK: {gating} passed, 0 failed, 0 skipped" in out
        assert "not judged" not in out

    def test_injected_regression_exits_3(self, history, capsys):
        code = _runs(["diff", history["first"], history["injected"]], history)
        out = capsys.readouterr().out
        assert code == EXIT_REGRESSED == 3
        status, note = _verdicts(out)[f"study:{history['victim']}"]
        assert status == "FAIL" and "regression: mean" in note
        assert "REGRESSION: " in out

    def test_run_against_itself_renders_ok(self, history, capsys):
        run = _record(history, _bench_doc(t={"sim.x_us": _row(1.0)}))
        assert _runs(["diff", run, run], history) == 0
        out = capsys.readouterr().out
        assert _verdicts(out) == {"t:sim.x_us": ("ok", "1 ±0 (n=3) 1 us "
                                                       "[-2%, +2%]")}
        assert "OK: 1 passed, 0 failed, 0 skipped" in out

    def test_gating_regression_named_among_advisory_rows(self, history,
                                                         capsys):
        base = _record(history, _bench_doc(t={
            "sim.latency_us": _row(1.0),
            "wall_seconds": _row(0.1, unit="s", gate=False),
        }))
        current = _record(history, _bench_doc(t={
            "sim.latency_us": _row(2.0),
            "wall_seconds": _row(0.5, unit="s", gate=False),
        }), started=11.0)
        assert _runs(["diff", base, current], history) == EXIT_REGRESSED
        out = capsys.readouterr().out
        verdicts = _verdicts(out)
        assert list(verdicts) == ["t:sim.latency_us"]
        status, note = verdicts["t:sim.latency_us"]
        assert status == "FAIL" and "regression: mean 2" in note
        assert "REGRESSION: 0 passed, 1 failed, 0 skipped" in out
        assert out.rstrip().endswith("not judged: t:wall_seconds (advisory)")

    def test_target_missing_from_current_run_skips(self, history, capsys):
        base = _record(history, _bench_doc(t={"sim.x_us": _row(1.0)}))
        for targets, have in (({}, "[]"), ({"u": {}}, "['u']")):
            current = _record(history, _bench_doc(**targets), started=11.0)
            assert _runs(["diff", base, current], history) == 0
            out = capsys.readouterr().out
            status, note = _verdicts(out)["t:sim.x_us"]
            assert status == "skip"
            assert note.endswith(f"unknown target 't' (have {have})")
            assert "OK: 0 passed, 0 failed, 1 skipped" in out

    def test_improvement_only_exits_0(self, history, capsys):
        better = copy.deepcopy(
            history["ledger"].load(history["first"]).metrics
        )
        better["targets"]["study"]["metrics"][history["victim"]]["mean"] /= 2
        improved = _record(history, better, kind="cli")
        assert _runs(["diff", history["first"], improved], history) == 0
        out = capsys.readouterr().out
        status, note = _verdicts(out)[f"study:{history['victim']}"]
        assert status == "FAIL" and "inflated: mean" in note
        assert "INFLATED: " in out

    def test_metric_missing_from_current_run_skips(self, history, capsys):
        fewer = copy.deepcopy(history["ledger"].load(history["first"]).metrics)
        del fewer["targets"]["study"]["metrics"][history["victim"]]
        current = _record(history, fewer, kind="cli")
        assert _runs(["diff", history["first"], current], history) == 0
        verdicts = _verdicts(capsys.readouterr().out)
        status, note = verdicts[f"study:{history['victim']}"]
        assert status == "skip" and f"no metric {history['victim']!r}" in note
        assert [s for s, _n in verdicts.values()].count("ok") == \
            len(verdicts) - 1
        # the other way round, the metric is named but not judged
        assert _runs(["diff", current, history["first"]], history) == 0
        assert (
            f"not judged: study:{history['victim']} (not in the baseline run)"
        ) in capsys.readouterr().out

    def test_bench_pair_leaves_advisory_rows_unjudged(self, history, capsys):
        rows = {"sim.x_us": _row(1.0),
                "wall_seconds": _row(0.5, std=0.01, unit="s", gate=False)}
        base = _record(history, _bench_doc(t=rows))
        slower = copy.deepcopy(rows)
        slower["wall_seconds"]["mean"] = 5.0
        current = _record(history, _bench_doc(t=slower), started=11.0)
        assert _runs(["diff", base, current], history) == 0
        out = capsys.readouterr().out
        assert list(_verdicts(out)) == ["t:sim.x_us"]
        assert "OK: 1 passed, 0 failed, 0 skipped" in out
        assert out.rstrip().endswith("not judged: t:wall_seconds (advisory)")

    @pytest.mark.parametrize("flag", [
        ["--threshold", "-0.1"], ["--alpha", "1.5"], ["--alpha", "0"],
    ])
    def test_bad_threshold_or_alpha_exits_2(self, history, capsys, flag):
        argv = ["diff", history["first"], history["second"], *flag]
        assert _runs(argv, history) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

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
