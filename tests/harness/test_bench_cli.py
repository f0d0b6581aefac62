"""``repro bench``: trajectory files, the regression gate, exit codes.

The expensive full-roster smoke runs under ``-m bench`` (the CI bench
job: 2 repeats, relaxed thresholds); everything else restricts the
roster to one or two fast targets.
"""

import json

import pytest

from repro.harness.bench import (
    BENCH_TARGETS,
    EXIT_INCOMPLETE,
    EXIT_REGRESSED,
    run_bench,
)
from repro.harness.cli import main
from repro.obs.analyze import BENCH_SCHEMA, load_bench

FAST_TARGET = "osu/sawtooth/on-socket-0b"
GPU_TARGET = "commscope/frontier/h2d-128b"


def _bench(capsys, *argv) -> tuple[int, str]:
    code = main(["bench", *argv])
    return code, capsys.readouterr().out


class TestTrajectoryFile:
    def test_out_file_is_schema_valid(self, capsys, tmp_path):
        out = tmp_path / "BENCH_1.json"
        code, _text = _bench(
            capsys, "--repeats", "2", "--quiet",
            "--targets", FAST_TARGET, "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == BENCH_SCHEMA
        run = load_bench(str(out))  # must also pass the typed validator
        record = run.targets[FAST_TARGET]
        assert record.metrics["sim.latency_us"].gate
        assert record.metrics["sim.latency_us"].n == 2
        assert not record.metrics["wall_seconds"].gate
        assert record.attribution

    def test_deterministic_sim_metrics_have_zero_std(self, capsys, tmp_path):
        out = tmp_path / "b.json"
        _bench(capsys, "--repeats", "3", "--quiet",
               "--targets", FAST_TARGET, "--out", str(out))
        stat = load_bench(str(out)).targets[FAST_TARGET].metrics
        assert stat["sim.latency_us"].std == 0.0

    def test_runs_are_date_stamped(self, capsys, tmp_path):
        out = tmp_path / "b.json"
        _bench(capsys, "--repeats", "1", "--quiet",
               "--targets", FAST_TARGET, "--out", str(out))
        run = load_bench(str(out))
        assert len(run.date.split("-")) == 3  # ISO yyyy-mm-dd


class TestGate:
    @pytest.fixture()
    def baseline(self, capsys, tmp_path):
        path = tmp_path / "BENCH_baseline.json"
        code, _text = _bench(
            capsys, "--repeats", "2", "--quiet",
            "--targets", FAST_TARGET, "--out", str(path),
        )
        assert code == 0
        return path

    def test_rerun_against_own_baseline_exits_zero(self, capsys, baseline):
        code, text = _bench(
            capsys, "--repeats", "2", "--quiet",
            "--targets", FAST_TARGET, "--baseline", str(baseline),
        )
        assert code == 0
        assert "no regressions" in text

    def test_fault_inflated_run_exits_4_naming_metrics(self, capsys, baseline):
        code, text = _bench(
            capsys, "--repeats", "2", "--quiet", "--faults", "smoke",
            "--targets", FAST_TARGET, "--baseline", str(baseline),
        )
        assert code == EXIT_REGRESSED
        assert "REGRESSED" in text
        assert f"{FAST_TARGET}:sim.latency_us" in text

    def test_missing_target_exits_3(self, capsys, baseline, tmp_path):
        # baseline knows one target; current run measures a different one
        code, text = _bench(
            capsys, "--repeats", "1", "--quiet",
            "--targets", GPU_TARGET, "--baseline", str(baseline),
        )
        assert code == EXIT_INCOMPLETE
        assert "incomplete" in text

    def test_update_baseline_rewrites_and_exits_zero(self, capsys, baseline):
        before = json.loads(baseline.read_text())
        code, _text = _bench(
            capsys, "--repeats", "1", "--quiet",
            "--targets", FAST_TARGET, "--baseline", str(baseline),
            "--update-baseline",
        )
        assert code == 0
        after = json.loads(baseline.read_text())
        assert after["config"]["repeats"] == 1 != before["config"]["repeats"]


class TestAttribution:
    def test_phases_sum_within_one_percent_of_cell_total(self):
        result = run_bench(repeats=1, seed=20230612,
                           targets=[FAST_TARGET, GPU_TARGET])
        cells = {a.cell for a in result.attributions}
        assert {"osu.pingpong", "cs.memcpy"} <= cells
        for attribution in result.attributions:
            assert attribution.total > 0
            drift = abs(sum(attribution.phases.values()) - attribution.total)
            assert drift <= 0.01 * attribution.total

    def test_cross_check_clean_on_fault_free_run(self):
        result = run_bench(repeats=1, seed=20230612, targets=[FAST_TARGET])
        assert result.findings == []


class TestCliPlumbing:
    def test_unknown_target_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--targets", "no/such/target"])
        assert "unknown bench target" in capsys.readouterr().err

    def test_update_baseline_requires_baseline(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--update-baseline"])

    def test_bad_repeats_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--repeats", "0"])

    def test_bench_does_not_perturb_other_targets(self, capsys):
        code = main(["table2"])
        base = capsys.readouterr().out
        code2 = main(["table2"])
        assert code == code2 == 0
        assert capsys.readouterr().out == base


@pytest.mark.bench
class TestBenchSmoke:
    """The CI bench job: full roster, 2 repeats, relaxed thresholds."""

    def test_full_roster_round_trips_through_gate(self, capsys, tmp_path):
        baseline = tmp_path / "BENCH_baseline.json"
        code, _text = _bench(capsys, "--repeats", "2", "--quiet",
                             "--out", str(baseline))
        assert code == 0
        run = load_bench(str(baseline))
        assert set(run.targets) == set(BENCH_TARGETS)
        for name, record in run.targets.items():
            rate = record.metrics.get("events_per_sec")
            assert rate is not None and rate.mean > 0, (
                f"{name}: profiler reported no events/sec"
            )
        code, text = _bench(
            capsys, "--repeats", "2", "--quiet",
            "--baseline", str(baseline), "--threshold", "0.25",
        )
        assert code == 0
        assert "no regressions" in text
