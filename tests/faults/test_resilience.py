"""Resilient cell execution, degraded rendering, and the CLI exit path."""

import pytest

from repro.core.resilience import (
    DEGRADED_MARK,
    Degraded,
    ResilienceLog,
    degraded_in,
    run_cell,
)
from repro.core.study import Study, StudyConfig
from repro.core.tables import build_table4, render_table4
from repro.errors import BenchmarkConfigError, InjectedFault, ReproError
from repro.faults import FaultPlan, NodeFailure

#: every cell attempt dies — the cell must degrade, never crash
ALWAYS_FAIL = FaultPlan("always-fail", (NodeFailure(probability=1.0),))


class TestDegraded:
    def test_duck_types_statistic(self):
        cell = Degraded("m/osu", "boom", attempts=3)
        assert cell.format() == DEGRADED_MARK
        assert cell.scaled(1e6) is cell
        with pytest.raises(ReproError):
            cell.mean

    def test_footnote(self):
        note = Degraded("m/osu", "boom", attempts=3).footnote()
        assert "m/osu" in note and "boom" in note and "3 attempts" in note
        assert "1 attempt)" in Degraded("x", "y", attempts=1).footnote()


class TestRunCell:
    def test_success_passes_through(self):
        assert run_cell(lambda: 42, label=("x",)) == 42

    def test_retry_recovers(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise InjectedFault("first attempt dies")
            return "ok"

        log = ResilienceLog()
        assert run_cell(flaky, label=("x",), max_retries=2, log=log) == "ok"
        assert log.degraded_count == 0
        assert len(calls) == 2

    def test_exhausted_retries_degrade(self):
        def always():
            raise InjectedFault("dead node")

        log = ResilienceLog()
        out = run_cell(always, label=("m", "osu"), max_retries=2, log=log)
        assert isinstance(out, Degraded)
        assert out.attempts == 3
        assert "dead node" in out.reason
        assert log.entries == [out]

    def test_zero_retries(self):
        out = run_cell(
            lambda: (_ for _ in ()).throw(InjectedFault("x")) and None,
            label=("m",), max_retries=0,
        )
        assert isinstance(out, Degraded)
        assert out.attempts == 1

    def test_non_repro_error_propagates(self):
        def bug():
            raise ValueError("a genuine bug")

        with pytest.raises(ValueError):
            run_cell(bug, label=("x",))

    def test_log_summary(self):
        log = ResilienceLog()
        assert "healthy" in log.summary()
        log.record(Degraded("m/osu", "boom"))
        text = log.summary()
        assert "1 degraded cell(s)" in text and "† m/osu" in text


class TestDegradedIn:
    def test_recurses_dicts(self):
        d = Degraded("x", "y")
        assert degraded_in(d) == [d]
        assert degraded_in({"a": d, "b": 1.0}) == [d]
        assert degraded_in(3.14) == []


class TestStudyDegradation:
    def test_forced_failure_renders_marker_and_footnote(self, sawtooth):
        study = Study(StudyConfig(runs=3, faults=ALWAYS_FAIL, max_retries=1))
        text = render_table4(build_table4(study, machines=[sawtooth]))
        assert DEGRADED_MARK in text
        assert "† degraded:" in text
        # every cell of the row degraded: 4 distinct footnote lines
        assert text.count("† degraded:") == 4
        assert study.resilience.degraded_count == 4

    def test_fully_degraded_gpu_pipeline_still_renders(self, frontier):
        """Tables 5/6/7 and the comparison all tolerate a machine whose
        every cell degraded (the whole Comm|Scope bundle included)."""
        from repro.core.summary import build_table7, render_table7
        from repro.core.tables import (
            build_table5, build_table6, render_table5, render_table6,
        )
        from repro.harness.compare import comparison_rows

        study = Study(StudyConfig(runs=2, faults=ALWAYS_FAIL, max_retries=0))
        t5 = build_table5(study, machines=[frontier])
        t6 = build_table6(study, machines=[frontier])
        assert DEGRADED_MARK in render_table5(t5)
        text6 = render_table6(t6)
        assert DEGRADED_MARK in text6
        # one commscope bundle degrades -> one footnote, not five
        assert text6.count("† degraded:") == 1
        # no healthy machine of any family: table 7 renders empty
        assert "Accelerator" in render_table7(build_table7(t5, t6))
        # degraded cells stay in the comparison as —† rows (they must
        # not vanish), but carry no relative error
        rows = comparison_rows(table5=t5, table6=t6)
        assert rows and all(r.degraded for r in rows)

    def test_degraded_study_is_deterministic(self, sawtooth):
        def run():
            study = Study(StudyConfig(runs=3, faults=ALWAYS_FAIL))
            return render_table4(build_table4(study, machines=[sawtooth]))

        assert run() == run()


class TestStudyConfigValidation:
    """Satellite: StudyConfig rejects bad values with clear messages."""

    def test_runs_positive(self):
        with pytest.raises(BenchmarkConfigError, match="runs"):
            StudyConfig(runs=0)
        with pytest.raises(BenchmarkConfigError, match="runs"):
            StudyConfig(runs=-5)
        with pytest.raises(BenchmarkConfigError, match="runs"):
            StudyConfig(runs=1.5)

    def test_seed_must_be_int(self):
        with pytest.raises(BenchmarkConfigError, match="seed"):
            StudyConfig(seed="42")

    def test_array_bytes_positive(self):
        with pytest.raises(BenchmarkConfigError, match="cpu_array_bytes"):
            StudyConfig(cpu_array_bytes=0)
        with pytest.raises(BenchmarkConfigError, match="gpu_array_bytes"):
            StudyConfig(gpu_array_bytes=-1)

    def test_max_retries_non_negative(self):
        with pytest.raises(BenchmarkConfigError, match="max_retries"):
            StudyConfig(max_retries=-1)

    def test_cell_max_events(self):
        with pytest.raises(BenchmarkConfigError, match="cell_max_events"):
            StudyConfig(cell_max_events=0)
        StudyConfig(cell_max_events=None)  # unbounded is allowed

    def test_faults_type(self):
        with pytest.raises(BenchmarkConfigError, match="faults"):
            StudyConfig(faults="chaos")  # must be a FaultPlan, not a name

    def test_config_error_is_repro_error(self):
        with pytest.raises(ReproError):
            StudyConfig(runs=0)


class TestCliDegradedExit:
    """Satellite: a degraded run exits non-zero but still completes."""

    def test_chaos_table4_degrades_and_exits_3(self, capsys):
        from repro.harness.cli import EXIT_DEGRADED, main

        code = main(["table4", "--runs", "2", "--faults", "chaos"])
        out = capsys.readouterr()
        assert code == EXIT_DEGRADED
        assert DEGRADED_MARK in out.out
        assert "degraded cell(s)" in out.err

    def test_clean_run_exits_0(self, capsys):
        from repro.harness.cli import main

        code = main(["table1"])
        assert code == 0
        assert "degraded" not in capsys.readouterr().err

    def test_faults_none_prints_no_summary(self, capsys):
        from repro.harness.cli import main

        code = main(["table1", "--faults", "none"])
        assert code == 0
        assert "resilience" not in capsys.readouterr().err

    def test_unknown_profile_is_a_usage_error(self):
        from repro.harness.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["table1", "--faults", "definitely-not-a-profile"])
        assert exc.value.code == 2
