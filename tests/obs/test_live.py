"""LiveAggregator / ProgressReporter / RunTelemetry unit behavior."""

import io

import pytest

from repro.obs import live
from repro.obs.events import EventLog, read_events
from repro.obs.live import (
    NULL_TELEMETRY,
    LiveAggregator,
    NullRunTelemetry,
    ProgressReporter,
    RunTelemetry,
)

pytestmark = pytest.mark.live


class _FakeTTY(io.StringIO):
    def isatty(self):
        return True


class TestLiveAggregator:
    def _loaded(self):
        agg = LiveAggregator()
        agg.run_started(["table4"], 2, 7)
        agg.cells_planned(["a", "b", "c", "d"])
        agg.cell_started("a")
        agg.cell_finished("a", degraded=False, wall_seconds=2.0)
        agg.cell_started("b")
        agg.cell_finished("b", degraded=True, wall_seconds=4.0)
        agg.cell_started("c")
        return agg

    def test_snapshot_schema_and_counts(self):
        snap = self._loaded().snapshot()
        assert snap["schema"] == "repro.progress/v1"
        assert snap["state"] == "running"
        assert snap["targets"] == ["table4"]
        assert snap["jobs"] == 2 and snap["seed"] == 7
        assert snap["cells"] == {
            "total": 4, "done": 2, "completed": 1, "degraded": 1,
            "running": 1, "pending": 1, "cache_hits": 0,
        }
        assert snap["per_cell"]["a"]["state"] == "done"
        assert snap["per_cell"]["b"]["state"] == "degraded"
        assert snap["per_cell"]["c"]["state"] == "running"
        assert snap["per_cell"]["d"]["state"] == "pending"

    def test_eta_is_mean_wall_times_remaining_over_jobs(self):
        snap = self._loaded().snapshot()
        # mean(2.0, 4.0) * 2 remaining / 2 jobs
        assert snap["eta_seconds"] == pytest.approx(3.0)

    def test_eta_is_none_before_any_completion(self):
        agg = LiveAggregator()
        agg.cells_planned(["a", "b"])
        agg.cell_started("a")
        assert agg.snapshot()["eta_seconds"] is None

    def test_eta_is_zero_when_nothing_remains(self):
        agg = LiveAggregator()
        agg.cells_planned(["a"])
        agg.cell_started("a")
        agg.cell_finished("a", degraded=False, wall_seconds=1.0)
        assert agg.snapshot()["eta_seconds"] == 0.0

    def test_cached_and_replayed_cells_do_not_skew_the_eta(self):
        agg = LiveAggregator()
        agg.cells_planned(["a", "b", "c"])
        # cache serves (a resumed run's replays included) take ~0s;
        # feeding them into the wall history would collapse the
        # estimate for real compute
        agg.cell_finished("a", degraded=False, wall_seconds=0.001,
                          source="cache")
        agg.cell_finished("b", degraded=False, wall_seconds=0.001,
                          source="cache")
        snap = agg.snapshot()
        assert snap["eta_seconds"] is None
        assert snap["cells"]["cache_hits"] == 2

    def test_run_ended_marks_done(self):
        agg = self._loaded()
        agg.run_ended()
        snap = agg.snapshot()
        assert snap["state"] == "done"
        assert snap["finished"] is not None

    def test_supervisor_tallies(self):
        agg = LiveAggregator()
        agg.worker_crashed()
        agg.cell_retried()
        agg.cell_retried()
        agg.pool_rebuilt()
        assert agg.snapshot()["supervisor"] == {
            "retries": 2, "worker_crashes": 1, "pool_rebuilds": 1,
        }

    def test_profiler_supplier_feeds_events_per_second(self):
        class _Report:
            events_per_second = 123.5
            total_events = 42

        class _Profiler:
            def report(self):
                return _Report()

        agg = LiveAggregator()
        assert agg.snapshot()["events_per_second"] is None
        agg.profiler_supplier = lambda: _Profiler()
        snap = agg.snapshot()
        assert snap["events_per_second"] == 123.5
        assert snap["total_events"] == 42


class TestProgressReporter:
    def _agg(self):
        agg = LiveAggregator()
        agg.run_started(["table4"], 1, None)
        agg.cells_planned([f"c{i}" for i in range(52)])
        for i in range(17):
            agg.cell_finished(f"c{i}", degraded=i < 2, wall_seconds=2.5)
        return agg

    def test_render_matches_the_documented_shape(self):
        line = ProgressReporter.render(self._agg().snapshot())
        assert line.startswith("cells 17/52, 2 degraded, ETA ")
        assert line.endswith("s")

    def test_render_omits_absent_figures(self):
        agg = LiveAggregator()
        agg.cells_planned(["a", "b"])
        # no degraded cells, no ETA basis yet: neither clause renders
        assert ProgressReporter.render(agg.snapshot()) == "cells 0/2"

    def test_silent_on_non_tty(self):
        stream = io.StringIO()
        reporter = ProgressReporter(self._agg(), stream=stream)
        reporter.tick(force=True)
        reporter.finish()
        assert stream.getvalue() == ""

    def test_ticks_on_a_tty_and_seals_with_newline(self):
        stream = _FakeTTY()
        reporter = ProgressReporter(self._agg(), stream=stream)
        reporter.tick(force=True)
        reporter.finish()
        out = stream.getvalue()
        assert out.startswith("\r\x1b[K")
        assert "cells 17/52" in out
        assert out.endswith("\n")

    def test_throttles_below_min_interval(self):
        stream = _FakeTTY()
        reporter = ProgressReporter(
            self._agg(), min_interval=3600.0, stream=stream
        )
        reporter.tick()
        first = stream.getvalue()
        reporter.tick()
        reporter.tick()
        assert stream.getvalue() == first
        assert first.count("\r") == 1

    def test_first_tick_renders_on_a_freshly_started_clock(
        self, monkeypatch
    ):
        # time.monotonic() may read less than min_interval (a host
        # booted moments ago); the first frame must still render
        monkeypatch.setattr("repro.obs.live.time.monotonic", lambda: 5.0)
        stream = _FakeTTY()
        reporter = ProgressReporter(
            self._agg(), min_interval=3600.0, stream=stream
        )
        reporter.tick()
        reporter.tick()
        assert stream.getvalue().count("\r") == 1
        assert "cells 17/52" in stream.getvalue()

    def test_force_bypasses_the_tty_gate(self):
        # --progress=force / REPRO_FORCE_PROGRESS=1: ticker writes to a
        # piped (non-TTY) stream that the default gate would silence
        stream = io.StringIO()
        reporter = ProgressReporter(self._agg(), stream=stream, force=True)
        reporter.tick(force=True)
        reporter.finish()
        out = stream.getvalue()
        assert "cells 17/52" in out
        assert out.endswith("\n")

    def test_without_force_non_tty_stays_silent(self):
        stream = io.StringIO()
        reporter = ProgressReporter(self._agg(), stream=stream, force=False)
        reporter.tick(force=True)
        reporter.finish()
        assert stream.getvalue() == ""


class TestRunTelemetrySession:
    def test_null_session_is_the_default_and_inert(self):
        assert live.current() is NULL_TELEMETRY
        assert not NULL_TELEMETRY.enabled
        # the full notifier surface is a no-op, not an AttributeError
        NULL_TELEMETRY.run_start(["t"], 1, 0)
        NULL_TELEMETRY.cells_planned(["a"])
        NULL_TELEMETRY.cell_start("a")
        NULL_TELEMETRY.cell_done("a", degraded=False)
        NULL_TELEMETRY.cache_hit("a")
        NULL_TELEMETRY.worker_crash("a")
        NULL_TELEMETRY.pool_rebuild(1)
        NULL_TELEMETRY.cell_retry("a", 2)
        NULL_TELEMETRY.run_end()
        NULL_TELEMETRY.close()

    def test_context_manager_restores_previous_session(self):
        session = RunTelemetry()
        with live.telemetry(session) as active:
            assert active is session
            assert live.current() is session
            inner = NullRunTelemetry()
            with live.telemetry(inner):
                assert live.current() is inner
            assert live.current() is session
        assert live.current() is NULL_TELEMETRY

    def test_notifiers_fan_out_to_aggregator_and_events(self, tmp_path):
        session = RunTelemetry(events=EventLog(tmp_path / "ev.jsonl"))
        session.run_start(["table4"], 1, 3)
        session.cells_planned(["a", "b"])
        session.cell_start("a")
        session.cell_done("a", degraded=False, wall_seconds=1.5)
        session.cell_start("b")
        session.cell_done("b", degraded=True, wall_seconds=0.5)
        session.run_end()
        session.close()
        snap = session.aggregator.snapshot()
        assert snap["cells"]["done"] == 2 and snap["cells"]["degraded"] == 1
        events, skipped = read_events(tmp_path / "ev.jsonl")
        assert skipped == 0
        assert [e["kind"] for e in events] == [
            "run_start", "cell_start", "cell_done",
            "cell_start", "cell_degraded", "run_end",
        ]
        assert events[-1]["attrs"]["completed"] == 1
        assert events[-1]["attrs"]["degraded"] == 1

    def test_cell_retry_updates_aggregator_without_an_event(self, tmp_path):
        session = RunTelemetry(events=EventLog(tmp_path / "ev.jsonl"))
        session.cell_retry("a", attempt=2)
        session.close()
        assert session.aggregator.snapshot()["supervisor"]["retries"] == 1
        events, _ = read_events(tmp_path / "ev.jsonl")
        assert events == []  # retries surface via repeated cell_start
