"""RunTelemetry unit behavior."""

import pytest

from repro.obs import live
from repro.obs.events import EventLog, read_events
from repro.obs.live import NULL_TELEMETRY, NullRunTelemetry, RunTelemetry

pytestmark = pytest.mark.live


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
        NULL_TELEMETRY.run_end()
        NULL_TELEMETRY.close()

    def test_context_manager_restores_previous_session(self, tmp_path):
        session = RunTelemetry(EventLog(tmp_path / "ev.jsonl"))
        with live.telemetry(session) as active:
            assert active is session
            assert live.current() is session
            inner = NullRunTelemetry()
            with live.telemetry(inner):
                assert live.current() is inner
            assert live.current() is session
        assert live.current() is NULL_TELEMETRY

    def test_notifiers_append_the_matching_events(self, tmp_path):
        session = RunTelemetry(EventLog(tmp_path / "ev.jsonl"))
        session.run_start(["table4"], 1, 3)
        session.cells_planned(["a", "b"])
        session.cell_start("a")
        session.cell_done("a", degraded=False, wall_seconds=1.5)
        session.cell_start("b")
        session.cell_done("b", degraded=True, wall_seconds=0.5)
        session.run_end()
        session.close()
        assert session.targets == ("table4",)
        events, skipped = read_events(tmp_path / "ev.jsonl")
        assert skipped == 0
        assert [e["kind"] for e in events] == [
            "run_start", "cell_start", "cell_done",
            "cell_start", "cell_degraded", "run_end",
        ]
        end = events[-1]["attrs"]
        assert (end["cells"], end["completed"], end["degraded"]) == (2, 1, 1)
        assert end["outcome"] == "ok"
        assert end["wall_seconds"] >= 0

    def test_interrupted_run_counts_planned_cells_that_never_finished(
            self, tmp_path):
        session = RunTelemetry(EventLog(tmp_path / "ev.jsonl"))
        session.run_start(["table4"], 1, 3)
        session.cells_planned(["a", "b", "c"])
        session.cell_start("a")
        session.cell_done("a", degraded=False, wall_seconds=1.0)
        session.cell_start("b")
        session.run_end(outcome="interrupted")
        session.close()
        events, _ = read_events(tmp_path / "ev.jsonl")
        end = events[-1]
        assert end["kind"] == "run_end"
        assert end["attrs"]["outcome"] == "interrupted"
        assert (
            end["attrs"]["cells"],
            end["attrs"]["completed"],
            end["attrs"]["degraded"],
        ) == (3, 1, 0)
