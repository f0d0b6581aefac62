"""Structured event log: schema, crash safety, study-level invariants.

The golden tests run a real two-machine study (clean and cached)
through a live telemetry session and check the JSONL stream shape: one
``run_start``/``run_end`` pair, one ``cell_start`` per computed cell,
exactly one terminal event per cell, and the count identity
``cell_start == cell_done + cell_degraded``.
"""

import json

import pytest

from repro.core.study import Study, StudyConfig
from repro.core.tables import build_table4
from repro.machines.registry import get_machine
from repro.obs import live
from repro.obs.events import (
    EVENT_KINDS,
    EVENT_SCHEMA,
    EventLog,
    check_invariants,
    read_events,
)

pytestmark = pytest.mark.live

TWO_MACHINES = ["sawtooth", "manzano"]


def _run_study(events_path, *, jobs=1, cache_dir=None):
    session = live.RunTelemetry(events=EventLog(events_path))
    with live.telemetry(session):
        session.run_start(["table4"], jobs, 11)
        study = Study(StudyConfig(
            runs=2, seed=11, jobs=jobs,
            cache=cache_dir is not None,
            cache_dir=str(cache_dir) if cache_dir else None,
        ))
        text = build_table4(
            study, machines=[get_machine(key) for key in TWO_MACHINES]
        )
        session.run_end()
    session.close()
    return study, text


def _kinds(events):
    counts = {}
    for event in events:
        counts[event["kind"]] = counts.get(event["kind"], 0) + 1
    return counts


class TestEventLog:
    def test_emit_writes_schema_stamped_sorted_json(self, tmp_path):
        log = EventLog(tmp_path / "ev.jsonl")
        log.emit("run_start", targets=["table4"], jobs=1, seed=7)
        log.emit("run_end", cells=0)
        log.close()
        lines = (tmp_path / "ev.jsonl").read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["schema"] == EVENT_SCHEMA
        assert first["kind"] == "run_start"
        assert first["seq"] == 0
        assert first["attrs"]["seed"] == 7
        # stable field order: sort_keys makes the log diffable
        assert lines[0].index('"attrs"') < lines[0].index('"kind"')
        assert json.loads(lines[1])["seq"] == 1

    def test_unknown_kind_is_a_call_site_bug(self, tmp_path):
        log = EventLog(tmp_path / "ev.jsonl")
        with pytest.raises(ValueError, match="unknown event kind"):
            log.emit("cell_exploded")

    def test_unwritable_path_warns_once_and_counts_drops(self, tmp_path):
        blocked = tmp_path / "dir"
        blocked.mkdir()
        with pytest.warns(RuntimeWarning, match="cannot open event log"):
            log = EventLog(blocked)  # a directory: open() fails
            log.emit("run_start")
        log.emit("run_end")
        assert log.stats()["dropped"] == 2
        assert log.stats()["emitted"] == 0

    def test_read_skips_torn_final_line(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        log = EventLog(path)
        log.emit("run_start", jobs=1)
        log.emit("cell_start", cell="a")
        log.close()
        raw = path.read_bytes()
        path.write_bytes(raw[:-20])  # tear the last line mid-JSON
        events, skipped = read_events(path)
        assert skipped == 1
        assert [e["kind"] for e in events] == ["run_start"]

    def test_append_after_torn_tail_seals_the_fragment(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        log = EventLog(path)
        log.emit("run_start", jobs=1)
        log.close()
        with open(path, "ab") as fh:
            fh.write(b'{"torn": tru')  # a killed run's partial write
        resumed = EventLog(path)
        resumed.emit("run_end", cells=0)
        resumed.close()
        events, skipped = read_events(path)
        assert skipped == 1
        assert [e["kind"] for e in events] == ["run_start", "run_end"]

    def test_foreign_schema_lines_are_skipped(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        path.write_text(
            json.dumps({"schema": "other/v9", "kind": "run_start",
                        "seq": 0, "ts": 0, "attrs": {}}) + "\n"
        )
        events, skipped = read_events(path)
        assert events == [] and skipped == 1


class TestGoldenStudies:
    def test_clean_serial_study_event_stream(self, tmp_path):
        _run_study(tmp_path / "ev.jsonl")
        events, skipped = read_events(tmp_path / "ev.jsonl")
        assert skipped == 0
        kinds = _kinds(events)
        # 2 machines x 4 table4 cells, one start and one terminal each
        assert kinds == {"run_start": 1, "cell_start": 8,
                         "cell_done": 8, "run_end": 1}
        assert events[0]["kind"] == "run_start"
        assert events[-1]["kind"] == "run_end"
        assert events[-1]["attrs"]["completed"] == 8
        assert check_invariants(events) == []

    def test_start_count_identity_on_retry_free_run(self, tmp_path):
        # the parallel group pass prefetches the whole CPU roster, so
        # the cell count exceeds the two requested machines; the
        # identity starts == terminals must hold regardless
        _run_study(tmp_path / "ev.jsonl", jobs=2)
        events, _ = read_events(tmp_path / "ev.jsonl")
        kinds = _kinds(events)
        terminals = kinds.get("cell_done", 0) + kinds.get("cell_degraded", 0)
        assert kinds["cell_start"] == terminals >= 8
        assert check_invariants(events) == []

    def test_warm_cache_run_reports_hits_not_starts(self, tmp_path):
        cache = tmp_path / "cache"
        _run_study(tmp_path / "cold.jsonl", cache_dir=cache)
        _run_study(tmp_path / "warm.jsonl", cache_dir=cache)
        events, _ = read_events(tmp_path / "warm.jsonl")
        kinds = _kinds(events)
        # every cell is served from the cache: no cell_start at all,
        # one cache_hit + one cell_done(source="cache") per cell
        assert "cell_start" not in kinds
        assert kinds["cache_hit"] == kinds["cell_done"] >= 8
        assert kinds["run_start"] == kinds["run_end"] == 1
        assert all(
            e["attrs"]["source"] == "cache"
            for e in events if e["kind"] == "cell_done"
        )
        assert check_invariants(events) == []


class TestInvariantChecker:
    def _event(self, seq, kind, **attrs):
        return {"schema": EVENT_SCHEMA, "seq": seq, "ts": 0.0,
                "kind": kind, "attrs": attrs}

    def test_missing_terminal_is_flagged(self):
        events = [self._event(0, "cell_start", cell="a")]
        assert any("1 start(s) but 0 terminal" in f
                   for f in check_invariants(events))

    def test_terminal_without_start_is_flagged(self):
        events = [self._event(0, "cell_done", cell="a")]
        assert any("terminal event without a start" in f
                   for f in check_invariants(events))

    def test_cached_terminal_needs_no_start(self):
        events = [self._event(0, "cell_done", cell="a", source="cache")]
        assert check_invariants(events) == []

    def test_non_monotone_seq_is_flagged(self):
        events = [self._event(3, "cell_start", cell="a"),
                  self._event(1, "cell_done", cell="a")]
        assert any("strictly increasing" in f
                   for f in check_invariants(events))

    def test_vocabulary_is_closed(self):
        assert EVENT_KINDS == {
            "run_start", "cell_start", "cell_done", "cell_degraded",
            "cache_hit", "run_end",
        }


class TestRunEndOutcome:
    pytestmark = [pytest.mark.live, pytest.mark.ledger]

    def test_run_end_carries_ok_outcome(self, tmp_path):
        _run_study(tmp_path / "ev.jsonl")
        events, _ = read_events(tmp_path / "ev.jsonl")
        assert events[-1]["kind"] == "run_end"
        assert events[-1]["attrs"]["outcome"] == "ok"

    def test_run_end_is_idempotent(self, tmp_path):
        session = live.RunTelemetry(events=EventLog(tmp_path / "ev.jsonl"))
        session.run_start(["table4"], 1, 11)
        session.run_end(outcome="error")
        session.run_end()  # the finally-block call: must not double-emit
        session.close()
        events, _ = read_events(tmp_path / "ev.jsonl")
        kinds = _kinds(events)
        assert kinds["run_end"] == 1
        # first call wins: the outcome it recorded is the one that sticks
        assert events[-1]["attrs"]["outcome"] == "error"

    def test_unpaired_run_start_is_flagged(self):
        events = [{"schema": EVENT_SCHEMA, "seq": 0, "ts": 0.0,
                   "kind": "run_start", "attrs": {}}]
        assert any("1 run_start event(s) but 0 run_end" in f
                   for f in check_invariants(events))

    def test_cell_only_stream_passes_pairing_check(self):
        # 0 starts / 0 ends is balanced: the pairing check must stay
        # silent on event slices that never saw the run lifecycle
        events = [{"schema": EVENT_SCHEMA, "seq": 0, "ts": 0.0,
                   "kind": "cell_done", "attrs": {"cell": "a",
                                                  "source": "cache"}}]
        assert check_invariants(events) == []
