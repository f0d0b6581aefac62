"""Trace reader: exporter output parses back losslessly.

The round-trip acceptance test records a real ``table4 --profile`` run
through the CLI and checks that every span the exporter wrote is
reconstructible by :class:`TraceDocument`.
"""

import json

import pytest

from repro.errors import TraceAnalysisError
from repro.harness.cli import main
from repro.obs import ObsContext, chrome_trace, runtime as obs

from .trace_reader import TraceDocument

FAST = ["--runs", "2"]


def _minimal_trace(events) -> dict:
    return {"traceEvents": events, "otherData": {"recorded": len(events),
                                                 "dropped": 0}}


def _meta(pid, tid, kind, label) -> dict:
    return {"name": kind, "ph": "M", "pid": pid, "tid": tid, "ts": 0,
            "args": {"name": label}}


class TestRoundTripRecordedRun:
    """Satellite: every exporter-written span must read back."""

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "t.json"
        assert main(["table4", *FAST, "--quiet", "--profile",
                     "--trace-out", str(path)]) == 0
        return json.loads(path.read_text()), TraceDocument.load(str(path))

    def test_every_span_event_reconstructed(self, recorded):
        raw, doc = recorded
        raw_spans = [e for e in raw["traceEvents"] if e["ph"] in ("X", "B")]
        assert len(doc.spans) == len(raw_spans) > 0

    def test_times_convert_back_to_seconds(self, recorded):
        raw, doc = recorded
        by_phase = [e for e in raw["traceEvents"] if e["ph"] == "X"]
        first = by_phase[0]
        match = [
            s for s in doc.spans
            if s.name == first["name"]
            and s.begin == pytest.approx(first["ts"] * 1e-6)
        ]
        assert match

    def test_categories_and_lanes_preserved(self, recorded):
        raw, doc = recorded
        raw_cats = {e["cat"] for e in raw["traceEvents"] if "cat" in e}
        assert doc.categories() == raw_cats
        assert set(doc.lanes.values()) == raw_cats
        assert set(doc.processes.values()) == {
            "simulated time", "host wall time"
        }

    def test_exporter_annotations_stripped(self, recorded):
        _raw, doc = recorded
        for span in doc.spans:
            assert "wall_ms" not in span.args
            assert "unfinished" not in span.args

    def test_bookkeeping_counts(self, recorded):
        raw, doc = recorded
        assert doc.recorded == raw["otherData"]["recorded"]
        assert doc.dropped == raw["otherData"]["dropped"]

    def test_cell_windows_present(self, recorded):
        _raw, doc = recorded
        windows = doc.cell_windows()
        assert windows
        assert {w.name for w in windows} == {"osu.pingpong"}
        for w in windows:
            assert w.finished and w.timeline == "sim"


class TestRoundTripLive:
    def test_live_tracer_spans_all_reconstructed(self):
        from repro.benchmarks.osu.latency import measure_pingpong
        from repro.machines.registry import get_machine
        from repro.mpisim.placement import on_socket_pair
        from repro.mpisim.transport import BufferKind

        ctx = ObsContext.create()
        with obs.observability(ctx):
            machine = get_machine("sawtooth")
            measure_pingpong(
                machine, on_socket_pair(machine), 0, BufferKind.HOST
            )
        live = ctx.tracer.records()
        doc = TraceDocument.from_dict(chrome_trace(ctx.tracer))
        assert len(doc.spans) == len(live)
        live_names = sorted(r.name for r in live)
        assert sorted(s.name for s in doc.spans) == live_names
        # simulated times survive the µs round trip
        for record in live:
            if record.sim_begin is None:
                continue
            assert any(
                s.sim_begin == pytest.approx(record.sim_begin, abs=1e-12)
                and s.sim_end == pytest.approx(record.sim_end, abs=1e-12)
                for s in doc.sim_spans()
                if s.name == record.name
            )

    def test_open_span_reads_back_unfinished(self):
        ctx = ObsContext.create()
        with obs.observability(ctx):
            ctx.tracer.span("outer", "study").__enter__()
            doc = TraceDocument.from_dict(chrome_trace(ctx.tracer))
        unfinished = [s for s in doc.spans if not s.finished]
        assert [s.name for s in unfinished] == ["outer"]
        assert unfinished[0].end is None
        assert unfinished[0].duration is None


class TestMalformedTraces:
    def test_not_a_trace(self):
        with pytest.raises(TraceAnalysisError, match="traceEvents"):
            TraceDocument.from_dict({"events": []})

    def test_unknown_phase(self):
        bad = _minimal_trace([
            {"name": "x", "cat": "study", "ph": "Z", "ts": 0,
             "pid": 1, "tid": 1},
        ])
        with pytest.raises(TraceAnalysisError, match="unknown trace phase"):
            TraceDocument.from_dict(bad)

    def test_missing_keys(self):
        bad = _minimal_trace([
            {"name": "x", "cat": "study", "ph": "X", "ts": 0, "pid": 1},
        ])
        with pytest.raises(TraceAnalysisError, match="missing keys"):
            TraceDocument.from_dict(bad)

    def test_unknown_pid(self):
        bad = _minimal_trace([
            {"name": "x", "cat": "study", "ph": "X", "ts": 0, "dur": 1,
             "pid": 9, "tid": 1},
        ])
        with pytest.raises(TraceAnalysisError, match="unknown trace pid"):
            TraceDocument.from_dict(bad)

    def test_unreadable_file(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(TraceAnalysisError, match="cannot read"):
            TraceDocument.load(str(missing))
        garbled = tmp_path / "bad.json"
        garbled.write_text("{not json")
        with pytest.raises(TraceAnalysisError, match="cannot read"):
            TraceDocument.load(str(garbled))


class TestQueries:
    def test_timeline_split(self):
        doc = TraceDocument.from_dict(_minimal_trace([
            _meta(1, 0, "process_name", "simulated time"),
            _meta(2, 0, "process_name", "host wall time"),
            _meta(1, 1, "thread_name", "mpisim"),
            _meta(2, 2, "thread_name", "study"),
            {"name": "a", "cat": "mpisim", "ph": "X", "ts": 0.0, "dur": 2.0,
             "pid": 1, "tid": 1},
            {"name": "b", "cat": "study", "ph": "X", "ts": 1.0, "dur": 2.0,
             "pid": 2, "tid": 2},
        ]))
        assert [s.name for s in doc.sim_spans()] == ["a"]
        assert [s.name for s in doc.wall_spans()] == ["b"]
        assert doc.sim_spans()[0].sim_end == pytest.approx(2e-6)
        assert doc.wall_spans()[0].sim_begin is None
        assert [s.name for s in doc.by_category("study")] == ["b"]
        assert doc.span_names() == {"a": 1, "b": 1}
