"""Exporters: Chrome trace_event schema, metrics JSON, text digest."""

import json

import pytest

from repro.obs import (
    ObsContext,
    Tracer,
    chrome_trace,
    metrics_snapshot,
    text_summary,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.export import PID_SIM, PID_WALL


def _loaded_tracer() -> Tracer:
    tr = Tracer()
    with tr.span("cell", "study"):
        tr.complete("send.eager", "mpisim", 1e-6, 3e-6, nbytes=8)
        tr.complete("dma:host-to-device", "gpurt", 2e-6, 3e-6)
    return tr


class TestChromeTraceSchema:
    def test_event_phases_and_required_keys(self):
        events = chrome_trace(_loaded_tracer())["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X"}
        for event in events:
            assert {"name", "ph", "ts", "pid", "tid"} <= event.keys()
            if event["ph"] == "X":
                assert "dur" in event and "cat" in event

    def test_two_timelines(self):
        events = chrome_trace(_loaded_tracer())["traceEvents"]
        spans = {e["name"]: e for e in events if e["ph"] == "X"}
        # sim-domain span renders on the simulated-time process in us
        assert spans["send.eager"]["pid"] == PID_SIM
        assert spans["send.eager"]["ts"] == pytest.approx(1.0)
        assert spans["send.eager"]["dur"] == pytest.approx(2.0)
        # wall-only span renders on the host wall-time process
        assert spans["cell"]["pid"] == PID_WALL

    def test_category_lanes_named_by_metadata(self):
        events = chrome_trace(_loaded_tracer())["traceEvents"]
        names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in events if e["ph"] == "M" and e["name"] == "thread_name"
        }
        lanes = set(names.values())
        assert {"study", "mpisim", "gpurt"} <= lanes
        # span tids all resolve to a named lane
        for event in events:
            if event["ph"] == "X":
                assert (event["pid"], event["tid"]) in names

    def test_drop_accounting_exported(self):
        tr = Tracer(capacity=1)
        tr.complete("kept", "c", 0.0, 1.0)
        tr.complete("lost", "c", 0.0, 1.0)
        other = chrome_trace(tr)["otherData"]
        assert other == {"recorded": 1, "dropped": 1}

    def test_file_roundtrip_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), _loaded_tracer())
        data = json.loads(path.read_text())
        assert data["displayTimeUnit"] == "ms"
        assert data["traceEvents"]


class TestMetricsExport:
    def test_snapshot_schema(self):
        ctx = ObsContext.create()
        ctx.metrics.counter("mpisim.send.eager").inc(3)
        doc = metrics_snapshot(ctx.metrics)
        assert doc["schema"] == "repro.metrics/v1"
        assert doc["instruments"]["mpisim.send.eager"]["value"] == 3

    def test_file_roundtrip(self, tmp_path):
        ctx = ObsContext.create()
        path = tmp_path / "metrics.json"
        write_metrics(str(path), ctx.metrics)
        doc = json.loads(path.read_text())
        assert {"mpisim", "netsim", "gpurt", "faults"} <= {
            name.split(".")[0] for name in doc["instruments"]
        }


class TestTextSummary:
    def test_mentions_all_three_sources(self):
        ctx = ObsContext.create(profile=True)
        ctx.metrics.counter("mpisim.send.eager").inc()
        with ctx.tracer.span("cell", "study"):
            pass
        text = text_summary(ctx.tracer, ctx.metrics, ctx.profiler)
        assert "trace:" in text
        assert "metrics:" in text
        assert "mpisim.send.eager: 1" in text
        assert "events/sec" in text

    def test_empty_for_disabled_pieces(self):
        from repro.obs import NULL_METRICS, NULL_TRACER

        assert text_summary(NULL_TRACER, NULL_METRICS, None) == ""

    def test_histogram_line(self):
        ctx = ObsContext.create()
        h = ctx.metrics.histogram("gpurt.kernel.queue_wait_us", bounds=(1.0,))
        h.observe(0.5)
        text = text_summary(None, ctx.metrics, None)
        assert "gpurt.kernel.queue_wait_us: n=1" in text

    def test_absent_quantiles_render_as_dash(self):
        # a snapshot can carry a histogram whose quantile keys are
        # absent (the PR 3 rule omits them at count 0; foreign snapshots
        # may drop them too) — the digest renders "-", never crashes
        class _Registry:
            enabled = True

            def snapshot(self):
                return {"gpurt.kernel.queue_wait_us": {
                    "type": "histogram", "count": 3,
                    "mean": None, "buckets": {},
                }}

        text = text_summary(None, _Registry(), None)
        assert "n=3 mean=- p95=-" in text
