"""CLI observability flags: byte-identity when off, valid exports when on.

These are the PR's acceptance tests: ``--trace-out``/``--metrics-out``/
``--profile`` must not perturb stdout by a single byte, the trace file
must be loadable Chrome ``trace_event`` JSON, and the metrics file must
carry counters from every instrumented subsystem.
"""

import json
from collections import Counter

import pytest

from repro.harness.cli import main
from repro.obs.ledger import RunLedger

FAST = ["--runs", "2"]


def _stdout(capsys, argv) -> tuple[int, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestByteIdentity:
    def test_obs_flags_leave_stdout_identical(self, capsys, tmp_path):
        code_a, base = _stdout(capsys, ["table4", "table6"] + FAST)
        code_b, flagged = _stdout(capsys, [
            "table4", "table6", *FAST,
            "--trace-out", str(tmp_path / "t.json"),
            "--metrics-out", str(tmp_path / "m.json"),
            "--profile", "--quiet",
        ])
        assert code_a == code_b == 0
        assert flagged == base

    @pytest.mark.parallel
    def test_obs_flags_with_jobs_leave_stdout_identical(self, capsys, tmp_path):
        code_a, base = _stdout(capsys, ["table4", "table6"] + FAST)
        code_b, flagged = _stdout(capsys, [
            "table4", "table6", *FAST, "--jobs", "2",
            "--trace-out", str(tmp_path / "t.json"),
            "--metrics-out", str(tmp_path / "m.json"),
            "--profile", "--quiet",
        ])
        assert code_a == code_b == 0
        assert flagged == base

    def test_quiet_silences_stderr_entirely(self, capsys, tmp_path):
        main(["table4", *FAST, "--profile", "--quiet",
              "--trace-out", str(tmp_path / "t.json")])
        assert capsys.readouterr().err == ""

    def test_profile_digest_goes_to_stderr_only(self, capsys):
        code = main(["table4", *FAST, "--profile"])
        captured = capsys.readouterr()
        assert code == 0
        assert "events/sec" in captured.err
        assert "events/sec" not in captured.out


class TestTraceGolden:
    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs") / "trace.json"
        assert main(["table4", "table6", *FAST, "--quiet",
                     "--trace-out", str(path)]) == 0
        return json.loads(path.read_text())

    def test_loadable_and_shaped(self, trace):
        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert trace["traceEvents"]

    def test_event_schema(self, trace):
        for event in trace["traceEvents"]:
            assert event["ph"] in ("M", "X", "B", "i")
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["dur"] >= 0

    def test_subsystem_lanes_present(self, trace):
        cats = {e.get("cat") for e in trace["traceEvents"]}
        # a table4+table6 run exercises CPU MPI, GPU runtime and cells
        assert {"mpisim", "gpurt", "study"} <= cats

    def test_no_spans_left_open(self, trace):
        assert not [e for e in trace["traceEvents"] if e["ph"] == "B"]


class TestMetricsGolden:
    @pytest.fixture(scope="class")
    def metrics(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs") / "metrics.json"
        assert main(["table4", "table6", *FAST, "--quiet",
                     "--metrics-out", str(path)]) == 0
        return json.loads(path.read_text())

    def test_schema_header(self, metrics):
        assert metrics["schema"] == "repro.metrics/v1"

    def test_counters_from_every_subsystem(self, metrics):
        instruments = metrics["instruments"]
        for prefix in ("mpisim", "netsim", "gpurt", "faults", "study"):
            assert any(n.startswith(prefix + ".") for n in instruments), prefix

    def test_hot_counters_actually_moved(self, metrics):
        instruments = metrics["instruments"]
        assert instruments["mpisim.send.eager"]["value"] > 0
        assert instruments["gpurt.kernel.launched"]["value"] > 0
        assert instruments["gpurt.dma.bytes"]["value"] > 0
        assert instruments["study.cell.completed"]["value"] > 0

    def test_clean_run_injects_no_faults(self, metrics):
        instruments = metrics["instruments"]
        for name, entry in instruments.items():
            if name.startswith("faults.injected."):
                assert entry["value"] == 0, name


class TestArtifactsMerge:
    def test_bundle_gains_metrics_when_obs_active(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        code = main(["table4", "artifacts", *FAST, "--quiet",
                     "--metrics-out", str(tmp_path / "m.json"),
                     "--output", str(out)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads((out / "obs" / "metrics.json").read_text())
        assert doc["schema"] == "repro.metrics/v1"

    def test_ledger_attributes_windows_recorded_after_the_bundle(
        self, tmp_path, capsys
    ):
        # the bundle's attribution is reused only while the tracer is
        # unchanged; table7 records more windows after the bundle
        def run(*argv):
            ledger = tmp_path / f"ledger{len(argv)}"
            code = main([*argv, *FAST, "--quiet",
                         "--metrics-out", str(tmp_path / "m.json"),
                         "--ledger-dir", str(ledger)])
            capsys.readouterr()
            assert code == 0
            runs = RunLedger(ledger)
            return runs.load(runs.resolve("latest")).attribution

        table7 = run("table7")
        combined = run("table4", "artifacts", "table7",
                       "--output", str(tmp_path / "bundle"))
        bundle = json.loads(
            (tmp_path / "bundle" / "obs" / "attribution.json").read_text()
        )

        def cells(docs):
            return Counter(doc["cell"] for doc in docs)

        assert len(combined) > len(bundle)
        assert cells(combined) == cells(bundle) + cells(table7)

    def test_bundle_has_no_metrics_when_obs_off(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert main(["table4", "artifacts", *FAST,
                     "--output", str(out)]) == 0
        capsys.readouterr()
        assert not (out / "obs").exists()


@pytest.mark.live
class TestTelemetryByteIdentity:
    """DESIGN.md §5h: run telemetry must never perturb stdout."""

    TELEMETRY = ["--progress"]

    def test_events_flag_leaves_stdout_identical(self, capsys, tmp_path):
        code_a, base = _stdout(capsys, ["table4", "table6"] + FAST)
        code_b, flagged = _stdout(capsys, [
            "table4", "table6", *FAST, "--progress",
            "--events-out", str(tmp_path / "ev.jsonl"),
        ])
        assert code_a == code_b == 0
        assert flagged == base

    @pytest.mark.parallel
    def test_telemetry_with_jobs_leaves_stdout_identical(self, capsys,
                                                         tmp_path):
        code_a, base = _stdout(capsys, ["table4", "table6"] + FAST)
        code_b, flagged = _stdout(capsys, [
            "table4", "table6", *FAST, "--jobs", "4", "--progress",
            "--events-out", str(tmp_path / "ev.jsonl"),
            "--status-port", "0",
        ])
        assert code_a == code_b == 0
        assert flagged == base

    def test_telemetry_composes_with_obs_flags(self, capsys, tmp_path):
        code_a, base = _stdout(capsys, ["table4"] + FAST)
        code_b, flagged = _stdout(capsys, [
            "table4", *FAST, "--profile", "--quiet",
            "--metrics-out", str(tmp_path / "m.json"),
            "--events-out", str(tmp_path / "ev.jsonl"),
        ])
        assert code_a == code_b == 0
        assert flagged == base


@pytest.mark.live
class TestEventsOut:
    def test_events_file_is_a_valid_run_log(self, capsys, tmp_path):
        from repro.obs.events import check_invariants, read_events

        path = tmp_path / "ev.jsonl"
        code, _ = _stdout(capsys, ["table4", *FAST,
                                   "--events-out", str(path)])
        assert code == 0
        events, skipped = read_events(path)
        assert skipped == 0
        assert events[0]["kind"] == "run_start"
        assert events[-1]["kind"] == "run_end"
        kinds = {e["kind"] for e in events}
        assert {"cell_start", "cell_done"} <= kinds
        assert check_invariants(events) == []

    def test_serial_run_with_repeated_cells_is_a_valid_run_log(
            self, capsys, tmp_path):
        # table7 requests table5's cells again: each still starts once
        # and reaches one terminal event
        from repro.obs.events import check_invariants, read_events

        path = tmp_path / "ev.jsonl"
        code, _ = _stdout(capsys, ["table5", "table7", "--runs", "5",
                                   "--events-out", str(path)])
        assert code == 0
        events, skipped = read_events(path)
        assert skipped == 0
        assert check_invariants(events) == []

    def test_stderr_reports_the_event_count(self, capsys, tmp_path):
        path = tmp_path / "ev.jsonl"
        main(["table4", *FAST, "--events-out", str(path)])
        err = capsys.readouterr().err
        assert f"wrote {path}" in err
        assert "event(s)" in err

    def test_quiet_suppresses_the_event_report(self, capsys, tmp_path):
        main(["table4", *FAST, "--quiet",
              "--events-out", str(tmp_path / "ev.jsonl")])
        assert capsys.readouterr().err == ""
        assert (tmp_path / "ev.jsonl").exists()

    @pytest.mark.parametrize("port", ("-1", "70000"))
    def test_out_of_range_status_port_is_a_usage_error(self, capsys, port):
        with pytest.raises(SystemExit) as excinfo:
            main(["table4", *FAST, "--status-port", port])
        assert excinfo.value.code == 2
        assert "--status-port" in capsys.readouterr().err


@pytest.mark.live
class TestManifestInArtifacts:
    def test_bundle_gains_manifest_when_telemetry_armed(self, tmp_path,
                                                        capsys):
        out = tmp_path / "bundle"
        code = main(["table4", "artifacts", *FAST, "--quiet",
                     "--events-out", str(tmp_path / "ev.jsonl"),
                     "--output", str(out)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["schema"] == "repro.manifest/v1"
        assert doc["targets"] == ["table4", "artifacts"]
        assert doc["side_files"]["events"]["path"] == str(
            tmp_path / "ev.jsonl"
        )
        assert doc["config"]["fingerprint"]

    def test_bundle_has_no_manifest_when_telemetry_off(self, tmp_path,
                                                       capsys):
        out = tmp_path / "bundle"
        assert main(["table4", "artifacts", *FAST,
                     "--output", str(out)]) == 0
        capsys.readouterr()
        assert not (out / "manifest.json").exists()
