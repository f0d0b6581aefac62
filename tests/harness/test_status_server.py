"""Status server endpoints, lifecycle and failure containment."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.study import Study, StudyConfig
from repro.core.tables import build_table4
from repro.harness.status_server import (
    OPENMETRICS_CONTENT_TYPE,
    StatusServer,
)
from repro.obs import live
from repro.obs.live import LiveAggregator
from repro.obs.metrics import MetricsRegistry

pytestmark = pytest.mark.live


def _aggregator():
    agg = LiveAggregator()
    agg.run_started(["table4"], 2, 7)
    agg.cells_planned(["a", "b"])
    agg.cell_started("a")
    agg.cell_finished("a", degraded=False, wall_seconds=1.0)
    return agg


def _get(port, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=5
    ) as response:
        return response.status, response.headers, response.read().decode()


@pytest.fixture()
def server():
    srv = StatusServer(_aggregator(), port=0).start()
    yield srv
    srv.stop()


class TestEndpoints:
    def test_healthz(self, server):
        status, _, body = _get(server.port, "/healthz")
        assert status == 200 and body == "ok\n"

    def test_progress_returns_the_aggregator_snapshot(self, server):
        status, headers, body = _get(server.port, "/progress")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        doc = json.loads(body)
        assert doc["schema"] == "repro.progress/v1"
        assert doc["cells"]["total"] == 2
        assert doc["cells"]["done"] == 1
        assert doc["per_cell"]["b"]["state"] == "pending"

    def test_metrics_speaks_openmetrics(self, server):
        status, headers, body = _get(server.port, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == OPENMETRICS_CONTENT_TYPE
        assert body.endswith("# EOF\n")
        assert "repro_run_cells_done 1\n" in body

    def test_metrics_includes_the_registry_when_supplied(self):
        registry = MetricsRegistry()
        registry.counter("cache.hit").inc(3)
        server = StatusServer(
            _aggregator(), registry_supplier=lambda: registry, port=0
        ).start()
        try:
            _, _, body = _get(server.port, "/metrics")
        finally:
            server.stop()
        assert "repro_cache_hit_total 3\n" in body

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.port, "/nope")
        assert excinfo.value.code == 404

    def test_query_strings_are_ignored(self, server):
        status, _, body = _get(server.port, "/healthz?probe=1")
        assert status == 200 and body == "ok\n"

    def test_broken_registry_degrades_to_run_section(self):
        class _Exploding:
            enabled = True

            def snapshot(self):
                raise RuntimeError("dictionary changed size")

        server = StatusServer(
            _aggregator(), registry_supplier=lambda: _Exploding(), port=0
        ).start()
        try:
            status, _, body = _get(server.port, "/metrics")
        finally:
            server.stop()
        assert status == 200
        assert body.endswith("# EOF\n")


class TestLifecycle:
    def test_ephemeral_port_is_bound_and_reported(self, server):
        assert server.port != 0
        assert server.running

    def test_stop_releases_the_port(self):
        server = StatusServer(_aggregator(), port=0).start()
        port = server.port
        server.stop()
        assert not server.running
        with pytest.raises((urllib.error.URLError, OSError)):
            _get(port, "/healthz")

    def test_stop_is_idempotent(self):
        server = StatusServer(_aggregator(), port=0).start()
        server.stop()
        server.stop()  # second stop must be a no-op, not an error

    def test_context_manager_starts_and_stops(self):
        with StatusServer(_aggregator(), port=0) as server:
            assert server.running
            status, _, _ = _get(server.port, "/healthz")
            assert status == 200
        assert not server.running


class TestLiveStudy:
    def test_study_on_a_worker_thread_reports_monotone_progress(
        self, sawtooth
    ):
        """A real study polled through a live server: ``/progress`` never
        counts backwards, the final snapshot is complete, ``/metrics`` is
        the run's exposition, and ``/healthz`` goes away with the server."""
        session = live.RunTelemetry()
        server = StatusServer(session.aggregator, port=0).start()
        done_counts = []
        try:
            with live.telemetry(session):
                session.run_start(["table4"], 1, 11)
                study = Study(StudyConfig(runs=2, seed=11))
                worker = threading.Thread(
                    target=build_table4, args=(study,),
                    kwargs={"machines": [sawtooth]},
                )
                worker.start()
                deadline = time.monotonic() + 120
                while worker.is_alive() and time.monotonic() < deadline:
                    _, _, body = _get(server.port, "/progress")
                    done_counts.append(json.loads(body)["cells"]["done"])
                worker.join(timeout=5)
                assert not worker.is_alive()
                session.run_end()
            snapshot = json.loads(_get(server.port, "/progress")[2])
            _, _, metrics = _get(server.port, "/metrics")
        finally:
            server.stop()
        done_counts.append(snapshot["cells"]["done"])
        assert done_counts == sorted(done_counts)
        assert snapshot["state"] == "done"
        assert snapshot["cells"]["done"] == snapshot["cells"]["total"] > 0
        assert metrics.endswith("# EOF\n")
        assert "repro_run_cells_done" in metrics
        with pytest.raises((urllib.error.URLError, OSError)):
            _get(server.port, "/healthz")
