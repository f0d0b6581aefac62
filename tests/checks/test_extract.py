"""Tests for the extractor path resolver."""

import pytest

from repro.checks.extract import (
    CallableSource,
    CompositeSource,
    ExtractionError,
    MetricsSource,
    Observation,
    TableSource,
    cell_meta,
    ledger_source,
)
from repro.core.resilience import Degraded
from repro.core.results import Statistic
from repro.core.tables import Table4Row, Table5Row

pytestmark = pytest.mark.checks


def _row(machine="Eagle"):
    stat = Statistic(mean=13.45, std=0.03, n=10)
    lat = Statistic(mean=0.17, std=0.001, n=10)
    return Table4Row(
        machine=machine, rank=100, single=stat,
        all_threads=Statistic(mean=208.24, std=0.92, n=10),
        peak_label="peak", on_socket=lat,
        on_node=Statistic(mean=0.38, std=0.01, n=10),
    )


def _gpu_row(d2d):
    stat = Statistic(1.0, 0.0, 1)
    return Table5Row(
        machine="Frontier", rank=1, device_bw=stat, peak_label="",
        host_to_host=stat, device_to_device=d2d,
    )


class TestTableSource:
    def test_resolves_each_cell(self):
        src = TableSource(table4=[_row()])
        assert src.resolve("table4.eagle.single").mean == 13.45
        assert src.resolve("table4.eagle.all").mean == 208.24
        assert src.resolve("table4.eagle.on_socket").unit == "us"
        assert src.resolve("table4.eagle.single").unit == "GB/s"

    def test_machine_match_is_case_insensitive(self):
        src = TableSource(table4=[_row("Eagle")])
        assert src.resolve("table4.EAGLE.single").mean == 13.45

    def test_unknown_machine_lists_known(self):
        src = TableSource(table4=[_row()])
        with pytest.raises(ExtractionError, match="eagle"):
            src.resolve("table4.frontier.single")

    def test_unknown_cell_lists_choices(self):
        src = TableSource(table4=[_row()])
        with pytest.raises(ExtractionError, match="on_socket"):
            src.resolve("table4.eagle.latency")
        src = TableSource(table5=[_gpu_row(Statistic(1.0, 0.0, 1))])
        with pytest.raises(ExtractionError) as err:
            src.resolve("table5.frontier.latency")
        assert str(err.value).endswith(
            "(want one of ['device_bw', 'host', 'd2d'])"
        )
        with pytest.raises(ExtractionError, match="table4 has no d2d"):
            TableSource(table4=[_row()]).resolve("table4.eagle.d2d.A")

    def test_unknown_table_and_arity_errors(self):
        src = TableSource(table4=[_row()])
        with pytest.raises(ExtractionError, match="table4/5/6"):
            src.resolve("table7.eagle.single")
        with pytest.raises(ExtractionError, match="machine"):
            src.resolve("table4.eagle")
        with pytest.raises(ExtractionError, match="trailing"):
            src.resolve("table4.eagle.single.extra")

    def test_degraded_cell_reports_reason(self):
        row = Table4Row(
            machine="Eagle", rank=100,
            single=Degraded("Eagle/babelstream", "node fault", 3),
            all_threads=Statistic(1.0, 0.0, 1), peak_label="",
            on_socket=Statistic(1.0, 0.0, 1),
            on_node=Statistic(1.0, 0.0, 1),
        )
        with pytest.raises(ExtractionError, match="node fault"):
            TableSource(table4=[row]).resolve("table4.eagle.single")

    def test_lookup_passes_a_degraded_cell_through(self):
        marker = Degraded("Eagle/osu", "node fault", 3)
        row = Table4Row(
            machine="Eagle", rank=100, single=Statistic(1.0, 0.0, 1),
            all_threads=Statistic(1.0, 0.0, 1), peak_label="",
            on_socket=marker, on_node=Statistic(1.0, 0.0, 1),
        )
        found, value = TableSource(table4=[row]).lookup(
            "table4.eagle.on_socket"
        )
        assert found is row and value is marker

    def test_degraded_d2d_bundle_answers_for_each_class(self):
        marker = Degraded("Frontier/osu", "node fault", 3)
        src = TableSource(table5=[_gpu_row(marker)])
        for cls in "ABCD":
            _row5, value = src.lookup(f"table5.frontier.d2d.{cls}")
            assert value is marker
        with pytest.raises(
            ExtractionError, match=r"d2d cells degraded \(node fault\)"
        ):
            src.resolve("table5.frontier.d2d.A")

    def test_cell_meta_carries_unit_and_compare_label(self):
        assert cell_meta("table4.eagle.on_socket") == ("us", "on-socket us")
        assert cell_meta("table5.frontier.device_bw") == (
            "GB/s", "device GB/s",
        )
        assert cell_meta("table5.frontier.host") == ("us", "host-host us")
        assert cell_meta("table6.tioga.d2d.D") == ("us", "d2d[D] us")

    def test_d2d_requires_class(self, fast_check_source):
        obs = fast_check_source.resolve("table5.frontier.d2d.A")
        assert obs.unit == "us" and obs.mean > 0
        with pytest.raises(ExtractionError, match="A-D"):
            fast_check_source.resolve("table5.frontier.d2d.Z")
        with pytest.raises(ExtractionError, match="class-B"):
            fast_check_source.resolve("table5.perlmutter.d2d.B")


class TestMetricsSource:
    DOC = {
        "targets": {
            "osu": {"metrics": {
                "sim.latency_us": {"mean": 1.2, "std": 0.1, "n": 5,
                                   "unit": "us"},
                "wall_seconds": {"mean": 3.0, "std": 0.5, "n": 5},
            }},
            "sawtooth": {"metrics": {
                "wall_seconds": {"mean": 9.0, "std": 0.5, "n": 5},
            }},
        },
    }

    def test_flat_mapping(self):
        src = MetricsSource({"sim.lat": {"mean": 2.0, "std": 0.0, "n": 1}})
        obs = src.resolve("metrics:sim.lat")
        assert obs.mean == 2.0 and obs.n == 1

    def test_target_qualified(self):
        src = MetricsSource(self.DOC)
        assert src.resolve("metrics:osu:wall_seconds").mean == 3.0
        assert src.resolve("metrics:sawtooth:wall_seconds").mean == 9.0

    def test_unqualified_unique_name(self):
        src = MetricsSource(self.DOC)
        assert src.resolve("metrics:sim.latency_us").mean == 1.2

    def test_ambiguous_name_requires_target(self):
        src = MetricsSource(self.DOC)
        with pytest.raises(ExtractionError, match="ambiguous"):
            src.resolve("metrics:wall_seconds")

    def test_missing_metric_and_target(self):
        src = MetricsSource(self.DOC)
        with pytest.raises(ExtractionError, match="no metric"):
            src.resolve("metrics:sim.nope")
        with pytest.raises(ExtractionError, match="unknown target"):
            src.resolve("metrics:gpu:wall_seconds")

    def test_non_metrics_path_rejected(self):
        with pytest.raises(ExtractionError):
            MetricsSource(self.DOC).resolve("table4.eagle.single")

    def test_malformed_row_degrades_to_extraction_error(self):
        src = MetricsSource({"bad": {"std": 0.1}})
        with pytest.raises(ExtractionError, match="malformed"):
            src.resolve("metrics:bad")

    def test_invalid_stat_fields_rejected(self):
        for row in ({"mean": 1.0, "n": 0}, {"mean": 1.0, "std": -0.1}):
            with pytest.raises(ExtractionError, match="malformed"):
                MetricsSource({"bad": row}).resolve("metrics:bad")

    def test_rows_walk_targets_then_names(self):
        rows = list(MetricsSource(self.DOC).rows())
        assert [(target, name) for target, name, _row in rows] == [
            ("osu", "sim.latency_us"), ("osu", "wall_seconds"),
            ("sawtooth", "wall_seconds"),
        ]
        assert rows[0][2] is self.DOC["targets"]["osu"]["metrics"][
            "sim.latency_us"
        ]
        flat = MetricsSource({"sim.lat": {"mean": 2.0}})
        assert [(t, n) for t, n, _r in flat.rows()] == [("", "sim.lat")]


class TestCallableSource:
    def test_builds_observation_with_samples(self):
        src = CallableSource(lambda path, n: [1.0, 2.0, 3.0][:n], unit="us")
        obs = src.resolve_n("any.path", 3)
        assert (obs.mean, obs.std, obs.n) == (2.0, 1.0, 3)
        assert obs.unit == "us"

    def test_sampler_failure_degrades(self):
        def boom(path, n):
            raise RuntimeError("no such cell")

        with pytest.raises(ExtractionError, match="no such cell"):
            CallableSource(boom).resolve("x")
        with pytest.raises(ExtractionError, match="no samples"):
            CallableSource(lambda p, n: []).resolve("x")


class TestCompositeSource:
    def test_first_match_wins_and_reasons_accumulate(self):
        tables = TableSource(table4=[_row()])
        metrics = MetricsSource({"sim.lat": {"mean": 2.0}})
        src = CompositeSource(tables, metrics)
        assert src.resolve("table4.eagle.single").mean == 13.45
        assert src.resolve("metrics:sim.lat").mean == 2.0
        with pytest.raises(ExtractionError) as err:
            src.resolve("metrics:sim.nope")
        assert "not a metrics: path" not in str(err.value) or True
        assert "no metric" in str(err.value)


class TestStudySource:
    def test_tables_and_metrics_both_resolve(self, fast_check_source):
        table = fast_check_source.resolve("table4.sawtooth.on_socket")
        assert table.unit == "us" and table.n == 10
        metric = fast_check_source.resolve(
            "metrics:sim.Sawtooth/osu/on-socket"
        )
        # the metrics row is the same cell the table scaled to us
        assert metric.mean == pytest.approx(table.mean * 1e-6)


class TestLedgerSource:
    def test_resolves_recorded_run(self, tmp_path, fast_study):
        from repro.obs.ledger import RunLedger, record_study_run

        ledger = RunLedger(directory=tmp_path / "runs")
        from repro.core.study import Study, StudyConfig
        from repro.core.tables import build_table4
        from repro.machines.registry import get_machine

        study = Study(StudyConfig(runs=3, seed=11))
        build_table4(study, [get_machine("sawtooth")])
        entry = record_study_run(
            study, targets=["table4"], directory=str(tmp_path / "runs"),
            started=0.0, outcome="ok", exit_code=0,
        )
        assert entry is not None
        src = ledger_source(entry.run_id, ledger)
        obs = src.resolve("metrics:sim.Sawtooth/osu/on-socket")
        assert obs.mean > 0 and obs.n == 3
        # 'last' resolution goes through the same ledger grammar
        assert ledger_source("last", ledger).resolve(
            "metrics:sim.Sawtooth/osu/on-socket"
        ).mean == obs.mean


class TestObservation:
    def test_from_samples_matches_statistic(self):
        obs = Observation.from_samples("p", [1.0, 2.0, 3.0])
        stat = Statistic.from_samples([1.0, 2.0, 3.0])
        assert (obs.mean, obs.std, obs.n) == (stat.mean, stat.std, stat.n)

    def test_is_finite(self):
        assert Observation("p", 1.0).is_finite()
        assert not Observation("p", float("nan")).is_finite()
        assert not Observation("p", 1.0, std=float("inf")).is_finite()
