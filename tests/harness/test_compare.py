"""Tests for the paper-vs-measured comparison engine."""

import pytest

from repro.checks.paper_refs import paper_suite
from repro.core.resilience import DEGRADED_MARK, Degraded
from repro.core.tables import (
    Table4Row,
    Table5Row,
    build_table4,
    build_table5,
    build_table6,
)
from repro.harness.compare import (
    ComparisonRow,
    comparison_rows,
    render_comparison,
)
from repro.harness.paper_values import PAPER_TABLE5, PAPER_TABLE6, paper_cells


@pytest.fixture(scope="module")
def tables(fast_study):
    return (
        build_table4(fast_study),
        build_table5(fast_study),
        build_table6(fast_study),
    )


class TestComparisonRow:
    def test_rel_error(self):
        row = ComparisonRow("T4", "X", "m", 10.0, 11.0)
        assert row.rel_error == pytest.approx(0.1)

    def test_cells(self):
        row = ComparisonRow("T4", "X", "m", 10.0, 11.0)
        assert row.cells() == ["T4", "X", "m", "10.00", "11.00", "10.0%"]


class TestCoverage:
    def test_table4_covers_every_cell(self, tables):
        rows = comparison_rows(table4=tables[0])
        # 5 machines x 4 metrics
        assert len(rows) == 20

    def test_table5_covers_every_cell(self, tables):
        rows = comparison_rows(table5=tables[1])
        d2d_cells = sum(len(v["d2d"]) for v in PAPER_TABLE5.values())
        assert len(rows) == 8 * 2 + d2d_cells

    def test_table6_covers_every_cell(self, tables):
        rows = comparison_rows(table6=tables[2])
        d2d_cells = sum(len(v["d2d"]) for v in PAPER_TABLE6.values())
        assert len(rows) == 8 * 4 + d2d_cells

    def test_rows_follow_the_paper_suite(self, tables):
        """``compare`` and ``check`` walk the same 108 cells, in the
        same order, each labelled as ``compare`` prints it."""
        rows = comparison_rows(*tables)
        suite = paper_suite()
        assert len(rows) == len(suite) == 108
        labels = {
            "single": "single GB/s", "all": "all GB/s",
            "on_socket": "on-socket us", "on_node": "on-node us",
            "device_bw": "device GB/s", "host": "host-host us",
            "launch": "launch us", "wait": "wait us",
            "hd_lat": "hd-lat us", "hd_bw": "hd-bw GB/s",
        }
        for row, check in zip(rows, suite):
            table, machine, cell = check.path.split(".", 2)
            assert row.table == "T" + table[-1]
            assert row.machine.lower() == machine
            if cell.startswith("d2d."):
                assert row.metric == f"d2d[{cell[-1]}] us"
            else:
                assert row.metric == labels[cell]
            assert row.paper_mean == check.reference.value

    def test_a_machine_without_a_row_is_left_out(self, tables):
        rows = comparison_rows(table4=tables[0][1:])
        assert len(rows) == 16
        assert tables[0][0].machine not in {r.machine for r in rows}


class TestAgreement:
    """The simulation must track the paper's numbers closely."""

    def test_all_cells_within_5_percent(self, tables):
        worst = max(comparison_rows(*tables), key=lambda r: r.rel_error)
        assert worst.rel_error < 0.05, worst

    def test_paper_values_are_pure_reference(self):
        """Sanity: the tables hold published (mean, std) pairs as floats,
        108 cells in all."""
        cells = list(paper_cells())
        assert len(cells) == 108
        assert len({path for path, _mean, _std in cells}) == 108
        for _path, mean, std in cells:
            assert isinstance(mean, float) and isinstance(std, float)
            assert mean >= 0 and std >= 0


class TestRendering:
    def test_text_layout(self, tables):
        text = render_comparison(comparison_rows(table4=tables[0]))
        assert "Machine" in text and "RelErr" in text

    def test_markdown_layout(self, tables):
        md = render_comparison(comparison_rows(table4=tables[0]),
                               markdown=True)
        assert md.startswith("| Table |")
        assert "|---|" in md


class TestDegradedCells:
    """Regression: degraded cells must render as —†, not vanish."""

    @staticmethod
    def _degraded():
        return Degraded(label="sawtooth/osu", reason="node failure",
                        attempts=3)

    def _rows_with_degraded(self, tables):
        table = tables[0]
        wounded = Table4Row(
            machine=table[0].machine,
            rank=table[0].rank,
            single=table[0].single,
            all_threads=table[0].all_threads,
            peak_label=table[0].peak_label,
            on_socket=self._degraded(),
            on_node=table[0].on_node,
        )
        return comparison_rows(table4=[wounded] + table[1:])

    def test_degraded_cell_kept_with_marker(self, tables):
        rows = self._rows_with_degraded(tables)
        # still one row per cell: 5 machines x 4 metrics
        assert len(rows) == 20
        degraded = [r for r in rows if r.degraded]
        assert len(degraded) == 1
        assert degraded[0].metric == "on-socket us"
        cells = degraded[0].cells()
        assert cells[4] == DEGRADED_MARK and cells[5] == DEGRADED_MARK

    def test_degraded_cell_has_no_rel_error(self):
        row = ComparisonRow("T4", "X", "m", 10.0, self._degraded())
        with pytest.raises(ValueError, match="no relative error"):
            row.rel_error

    def test_degraded_excluded_from_worst(self, tables):
        rows = self._rows_with_degraded(tables)
        worst = max(
            (r for r in rows if not r.degraded), key=lambda r: r.rel_error
        )
        assert worst.rel_error < 0.05

    def test_degraded_d2d_bundle_gives_a_row_per_paper_class(self, tables):
        healthy = {r.machine: r for r in tables[1]}["Frontier"]
        marker = self._degraded()
        wounded = Table5Row(
            machine=healthy.machine, rank=healthy.rank,
            device_bw=healthy.device_bw, peak_label=healthy.peak_label,
            host_to_host=healthy.host_to_host, device_to_device=marker,
        )
        rows = comparison_rows(table5=[wounded])
        assert [r.metric for r in rows if r.degraded] == [
            f"d2d[{cls.value}] us" for cls in PAPER_TABLE5["Frontier"]["d2d"]
        ]
        assert all(r.measured_mean is marker for r in rows if r.degraded)
        assert render_comparison(rows).count(DEGRADED_MARK) == 2 * 4 + 1

    def test_render_footnotes_degraded(self, tables):
        rows = self._rows_with_degraded(tables)
        text = render_comparison(rows)
        assert DEGRADED_MARK in text
        assert "degraded under fault injection" in text
        md = render_comparison(rows, markdown=True)
        assert DEGRADED_MARK in md

    def test_clean_render_has_no_footnote(self, tables):
        text = render_comparison(comparison_rows(table4=tables[0]))
        assert "degraded under fault injection" not in text
