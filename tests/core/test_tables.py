"""Tests for the Table 4/5/6 builders and renderers."""

import pytest

from repro.core.tables import (
    build_table4,
    build_table5,
    build_table6,
    render_table4,
    render_table5,
    render_table6,
)
from repro.hardware.topology import LinkClass
from repro.harness.paper_values import PAPER_TABLE5, PAPER_TABLE6
from repro.machines.registry import get_machine


@pytest.fixture(scope="module")
def t4(fast_study):
    return build_table4(fast_study)


@pytest.fixture(scope="module")
def t5(fast_study):
    return build_table5(fast_study)


@pytest.fixture(scope="module")
def t6(fast_study):
    return build_table6(fast_study)


class TestTable4:
    def test_five_rows_in_rank_order(self, t4):
        assert [r.machine for r in t4] == [
            "Trinity", "Theta", "Sawtooth", "Eagle", "Manzano",
        ]

    def test_units_are_paper_units(self, t4):
        by_name = {r.machine: r for r in t4}
        assert 12 < by_name["Trinity"].single.mean < 13      # GB/s
        assert 0.6 < by_name["Trinity"].on_socket.mean < 0.8  # microseconds

    def test_peak_labels(self, t4):
        by_name = {r.machine: r for r in t4}
        assert by_name["Sawtooth"].peak_label == "281.50 [13]"
        assert by_name["Trinity"].peak_label == "> 450 [34]"

    def test_render_contains_all_rows(self, t4):
        text = render_table4(t4)
        for row in t4:
            assert f"{row.rank}. {row.machine}" in text

    def test_subset_of_machines(self, fast_study):
        rows = build_table4(fast_study, machines=[get_machine("eagle")])
        assert len(rows) == 1 and rows[0].machine == "Eagle"


class TestTable5:
    def test_eight_rows(self, t5):
        assert [r.machine for r in t5] == list(PAPER_TABLE5)

    def test_class_columns_per_family(self, t5):
        by_name = {r.machine: r for r in t5}
        assert set(by_name["Frontier"].device_to_device) == {
            LinkClass.A, LinkClass.B, LinkClass.C, LinkClass.D
        }
        assert set(by_name["Summit"].device_to_device) == {
            LinkClass.A, LinkClass.B
        }
        assert set(by_name["Perlmutter"].device_to_device) == {LinkClass.A}
        assert set(by_name["Polaris"].device_to_device) == {LinkClass.A}

    def test_render_blank_cells_for_missing_classes(self, t5):
        text = render_table5(t5)
        summit_line = next(l for l in text.splitlines() if "Summit" in l)
        # Summit has no C/D columns: line ends after the B cell
        assert summit_line.rstrip().count("±") == 4  # bw, host, A, B


class TestTable6:
    def test_eight_rows(self, t6):
        assert [r.machine for r in t6] == list(PAPER_TABLE6)

    def test_launch_hierarchy(self, t6):
        by_name = {r.machine: r for r in t6}
        for v100 in ("Summit", "Sierra", "Lassen"):
            assert by_name[v100].launch.mean > 4.0
        for fast in ("Frontier", "Perlmutter", "Polaris"):
            assert by_name[fast].launch.mean < 2.5

    def test_render(self, t6):
        text = render_table6(t6)
        assert "Launch (us)" in text
        assert "1. Frontier" in text
