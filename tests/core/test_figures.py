"""Tests for figure rendering (node topology diagrams)."""

import pytest

from repro.core.figures import (
    FIGURE_MACHINES,
    figure_for,
    render_node_ascii,
    render_node_dot,
)
from repro.errors import BenchmarkConfigError
from repro.machines.registry import get_machine, gpu_machines


class TestFigureMapping:
    def test_three_figures(self):
        assert set(FIGURE_MACHINES) == {1, 2, 3}

    def test_figure1_is_frontier(self):
        assert figure_for(1).name == "Frontier"

    def test_figure2_is_summit(self):
        assert figure_for(2).name == "Summit"

    def test_figure3_is_perlmutter(self):
        assert figure_for(3).name == "Perlmutter"

    def test_unknown_figure_rejected(self):
        with pytest.raises(BenchmarkConfigError):
            figure_for(4)


class TestAscii:
    def test_frontier_diagram_structure(self, frontier):
        text = render_node_ascii(frontier)
        assert "Frontier node" in text
        assert "8 x MI250X (GCD)" in text
        assert "4x IF" in text        # quad links
        assert "2x IF" in text        # dual links
        assert "IF(C-G)" in text      # CPU-GCD links
        assert "device-pair classes:" in text
        for cls in "ABCD":
            assert f"\n    {cls}: " in text

    def test_summit_diagram_structure(self, summit):
        text = render_node_ascii(summit)
        assert "6 x Tesla V100" in text
        assert "X-Bus" in text
        assert "2x NVLink2" in text
        # NVLink within a socket's tree (A), X-Bus across (B)
        assert "\n    A: " in text and "\n    B: " in text

    def test_perlmutter_diagram_structure(self, perlmutter):
        text = render_node_ascii(perlmutter)
        assert "4 x A100" in text
        assert "4x NVLink3" in text
        assert "PCIe4" in text
        # all-to-all NVLink: every pair is class A
        assert "\n    A: " in text and "\n    B: " not in text

    def test_every_link_appears_once(self, frontier):
        text = render_node_ascii(frontier)
        # 8 CPU-GCD links + 12 GCD-GCD links
        assert text.count("<--") == 20

    def test_cpu_machine_renders_without_gpu_section(self, sawtooth):
        text = render_node_ascii(sawtooth)
        assert "device-pair classes" not in text
        assert "Xeon Platinum 8268" in text


class TestDot:
    def test_valid_graphviz_structure(self, frontier):
        dot = render_node_dot(frontier)
        assert dot.startswith('graph "Frontier"')
        assert dot.rstrip().endswith("}")
        assert '"cpu0" [shape=box];' in dot
        assert '"gpu0" [shape=ellipse];' in dot
        assert dot.count("gpu") >= 8

    def test_edge_count(self, perlmutter):
        dot = render_node_dot(perlmutter)
        assert dot.count(" -- ") == 4 + 6  # CPU links + GPU pairs

    def test_all_gpu_machines_render(self):
        for m in gpu_machines():
            assert render_node_dot(m)
            assert render_node_ascii(m)
