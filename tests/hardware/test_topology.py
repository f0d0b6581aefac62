"""Tests for the topology graph and the A/B/C/D classification.

Every registry machine's routes, neighbour order, GPU-pair classes and
``repr`` are pinned in ``topology_golden.json``.  Regenerate deliberately
with::

    PYTHONPATH=src python tests/hardware/test_topology.py regen
"""

import json
import pathlib

import pytest

from repro.errors import TopologyError
from repro.hardware.links import LinkKind, link
from repro.hardware.topology import ComponentKind, LinkClass, Topology
from repro.machines.registry import get_machine, machine_names

GOLDEN = pathlib.Path(__file__).with_name("topology_golden.json")


def small_topology():
    topo = Topology()
    topo.add_component("cpu0", ComponentKind.CPU, socket=0)
    topo.add_component("gpu0", ComponentKind.GPU, socket=0, index=0, vendor="nvidia")
    topo.add_component("gpu1", ComponentKind.GPU, socket=0, index=1, vendor="nvidia")
    topo.connect("cpu0", "gpu0", link(LinkKind.PCIE4))
    topo.connect("cpu0", "gpu1", link(LinkKind.PCIE4))
    topo.connect("gpu0", "gpu1", link(LinkKind.NVLINK3, 4))
    return topo


class TestConstruction:
    def test_duplicate_component_rejected(self):
        topo = Topology()
        topo.add_component("x", ComponentKind.CPU)
        with pytest.raises(TopologyError):
            topo.add_component("x", ComponentKind.CPU)

    def test_self_link_rejected(self):
        topo = Topology()
        topo.add_component("x", ComponentKind.CPU)
        with pytest.raises(TopologyError):
            topo.connect("x", "x", link(LinkKind.PCIE4))

    def test_duplicate_link_rejected(self):
        topo = small_topology()
        with pytest.raises(TopologyError):
            topo.connect("gpu0", "gpu1", link(LinkKind.PCIE4))

    def test_unknown_component_rejected(self):
        topo = small_topology()
        with pytest.raises(TopologyError):
            topo.connect("gpu0", "nope", link(LinkKind.PCIE4))


class TestQueries:
    def test_gpus_sorted_by_index(self):
        assert small_topology().gpus() == ["gpu0", "gpu1"]

    def test_cpus(self):
        assert small_topology().cpus() == ["cpu0"]

    def test_direct_link(self):
        topo = small_topology()
        l = topo.direct_link("gpu0", "gpu1")
        assert l is not None and l.kind == LinkKind.NVLINK3

    def test_no_direct_link_is_none(self):
        topo = Topology()
        topo.add_component("a", ComponentKind.CPU)
        topo.add_component("b", ComponentKind.CPU)
        assert topo.direct_link("a", "b") is None

    def test_route_prefers_direct(self):
        topo = small_topology()
        assert topo.route("gpu0", "gpu1") == ("gpu0", "gpu1")

    def test_route_to_self(self):
        assert small_topology().route("gpu0", "gpu0") == ("gpu0",)

    def test_route_no_path_raises(self):
        topo = Topology()
        topo.add_component("a", ComponentKind.CPU)
        topo.add_component("b", ComponentKind.CPU)
        with pytest.raises(TopologyError):
            topo.route("a", "b")

    def test_path_bandwidth_is_bottleneck(self):
        topo = small_topology()
        path = ("gpu0", "cpu0", "gpu1")
        pcie4 = link(LinkKind.PCIE4).bandwidth_per_dir
        assert topo.path_bandwidth(path) == pytest.approx(pcie4)

    def test_path_latency_sums(self):
        topo = small_topology()
        path = ("gpu0", "cpu0", "gpu1")
        assert topo.path_latency(path) == pytest.approx(
            2 * link(LinkKind.PCIE4).latency
        )

    def test_host_of_gpu(self):
        assert small_topology().host_of_gpu("gpu0") == "cpu0"


class TestClassification:
    def test_nvlink_pair_is_class_a(self):
        topo = small_topology()
        assert topo.classify_gpu_pair("gpu0", "gpu1").link_class == LinkClass.A

    def test_classify_needs_gpus(self):
        topo = small_topology()
        with pytest.raises(TopologyError):
            topo.classify_gpu_pair("cpu0", "gpu0")

    def test_classify_self_rejected(self):
        with pytest.raises(TopologyError):
            small_topology().classify_gpu_pair("gpu0", "gpu0")

    def test_xgmi_widths(self):
        topo = Topology()
        topo.add_component("cpu0", ComponentKind.CPU)
        for i in range(4):
            topo.add_component(
                f"gpu{i}", ComponentKind.GPU, index=i, vendor="amd"
            )
            topo.connect("cpu0", f"gpu{i}", link(LinkKind.XGMI_CPU_GPU))
        topo.connect("gpu0", "gpu1", link(LinkKind.XGMI_GPU, 4))
        topo.connect("gpu0", "gpu2", link(LinkKind.XGMI_GPU, 2))
        topo.connect("gpu0", "gpu3", link(LinkKind.XGMI_GPU, 1))
        assert topo.classify_gpu_pair("gpu0", "gpu1").link_class == LinkClass.A
        assert topo.classify_gpu_pair("gpu0", "gpu2").link_class == LinkClass.B
        assert topo.classify_gpu_pair("gpu0", "gpu3").link_class == LinkClass.C
        # no direct link on an AMD node -> class D
        assert topo.classify_gpu_pair("gpu1", "gpu2").link_class == LinkClass.D

    def test_staged_nvidia_pair_is_class_b(self, summit):
        topo = summit.node.topology
        cls = topo.classify_gpu_pair("gpu0", "gpu3")
        assert cls.link_class == LinkClass.B
        assert cls.direct is None
        # the transfer must cross both sockets
        assert "cpu0" in cls.route and "cpu1" in cls.route


class TestMemoInvalidation:
    """Routes, the GPU list and pair classes are memoized per topology;
    adding a component or a link must clear every memo."""

    def test_mutation_clears_memos(self):
        topo = small_topology()
        assert topo.gpus() == ["gpu0", "gpu1"]
        assert topo.route("gpu0", "gpu1") == ("gpu0", "gpu1")
        assert topo.gpu_pair_classes() == {LinkClass.A: [("gpu0", "gpu1")]}

        topo.add_component(
            "gpu2", ComponentKind.GPU, socket=0, index=2, vendor="nvidia"
        )
        assert topo.gpus() == ["gpu0", "gpu1", "gpu2"]
        topo.connect("cpu0", "gpu2", link(LinkKind.PCIE4))
        assert topo.route("gpu0", "gpu2") == ("gpu0", "cpu0", "gpu2")
        staged = topo.classify_gpu_pair("gpu0", "gpu2")
        assert (staged.link_class, staged.direct) == (LinkClass.B, None)
        assert topo.gpu_pair_classes() == {
            LinkClass.A: [("gpu0", "gpu1")],
            LinkClass.B: [("gpu0", "gpu2"), ("gpu1", "gpu2")],
        }
        assert topo.representative_pairs() == {
            LinkClass.A: ("gpu0", "gpu1"), LinkClass.B: ("gpu0", "gpu2"),
        }

        topo.connect("gpu0", "gpu2", link(LinkKind.NVLINK3, 2))
        assert topo.route("gpu0", "gpu2") == ("gpu0", "gpu2")
        direct = topo.classify_gpu_pair("gpu0", "gpu2")
        assert direct.link_class == LinkClass.A
        assert direct.route == ("gpu0", "gpu2")
        assert topo.gpu_pair_classes() == {
            LinkClass.A: [("gpu0", "gpu1"), ("gpu0", "gpu2")],
            LinkClass.B: [("gpu1", "gpu2")],
        }
        assert topo.representative_pairs() == {
            LinkClass.A: ("gpu0", "gpu1"), LinkClass.B: ("gpu1", "gpu2"),
        }

    def test_returned_containers_are_fresh(self):
        topo = small_topology()
        topo.gpus().append("gpu9")
        assert topo.gpus() == ["gpu0", "gpu1"]
        groups = topo.gpu_pair_classes()
        groups[LinkClass.A].append(("gpu1", "gpu0"))
        groups[LinkClass.B] = [("gpu0", "gpu1")]
        assert topo.gpu_pair_classes() == {LinkClass.A: [("gpu0", "gpu1")]}
        topo.representative_pairs().clear()
        assert topo.representative_pairs() == {LinkClass.A: ("gpu0", "gpu1")}


class TestPaperTopologies:
    def test_frontier_class_counts(self, frontier):
        groups = frontier.node.topology.gpu_pair_classes()
        assert len(groups[LinkClass.A]) == 4   # in-package pairs
        assert len(groups[LinkClass.B]) == 4   # package ring
        assert len(groups[LinkClass.C]) == 4   # diagonals
        assert len(groups[LinkClass.D]) == 16  # everything else

    def test_frontier_every_pair_classified(self, frontier):
        groups = frontier.node.topology.gpu_pair_classes()
        assert sum(len(v) for v in groups.values()) == 8 * 7 // 2

    def test_summit_class_counts(self, summit):
        groups = summit.node.topology.gpu_pair_classes()
        assert len(groups[LinkClass.A]) == 6  # 2 per-socket triangles
        assert len(groups[LinkClass.B]) == 9  # 3x3 cross-socket

    def test_perlmutter_single_class(self, perlmutter):
        groups = perlmutter.node.topology.gpu_pair_classes()
        assert set(groups) == {LinkClass.A}
        assert len(groups[LinkClass.A]) == 6

    def test_representative_pairs_cover_classes(self, frontier):
        reps = frontier.node.topology.representative_pairs()
        assert set(reps) == {LinkClass.A, LinkClass.B, LinkClass.C, LinkClass.D}


def topology_snapshot(topo):
    """Everything routing decides: ``repr``, neighbour order, the route
    of every ordered component pair and the class of every GPU pair."""
    names = list(topo.components)
    gpus = topo.gpus()
    pairs = {}
    for a in gpus:
        for b in gpus:
            if a != b:
                c = topo.classify_gpu_pair(a, b)
                pairs[f"{a}->{b}"] = [
                    c.link_class.value, c.description, ",".join(c.route)
                ]
    return {
        "repr": repr(topo),
        "neighbors": {
            n: ",".join(o for o, _ in topo.neighbors(n)) for n in names
        },
        "routes": {
            f"{a}->{b}": ",".join(topo.route(a, b))
            for a in names for b in names
        },
        "gpu_pairs": pairs,
    }


def registry_snapshot():
    return {
        name: topology_snapshot(get_machine(name).node.topology)
        for name in machine_names()
    }


class TestRouteGolden:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    def test_golden_covers_the_registry(self, golden):
        assert list(golden) == machine_names()
        assert sum(len(m["routes"]) for m in golden.values()) == 429
        assert sum(len(m["gpu_pairs"]) for m in golden.values()) == 246

    @pytest.mark.parametrize("name", machine_names())
    def test_machine_matches_golden(self, name, golden):
        assert topology_snapshot(get_machine(name).node.topology) == golden[name]


def tie_topology():
    """Three routes of equal latency (750 ns) from src to dst: via y, via
    x then y, and via x.  An NVLink3 hop (250 ns) is exactly half a PCIe3
    hop (500 ns), so the totals tie exactly in floating point.  Breaking
    any one part of the tie rule (searching backward first, relaxing on
    an equal distance, moving the meeting node on an equal total) or
    searching from one end only picks a different route."""
    topo = Topology()
    for i, name in enumerate(("src", "leaf", "x", "y", "dst")):
        topo.add_component(name, ComponentKind.GPU, index=i, vendor="nvidia")
    short, long = link(LinkKind.NVLINK3), link(LinkKind.PCIE3)
    for a, b, l in (("src", "leaf", short), ("y", "x", short),
                    ("src", "x", short), ("dst", "y", short),
                    ("src", "y", long), ("dst", "x", long)):
        topo.connect(a, b, l)
    return topo


class TestTieRule:
    """Equal-latency routes resolve as networkx's bidirectional Dijkstra
    resolves them, which is what routing used before it was in-house."""

    def test_forward_route(self):
        assert tie_topology().route("src", "dst") == ("src", "y", "dst")

    def test_reverse_route(self):
        assert tie_topology().route("dst", "src") == ("dst", "x", "src")

    def test_routes_tie(self):
        topo = tie_topology()
        latencies = {
            topo.path_latency(path) for path in (
                ("src", "y", "dst"), ("src", "x", "y", "dst"),
                ("src", "x", "dst"),
            )
        }
        assert len(latencies) == 1


if __name__ == "__main__":
    import sys

    if len(sys.argv) > 1 and sys.argv[1] == "regen":
        GOLDEN.write_text(json.dumps(registry_snapshot(), indent=1) + "\n")
        print(f"wrote {GOLDEN}")
