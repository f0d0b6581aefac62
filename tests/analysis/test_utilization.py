"""Tests for the utilization analysis layer."""

import pytest

from repro.analysis.utilization import (
    dma_utilization,
    link_usage,
    render_link_usage,
)
from repro.errors import BenchmarkConfigError
from repro.gpurt.api import DeviceRuntime
from repro.mpisim.transport import BufferKind
from repro.netsim.cluster import Cluster, ClusterRankLocation
from repro.obs import ObsContext, observability


class TestDmaUtilization:
    def _run_copies(self, machine, n_copies=3, nbytes=1 << 26):
        with observability(ObsContext.create()) as ctx:
            rt = DeviceRuntime(machine)
            bufs = [
                (rt.alloc_host(nbytes, pinned=True),
                 rt.alloc_device(0, nbytes))
                for _ in range(n_copies)
            ]

            def host():
                for src, dst in bufs:
                    yield from rt.memcpy_async(dst, src)
                    yield from rt.stream_synchronize(0)
                return rt.env.now

            window = rt.run(host())
        return ctx.tracer.records(), window

    def test_counts_transfers_and_bytes(self, frontier):
        trace, window = self._run_copies(frontier, n_copies=3)
        util = dma_utilization(trace, window)
        assert util[0].transfers == 3
        assert util[0].bytes_moved == 3 * (1 << 26)

    def test_serial_copies_fully_busy(self, frontier):
        trace, window = self._run_copies(frontier)
        util = dma_utilization(trace, window)
        assert util[0].busy_fraction > 0.95

    def test_achieved_bandwidth_near_link(self, frontier):
        trace, window = self._run_copies(frontier, nbytes=1 << 28)
        util = dma_utilization(trace, window)
        assert 20e9 < util[0].achieved_bandwidth < 26e9

    def test_empty_trace(self):
        assert dma_utilization([], 1.0) == {}

    def test_zero_window_rejected(self):
        with pytest.raises(BenchmarkConfigError):
            dma_utilization([], 0.0)


class TestLinkUsage:
    def _loaded_cluster(self):
        frontier_cluster = Cluster(
            __import__("repro.machines", fromlist=["get_machine"])
            .get_machine("frontier"), 8,
        )
        placement = [
            ClusterRankLocation(core=0, node=0),
            ClusterRankLocation(core=0, node=4),
        ]
        world = frontier_cluster.world(placement)
        n = 8 << 20

        def sender(ctx):
            for _ in range(4):
                yield from ctx.send(1, n, BufferKind.HOST)
            yield from ctx.recv(1)

        def receiver(ctx):
            for _ in range(4):
                yield from ctx.recv(0)
            yield from ctx.send(0, 0, BufferKind.HOST)

        world.run([sender, receiver])
        return frontier_cluster, world.env.now

    def test_busiest_links_are_the_route(self):
        cluster, window = self._loaded_cluster()
        rows = link_usage(cluster.topology.links, window)
        assert rows, "traffic must be recorded"
        # every link of the forward route carried the bulk data and ties
        # at the top of the ranking
        top = {r.name for r in rows if r.bytes_carried >= 4 * (8 << 20)}
        assert "node0->g0r0" in top
        assert "g0r1->node4" in top

    def test_idle_links_excluded(self):
        cluster, window = self._loaded_cluster()
        rows = link_usage(cluster.topology.links, window)
        named = {r.name for r in rows}
        assert "node7->g0r1" not in named

    def test_busiest_limit(self):
        cluster, window = self._loaded_cluster()
        rows = link_usage(cluster.topology.links, window, busiest=2)
        assert len(rows) <= 2

    def test_render(self):
        cluster, window = self._loaded_cluster()
        text = render_link_usage(link_usage(cluster.topology.links, window))
        assert "link" in text and "util" in text and "node0->" in text
