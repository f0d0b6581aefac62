"""Tests for non-minimal (Valiant) candidate routes and adaptive routing."""

import pytest

from repro.errors import SimulationError
from repro.machines.registry import get_machine
from repro.mpisim.transport import BufferKind
from repro.netsim.cluster import Cluster, ClusterRankLocation
from repro.netsim.fabric import SLINGSHOT_11
from repro.netsim.links import AdaptiveRoute, NetworkLink
from repro.netsim.topology import DragonflyTopology


class TestNonminimalRoutes:
    @pytest.fixture
    def topo(self):
        return DragonflyTopology(SLINGSHOT_11, 64, groups=4)

    def test_minimal_first(self, topo):
        routes = topo.nonminimal_routes(0, 60)
        assert routes[0] == topo.route(0, 60)

    def test_candidates_are_valid_paths(self, topo):
        for path in topo.nonminimal_routes(0, 60):
            topo.links.along(path)  # raises on a missing hop
            assert len(path) == len(set(path))

    def test_valiant_candidates_visit_other_groups(self, topo):
        routes = topo.nonminimal_routes(0, 60, max_candidates=3)
        assert len(routes) >= 2
        minimal_groups = {r[1] for r in routes[0:1]}
        for path in routes[1:]:
            groups = {int(r[1:].split("r")[0]) for r in path}
            assert len(groups) >= 3  # src, intermediate, dst

    def test_same_group_single_candidate(self, topo):
        # nodes 0 and 4: same group, different routers
        assert len(topo.nonminimal_routes(0, 4)) >= 1

    def test_candidate_count_bounded(self, topo):
        assert len(topo.nonminimal_routes(0, 60, max_candidates=2)) <= 2


class TestAdaptiveRoute:
    def _mk(self, n_paths, bw=1e9):
        return [
            [NetworkLink(f"p{i}l{j}", bw, 1e-7) for j in range(2)]
            for i in range(n_paths)
        ]

    def test_prefers_idle_candidate(self):
        paths = self._mk(2)
        paths[0][0].busy_until = 10.0  # minimal path busy
        route = AdaptiveRoute(paths)
        assert route.choose(now=0.0, nbytes=100) is paths[1]

    def test_prefers_minimal_on_tie(self):
        paths = self._mk(3)
        route = AdaptiveRoute(paths)
        assert route.choose(now=0.0, nbytes=100) is paths[0]

    def test_iteration_yields_minimal(self):
        paths = self._mk(2)
        route = AdaptiveRoute(paths)
        assert list(route) == paths[0]

    def test_len(self):
        assert len(AdaptiveRoute(self._mk(2))) == 2

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            AdaptiveRoute([])
        with pytest.raises(SimulationError):
            AdaptiveRoute([[]])


class TestAdaptiveCluster:
    def _stream_pair(self, cluster, src, dst, n=16 << 20, msgs=8):
        def stream(peer):
            def fn(ctx):
                t0 = ctx.env.now
                for _ in range(msgs):
                    yield from ctx.send(peer, n, BufferKind.HOST)
                yield from ctx.recv(peer)
                return msgs * n / (ctx.env.now - t0)
            return fn

        def sink(peer):
            def fn(ctx):
                for _ in range(msgs):
                    yield from ctx.recv(peer)
                yield from ctx.send(peer, 0, BufferKind.HOST)
            return fn

        return stream, sink

    def test_adaptive_relieves_contention(self):
        """Two far streams: minimal routing halves their bandwidth,
        adaptive routing restores it (the Valiant trade) without
        costing a lone stream anything."""
        frontier = get_machine("frontier")
        alone, results = {}, {}
        for adaptive in (False, True):
            cluster = Cluster(frontier, 64, adaptive=adaptive)
            stream, sink = self._stream_pair(cluster, 0, 60)
            world = cluster.world([
                ClusterRankLocation(core=0, node=0),
                ClusterRankLocation(core=0, node=60),
            ])
            alone[adaptive] = world.run([stream(1), sink(0)])[0]
            cluster.reset_network()
            placement = [
                ClusterRankLocation(core=0, node=0),
                ClusterRankLocation(core=0, node=60),
                ClusterRankLocation(core=1, node=1),
                ClusterRankLocation(core=1, node=61),
            ]
            world = cluster.world(placement)
            rates = world.run([stream(1), sink(0), stream(3), sink(2)])
            results[adaptive] = (rates[0], rates[2])
        minimal_low = min(results[False])
        adaptive_low = min(results[True])
        assert adaptive_low > 1.5 * minimal_low
        # the neighbourhood effect under minimal routing, its relief
        # under adaptive routing, and no loss for an uncontended stream
        assert minimal_low < 0.7 * alone[False]
        assert adaptive_low > 0.9 * alone[True]
        assert alone[True] == pytest.approx(alone[False], rel=0.05)

    def test_adaptive_latency_unchanged_when_idle(self):
        """With no contention, adaptive routing picks the minimal path
        and latency matches the minimal cluster."""
        frontier = get_machine("frontier")

        def pingpong():
            def rank0(ctx):
                t0 = ctx.env.now
                for _ in range(4):
                    yield from ctx.send(1, 0, BufferKind.HOST)
                    yield from ctx.recv(1)
                return (ctx.env.now - t0) / 8

            def rank1(ctx):
                for _ in range(4):
                    yield from ctx.recv(0)
                    yield from ctx.send(0, 0, BufferKind.HOST)

            return [rank0, rank1]

        lats = {}
        for adaptive in (False, True):
            cluster = Cluster(frontier, 64, adaptive=adaptive)
            world = cluster.world([
                ClusterRankLocation(core=0, node=0),
                ClusterRankLocation(core=0, node=60),
            ])
            lats[adaptive] = world.run(pingpong())[0]
        assert lats[True] == pytest.approx(lats[False], rel=1e-6)
