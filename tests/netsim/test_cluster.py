"""Tests for multi-node clusters (inter-node MPI, contention)."""

import pytest

from repro.errors import MpiSimError, PlacementError
from repro.mpisim.transport import BufferKind
from repro.netsim.cluster import Cluster, ClusterRankLocation
from repro.netsim.fabric import SLINGSHOT_11, fabric_for_machine
from repro.units import to_us, us


def pingpong_fns(nbytes, buffer, iters=4):
    def rank0(ctx):
        t0 = ctx.env.now
        for _ in range(iters):
            yield from ctx.send(1, nbytes, buffer)
            yield from ctx.recv(1)
        return (ctx.env.now - t0) / (2 * iters)

    def rank1(ctx):
        for _ in range(iters):
            yield from ctx.recv(0)
            yield from ctx.send(0, nbytes, buffer)

    return [rank0, rank1]


def two_node_pair(cluster, node_a=0, node_b=1, device=False):
    dev = 0 if device else None
    return [
        ClusterRankLocation(core=0, device=dev, node=node_a),
        ClusterRankLocation(core=0, device=dev, node=node_b),
    ]


class TestConstruction:
    def test_default_topology_by_fabric(self, frontier, summit):
        assert "Dragonfly" in type(Cluster(frontier, 8).topology).__name__
        assert "FatTree" in type(Cluster(summit, 8).topology).__name__

    def test_zero_nodes_rejected(self, frontier):
        with pytest.raises(MpiSimError):
            Cluster(frontier, 0)

    def test_fabric_defaults_to_machine(self, frontier):
        assert Cluster(frontier, 4).fabric is fabric_for_machine(frontier)

    def test_placement_block(self, frontier):
        cluster = Cluster(frontier, 4)
        placement = cluster.placement(ranks_per_node=2)
        assert len(placement) == 8
        assert placement[0].node == 0 and placement[-1].node == 3

    def test_device_placement(self, frontier):
        cluster = Cluster(frontier, 2)
        placement = cluster.placement(ranks_per_node=8, device_ranks=True)
        assert {loc.device for loc in placement} == set(range(8))

    def test_device_placement_on_cpu_machine_rejected(self, sawtooth):
        cluster = Cluster(sawtooth, 2)
        with pytest.raises(PlacementError):
            cluster.placement(device_ranks=True)

    def test_world_validates_nodes(self, frontier):
        cluster = Cluster(frontier, 2)
        with pytest.raises(MpiSimError):
            cluster.world(two_node_pair(cluster, 0, 5))


class TestInterNodeLatency:
    def test_inter_node_slower_than_intra(self, frontier):
        cluster = Cluster(frontier, 4)
        inter = cluster.world(two_node_pair(cluster))
        inter_lat = inter.run(pingpong_fns(0, BufferKind.HOST))[0]
        intra = cluster.world([
            ClusterRankLocation(core=0, node=0),
            ClusterRankLocation(core=1, node=0),
        ])
        intra_lat = intra.run(pingpong_fns(0, BufferKind.HOST))[0]
        assert inter_lat > 3 * intra_lat
        # Slingshot-class end-to-end latency: ~2 us
        assert us(1.5) < inter_lat < us(4.0)

    def test_intra_node_matches_node_model(self, frontier):
        """Inside one node the cluster gives the paper's numbers."""
        from repro.benchmarks.osu.runner import PairKind, latency_for_pair

        cluster = Cluster(frontier, 2)
        world = cluster.world([
            ClusterRankLocation(core=0, node=0),
            ClusterRankLocation(core=1, node=0),
        ])
        lat = world.run(pingpong_fns(0, BufferKind.HOST))[0]
        reference = latency_for_pair(frontier, PairKind.ON_SOCKET).latency
        assert lat == pytest.approx(reference, rel=1e-6)

    def test_more_hops_more_latency(self, frontier):
        cluster = Cluster(frontier, 64)
        near_pair = None
        far_pair = None
        for dst in range(1, 64):
            hops = cluster.hops(0, dst)
            if hops == 1 and near_pair is None:
                near_pair = dst
            if hops >= 3 and far_pair is None:
                far_pair = dst
        assert near_pair is not None and far_pair is not None
        near = cluster.world(two_node_pair(cluster, 0, near_pair))
        near_lat = near.run(pingpong_fns(0, BufferKind.HOST))[0]
        cluster.reset_network()
        far = cluster.world(two_node_pair(cluster, 0, far_pair))
        far_lat = far.run(pingpong_fns(0, BufferKind.HOST))[0]
        assert far_lat > near_lat

    def test_device_buffers_rma_close_to_host(self, frontier):
        cluster = Cluster(frontier, 2)
        host = cluster.world(two_node_pair(cluster))
        host_lat = host.run(pingpong_fns(0, BufferKind.HOST))[0]
        cluster.reset_network()
        dev = cluster.world(two_node_pair(cluster, device=True))
        dev_lat = dev.run(pingpong_fns(0, BufferKind.DEVICE))[0]
        assert dev_lat - host_lat < us(0.2)

    def test_device_buffers_pipeline_pay_overhead(self, summit):
        cluster = Cluster(summit, 2)
        host = cluster.world(two_node_pair(cluster))
        host_lat = host.run(pingpong_fns(0, BufferKind.HOST))[0]
        cluster.reset_network()
        dev = cluster.world(two_node_pair(cluster, device=True))
        dev_lat = dev.run(pingpong_fns(0, BufferKind.DEVICE))[0]
        assert dev_lat > host_lat + us(10)


class TestBandwidthAndContention:
    def test_large_message_hits_injection_limit(self, frontier):
        cluster = Cluster(frontier, 2)
        world = cluster.world(two_node_pair(cluster))
        n = 16 << 20
        lat = world.run(pingpong_fns(n, BufferKind.HOST))[0]
        bw = n / lat
        limit = SLINGSHOT_11.injection_bandwidth
        assert 0.6 * limit < bw <= limit

    def test_two_streams_sharing_a_link_halve_bandwidth(self, frontier):
        """The 'noisy neighbour' effect the paper cites ([20]): two jobs
        streaming over the same global dragonfly links each lose close
        to half their bandwidth, while their NIC links stay private."""
        cluster = Cluster(frontier, 64)
        # two source nodes on the same router, two targets on the same
        # far router: all router-router links are shared, NICs are not
        src_a, src_b = 0, 1
        dst_a, dst_b = 60, 61
        assert cluster.topology.route(src_a, dst_a) == \
            cluster.topology.route(src_b, dst_b)
        n = 16 << 20
        messages = 8

        def stream(peer):
            def fn(ctx):
                t0 = ctx.env.now
                for _ in range(messages):
                    yield from ctx.send(peer, n, BufferKind.HOST)
                yield from ctx.recv(peer)  # final ack
                return messages * n / (ctx.env.now - t0)
            return fn

        def sink(peer):
            def fn(ctx):
                for _ in range(messages):
                    yield from ctx.recv(peer)
                yield from ctx.send(peer, 0, BufferKind.HOST)
            return fn

        world = cluster.world(two_node_pair(cluster, src_a, dst_a))
        alone = world.run([stream(1), sink(0)])[0]
        cluster.reset_network()

        placement = [
            ClusterRankLocation(core=0, node=src_a),
            ClusterRankLocation(core=0, node=dst_a),
            ClusterRankLocation(core=1, node=src_b),
            ClusterRankLocation(core=1, node=dst_b),
        ]
        world = cluster.world(placement)
        rates = world.run([stream(1), sink(0), stream(3), sink(2)])
        for rate in (rates[0], rates[2]):
            assert rate < 0.75 * alone
        # aggregate stays near the shared link's capacity
        assert rates[0] + rates[2] == pytest.approx(alone, rel=0.25)

    def test_reset_network_clears_contention(self, frontier):
        cluster = Cluster(frontier, 2)
        n = 16 << 20
        world = cluster.world(two_node_pair(cluster))
        first = world.run(pingpong_fns(n, BufferKind.HOST))[0]
        cluster.reset_network()
        world2 = cluster.world(two_node_pair(cluster))
        second = world2.run(pingpong_fns(n, BufferKind.HOST))[0]
        assert second == pytest.approx(first, rel=1e-9)


class TestInterNodeTable:
    """The inter-node extension table (DESIGN.md §3b): latency and
    bandwidth between nodes 0 and 4 of every machine, plus device-buffer
    latency on the GPU machines."""

    @pytest.fixture(scope="class")
    def rows(self):
        from repro.machines.registry import all_machines

        out = {}
        for machine in all_machines():
            cluster = Cluster(machine, 8)
            lat = cluster.world(two_node_pair(cluster, 0, 4)).run(
                pingpong_fns(0, BufferKind.HOST)
            )[0]
            cluster.reset_network()
            n = 16 << 20
            bw = n / cluster.world(two_node_pair(cluster, 0, 4)).run(
                pingpong_fns(n, BufferKind.HOST)
            )[0]
            dev = None
            if machine.node.has_gpus:
                cluster.reset_network()
                dev = cluster.world(
                    two_node_pair(cluster, 0, 4, device=True)
                ).run(pingpong_fns(0, BufferKind.DEVICE))[0]
            out[machine.name] = (lat, bw, dev)
        return out

    def test_latency_band(self, rows):
        # microseconds everywhere: above every intra-node host latency,
        # below 5 us — except Theta, whose anomalous MPI software
        # overhead (paper section 4) inflates this figure too
        assert len(rows) == 13
        for name, (lat, _bw, _dev) in rows.items():
            ceiling = us(10.0) if name == "Theta" else us(5.0)
            assert us(0.8) < lat < ceiling, name

    def test_slingshot11_doubles_100g_fabrics(self, rows):
        ss11 = min(rows[n][1] for n in ("Frontier", "Perlmutter"))
        edr = max(rows[n][1] for n in ("Summit", "Eagle"))
        assert ss11 > 1.5 * edr

    def test_device_latency_follows_gpu_network_integration(self, rows):
        # RMA machines stay within a microsecond of host latency across
        # nodes; the CUDA machines pay their pipeline overhead here too
        for name in ("Frontier", "RZVernal", "Tioga"):
            lat, _bw, dev = rows[name]
            assert dev - lat < us(1.0), name
        for name in ("Summit", "Perlmutter", "Polaris"):
            lat, _bw, dev = rows[name]
            assert dev - lat > us(8.0), name


class TestClusterCollectives:
    """Collectives across nodes (the paper's future-work item)."""

    def test_allreduce_scales_logarithmically(self, frontier):
        import operator

        from repro.mpisim.collectives import allreduce

        cluster = Cluster(frontier, 32)
        times = {}
        for n in (2, 4, 8, 16, 32):
            cluster.reset_network()
            world = cluster.world(cluster.placement(
                ranks_per_node=1, nodes=list(range(n))
            ))

            def make(rank):
                def fn(ctx):
                    out = yield from allreduce(ctx, rank + 1, 8, operator.add)
                    return out, ctx.env.now
                return fn

            results = world.run([make(r) for r in range(n)])
            assert [v for v, _t in results] == [n * (n + 1) // 2] * n
            times[n] = max(t for _v, t in results)
        # recursive doubling: doubling the nodes adds one round
        assert times[4] > times[2]
        assert times[32] > times[16]
        # far sub-linear: 16x more nodes costs < 6x the time
        assert times[32] < 6 * times[2]
        # a single inter-node round trip bounds the 2-node figure below
        assert times[2] > us(1.5)

    def test_bcast_tree_beats_allgather_ring(self, summit):
        from repro.mpisim.collectives import allgather, bcast

        cluster = Cluster(summit, 16)

        def bcast_fn(rank):
            def fn(ctx):
                value = "payload" if rank == 0 else None
                out = yield from bcast(ctx, value, 4096)
                return out, ctx.env.now
            return fn

        def gather_fn(rank):
            def fn(ctx):
                out = yield from allgather(ctx, rank, 4096)
                return out, ctx.env.now
            return fn

        world = cluster.world(cluster.placement(ranks_per_node=1))
        bres = world.run([bcast_fn(r) for r in range(16)])
        cluster.reset_network()
        world = cluster.world(cluster.placement(ranks_per_node=1))
        gres = world.run([gather_fn(r) for r in range(16)])
        assert all(v == "payload" for v, _t in bres)
        assert all(v == list(range(16)) for v, _t in gres)
        # binomial tree (log N rounds) beats the ring (N-1 steps)
        assert max(t for _v, t in bres) < max(t for _v, t in gres)
