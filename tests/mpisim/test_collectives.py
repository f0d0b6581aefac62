"""Tests for collective operations (correctness + cost structure)."""

import math
import operator

import pytest

from repro.errors import MpiSimError
from repro.mpisim.collectives import allgather, allreduce, barrier, bcast, reduce
from repro.mpisim.placement import RankLocation
from repro.mpisim.world import MpiWorld


def make_world(machine, n):
    ncores = machine.node.total_cores
    return MpiWorld(machine, [RankLocation(i % ncores) for i in range(n)])


def run_collective(machine, n, fn_factory):
    world = make_world(machine, n)
    return world, world.run([fn_factory(rank) for rank in range(n)])


class TestBarrier:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 8])
    def test_all_ranks_release_together(self, eagle, n):
        world = make_world(eagle, n)

        def make(rank):
            def fn(ctx):
                # stagger arrivals; nobody may leave before the last arrives
                yield ctx.env.timeout(rank * 1e-3)
                yield from barrier(ctx)
                return ctx.env.now
            return fn

        times = world.run([make(r) for r in range(n)])
        last_arrival = (n - 1) * 1e-3
        assert all(t >= last_arrival for t in times)

    def test_single_rank_would_be_trivial(self, eagle):
        # size-1 worlds are rejected by MpiWorld; barrier math still
        # handles the degenerate case via the early return
        world = make_world(eagle, 2)

        def fn(ctx):
            yield from barrier(ctx)
            return True

        assert world.run([fn, fn]) == [True, True]


class TestBcast:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13])
    def test_every_rank_gets_root_value(self, eagle, n):
        def make(rank):
            def fn(ctx):
                value = f"payload-from-0" if rank == 0 else None
                out = yield from bcast(ctx, value, 64, root=0)
                return out
            return fn

        _world, results = run_collective(eagle, n, make)
        assert results == ["payload-from-0"] * n

    @pytest.mark.parametrize("root", [0, 1, 3])
    def test_nonzero_root(self, eagle, root):
        n = 5

        def make(rank):
            def fn(ctx):
                value = "gold" if rank == root else None
                out = yield from bcast(ctx, value, 64, root=root)
                return out
            return fn

        _world, results = run_collective(eagle, n, make)
        assert results == ["gold"] * n

    def test_bad_root_rejected(self, eagle):
        world = make_world(eagle, 2)

        def fn(ctx):
            yield from bcast(ctx, 1, 8, root=7)

        with pytest.raises(MpiSimError):
            world.run([fn, fn])

    def test_binomial_depth_scales_logarithmically(self, eagle):
        """Total bcast time grows ~log2(P), not linearly."""
        def duration(n):
            def make(rank):
                def fn(ctx):
                    yield from bcast(ctx, "x" if rank == 0 else None, 8)
                    return ctx.env.now
                return fn
            _w, times = run_collective(eagle, n, make)
            return max(times)

        t4, t16 = duration(4), duration(16)
        # log2(16)/log2(4) = 2: allow generous slack but far below 4x
        assert t16 < 3.0 * t4


class TestReduce:
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 9])
    def test_sum_lands_on_root(self, eagle, n):
        def make(rank):
            def fn(ctx):
                out = yield from reduce(ctx, rank + 1, 8, operator.add)
                return out
            return fn

        _world, results = run_collective(eagle, n, make)
        assert results[0] == n * (n + 1) // 2
        assert all(r is None for r in results[1:])

    def test_noncommutative_order_is_deterministic(self, eagle):
        """String concat must come out rank-ordered."""
        n = 4

        def make(rank):
            def fn(ctx):
                out = yield from reduce(ctx, str(rank), 8, operator.add)
                return out
            return fn

        _world, results = run_collective(eagle, n, make)
        assert results[0] == "0123"


class TestAllreduce:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 12])
    def test_every_rank_gets_the_sum(self, eagle, n):
        def make(rank):
            def fn(ctx):
                out = yield from allreduce(ctx, rank + 1, 8, operator.add)
                return out
            return fn

        _world, results = run_collective(eagle, n, make)
        assert results == [n * (n + 1) // 2] * n

    def test_max_reduction(self, eagle):
        n = 6

        def make(rank):
            def fn(ctx):
                out = yield from allreduce(ctx, (rank * 7) % 5, 8, max)
                return out
            return fn

        _world, results = run_collective(eagle, n, make)
        expected = max((r * 7) % 5 for r in range(n))
        assert results == [expected] * n

    def test_recursive_doubling_cost(self, eagle):
        """Power-of-two allreduce takes ~log2(P) * latency."""
        from repro.mpisim.transport import BufferKind

        n = 8
        world = make_world(eagle, n)
        one_way = world.path(0, 1, BufferKind.HOST).zero_byte

        def make(rank):
            def fn(ctx):
                yield from allreduce(ctx, 1, 8, operator.add)
                return ctx.env.now
            return fn

        times = world.run([make(r) for r in range(n)])
        # 3 rounds of paired exchange; allow protocol slack
        assert max(times) < 8 * one_way
        assert max(times) > 2 * one_way


class TestAllgather:
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 10])
    def test_everyone_collects_everything(self, eagle, n):
        def make(rank):
            def fn(ctx):
                out = yield from allgather(ctx, f"r{rank}", 16)
                return out
            return fn

        _world, results = run_collective(eagle, n, make)
        expected = [f"r{i}" for i in range(n)]
        assert results == [expected] * n

    def test_ring_steps_scale_linearly(self, eagle):
        def duration(n):
            def make(rank):
                def fn(ctx):
                    yield from allgather(ctx, rank, 8)
                    return ctx.env.now
                return fn
            world = make_world(eagle, n)
            return max(world.run([make(r) for r in range(n)]))

        t4, t12 = duration(4), duration(12)
        # (P-1) ring steps: 11/3 ~ 3.7x
        assert 2.0 < t12 / t4 < 5.0


def placements(machine, n):
    """Three distinct layouts of ``n`` ranks on one node: packed on
    socket 0, alternating sockets, and reverse core order."""
    cores = machine.node.cpu.cores
    packed = [RankLocation(i) for i in range(n)]
    spread = [
        RankLocation((i % 2) * cores + i // 2) for i in range(n)
    ]
    reverse = [RankLocation(n - 1 - i) for i in range(n)]
    return {"packed": packed, "spread": spread, "reverse": reverse}


def run_placed(machine, locations, fn_factory):
    world = MpiWorld(machine, locations)
    return world.run([fn_factory(r) for r in range(len(locations))])


class TestPlacementDeterminism:
    """Collective *results* are pure functions of rank inputs: moving
    ranks across cores/sockets changes timing, never values."""

    N = 6

    def assert_placement_invariant(self, eagle, make):
        outcomes = {
            name: run_placed(eagle, locs, make)
            for name, locs in placements(eagle, self.N).items()
        }
        packed = outcomes.pop("packed")
        for name, results in outcomes.items():
            assert results == packed, f"placement {name} changed values"

    def test_reduce_order_survives_placement(self, eagle):
        """Non-commutative reduce: rank order, not core order."""
        def make(rank):
            def fn(ctx):
                out = yield from reduce(ctx, str(rank), 8, operator.add)
                return out
            return fn

        self.assert_placement_invariant(eagle, make)
        locs = placements(eagle, self.N)["reverse"]
        assert run_placed(eagle, locs, make)[0] == "012345"

    def test_allreduce_survives_placement(self, eagle):
        def make(rank):
            def fn(ctx):
                out = yield from allreduce(ctx, rank + 1, 8, operator.add)
                return out
            return fn

        self.assert_placement_invariant(eagle, make)

    def test_allgather_survives_placement(self, eagle):
        def make(rank):
            def fn(ctx):
                out = yield from allgather(ctx, f"r{rank}", 16)
                return out
            return fn

        self.assert_placement_invariant(eagle, make)

    def test_placements_do_change_timing(self, eagle):
        """Sanity for the invariance above: the layouts are genuinely
        different (cross-socket hops cost more), so value equality is
        not vacuous."""
        def make(rank):
            def fn(ctx):
                yield from allreduce(ctx, 1, 8, operator.add)
                return ctx.env.now
            return fn

        layout = placements(eagle, self.N)
        packed = max(run_placed(eagle, layout["packed"], make))
        spread = max(run_placed(eagle, layout["spread"], make))
        assert packed != spread
