"""Tests for the simulated communicator (eager/rendezvous protocol)."""

import pytest

from repro.errors import MpiSimError, WatchdogTimeout
from repro.mpisim.placement import RankLocation, on_socket_pair
from repro.mpisim.protocols import EAGER_THRESHOLD
from repro.mpisim.transport import BufferKind
from repro.mpisim.world import MpiWorld


def simple_world(machine, n=2):
    placement = [RankLocation(i) for i in range(n)]
    return MpiWorld(machine, placement)


class TestConstruction:
    def test_needs_two_ranks(self, eagle):
        with pytest.raises(MpiSimError):
            MpiWorld(eagle, [RankLocation(0)])

    def test_rank_core_validated(self, eagle):
        with pytest.raises(MpiSimError):
            MpiWorld(eagle, [RankLocation(0), RankLocation(999)])

    def test_size(self, eagle):
        assert simple_world(eagle, 4).size == 4


class TestEagerProtocol:
    def test_payload_delivered(self, eagle):
        world = simple_world(eagle)

        def sender(ctx):
            yield from ctx.send(1, 8, payload={"x": 1})

        def receiver(ctx):
            msg = yield from ctx.recv(0)
            return msg.payload

        _, payload = world.run([sender, receiver])
        assert payload == {"x": 1}

    def test_eager_send_does_not_block(self, eagle):
        """An eager sender finishes before the receiver even posts."""
        world = simple_world(eagle)

        def sender(ctx):
            yield from ctx.send(1, 8)
            return ctx.env.now

        def receiver(ctx):
            yield ctx.env.timeout(1.0)  # post late
            yield from ctx.recv(0)
            return ctx.env.now

        sent_at, recv_at = world.run([sender, receiver])
        assert sent_at < 1e-3
        assert recv_at >= 1.0

    def test_messages_ordered(self, eagle):
        world = simple_world(eagle)

        def sender(ctx):
            for i in range(3):
                yield from ctx.send(1, 8, payload=i)

        def receiver(ctx):
            out = []
            for _ in range(3):
                msg = yield from ctx.recv(0)
                out.append(msg.payload)
            return out

        _, received = world.run([sender, receiver])
        assert received == [0, 1, 2]


class TestRendezvousProtocol:
    def test_large_send_blocks_until_receiver(self, eagle):
        world = simple_world(eagle)
        nbytes = EAGER_THRESHOLD * 4

        def sender(ctx):
            yield from ctx.send(1, nbytes)
            return ctx.env.now

        def receiver(ctx):
            yield ctx.env.timeout(2.0)
            msg = yield from ctx.recv(0)
            return msg.nbytes

        sent_at, received = world.run([sender, receiver])
        assert sent_at >= 2.0  # handshake waited for the receiver
        assert received == nbytes

    def test_rendezvous_slower_than_eager_at_threshold(self, eagle):
        """Crossing the eager threshold adds the RTS/CTS round trip."""
        world = simple_world(eagle)

        def make(nbytes):
            def sender(ctx):
                t0 = ctx.env.now
                yield from ctx.send(1, nbytes)
                yield from ctx.recv(1)
                return ctx.env.now - t0

            def receiver(ctx):
                yield from ctx.recv(0)
                yield from ctx.send(0, 0)

            return sender, receiver

        s, r = make(EAGER_THRESHOLD)
        eager_rtt = world.run([s, r])[0]
        world2 = simple_world(eagle)
        s, r = make(EAGER_THRESHOLD + 1)
        rdv_rtt = world2.run([s, r])[0]
        assert rdv_rtt > eager_rtt


class TestSendRecvHelpers:
    def test_sendrecv_exchanges(self, eagle):
        world = simple_world(eagle)

        def rank(peer):
            def fn(ctx):
                msg = yield from ctx.sendrecv(peer, 8)
                return msg.src
            return fn

        srcs = world.run([rank(1), rank(0)])
        assert srcs == [1, 0]

    def test_unknown_rank_rejected(self, eagle):
        world = simple_world(eagle)

        def sender(ctx):
            yield from ctx.send(5, 8)

        def receiver(ctx):
            yield from ctx.recv(0)

        with pytest.raises(MpiSimError):
            world.run([sender, receiver])

    def test_wrong_fn_count_rejected(self, eagle):
        world = simple_world(eagle)
        with pytest.raises(MpiSimError):
            world.run([lambda ctx: iter(())])


class TestEventBudget:
    def test_budget_bounds_the_whole_run(self, eagle):
        """``max_events`` caps the ranks together, not each rank's wait:
        rank 0 ends after 33 events and rank 1 takes 31 more, so 40
        fits either alone and not both."""

        def ticker(delay):
            def fn(ctx):
                yield ctx.env.timeout(delay)
                for _ in range(30):
                    yield ctx.env.timeout(1.0)
                return ctx.env.now
            return fn

        ranks = [ticker(0.0), ticker(100.0)]
        placement = [RankLocation(0), RankLocation(1)]
        assert MpiWorld(eagle, placement, max_events=64).run(ranks) == [
            30.0, 130.0,
        ]
        with pytest.raises(WatchdogTimeout):
            MpiWorld(eagle, placement, max_events=40).run(ranks)


class TestLatencySemantics:
    def test_zero_byte_roundtrip_matches_pathcost(self, eagle):
        world = MpiWorld(eagle, list(on_socket_pair(eagle)))
        cost = world.path(0, 1, BufferKind.HOST)

        def rank0(ctx):
            t0 = ctx.env.now
            yield from ctx.send(1, 0)
            yield from ctx.recv(1)
            return (ctx.env.now - t0) / 2

        def rank1(ctx):
            yield from ctx.recv(0)
            yield from ctx.send(0, 0)

        one_way = world.run([rank0, rank1])[0]
        assert one_way == pytest.approx(cost.zero_byte, rel=1e-6)
