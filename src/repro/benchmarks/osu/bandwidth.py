"""``osu_bw`` / ``osu_bibw``: streaming pt2pt bandwidth (extensions).

The paper reports only latency, but the suite's bandwidth tests come
along for free with the simulated MPI: osu_bw posts a window of
back-to-back sends answered by one ack, osu_bibw runs the window in
both directions simultaneously.
"""

from __future__ import annotations

from ..._dataclass import dataclass
from ...errors import BenchmarkConfigError
from ...machines.base import Machine
from ...mpisim.placement import RankLocation
from ...mpisim.transport import BufferKind
from ...mpisim.world import MpiWorld, RankContext

#: upstream window size (messages in flight per ack)
DEFAULT_WINDOW = 64


@dataclass(frozen=True)
class BandwidthResult:
    machine: str
    nbytes: int
    buffer: BufferKind
    #: achieved unidirectional (or aggregate, for bibw) rate, bytes/second
    bandwidth: float
    window: int
    bidirectional: bool = False


def osu_bw(
    machine: Machine,
    pair: tuple[RankLocation, RankLocation],
    nbytes: int,
    buffer: BufferKind = BufferKind.HOST,
    window: int = DEFAULT_WINDOW,
    repeats: int = 4,
) -> BandwidthResult:
    """Streaming bandwidth: ``window`` sends, one ack, repeated."""
    if nbytes <= 0:
        raise BenchmarkConfigError(f"osu_bw needs a positive size: {nbytes}")
    if window < 1:
        raise BenchmarkConfigError(f"window must be >= 1: {window}")
    world = MpiWorld(machine, list(pair))

    def sender(ctx: RankContext):
        t0 = ctx.env.now
        for _ in range(repeats):
            for _ in range(window):
                yield from ctx.send(1, nbytes, buffer)
            yield from ctx.recv(1)  # ack
        elapsed = ctx.env.now - t0
        return repeats * window * nbytes / elapsed

    def receiver(ctx: RankContext):
        for _ in range(repeats):
            for _ in range(window):
                yield from ctx.recv(0)
            yield from ctx.send(0, 4, buffer)  # ack

    bandwidth = world.run([sender, receiver])[0]
    return BandwidthResult(machine.name, nbytes, buffer, bandwidth, window)


@dataclass(frozen=True)
class MultiPairResult:
    """osu_mbw_mr: aggregate bandwidth and message rate over many pairs."""

    machine: str
    nbytes: int
    pairs: int
    aggregate_bandwidth: float   # bytes/second over all pairs
    message_rate: float          # messages/second over all pairs


def osu_mbw_mr(
    world,
    pair_ranks: list[tuple[int, int]],
    nbytes: int,
    buffer: BufferKind = BufferKind.HOST,
    window: int = DEFAULT_WINDOW,
    repeats: int = 2,
) -> MultiPairResult:
    """Multiple-bandwidth / message-rate test over concurrent pairs.

    Every (sender, receiver) pair streams windows simultaneously; the
    figure is the aggregate across pairs — which is how shared NICs and
    links reveal themselves (senders on one node split its injection
    bandwidth).  ``world`` is any :class:`~repro.mpisim.world.MpiWorld`,
    including cluster worlds.
    """
    if nbytes <= 0:
        raise BenchmarkConfigError(f"osu_mbw_mr needs a positive size: {nbytes}")
    if not pair_ranks:
        raise BenchmarkConfigError("osu_mbw_mr needs at least one pair")
    ranks_used = [r for pair in pair_ranks for r in pair]
    if len(set(ranks_used)) != len(ranks_used):
        raise BenchmarkConfigError("osu_mbw_mr pairs must not share ranks")

    def sender(peer):
        def fn(ctx):
            t0 = ctx.env.now
            for _ in range(repeats):
                for _ in range(window):
                    yield from ctx.send(peer, nbytes, buffer)
                yield from ctx.recv(peer)  # ack
            return repeats * window * nbytes / (ctx.env.now - t0)
        return fn

    def receiver(peer):
        def fn(ctx):
            for _ in range(repeats):
                for _ in range(window):
                    yield from ctx.recv(peer)
                yield from ctx.send(peer, 4, buffer)
            return None
        return fn

    def idle(ctx):
        yield ctx.env.timeout(0)

    fns: list = [None] * world.size
    for src, dst in pair_ranks:
        fns[src] = sender(dst)
        fns[dst] = receiver(src)
    for rank, fn in enumerate(fns):
        if fn is None:
            fns[rank] = idle

    results = world.run(fns)
    rates = [results[src] for src, _dst in pair_ranks]
    aggregate = sum(rates)
    return MultiPairResult(
        machine=world.machine.name,
        nbytes=nbytes,
        pairs=len(pair_ranks),
        aggregate_bandwidth=aggregate,
        message_rate=aggregate / nbytes,
    )


def osu_bibw(
    machine: Machine,
    pair: tuple[RankLocation, RankLocation],
    nbytes: int,
    buffer: BufferKind = BufferKind.HOST,
    window: int = DEFAULT_WINDOW,
    repeats: int = 4,
) -> BandwidthResult:
    """Bidirectional bandwidth: both ranks stream windows at once."""
    if nbytes <= 0:
        raise BenchmarkConfigError(f"osu_bibw needs a positive size: {nbytes}")
    world = MpiWorld(machine, list(pair))

    def make_rank(me: int, peer: int):
        def rank(ctx: RankContext):
            t0 = ctx.env.now
            for _ in range(repeats):
                sends = [
                    ctx.env.process(ctx.send(peer, nbytes, buffer))
                    for _ in range(window)
                ]
                for _ in range(window):
                    yield from ctx.recv(peer)
                for s in sends:
                    yield s
            elapsed = ctx.env.now - t0
            return 2 * repeats * window * nbytes / elapsed
        return rank

    results = world.run([make_rank(0, 1), make_rank(1, 0)])
    return BandwidthResult(
        machine.name, nbytes, buffer, max(results), window, bidirectional=True
    )
