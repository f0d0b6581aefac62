"""ALCF MPI Benchmarks latency test (the paper's Theta footnote).

Section 4: "At the suggestion of Argonne staff, we tried the ALCF MPI
Benchmarks [8], as an alternative to the OSU microbenchmarks, and they
reported a slightly lower MPI latency (sub-5 us), but nowhere near as
small as Trinity."

The structural difference modelled here: the ALCF suite *preposts* its
receives (MPI_Irecv before the partner's send), so incoming messages
match a posted request instead of traversing the unexpected-message
queue.  On healthy stacks the difference is negligible
(``prepost_discount`` = 0); on Theta's it is about a microsecond.
"""

from __future__ import annotations

from .._dataclass import dataclass
from ..errors import BenchmarkConfigError
from ..machines.base import Machine
from ..mpisim.placement import RankLocation
from ..mpisim.transport import BufferKind
from ..mpisim.world import MpiWorld, RankContext
from ..sim.random import NOISE_LATENCY, Generator, NoiseModel


@dataclass(frozen=True)
class AlcfLatencyResult:
    """One ALCF-benchmark latency figure."""

    machine: str
    nbytes: int
    latency: float


def measure_prepost_pingpong(
    machine: Machine,
    pair: tuple[RankLocation, RankLocation],
    nbytes: int,
    timed_iterations: int = 2,
    warmup: int = 1,
) -> float:
    """Ping-pong where each side preposts its receive before sending."""
    if nbytes < 0:
        raise BenchmarkConfigError(f"negative message size: {nbytes}")
    world = MpiWorld(machine, list(pair))
    total = timed_iterations

    def rank0(ctx: RankContext):
        for _ in range(warmup):
            req = ctx.irecv(1)
            yield from ctx.send(1, nbytes, BufferKind.HOST)
            yield from ctx.wait(req)
        t0 = ctx.env.now
        for _ in range(total):
            req = ctx.irecv(1)
            yield from ctx.send(1, nbytes, BufferKind.HOST)
            yield from ctx.wait(req)
        return (ctx.env.now - t0) / (2 * total)

    def rank1(ctx: RankContext):
        for _ in range(warmup + total):
            req = ctx.irecv(0)
            yield from ctx.wait(req)
            yield from ctx.send(0, nbytes, BufferKind.HOST)

    return world.run([rank0, rank1])[0]


def alcf_latency(
    machine: Machine,
    pair: tuple[RankLocation, RankLocation],
    nbytes: int = 0,
    rng: Generator | None = None,
    noise: NoiseModel = NOISE_LATENCY,
) -> AlcfLatencyResult:
    """One binary execution of the ALCF-style latency test."""
    base = measure_prepost_pingpong(machine, pair, nbytes)
    latency = base if rng is None else noise.sample(rng, base)
    return AlcfLatencyResult(machine=machine.name, nbytes=nbytes, latency=latency)
