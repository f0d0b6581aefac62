"""``osu_latency``: the point-to-point ping-pong latency test.

Structure matches upstream: rank 0 sends, waits for the echo, and the
one-way latency is half the averaged round trip; warmup iterations are
excluded.  The ping-pong executes on the simulated MPI world, so the
number comes out of the discrete-event clock, protocol state machine
included.

One binary execution = one :func:`osu_latency` call; the paper's
100-execution statistics are taken by :mod:`repro.core.study`.
"""

from __future__ import annotations

from ..._dataclass import dataclass
from ...errors import BenchmarkConfigError
from ...machines.base import Machine
from ...mpisim.placement import RankLocation
from ...mpisim.protocols import (
    OSU_LARGE_ITERATIONS,
    OSU_LARGE_MESSAGE_SIZE,
    OSU_SMALL_ITERATIONS,
    OSU_LARGE_WARMUP,
    OSU_SMALL_WARMUP,
)
from ...mpisim.transport import BufferKind
from ...mpisim.world import MpiWorld, RankContext
from ...obs import runtime as obs_runtime
from ...sim.random import NOISE_LATENCY, Generator, NoiseModel


@dataclass(frozen=True)
class LatencyResult:
    """One osu_latency figure for one message size."""

    machine: str
    nbytes: int
    buffer: BufferKind
    #: averaged one-way latency, seconds
    latency: float
    iterations: int
    warmup: int


def _iteration_counts(nbytes: int) -> tuple[int, int]:
    if nbytes > OSU_LARGE_MESSAGE_SIZE:
        return OSU_LARGE_ITERATIONS, OSU_LARGE_WARMUP
    return OSU_SMALL_ITERATIONS, OSU_SMALL_WARMUP


def measure_pingpong(
    machine: Machine,
    pair: tuple[RankLocation, RankLocation],
    nbytes: int,
    buffer: BufferKind,
    timed_iterations: int = 2,
    warmup: int = 1,
    injector=None,
    max_events: int | None = None,
) -> float:
    """One-way latency from a discrete-event ping-pong, seconds.

    The protocol is deterministic within a run, so a couple of timed
    iterations measure it exactly; callers model run-to-run jitter on
    top (see :func:`osu_latency`).  ``injector`` arms transport fault
    injection (message drop -> retransmit, stragglers) and
    ``max_events`` the simulation watchdog.
    """
    if nbytes < 0:
        raise BenchmarkConfigError(f"negative message size: {nbytes}")
    world = MpiWorld(
        machine, list(pair), injector=injector, max_events=max_events
    )
    total = timed_iterations

    def rank0(ctx: RankContext):
        for _ in range(warmup):
            yield from ctx.send(1, nbytes, buffer)
            yield from ctx.recv(1)
        t0 = ctx.env.now
        for _ in range(total):
            yield from ctx.send(1, nbytes, buffer)
            yield from ctx.recv(1)
        # the cell window the trace analyzer attributes phases within
        obs_runtime.current().tracer.complete(
            "osu.pingpong", "benchmarks", t0, ctx.env.now,
            nbytes=nbytes, iterations=total,
        )
        return (ctx.env.now - t0) / (2 * total)

    def rank1(ctx: RankContext):
        for _ in range(warmup + total):
            yield from ctx.recv(0)
            yield from ctx.send(0, nbytes, buffer)

    return world.run([rank0, rank1])[0]


def osu_latency(
    machine: Machine,
    pair: tuple[RankLocation, RankLocation],
    nbytes: int = 0,
    buffer: BufferKind = BufferKind.HOST,
    rng: Generator | None = None,
    noise: NoiseModel = NOISE_LATENCY,
    injector=None,
    max_events: int | None = None,
) -> LatencyResult:
    """One binary execution of osu_latency at one message size."""
    iterations, warmup = _iteration_counts(nbytes)
    base = measure_pingpong(
        machine, pair, nbytes, buffer,
        injector=injector, max_events=max_events,
    )
    latency = base if rng is None else noise.sample(rng, base)
    return LatencyResult(
        machine=machine.name,
        nbytes=nbytes,
        buffer=buffer,
        latency=latency,
        iterations=iterations,
        warmup=warmup,
    )


def osu_latency_sweep(
    machine: Machine,
    pair: tuple[RankLocation, RankLocation],
    buffer: BufferKind = BufferKind.HOST,
    max_bytes: int = 1 << 22,
) -> list[LatencyResult]:
    """The upstream sweep: 0 B then powers of two up to ``max_bytes``."""
    sizes = [0]
    size = 1
    while size <= max_bytes:
        sizes.append(size)
        size *= 2
    return [osu_latency(machine, pair, n, buffer) for n in sizes]
