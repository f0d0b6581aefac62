"""Pair selection glue: the paper's on-socket / on-node / device runs.

``latency_for_pair`` executes one osu_latency binary run for a named
pairing; ``device_latency_by_class`` measures one representative GPU
pair per topology link class — producing the A/B/C/D columns of
Table 5.
"""

from __future__ import annotations

import enum

from ...errors import BenchmarkConfigError
from ...hardware.topology import LinkClass
from ...machines.base import Machine
from ...mpisim.placement import device_pair, on_node_pair, on_socket_pair
from ...mpisim.transport import BufferKind
from ...sim.random import NOISE_LATENCY, Generator, NoiseModel
from .latency import LatencyResult, osu_latency


class PairKind(enum.Enum):
    ON_SOCKET = "on-socket"
    ON_NODE = "on-node"


def latency_for_pair(
    machine: Machine,
    kind: PairKind,
    nbytes: int = 0,
    rng: Generator | None = None,
    noise: NoiseModel = NOISE_LATENCY,
    injector=None,
    max_events: int | None = None,
) -> LatencyResult:
    """Host-buffer osu_latency for the paper's named pairing."""
    if kind == PairKind.ON_SOCKET:
        pair = on_socket_pair(machine)
    elif kind == PairKind.ON_NODE:
        pair = on_node_pair(machine)
    else:  # pragma: no cover - enum is exhaustive
        raise BenchmarkConfigError(f"unknown pair kind: {kind}")
    return osu_latency(
        machine, pair, nbytes, BufferKind.HOST, rng, noise,
        injector=injector, max_events=max_events,
    )


def device_latency_by_class(
    machine: Machine,
    nbytes: int = 0,
    rng: Generator | None = None,
    noise: NoiseModel = NOISE_LATENCY,
    injector=None,
    max_events: int | None = None,
) -> dict[LinkClass, LatencyResult]:
    """Device-buffer osu_latency for one representative pair per class."""
    if not machine.node.has_gpus:
        raise BenchmarkConfigError(f"{machine.name} has no accelerators")
    topo = machine.node.topology
    names = machine.node.gpu_names()
    out: dict[LinkClass, LatencyResult] = {}
    for cls, (a, b) in topo.representative_pairs().items():
        pair = device_pair(machine, names.index(a), names.index(b))
        out[cls] = osu_latency(
            machine, pair, nbytes, BufferKind.DEVICE, rng, noise,
            injector=injector, max_events=max_events,
        )
    return out
