"""Raw simulated results of the MPI layer, pinned bit for bit.

Every machine of the registry runs the OSU ping-pong on its on-socket
and on-node pairs and, with accelerators, on one device pair per link
class, at 0 B, 8 B (eager) and 1 MiB (rendezvous): clean, and under the
``smoke`` and ``chaos`` fault injectors scoped to the case with
``for_cell``.  Each machine also runs the ALCF preposted ping-pong on
its on-node pair, the inter-node cluster ping-pong of the
``internode`` target, and a clean ``sendrecv`` exchange.  Every result
is stored with ``float.hex`` in ``mpisim_golden.json``; a case that
raises stores the exception instead.

The table-level identity checks see only rounded, noise-sampled values,
so a change to how many events a message costs, or to the order in
which same-time events run, could hide from them; this golden cannot.
Regenerate deliberately with::

    PYTHONPATH=src python tests/mpisim/test_mpisim_golden.py regen
"""

import json
import pathlib

import pytest

from repro.benchmarks.alcf import measure_prepost_pingpong
from repro.benchmarks.osu.latency import measure_pingpong
from repro.faults.injector import make_injector
from repro.faults.profiles import CHAOS, SMOKE
from repro.machines.registry import get_machine, machine_names
from repro.mpisim.placement import device_pair, on_node_pair, on_socket_pair
from repro.mpisim.transport import BufferKind
from repro.mpisim.world import MpiWorld
from repro.netsim.cluster import Cluster, ClusterRankLocation

GOLDEN = pathlib.Path(__file__).with_name("mpisim_golden.json")

#: zero-byte and small eager messages, and one rendezvous message
SIZES = (0, 8, 1 << 20)
#: the preposted receive supports eager messages only
EAGER_SIZES = SIZES[:2]
PROFILES = {"clean": None, "smoke": SMOKE, "chaos": CHAOS}
SEED = 11


def _outcome(fn) -> str:
    """``float.hex`` of ``fn()``, or the exception it raises."""
    try:
        return float(fn()).hex()
    except Exception as exc:  # a fault may abort a case; pin that too
        return f"{type(exc).__name__}: {exc}"


def _pairs(machine) -> dict:
    pairs = {
        "on-socket": (on_socket_pair(machine), BufferKind.HOST),
        "on-node": (on_node_pair(machine), BufferKind.HOST),
    }
    if machine.node.has_gpus:
        names = machine.node.gpu_names()
        reps = machine.node.topology.representative_pairs()
        for cls, (a, b) in reps.items():
            pairs[f"device-{cls.value}"] = (
                device_pair(machine, names.index(a), names.index(b)),
                BufferKind.DEVICE,
            )
    return pairs


def _pingpongs(machine) -> dict:
    out = {}
    for label, (pair, buffer) in _pairs(machine).items():
        for nbytes in SIZES:
            for profile, plan in PROFILES.items():
                case = f"{label}/{nbytes}/{profile}"
                injector = make_injector(plan, SEED)
                if injector is not None:
                    injector = injector.for_cell(machine.name, case)
                out[case] = _outcome(
                    lambda: measure_pingpong(
                        machine, pair, nbytes, buffer, injector=injector
                    )
                )
    return out


def _internode(machine) -> dict:
    """The ``internode`` target's two ping-pongs between nodes 0 and 4."""

    def pingpong(nbytes, iters=4):
        def rank0(ctx):
            t0 = ctx.env.now
            for _ in range(iters):
                yield from ctx.send(1, nbytes, BufferKind.HOST)
                yield from ctx.recv(1)
            return (ctx.env.now - t0) / (2 * iters)

        def rank1(ctx):
            for _ in range(iters):
                yield from ctx.recv(0)
                yield from ctx.send(0, nbytes, BufferKind.HOST)

        return [rank0, rank1]

    cluster = Cluster(machine, 8)
    pair = [
        ClusterRankLocation(core=0, node=0),
        ClusterRankLocation(core=0, node=4),
    ]
    latency = _outcome(lambda: cluster.world(pair).run(pingpong(0))[0])
    cluster.reset_network()
    bulk = _outcome(lambda: cluster.world(pair).run(pingpong(16 << 20))[0])
    return {"latency": latency, "bulk": bulk}


def sendrecv_exchange(machine, nbytes, injector=None, rounds=2) -> float:
    """Both on-node ranks ``sendrecv`` ``rounds`` times; the end time."""
    world = MpiWorld(machine, list(on_node_pair(machine)), injector=injector)

    def rank(peer):
        def body(ctx):
            for _ in range(rounds):
                yield from ctx.sendrecv(peer, nbytes)
            return ctx.env.now

        return body

    return max(world.run([rank(1), rank(0)]))


def machine_snapshot(machine) -> dict:
    pair = on_node_pair(machine)
    return {
        "pingpong": _pingpongs(machine),
        "prepost_on_node": {
            str(n): _outcome(lambda: measure_prepost_pingpong(machine, pair, n))
            for n in EAGER_SIZES
        },
        "internode": _internode(machine),
        "sendrecv_on_node": {
            str(n): _outcome(lambda: sendrecv_exchange(machine, n))
            for n in SIZES
        },
    }


def registry_snapshot() -> dict:
    return {name: machine_snapshot(get_machine(name)) for name in machine_names()}


class TestMpisimGolden:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    def test_golden_covers_the_registry(self, golden):
        assert list(golden) == machine_names()

    @pytest.mark.parametrize("name", machine_names())
    def test_machine_matches_golden(self, name, golden):
        assert machine_snapshot(get_machine(name)) == golden[name]


def test_sendrecv_under_smoke_is_deterministic():
    """A rank's send and receive processes share its straggler stream;
    two runs on equal injectors still draw it in one order."""
    machine = get_machine("frontier")

    def run(nbytes):
        injector = make_injector(SMOKE, SEED).for_cell(machine.name, "sendrecv")
        return sendrecv_exchange(machine, nbytes, injector=injector)

    for nbytes in SIZES:
        assert run(nbytes) == run(nbytes)


if __name__ == "__main__":
    import sys

    if len(sys.argv) > 1 and sys.argv[1] == "regen":
        GOLDEN.write_text(json.dumps(registry_snapshot(), indent=1) + "\n")
        print(f"wrote {GOLDEN}")
