"""Static machine structure served from memos equals a fresh build.

OpenMP teams are kept per node and environment, GPU-pair classes per
topology, and copy plans per machine.  Every value served from a warmed
memo of a registry machine must equal the value computed afresh, by the
unmemoized builders, on a freshly built machine; a memo key that lumps
two inputs together fails this.  A machine recalibrated with
``dataclasses.replace`` must not be served its original's values.
"""

import dataclasses
import itertools

import pytest

from repro.errors import PinnedMemoryError
from repro.gpurt.buffers import DeviceBuffer, HostBuffer
from repro.gpurt.memcpy import CopyKind, _build_plan, plan_copy
from repro.machines.registry import _BUILDERS, get_machine, machine_names
from repro.memsys.scaling import team_bandwidth
from repro.openmp.env import table1_configurations
from repro.openmp.team import _resolve_team, build_team


def endpoints(machine):
    """One buffer per endpoint a plan can tell apart: every device,
    and host pages pinned or pageable on every NUMA node."""
    devices = [DeviceBuffer(nbytes=128, device=d)
               for d in range(machine.node.n_gpus)]
    hosts = [HostBuffer(nbytes=128, pinned=pinned, numa_node=numa)
             for pinned in (True, False)
             for numa in range(machine.node.n_sockets)]
    return devices + hosts


def plan_or_error(plan, machine, src, dst, require_pinned, peer_enabled):
    try:
        return plan(machine, src, dst, require_pinned=require_pinned,
                    peer_enabled=peer_enabled)
    except PinnedMemoryError:
        return PinnedMemoryError


def all_plans(machine, plan=plan_copy):
    """Every endpoint pair's plan (``plan_copy`` by default)."""
    return {
        (i, j, pinned, peer): plan_or_error(
            plan, machine, src, dst, pinned, peer
        )
        for (i, src), (j, dst) in itertools.product(
            enumerate(endpoints(machine)), repeat=2
        )
        for pinned in (True, False)
        for peer in (True, False)
    } if machine.node.has_gpus else {}


def geometry(team):
    """The team geometry recomputed from its threads, as the bandwidth
    model defines it."""
    node = team.node
    if not team.bound:
        return None
    cores = {node.hardware_thread(os_id).core
             for t in team.threads for os_id in t.place}
    per_socket = {}
    for core in cores:
        per_socket.setdefault(node.socket_of_core(core), set()).add(core)
    first_cores = [node.hardware_thread(t.place[0]).core for t in team.threads]
    return (cores, {s: len(c) for s, c in per_socket.items()},
            max(first_cores.count(c) for c in set(first_cores)))


@pytest.fixture(scope="module")
def warmed():
    """Every registry machine with its memos filled twice over."""
    machines = {name: get_machine(name) for name in machine_names()}
    for machine in machines.values():
        for _ in range(2):
            for env in table1_configurations(machine.node):
                build_team(machine.node, env)
            machine.node.topology.representative_pairs()
            all_plans(machine)
    return machines


@pytest.mark.parametrize("name", machine_names())
class TestMemoizedEqualsFresh:
    def test_teams_and_bandwidths(self, name, warmed):
        machine, fresh = warmed[name], _BUILDERS[name]()
        cal = machine.calibration.cpu_stream
        for env in table1_configurations(machine.node):
            team = build_team(machine.node, env)
            assert build_team(machine.node, env) is team
            new = _resolve_team(fresh.node, env)
            assert (team.env, team.threads) == (new.env, new.threads)
            for derived in ("bound", "num_threads"):
                assert getattr(team, derived) == getattr(new, derived)
            for derived in ("cores_used", "cores_per_socket",
                            "effective_core_count", "sockets_used",
                            "max_threads_per_core"):
                assert (getattr(team, derived)()
                        == getattr(new, derived)()), derived
            oracle = geometry(team)
            if oracle is not None:
                cores, per_socket, most = oracle
                assert team.cores_used() == cores
                assert dict(team.cores_per_socket()) == per_socket
                assert team.max_threads_per_core() == most
            if cal is not None:
                assert team_bandwidth(machine.node, cal, team) == \
                    team_bandwidth(fresh.node, fresh.calibration.cpu_stream,
                                   new)

    def test_gpu_pair_classes(self, name, warmed):
        topo, fresh = warmed[name].node.topology, _BUILDERS[name]().node.topology
        assert topo.gpu_pair_classes() == fresh.gpu_pair_classes()
        assert topo.representative_pairs() == fresh.representative_pairs()
        assert topo.gpus() == fresh.gpus()

    def test_copy_plans(self, name, warmed):
        machine = warmed[name]
        served = all_plans(machine)
        assert served == all_plans(_BUILDERS[name](), plan=_build_plan)
        again = all_plans(machine)
        assert all(again[key] is plan for key, plan in served.items())


class TestRecalibratedMachine:
    def test_own_copy_plans(self, warmed):
        frontier = warmed["frontier"]
        cal = frontier.calibration
        slower = dataclasses.replace(frontier, calibration=dataclasses.replace(
            cal, gpu_runtime=dataclasses.replace(
                cal.gpu_runtime, d2d_base=2 * cal.gpu_runtime.d2d_base,
                h2d_latency=2 * cal.gpu_runtime.h2d_latency,
                d2h_latency=2 * cal.gpu_runtime.d2h_latency,
            ),
        ))
        assert slower.node is frontier.node
        plans, mine = all_plans(frontier), all_plans(slower)
        assert mine.keys() == plans.keys()
        for key, plan in plans.items():
            if plan is PinnedMemoryError or plan.kind == CopyKind.H2H:
                assert mine[key] == plan
            else:
                assert mine[key].latency > plan.latency, key
        assert all_plans(frontier) == plans

    def test_own_team_bandwidths(self, warmed):
        sawtooth = warmed["sawtooth"]
        cal = sawtooth.calibration
        faster = dataclasses.replace(sawtooth, calibration=dataclasses.replace(
            cal, cpu_stream=dataclasses.replace(
                cal.cpu_stream, mlp=2 * cal.cpu_stream.mlp,
            ),
        ))
        assert faster.node is sawtooth.node
        single = table1_configurations(sawtooth.node)[1]
        team = build_team(faster.node, single)
        assert team is build_team(sawtooth.node, single)
        assert team_bandwidth(faster.node, faster.calibration.cpu_stream,
                              team) > team_bandwidth(
            sawtooth.node, cal.cpu_stream, team)
