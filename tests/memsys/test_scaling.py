"""Tests for multicore bandwidth scaling under OpenMP teams."""

import pytest

from repro.memsys.scaling import UNBOUND_PENALTY, team_bandwidth
from repro.memsys.stream_model import per_core_bandwidth
from repro.openmp.env import OmpEnvironment
from repro.openmp.team import build_team
from repro.units import to_gb_per_s


def bw(machine, env):
    team = build_team(machine.node, env)
    return team_bandwidth(machine.node, machine.calibration.cpu_stream, team)


class TestSaturation:
    def test_all_cores_saturate_socket_cap(self, sawtooth):
        env = OmpEnvironment(num_threads=48, proc_bind="spread", places="cores")
        expected = (
            2 * sawtooth.node.cpu.memory.peak_bandwidth
            * sawtooth.calibration.cpu_stream.allcore_efficiency
        )
        assert bw(sawtooth, env) == pytest.approx(expected)

    def test_few_threads_scale_linearly(self, sawtooth):
        one = OmpEnvironment(num_threads=1, proc_bind="true")
        two = OmpEnvironment(num_threads=2, proc_bind="spread", places="cores")
        assert bw(sawtooth, two) == pytest.approx(2 * bw(sawtooth, one), rel=1e-6)

    def test_single_thread_is_per_core_limit(self, sawtooth):
        env = OmpEnvironment(num_threads=1, proc_bind="true")
        expected = per_core_bandwidth(
            sawtooth.node.cpu, sawtooth.calibration.cpu_stream
        )
        assert bw(sawtooth, env) == pytest.approx(expected)


class TestBindingEffects:
    def test_unbound_pays_penalty(self, sawtooth):
        bound = OmpEnvironment(num_threads=48, proc_bind="spread", places="cores")
        unbound = OmpEnvironment(num_threads=48)
        assert bw(sawtooth, unbound) == pytest.approx(
            bw(sawtooth, bound) * UNBOUND_PENALTY
        )

    def test_smt_oversubscription_never_helps(self, sawtooth):
        cores = OmpEnvironment(num_threads=48, proc_bind="spread", places="cores")
        smt = OmpEnvironment(num_threads=96, proc_bind="close", places="threads")
        assert bw(sawtooth, smt) <= bw(sawtooth, cores)

    def test_master_binding_piles_on_one_place(self, sawtooth):
        master = OmpEnvironment(num_threads=48, proc_bind="master", places="cores")
        spread = OmpEnvironment(num_threads=48, proc_bind="spread", places="cores")
        # every thread on one core's place: massively less bandwidth
        assert bw(sawtooth, master) < 0.2 * bw(sawtooth, spread)

    def test_best_config_is_bound_all_cores(self, sawtooth):
        """The Table 1 sweep exists because binding matters."""
        from repro.openmp.env import table1_configurations

        results = {
            env: bw(sawtooth, env)
            for env in table1_configurations(sawtooth.node)
            if env.resolve_num_threads(sawtooth.node) > 1
        }
        winner = max(results, key=results.get)
        assert winner.proc_bind in ("true", "spread", "close")

    def test_single_thread_rows_below_all_thread_rows(self, cpu_machines_list):
        """On every CPU machine, each single-thread row of the Table 1
        sweep stays below every multi-thread row."""
        from repro.openmp.env import table1_configurations

        for machine in cpu_machines_list:
            single, multi = [], []
            for env in table1_configurations(machine.node):
                threads = env.resolve_num_threads(machine.node)
                (single if threads == 1 else multi).append(bw(machine, env))
            assert max(single) < min(multi), machine.name


class TestAnomaly:
    def test_theta_anomaly_hits_multithread_only(self, trinity):
        from repro.machines.registry import get_machine

        theta = get_machine("theta")
        one = OmpEnvironment(num_threads=1, proc_bind="true")
        # single-thread Theta is NOT anomalous (18.76 in Table 4)
        assert to_gb_per_s(bw(theta, one)) > 15
        full = OmpEnvironment(
            num_threads=theta.node.total_cores, proc_bind="spread", places="cores"
        )
        # all-core Theta collapses far below Trinity (119.72 vs 347.28)
        assert bw(theta, full) < 0.45 * bw(
            trinity,
            OmpEnvironment(
                num_threads=trinity.node.total_cores,
                proc_bind="spread", places="cores",
            ),
        )


class TestCrossNode:
    def test_two_sockets_double_one(self, sawtooth, eagle):
        half = OmpEnvironment(num_threads=24, proc_bind="close", places="cores")
        full = OmpEnvironment(num_threads=48, proc_bind="spread", places="cores")
        # close packs socket 0 only; spread covers both
        assert bw(sawtooth, full) == pytest.approx(2 * bw(sawtooth, half), rel=0.01)

    def test_team_from_wrong_node_rejected(self, sawtooth, eagle):
        from repro.errors import HardwareConfigError

        team = build_team(eagle.node, OmpEnvironment(num_threads=2))
        with pytest.raises(HardwareConfigError):
            team_bandwidth(sawtooth.node, sawtooth.calibration.cpu_stream, team)
