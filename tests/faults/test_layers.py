"""Fault hooks through the simulation layers: transport, network, GPU."""

import pytest

from repro.benchmarks.osu.latency import measure_pingpong
from repro.errors import InjectedFault, MpiSimError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    GpuFault,
    LinkFault,
    MessageDrop,
    StragglerFault,
)
from repro.mpisim.placement import on_socket_pair
from repro.mpisim.transport import BufferKind, PathCost
from repro.netsim.links import LinkTable, NetworkLink


# ---------------------------------------------------------------------------
# mpisim: drop -> retransmit, stragglers
# ---------------------------------------------------------------------------

class TestTransportFaults:
    def test_message_drop_inflates_pingpong(self, sawtooth):
        pair = on_socket_pair(sawtooth)
        clean = measure_pingpong(sawtooth, pair, 0, BufferKind.HOST)
        injector = FaultInjector(FaultPlan("p", (MessageDrop(0.75),)), 99)
        try:
            faulty = measure_pingpong(
                sawtooth, pair, 0, BufferKind.HOST,
                injector=injector, max_events=500_000,
            )
        except InjectedFault:
            return  # retransmit budget exhausted: machinery engaged
        assert faulty > clean

    def test_straggler_inflates_pingpong(self, sawtooth):
        pair = on_socket_pair(sawtooth)
        clean = measure_pingpong(sawtooth, pair, 0, BufferKind.HOST)
        injector = FaultInjector(
            FaultPlan("p", (StragglerFault(probability=1.0, slowdown=4.0),)), 7
        )
        faulty = measure_pingpong(
            sawtooth, pair, 0, BufferKind.HOST, injector=injector
        )
        assert faulty > clean

    def test_certain_drop_exhausts_retransmits(self, sawtooth):
        pair = on_socket_pair(sawtooth)
        injector = FaultInjector(FaultPlan("p", (MessageDrop(1.0),)), 7)
        with pytest.raises(InjectedFault, match="dropped"):
            measure_pingpong(
                sawtooth, pair, 0, BufferKind.HOST, injector=injector
            )

    def test_fault_run_is_deterministic(self, sawtooth):
        pair = on_socket_pair(sawtooth)
        plan = FaultPlan("p", (MessageDrop(0.3),))

        def run():
            return measure_pingpong(
                sawtooth, pair, 0, BufferKind.HOST,
                injector=FaultInjector(plan, 42), max_events=500_000,
            )

        assert run() == run()

    def test_path_cost_degraded(self):
        cost = PathCost(o_send=1e-6, o_recv=1e-6, wire=2e-6, bandwidth=1e9)
        slow = cost.degraded(bandwidth_factor=0.5, extra_latency=1e-6)
        assert slow.bandwidth == pytest.approx(0.5e9)
        assert slow.wire == pytest.approx(3e-6)
        assert slow.o_send == cost.o_send
        with pytest.raises(MpiSimError):
            cost.degraded(bandwidth_factor=0.0)
        with pytest.raises(MpiSimError):
            cost.degraded(extra_latency=-1.0)


# ---------------------------------------------------------------------------
# netsim: degradation windows, outages, pattern arming
# ---------------------------------------------------------------------------

class TestLinkFaults:
    def _link(self, name="l0"):
        return NetworkLink(name=name, bandwidth=1e9, latency=1e-6)

    def test_window_throttles_bandwidth_and_latency(self):
        link = self._link()
        link.add_fault(LinkFault(start=1.0, duration=2.0,
                                 bandwidth_factor=0.25, extra_latency=5e-6))
        assert link.effective_bandwidth(0.5) == 1e9
        assert link.effective_bandwidth(1.5) == 0.25e9
        assert link.effective_latency(1.5) == pytest.approx(6e-6)
        assert link.effective_bandwidth(3.0) == 1e9  # window closed

    def test_down_window_delays_reservation(self):
        link = self._link()
        link.add_fault(LinkFault(start=0.0, duration=2.0, down=True))
        assert link.is_down(1.0)
        assert link.up_at(1.0) == 2.0
        finish = link.reserve(0.5, 1000)
        assert finish >= 2.0  # transfer could not start before the outage ends

    def test_overlapping_windows_compound(self):
        link = self._link()
        link.add_fault(LinkFault(start=0.0, duration=4.0, bandwidth_factor=0.5))
        link.add_fault(LinkFault(start=1.0, duration=1.0, bandwidth_factor=0.5))
        assert link.effective_bandwidth(0.5) == 0.5e9
        assert link.effective_bandwidth(1.5) == 0.25e9

    def test_reset_clears_faults(self):
        link = self._link()
        link.add_fault(LinkFault(start=0.0, duration=1.0, down=True))
        link.reset()
        assert not link.is_down(0.5)

    def test_link_table_arm_faults_by_pattern(self):
        table = LinkTable()
        table.add("nic0", "router0", 1e9, 1e-6)
        table.add("router0", "nic1", 1e9, 1e-6)
        armed = table.arm_faults(
            [LinkFault(start=0.0, duration=1.0, pattern="nic0->*", down=True)]
        )
        assert armed == 1
        assert table.get("nic0", "router0").is_down(0.5)
        assert not table.get("router0", "nic1").is_down(0.5)


# ---------------------------------------------------------------------------
# gpurt: kernel inflation, memcpy stalls
# ---------------------------------------------------------------------------

class TestGpuFaults:
    def _sync_kernel_time(self, machine, injector=None):
        from repro.gpurt.api import DeviceRuntime
        from repro.gpurt.kernel import EMPTY_KERNEL

        rt = DeviceRuntime(machine, injector=injector)

        def host():
            yield from rt.launch_kernel(EMPTY_KERNEL, device=0)
            yield from rt.device_synchronize(0)
            return rt.env.now

        return rt.run(host())

    def test_kernel_duration_inflated(self, frontier):
        clean = self._sync_kernel_time(frontier)
        injector = FaultInjector(
            FaultPlan("p", (GpuFault(probability=1.0, duration_factor=3.0),)), 7
        )
        faulty = self._sync_kernel_time(frontier, injector)
        assert faulty > clean

    def test_zero_probability_gpu_fault_is_inert(self, frontier):
        clean = self._sync_kernel_time(frontier)
        injector = FaultInjector(
            FaultPlan("p", (GpuFault(probability=0.0, duration_factor=3.0),
                            MessageDrop(0.5))), 7
        )
        assert self._sync_kernel_time(frontier, injector) == clean

    def test_runtime_stores_injector(self, frontier):
        from repro.gpurt.api import DeviceRuntime

        injector = FaultInjector(FaultPlan("p", (GpuFault(1.0),)), 7)
        assert DeviceRuntime(frontier, injector=injector).injector is injector
        assert DeviceRuntime(frontier).injector is None


# ---------------------------------------------------------------------------
# study: GPU cells run under the cell's injector and event budget
# ---------------------------------------------------------------------------

class TestGpuCells:
    def test_smoke_run_injects_every_kind(self, tmp_path, capsys):
        """``smoke`` arms every fault kind; an exact run of the GPU tables
        must inject each one its simulations can (``sample_bursts``
        perturbs fast-mode samples only)."""
        import json

        from repro.harness.cli import main

        metrics = tmp_path / "m.json"
        main(["table5", "table6", "--exact", "--runs", "2",
              "--faults", "smoke", "--quiet", "--metrics-out", str(metrics)])
        capsys.readouterr()
        instruments = json.loads(metrics.read_text())["instruments"]
        for kind in ("drop", "straggler", "gpu_kernel", "gpu_memcpy",
                     "nodefail"):
            assert instruments[f"faults.injected.{kind}"]["value"] > 0, kind

    @pytest.mark.parametrize("exact", [False, True], ids=["fast", "exact"])
    def test_event_budget_reaches_gpu_cells(self, frontier, exact):
        from repro.core.resilience import Degraded
        from repro.core.study import Study, StudyConfig

        study = Study(StudyConfig(
            runs=2, exact=exact, cell_max_events=5, max_retries=0,
        ))
        for cell in (study.gpu_bandwidth(frontier), study.commscope(frontier)):
            assert isinstance(cell, Degraded)
            assert "event budget of 5 exceeded" in cell.reason

    def test_watchdog_reasons_do_not_depend_on_process_history(
        self, summit, frontier
    ):
        """A watchdog-degraded GPU cell's reason names the blocked
        stream processors, and footnotes render it and the cell cache
        stores it: the names are per device, so a second identical
        study in one process and a ``jobs=2`` study log the same."""
        from repro.core.study import Study, StudyConfig
        from repro.core.tables import build_table5, build_table6

        def entries(jobs):
            study = Study(StudyConfig(
                runs=2, seed=3, cell_max_events=5, jobs=jobs,
            ))
            build_table5(study, [summit])
            build_table6(study, [frontier])
            return study.resilience.entries

        first = entries(1)
        assert any("gpu0-stream0" in e.reason for e in first)
        assert entries(1) == first
        assert entries(2) == first
