"""Peer-access enable/disable semantics for D2D copies."""

import pytest

from repro.errors import GpuRuntimeError
from repro.gpurt.api import DeviceRuntime
from repro.gpurt.buffers import DeviceBuffer
from repro.gpurt.memcpy import plan_copy

ONE_GIB = 1 << 30


def timed_d2d(rt, src_dev, dst_dev, nbytes):
    src = rt.alloc_device(src_dev, nbytes)
    dst = rt.alloc_device(dst_dev, nbytes)

    def host():
        t0 = rt.env.now
        yield from rt.memcpy_async(dst, src)
        yield from rt.stream_synchronize(src_dev)
        return rt.env.now - t0

    return rt.run(host())


class TestPeerAccess:
    def test_enabled_by_default(self, perlmutter):
        rt = DeviceRuntime(perlmutter)
        assert rt.peer_access_enabled(0, 1)

    def test_disabled_copy_is_slower(self, perlmutter):
        fast = timed_d2d(DeviceRuntime(perlmutter), 0, 1, 128)
        rt = DeviceRuntime(perlmutter)
        rt.disable_peer_access(0, 1)
        slow = timed_d2d(rt, 0, 1, 128)
        assert slow > fast

    def test_disabled_bandwidth_is_host_link_bound(self, perlmutter):
        rt = DeviceRuntime(perlmutter)
        rt.disable_peer_access(0, 1)
        seconds = timed_d2d(rt, 0, 1, ONE_GIB)
        bw = ONE_GIB / seconds
        # direct NVLink3 path sustains ~80 GB/s; the PCIe bounce far less
        assert bw < 20e9

    def test_state_is_symmetric(self, perlmutter):
        rt = DeviceRuntime(perlmutter)
        rt.disable_peer_access(1, 0)
        assert not rt.peer_access_enabled(0, 1)

    def test_reenable_restores_fast_path(self, perlmutter):
        rt = DeviceRuntime(perlmutter)
        fast = timed_d2d(rt, 0, 1, 128)
        rt.disable_peer_access(0, 1)
        rt.enable_peer_access(0, 1)
        again = timed_d2d(rt, 0, 1, 128)
        assert again == pytest.approx(fast)

    def test_other_pairs_unaffected(self, perlmutter):
        rt = DeviceRuntime(perlmutter)
        rt.disable_peer_access(0, 1)
        assert rt.peer_access_enabled(0, 2)

    def test_same_device_rejected(self, perlmutter):
        rt = DeviceRuntime(perlmutter)
        with pytest.raises(GpuRuntimeError):
            rt.disable_peer_access(2, 2)

    def test_staged_route_passes_host(self, perlmutter):
        plan = plan_copy(
            perlmutter,
            DeviceBuffer(nbytes=128, device=0),
            DeviceBuffer(nbytes=128, device=1),
            peer_enabled=False,
        )
        assert "cpu0" in plan.route

    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    def test_plan_for_costs_the_copy_memcpy_runs(self, frontier, enabled):
        rt = DeviceRuntime(frontier)
        if not enabled:
            rt.disable_peer_access(0, 1)
        plan = rt.plan_for(
            DeviceBuffer(nbytes=128, device=1), DeviceBuffer(nbytes=128, device=0)
        )
        assert plan.duration(128) == timed_d2d(rt, 0, 1, 128)

    def test_table6_path_uses_enabled_default(self, frontier):
        """The calibrated Table 6 figures assume peer access on."""
        from repro.benchmarks.commscope.memcpy_tests import memcpy_d2d
        from repro.units import to_us

        m = memcpy_d2d(frontier, 0, 1, 128)
        assert to_us(m.seconds) == pytest.approx(12.02, abs=0.05)
