"""Tests for the device-runtime facade (streams, launches, syncs)."""

import pytest

from repro.errors import GpuRuntimeError
from repro.gpurt.api import DeviceRuntime
from repro.gpurt.kernel import EMPTY_KERNEL, stream_kernel
from repro.machines.registry import get_machine
from repro.memsys.writealloc import TRIAD
from repro.obs import ObsContext, observability
from repro.obs.profiler import SimProfiler
from repro.sim.engine import profiled
from repro.units import to_us, us


class TestConstruction:
    def test_devices_created(self, frontier):
        rt = DeviceRuntime(frontier)
        assert len(rt.devices) == 8

    def test_cpu_machine_rejected(self, sawtooth):
        with pytest.raises(GpuRuntimeError):
            DeviceRuntime(sawtooth)

    def test_launch_builds_one_device_and_one_stream(self, frontier):
        rt = DeviceRuntime(frontier)

        def host():
            yield from rt.launch_kernel(EMPTY_KERNEL, device=0)
            yield from rt.device_synchronize(0)

        rt.run(host())
        built = [dev for dev in rt._devices if dev is not None]
        assert [dev.index for dev in built] == [0]
        assert built[0].streams == [built[0].default_stream]
        assert len(rt.devices) == frontier.node.n_gpus

    @pytest.mark.parametrize("name", ["frontier", "perlmutter", "summit"])
    def test_empty_sync_processes_two_events(self, name):
        """Host start and the sync timeout: no device or stream of the
        node costs an event before it gets work, and the host's exit,
        which nothing joins, costs none."""
        rt = DeviceRuntime(get_machine(name))
        profiler = SimProfiler()
        with profiled(profiler):
            rt.run(rt.device_synchronize(0))
        assert profiler.total_events == 2


class TestAllocation:
    def test_device_alloc_tracks_usage(self, frontier):
        rt = DeviceRuntime(frontier)
        buf = rt.alloc_device(0, 1 << 20)
        assert rt.devices[0].memory_allocated == 1 << 20
        rt.free_device(buf)
        assert rt.devices[0].memory_allocated == 0

    def test_oom_rejected(self, frontier):
        rt = DeviceRuntime(frontier)
        cap = rt.devices[0].memory_capacity
        rt.alloc_device(0, cap)
        with pytest.raises(GpuRuntimeError):
            rt.alloc_device(0, 1)

    def test_double_free_rejected(self, frontier):
        rt = DeviceRuntime(frontier)
        buf = rt.alloc_device(0, 1 << 20)
        rt.free_device(buf)
        with pytest.raises(GpuRuntimeError):
            rt.free_device(buf)

    def test_bad_device_index(self, frontier):
        rt = DeviceRuntime(frontier)
        with pytest.raises(GpuRuntimeError):
            rt.alloc_device(8, 1)


class TestLaunchAndSync:
    def test_launch_costs_calibrated_overhead(self, frontier):
        rt = DeviceRuntime(frontier)

        def host():
            t0 = rt.env.now
            yield from rt.launch_kernel(EMPTY_KERNEL, device=0)
            return rt.env.now - t0

        elapsed = rt.run(host())
        assert elapsed == pytest.approx(
            frontier.calibration.gpu_runtime.launch_overhead
        )

    def test_empty_sync_costs_wait(self, frontier):
        rt = DeviceRuntime(frontier)

        def host():
            t0 = rt.env.now
            yield from rt.device_synchronize(0)
            return rt.env.now - t0

        elapsed = rt.run(host())
        assert elapsed == pytest.approx(
            frontier.calibration.gpu_runtime.sync_overhead
        )

    def test_sync_waits_for_kernel(self, frontier):
        rt = DeviceRuntime(frontier)
        spec = stream_kernel(TRIAD, 1 << 28)  # hundreds of microseconds

        def host():
            yield from rt.launch_kernel(spec, device=0)
            t0 = rt.env.now
            yield from rt.device_synchronize(0)
            return rt.env.now - t0

        waited = rt.run(host())
        assert waited > us(100)

    def test_completion_event_carries_time(self, frontier):
        rt = DeviceRuntime(frontier)

        def host():
            cmd = yield from rt.launch_kernel(EMPTY_KERNEL, device=0)
            done_at = yield cmd.completion
            return done_at

        done_at = rt.run(host())
        assert done_at > 0

    def test_in_order_stream(self, frontier):
        """Two kernels on one stream execute back to back, in order."""
        rt = DeviceRuntime(frontier)
        spec = stream_kernel(TRIAD, 1 << 24)

        def host():
            c1 = yield from rt.launch_kernel(spec, device=0)
            c2 = yield from rt.launch_kernel(spec, device=0)
            t1 = yield c1.completion
            t2 = yield c2.completion
            return t1, t2

        t1, t2 = rt.run(host())
        assert t2 > t1


class TestCopyExecution:
    def test_h2d_copy_timing(self, frontier):
        rt = DeviceRuntime(frontier)
        cal = frontier.calibration.gpu_runtime
        src = rt.alloc_host(128, pinned=True)
        dst = rt.alloc_device(0, 128)

        def host():
            t0 = rt.env.now
            yield from rt.memcpy_async(dst, src)
            yield from rt.stream_synchronize(0)
            return rt.env.now - t0

        elapsed = rt.run(host())
        assert elapsed == pytest.approx(cal.h2d_latency, rel=0.01)

    def test_copy_size_exceeds_buffer(self, frontier):
        rt = DeviceRuntime(frontier)
        src = rt.alloc_host(64, pinned=True)
        dst = rt.alloc_device(0, 128)

        def host():
            yield from rt.memcpy_async(dst, src, nbytes=128)

        with pytest.raises(GpuRuntimeError):
            rt.run(host())

    def test_trace_records_route(self, frontier):
        with observability(ObsContext.create()) as ctx:
            rt = DeviceRuntime(frontier)
            src = rt.alloc_device(0, 128)
            dst = rt.alloc_device(2, 128)  # class D: staged via gpu1

            def host():
                yield from rt.memcpy_async(dst, src)
                yield from rt.stream_synchronize(0)

            rt.run(host())
        [copy] = [
            r for r in ctx.tracer.records()
            if r.name == "dma:device-to-device"
        ]
        assert copy.attrs["route"] == ("gpu0", "gpu1", "gpu2")

    def test_dma_engines_limit_concurrency(self, frontier):
        """Three concurrent copies on one device share 2 DMA engines."""
        rt = DeviceRuntime(frontier)
        bufs = [
            (rt.alloc_host(1 << 26, pinned=True), rt.alloc_device(0, 1 << 26))
            for _ in range(3)
        ]

        def host():
            streams = [rt.devices[0].create_stream() for _ in range(3)]
            cmds = []
            for (src, dst), stream in zip(bufs, streams):
                cmd = yield from rt.memcpy_async(dst, src, stream=stream)
                cmds.append(cmd)
            for cmd in cmds:
                yield cmd.completion
            return rt.env.now

        one_copy = (1 << 26) / rt.plan_for(bufs[0][1], bufs[0][0]).bandwidth
        elapsed = rt.run(host())
        # with only 2 engines, 3 copies cannot all overlap
        assert elapsed > 1.9 * one_copy
