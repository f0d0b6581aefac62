"""Tests for stream command queues."""

import pytest

from repro.errors import GpuRuntimeError, InvalidStreamError
from repro.gpurt.api import DeviceRuntime
from repro.gpurt.kernel import EMPTY_KERNEL, KernelSpec
from repro.gpurt.stream import KernelCommand


class TestStream:
    def test_idle_when_created(self, frontier):
        rt = DeviceRuntime(frontier)
        assert not rt.devices[0].default_stream.busy

    def test_busy_while_queued(self, frontier):
        rt = DeviceRuntime(frontier)
        stream = rt.devices[0].default_stream

        def host():
            yield from rt.launch_kernel(EMPTY_KERNEL, device=0)
            return stream.busy

        assert rt.run(host()) is True
        rt.env.run()  # drain the in-flight command
        assert not stream.busy

    def test_idle_event_triggers_immediately_when_idle(self, frontier):
        rt = DeviceRuntime(frontier)

        def host():
            ev = rt.devices[0].default_stream.idle()
            yield ev
            return rt.env.now

        assert rt.run(host()) == 0.0

    def test_destroy_idle_stream(self, frontier):
        rt = DeviceRuntime(frontier)
        stream = rt.devices[0].create_stream()
        stream.destroy()
        with pytest.raises(InvalidStreamError):
            stream.enqueue(
                KernelCommand(completion=rt.env.event(), kernel=EMPTY_KERNEL)
            )

    def test_destroy_busy_stream_rejected(self, frontier):
        rt = DeviceRuntime(frontier)
        stream = rt.devices[0].default_stream

        def host():
            yield from rt.launch_kernel(EMPTY_KERNEL, device=0, stream=stream)
            stream.destroy()

        with pytest.raises(GpuRuntimeError):
            rt.run(host())

    def test_failing_kernel_fails_completion(self, frontier):
        rt = DeviceRuntime(frontier)
        bad = KernelSpec("bad", lambda dev: (_ for _ in ()).throw(ValueError("x")))

        def host():
            cmd = yield from rt.launch_kernel(bad, device=0)
            try:
                yield cmd.completion
            except GpuRuntimeError:
                return "failed"
            return "ok"

        assert rt.run(host()) == "failed"

    def test_streams_on_same_device_independent(self, frontier):
        rt = DeviceRuntime(frontier)
        s1 = rt.devices[0].create_stream()
        s2 = rt.devices[0].create_stream()

        def host():
            yield from rt.launch_kernel(EMPTY_KERNEL, device=0, stream=s1)
            # s2 idles immediately even though s1 is busy
            yield s2.idle()
            return s1.busy

        assert rt.run(host()) is True


class TestFailedLastCommand:
    """A stream whose last command fails still drains to idle."""

    @pytest.mark.parametrize("sync", ["stream", "device"])
    def test_synchronize_returns(self, frontier, sync):
        rt = DeviceRuntime(frontier)
        bad = KernelSpec("bad", lambda dev: (_ for _ in ()).throw(ValueError("x")))

        def host():
            cmd = yield from rt.launch_kernel(bad, device=0)
            cmd.completion.defuse()
            if sync == "stream":
                yield from rt.stream_synchronize(0)
            else:
                yield from rt.device_synchronize(0)
            return cmd

        cmd = rt.run(host())
        assert not rt.devices[0].default_stream.busy
        assert cmd.completion.processed and not cmd.completion.ok
        assert isinstance(cmd.completion.value, GpuRuntimeError)
        assert "x" in str(cmd.completion.value)
