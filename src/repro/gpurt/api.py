"""The device-runtime facade (the simulated cudart/hiprt).

Host benchmark code runs as a simulation process and calls these entry
points with ``yield from``; every call costs simulated host time
according to the machine's calibrated driver constants, and the work it
enqueues costs device/DMA time computed from the hardware models.

Example
-------
::

    rt = DeviceRuntime(get_machine("frontier"))

    def host():
        a = rt.alloc_device(0, 1 << 30)
        b = rt.alloc_device(1, 1 << 30)
        cmd = yield from rt.memcpy_async(b, a, 1 << 30)
        yield from rt.stream_synchronize()
        return rt.env.now

    elapsed = rt.run(host())
"""

from __future__ import annotations

from typing import Generator, Optional

from ..errors import GpuRuntimeError
from ..machines.base import Machine
from ..obs import runtime as obs
from ..sim.engine import Environment
from ..sim.resources import Resource
from .buffers import Buffer, DeviceBuffer, HostBuffer
from .kernel import KernelSpec
from .memcpy import CopyPlan, plan_copy
from .stream import CopyCommand, KernelCommand, Stream

#: DMA engines per device (copy engines on real parts; two directions).
DMA_ENGINES_PER_DEVICE = 2


class Device:
    """One accelerator device (a GPU or one MI250X GCD)."""

    def __init__(self, runtime: "DeviceRuntime", index: int) -> None:
        self.runtime = runtime
        self.env: Environment = runtime.env
        self.index = index
        self.spec = runtime.machine.node.gpu_spec(index)
        self.calibration = runtime.calibration
        self.dma_engines = Resource(self.env, capacity=DMA_ENGINES_PER_DEVICE)
        self._allocated = 0
        #: the default stream first once built, then created streams
        self.streams: list[Stream] = []
        self._default_stream: Optional[Stream] = None
        self._created = 0

    @property
    def default_stream(self) -> Stream:
        """Stream 0, built on first use (most executions use one device
        and only its default stream)."""
        if self._default_stream is None:
            self._default_stream = Stream(self, 0)
            # device_synchronize waits for the default stream first
            self.streams.insert(0, self._default_stream)
        return self._default_stream

    def create_stream(self) -> Stream:
        """A new stream; created streams are numbered from 1."""
        self._created += 1
        stream = Stream(self, self._created)
        self.streams.append(stream)
        return stream

    @property
    def memory_capacity(self) -> int:
        return self.spec.memory.capacity

    @property
    def memory_allocated(self) -> int:
        return self._allocated

    def _reserve(self, nbytes: int) -> None:
        if self._allocated + nbytes > self.memory_capacity:
            raise GpuRuntimeError(
                f"device {self.index} out of memory: "
                f"{self._allocated + nbytes} > {self.memory_capacity}"
            )
        self._allocated += nbytes

    def _unreserve(self, nbytes: int) -> None:
        if nbytes > self._allocated:
            raise GpuRuntimeError("freeing more device memory than allocated")
        self._allocated -= nbytes


class DeviceRuntime:
    """The simulated CUDA/HIP runtime for one machine."""

    def __init__(
        self,
        machine: Machine,
        env: Optional[Environment] = None,
        injector=None,
    ) -> None:
        if not machine.node.has_gpus:
            raise GpuRuntimeError(f"{machine.name} has no accelerators")
        if machine.calibration.gpu_runtime is None:
            raise GpuRuntimeError(f"{machine.name} has no GPU runtime calibration")
        self.machine = machine
        self.env = env if env is not None else Environment()
        self.calibration = machine.calibration.gpu_runtime
        #: optional repro.faults.FaultInjector consulted per kernel/DMA
        self.injector = injector
        # cached observability handles (MpiWorld idiom): per-command
        # name->counter lookups showed up in sustained-launch profiles
        ctx = obs.current()
        self._obs_enabled = ctx.enabled
        self._tracer = ctx.tracer
        self._m_launched = ctx.metrics.counter("gpurt.kernel.launched")
        self._m_completed = ctx.metrics.counter("gpurt.kernel.completed")
        self._m_dma_issued = ctx.metrics.counter("gpurt.dma.issued")
        self._m_dma_bytes = ctx.metrics.counter("gpurt.dma.bytes")
        self._m_queue_wait = ctx.metrics.histogram("gpurt.kernel.queue_wait_us")
        #: built on first use: a Comm|Scope or BabelStream execution
        #: touches one device or one pair of the node's up to eight
        self._devices: list[Optional[Device]] = [None] * machine.node.n_gpus
        # peer access state (cudaDeviceEnablePeerAccess): enabled by
        # default, as every benchmark in the study runs with it on;
        # disable_peer_access exposes the staged-through-host behaviour
        self._peer_disabled: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # peer access
    # ------------------------------------------------------------------
    def disable_peer_access(self, a: int, b: int) -> None:
        """Force D2D copies between ``a`` and ``b`` to stage via host."""
        self.device(a)
        self.device(b)
        if a == b:
            raise GpuRuntimeError("peer access is between distinct devices")
        self._peer_disabled.add((min(a, b), max(a, b)))

    def enable_peer_access(self, a: int, b: int) -> None:
        """Re-enable direct peer copies (idempotent)."""
        self.device(a)
        self.device(b)
        self._peer_disabled.discard((min(a, b), max(a, b)))

    def peer_access_enabled(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) not in self._peer_disabled

    # ------------------------------------------------------------------
    # devices
    # ------------------------------------------------------------------
    @property
    def devices(self) -> list[Device]:
        """Every device of the node (building those not yet used)."""
        return [self.device(i) for i in range(len(self._devices))]

    def device(self, index: int) -> Device:
        """Device ``index``, built on first use."""
        if not 0 <= index < len(self._devices):
            raise GpuRuntimeError(
                f"device {index} out of range ({len(self._devices)} devices)"
            )
        dev = self._devices[index]
        if dev is None:
            dev = self._devices[index] = Device(self, index)
        return dev

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def alloc_host(self, nbytes: int, pinned: bool = True) -> HostBuffer:
        return HostBuffer(nbytes=nbytes, pinned=pinned)

    def alloc_device(self, device: int, nbytes: int) -> DeviceBuffer:
        self.device(device)._reserve(nbytes)
        return DeviceBuffer(nbytes=nbytes, device=device)

    def free_device(self, buffer: DeviceBuffer) -> None:
        self.device(buffer.device)._unreserve(buffer.nbytes)

    # ------------------------------------------------------------------
    # host API (generators: `yield from` inside a host process)
    # ------------------------------------------------------------------
    def launch_kernel(
        self, kernel: KernelSpec, device: int = 0, stream: Optional[Stream] = None
    ) -> Generator:
        """Asynchronously launch ``kernel``; host blocks for the launch cost.

        Returns the enqueued command (wait on ``command.completion``).
        This host-side cost is exactly what Comm|Scope's launch benchmark
        times.
        """
        dev = self.device(device)
        stream = stream or dev.default_stream
        t_call = self.env.now
        yield self.env.timeout(self.calibration.launch_overhead)
        self._m_launched.inc()
        if self._obs_enabled:
            # the host-side launch phase Comm|Scope's launch test times
            self._tracer.complete(
                f"launch:{kernel.name}", "gpurt", t_call, self.env.now,
                device=device,
            )
        cmd = KernelCommand(completion=self.env.event(), kernel=kernel)
        stream.enqueue(cmd)
        return cmd

    def memcpy_async(
        self,
        dst: Buffer,
        src: Buffer,
        nbytes: Optional[int] = None,
        stream: Optional[Stream] = None,
        require_pinned: bool = True,
    ) -> Generator:
        """Asynchronous copy (cudaMemcpyAsync / hipMemcpyAsync).

        The DMA latency constant covers issue-through-completion for a
        minimal transfer, so the host-side enqueue itself is free; the
        clock advances when the stream is synchronised.
        """
        nbytes = min(src.nbytes, dst.nbytes) if nbytes is None else nbytes
        if nbytes > src.nbytes or nbytes > dst.nbytes:
            raise GpuRuntimeError(
                f"copy of {nbytes} bytes exceeds a buffer "
                f"(src {src.nbytes}, dst {dst.nbytes})"
            )
        plan = self.plan_for(dst, src, require_pinned)
        device_idx = self._copy_owner(src, dst)
        dev = self.device(device_idx)
        stream = stream or dev.default_stream
        self._m_dma_issued.inc()
        self._m_dma_bytes.inc(nbytes)
        cmd = CopyCommand(completion=self.env.event(), plan=plan, nbytes=nbytes)
        stream.enqueue(cmd)
        return cmd
        yield  # pragma: no cover - makes this a generator for API symmetry

    @staticmethod
    def _copy_owner(src: Buffer, dst: Buffer) -> int:
        """The device whose engines execute the copy (src side preferred)."""
        if isinstance(src, DeviceBuffer):
            return src.device
        if isinstance(dst, DeviceBuffer):
            return dst.device
        return 0

    def plan_for(
        self, dst: Buffer, src: Buffer, require_pinned: bool = True
    ) -> CopyPlan:
        """The plan :meth:`memcpy_async` runs for ``src -> dst``, with
        this runtime's peer-access state (also used by tests and
        analysis to cost a copy)."""
        peer = True
        if isinstance(src, DeviceBuffer) and isinstance(dst, DeviceBuffer):
            if src.device != dst.device:
                peer = self.peer_access_enabled(src.device, dst.device)
        return plan_copy(
            self.machine, src, dst,
            require_pinned=require_pinned, peer_enabled=peer,
        )

    def stream_synchronize(
        self, device: int = 0, stream: Optional[Stream] = None
    ) -> Generator:
        """Block the host until the stream drains (cudaStreamSynchronize)."""
        dev = self.device(device)
        stream = stream or dev.default_stream
        yield stream.idle()

    def device_synchronize(self, device: int = 0) -> Generator:
        """cudaDeviceSynchronize / hipDeviceSynchronize.

        With an empty queue this costs the calibrated sync overhead —
        the quantity Comm|Scope's ``DeviceSynchronize`` test measures.
        With work in flight, the host additionally waits for the drain.
        """
        dev = self.device(device)
        for stream in dev.streams:
            if stream.busy:
                yield stream.idle()
        yield self.env.timeout(self.calibration.sync_overhead)

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def run(
        self, host_code: Generator, name: str = "host",
        max_events: Optional[int] = None,
    ):
        """Run a host-code generator to completion, returning its value.

        ``max_events`` arms the simulation watchdog (see
        :meth:`~repro.sim.engine.Environment.run`).
        """
        proc = self.env.process(host_code, name=name)
        return self.env.run(until=proc, max_events=max_events)
