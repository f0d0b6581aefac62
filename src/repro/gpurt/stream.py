"""Device command streams.

A :class:`Stream` is an in-order command queue drained by a command
processor (a simulation process).  Kernel commands execute on the
device; copy commands occupy one of the device's DMA engines for the
plan's duration.  Each command carries a completion event the host can
wait on (``stream_synchronize`` / ``device_synchronize``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator

from ..errors import GpuRuntimeError, InvalidStreamError
from ..sim.engine import Environment, Event
from ..sim.resources import Resource
from .kernel import KernelSpec
from .memcpy import CopyPlan

if TYPE_CHECKING:  # pragma: no cover
    from .api import Device


@dataclass(slots=True)
class Command:
    """Base class for queued device work."""

    completion: Event
    #: simulated time the host enqueued the command (queue-wait metric)
    enqueued_at: float = field(default=0.0, compare=False)

    def execute(self, device: "Device") -> Generator:  # pragma: no cover
        raise NotImplementedError

    def _queue_wait(self, device: "Device") -> float:
        """Observe and return time spent queued behind earlier commands."""
        wait = device.env.now - self.enqueued_at
        device.runtime._m_queue_wait.observe(wait * 1e6)
        return wait


@dataclass(slots=True)
class KernelCommand(Command):
    kernel: KernelSpec = field(default=None)  # type: ignore[assignment]

    def execute(self, device: "Device") -> Generator:
        rt = device.runtime
        if rt._obs_enabled:
            self._queue_wait(device)
            if device.env.now > self.enqueued_at:
                rt._tracer.complete(
                    f"queue:{self.kernel.name}", "gpurt",
                    self.enqueued_at, device.env.now, device=device.index,
                )
        t_exec = device.env.now
        duration = self.kernel.duration_on(device)
        injector = rt.injector
        if injector is not None:
            # downclock / thermal-throttle fault: the kernel runs slower
            duration *= injector.kernel_duration_factor(device.index)
        yield device.env.timeout(duration)
        device.trace.record(
            device.env.now, "kernel", f"{self.kernel.name}.end", device=device.index
        )
        rt._m_completed.inc()
        if rt._obs_enabled:
            rt._tracer.complete(
                f"exec:{self.kernel.name}", "gpurt", t_exec, device.env.now,
                device=device.index,
            )


@dataclass(slots=True)
class CopyCommand(Command):
    plan: CopyPlan = field(default=None)  # type: ignore[assignment]
    nbytes: int = 0

    def execute(self, device: "Device") -> Generator:
        req = device.dma_engines.request()
        yield req
        rt = device.runtime
        t_dma = device.env.now
        try:
            duration = self.plan.duration(self.nbytes)
            injector = rt.injector
            if injector is not None:
                # ECC-retry fault: the transfer stalls mid-flight
                duration += injector.memcpy_stall(device.index)
            yield device.env.timeout(duration)
        finally:
            device.dma_engines.release(req)
        device.trace.record(
            device.env.now,
            "dma",
            f"{self.plan.kind.value}.end",
            device=device.index,
            nbytes=self.nbytes,
            route=self.plan.route,
        )
        if rt._obs_enabled:
            rt._tracer.complete(
                f"dma:{self.plan.kind.value}", "gpurt", t_dma, device.env.now,
                device=device.index, nbytes=self.nbytes,
            )


class Stream:
    """One in-order command queue on a device.

    Commands wait in a deque.  The first enqueue starts the stream's
    one processor, which runs each command inline (``yield from``) in
    order and parks on a plain event while the queue is empty; an
    enqueue onto a parked processor wakes it.  So a stream that never
    gets a command costs no simulation process, and a command costs no
    queue events and no process of its own.
    """

    __slots__ = ("device", "env", "name", "_queue", "_inflight",
                 "_idle_event", "_destroyed", "_processor", "_wake")

    def __init__(self, device: "Device", index: int) -> None:
        self.device = device
        self.env: Environment = device.env
        #: per device, so a blocked-process roster reads the same
        #: whatever the process built before
        self.name = f"gpu{device.index}-stream{index}"
        self._queue: deque[Command] = deque()
        #: enqueued commands not yet completed (queued or executing)
        self._inflight = 0
        self._idle_event: Event | None = None
        self._destroyed = False
        self._processor = None
        #: what the parked processor waits on; None while it runs
        self._wake: Event | None = None

    # -- host-facing -----------------------------------------------------
    @property
    def busy(self) -> bool:
        return self._inflight > 0

    def enqueue(self, command: Command) -> Command:
        if self._destroyed:
            raise InvalidStreamError(f"stream {self.name} was destroyed")
        command.enqueued_at = self.env.now
        self._inflight += 1
        self._queue.append(command)
        if self._processor is None:
            self._processor = self.env.process(self._drain(), name=self.name)
        elif self._wake is not None:
            wake, self._wake = self._wake, None
            wake.succeed()
        return command

    def idle(self) -> Event:
        """An event that triggers when the queue has fully drained.

        Triggers immediately if the stream is already idle.
        """
        ev = self.env.event()
        if not self.busy:
            ev.succeed()
            return ev
        if self._idle_event is not None and self._idle_event.callbacks is not None:
            # piggyback on the existing waiter
            existing = self._idle_event
            existing.callbacks.append(lambda _e: ev.succeed())
            return ev
        self._idle_event = ev
        return ev

    def destroy(self) -> None:
        if self.busy:
            raise GpuRuntimeError(
                f"destroying stream {self.name} with work in flight"
            )
        self._destroyed = True

    # -- device-side -------------------------------------------------------
    def _drain(self) -> Generator:
        queue = self._queue
        device = self.device
        while True:
            if not queue:
                self._wake = self.env.event()
                yield self._wake
            command = queue.popleft()
            try:
                yield from command.execute(device)
            except Exception as exc:  # surface device faults to waiters
                command.completion.fail(GpuRuntimeError(str(exc)))
            else:
                command.completion.succeed(self.env.now)
            # a failed command ends like a finished one: the stream can
            # still go idle, so a synchronising host never deadlocks
            self._inflight -= 1
            if self._inflight == 0 and self._idle_event is not None:
                ev, self._idle_event = self._idle_event, None
                if ev.callbacks is not None:
                    ev.succeed()
