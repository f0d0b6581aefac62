"""Core discrete-event simulation engine.

The engine follows the classic event-queue design: an
:class:`Environment` owns a heap of ``(time, priority, sequence, event)``
entries; triggering an event schedules it, and popping it runs its
callbacks.  :class:`Process` wraps a generator coroutine — each ``yield``
hands back an :class:`Event` the process waits on.

The implementation is deliberately small but complete enough to express
everything the hardware models need: timeouts, processes as events
(join semantics), interrupts, and ``AllOf``/``AnyOf`` composition.

Every event class declares ``__slots__`` (DESIGN.md 5f): the paper's
protocol multiplies out to millions of heap pushes and pops per study,
and a per-instance dict on each of them was measurable.
"""

from __future__ import annotations

import heapq
import time
from contextlib import contextmanager
from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import DeadlockError, SimulationError, WatchdogTimeout

#: Priority used for ordinary events.
NORMAL = 1
#: Priority used for urgent events (process bookkeeping runs before user events).
URGENT = 0

#: process-wide profiler hook (see repro.obs.profiler.SimProfiler);
#: None keeps step() on the exact unprofiled path
_PROFILER = None


def set_profiler(profiler) -> object:
    """Install (or, with ``None``, remove) the engine profiler hook.

    Returns the previously installed hook so callers can restore it.
    The hook must expose ``account(event, callbacks, host_dt)``; it is
    invoked once per processed event on *every* environment in the
    process, which is exactly what study-level profiling wants (each
    benchmark execution builds private environments).
    """
    global _PROFILER
    if profiler is not None and not callable(
        getattr(profiler, "account", None)
    ):
        # fail here, once, rather than inside step() on every event
        raise SimulationError(
            f"profiler hook {profiler!r} has no account() method"
        )
    previous = _PROFILER
    _PROFILER = profiler
    return previous


@contextmanager
def profiled(profiler) -> "Generator[object, None, None]":
    """Scoped :func:`set_profiler`: install for a block, always restore.

    Exception-safe, so a simulation that dies mid-run cannot leak its
    hook into the next benchmark's measurements.
    """
    previous = set_profiler(profiler)
    try:
        yield profiler
    finally:
        set_profiler(previous)


class Event:
    """A condition that may be triggered at some simulated time.

    Events carry a ``value`` (delivered to waiting processes), an ``ok``
    flag (failed events propagate exceptions into waiters) and a list of
    callbacks invoked when processed.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_scheduled")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._defused = False
        self._scheduled = False

    # -- state -----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled."""
        return self.callbacks is None or self._scheduled

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._scheduled or self.callbacks is None:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self._ok = True
        self.env._schedule(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every waiting process.  If nothing
        ever waits, the environment raises it at the end of the run unless
        :meth:`defused` is called.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._scheduled or self.callbacks is None:
            raise SimulationError(f"{self!r} already triggered")
        self._value = exception
        self._ok = False
        self.env._schedule(self, NORMAL)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it is not re-raised at run end."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds in the future."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._value = value
        env._schedule(self, NORMAL, delay)


class Initialize(Event):
    """Internal event that starts a process at the current time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self.callbacks.append(process._resume)
        env._schedule(self, URGENT)


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Process(Event):
    """A running generator coroutine.

    A process is itself an event: it triggers (with the generator's return
    value) when the coroutine finishes, so processes can ``yield`` other
    processes to join them.
    """

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, env: "Environment", generator: Generator, name: str = "") -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"not a generator coroutine: {generator!r}")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        env._processes[self] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return self.callbacks is not None

    def waiting_on(self) -> str:
        """Human-readable description of what this process is blocked on."""
        target = self._target
        if target is None:
            return "nothing (starting or being resumed)"
        if isinstance(target, Timeout):
            return f"Timeout(+{target.delay:g}s)"
        if isinstance(target, Process):
            return f"Process({target.name})"
        return type(target).__name__

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError(f"{self.name} already terminated")
        event = Event(self.env)
        event._value = Interrupt(cause)
        event._ok = False
        event._defused = True
        # Detach from whatever the process was waiting on.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        event.callbacks.append(self._resume)
        self.env._schedule(event, URGENT)

    # -- scheduling glue ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        env = self.env
        generator = self._generator
        env._active_process = self
        while True:
            try:
                if event._ok:
                    target = generator.send(event._value)
                else:
                    # Failed event: raise inside the coroutine.
                    event._defused = True
                    exc = event._value
                    target = generator.throw(exc)
            except StopIteration as stop:
                env._active_process = None
                env._processes.pop(self, None)
                self._target = None
                self._value = stop.value
                self._ok = True
                env._schedule(self, NORMAL)
                return
            except Interrupt as exc:
                # Interrupt escaped the coroutine: terminate it with failure.
                env._active_process = None
                env._processes.pop(self, None)
                self._target = None
                self._value = exc
                self._ok = False
                env._schedule(self, NORMAL)
                return
            except BaseException as exc:
                env._active_process = None
                env._processes.pop(self, None)
                self._target = None
                self._value = exc
                self._ok = False
                env._schedule(self, NORMAL)
                return

            if not isinstance(target, Event):
                env._active_process = None
                env._processes.pop(self, None)
                exc = SimulationError(
                    f"process {self.name!r} yielded a non-event: {target!r}"
                )
                try:
                    generator.throw(exc)
                except StopIteration:
                    pass
                except SimulationError:
                    pass
                self._value = exc
                self._ok = False
                env._schedule(self, NORMAL)
                return

            if target.callbacks is not None:
                # Not yet processed -- wait for it.
                target.callbacks.append(self._resume)
                self._target = target
                env._active_process = None
                return
            # Already processed: loop and resume immediately with its value.
            event = target


class Condition(Event):
    """Base for AllOf / AnyOf composition over multiple events."""

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("events from different environments")
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)
        if not self._events and not self.triggered:
            self.succeed({})

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._satisfied():
            self.succeed(
                {ev: ev._value for ev in self._events if ev.callbacks is None or ev.triggered}
            )


class AllOf(Condition):
    """Triggers when every component event has triggered."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= len(self._events)


class AnyOf(Condition):
    """Triggers when at least one component event has triggered."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1


class Environment:
    """The simulation kernel: a clock and an event heap."""

    __slots__ = ("now", "_queue", "_seq", "_active_process", "_processes")

    def __init__(self, initial_time: float = 0.0) -> None:
        #: current simulated time in seconds.  A plain slot, not a
        #: property: model code reads the clock several times per event
        #: callback, and descriptor dispatch was measurable there.
        #: Treat as read-only outside the engine.
        self.now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: insertion-ordered registry of processes whose coroutine has
        #: not finished; used by deadlock/watchdog diagnostics
        self._processes: dict[Process, None] = {}

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -----------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        event._scheduled = True
        self._seq += 1
        heapq.heappush(
            self._queue, (self.now + delay, priority, self._seq, event)
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        queue = self._queue
        return queue[0][0] if queue else float("inf")

    # -- diagnostics --------------------------------------------------------
    def blocked_processes(self) -> list[Process]:
        """Live processes whose coroutine has not finished."""
        return list(self._processes)

    def blocked_report(self) -> tuple[str, ...]:
        """One ``"name: waiting on X"`` line per still-blocked process."""
        return tuple(
            f"{p.name}: waiting on {p.waiting_on()}"
            for p in self._processes
        )

    def _deadlock(self, summary: str) -> DeadlockError:
        report = self.blocked_report()
        detail = (
            "; blocked processes: " + ", ".join(report)
            if report else "; no processes blocked"
        )
        return DeadlockError(f"{summary} (t={self.now:g}){detail}")

    def step(self) -> None:
        """Process exactly one event (the global minimum of the pending
        set, in ``(time, priority, sequence)`` order)."""
        queue = self._queue
        if not queue:
            raise self._deadlock("event queue empty")
        when, _, _, event = heapq.heappop(queue)
        if when < self.now:
            raise SimulationError("time went backwards")
        self.now = when
        profiler = _PROFILER
        callbacks, event.callbacks = event.callbacks, None
        if profiler is None:
            for callback in callbacks:
                callback(event)
        else:
            t0 = time.perf_counter()
            for callback in callbacks:
                callback(event)
            profiler.account(event, callbacks, time.perf_counter() - t0)
        if not event._ok and not event._defused:
            exc = event._value
            raise exc if isinstance(exc, BaseException) else SimulationError(repr(exc))

    def run(
        self,
        until: "Event | float | None" = None,
        max_events: Optional[int] = None,
        max_wall_seconds: Optional[float] = None,
    ) -> Any:
        """Run until an event triggers, a time is reached, or the queue drains.

        * ``until`` is an :class:`Event`: run until it is processed and
          return its value (re-raising on failure).
        * ``until`` is a number: run until the clock reaches it.
        * ``until`` is None: run until no events remain.

        ``max_events`` / ``max_wall_seconds`` arm a watchdog: when the
        run exceeds either budget, :class:`WatchdogTimeout` is raised
        with the roster of still-blocked processes — a runaway or
        livelocked simulation becomes a diagnosable error instead of a
        hang.
        """
        if max_events is not None and max_events < 1:
            raise SimulationError(f"max_events must be >= 1: {max_events}")
        deadline = (
            time.monotonic() + max_wall_seconds
            if max_wall_seconds is not None else None
        )
        # the guard runs per event; hoist the budget to one comparison
        budget = max_events if max_events is not None else float("inf")
        monotonic = time.monotonic
        step = self.step
        queue = self._queue
        processed = 0

        if until is None:
            while queue:
                processed += 1
                if processed > budget:
                    raise self._watchdog(
                        f"event budget of {max_events} exceeded", processed - 1
                    )
                if (deadline is not None and processed % 512 == 0
                        and monotonic() > deadline):
                    raise self._watchdog(
                        f"wall-clock budget of {max_wall_seconds}s exceeded",
                        processed - 1,
                    )
                step()
            return None
        if isinstance(until, Event):
            sentinel: list[Any] = []

            def _done(ev: Event) -> None:
                sentinel.append(ev)

            if until.callbacks is None:
                sentinel.append(until)
            else:
                until.callbacks.append(_done)
            while not sentinel:
                if not queue:
                    raise self._deadlock(
                        "event queue drained before the awaited event triggered"
                    )
                processed += 1
                if processed > budget:
                    raise self._watchdog(
                        f"event budget of {max_events} exceeded", processed - 1
                    )
                if (deadline is not None and processed % 512 == 0
                        and monotonic() > deadline):
                    raise self._watchdog(
                        f"wall-clock budget of {max_wall_seconds}s exceeded",
                        processed - 1,
                    )
                step()
            if not until._ok:
                exc = until._value
                until._defused = True
                raise exc if isinstance(exc, BaseException) else SimulationError(repr(exc))
            return until._value
        # numeric horizon
        horizon = float(until)
        if horizon < self.now:
            raise SimulationError(f"horizon {horizon} is in the past (now={self.now})")
        while queue and queue[0][0] <= horizon:
            processed += 1
            if processed > budget:
                raise self._watchdog(
                    f"event budget of {max_events} exceeded", processed - 1
                )
            if (deadline is not None and processed % 512 == 0
                    and monotonic() > deadline):
                raise self._watchdog(
                    f"wall-clock budget of {max_wall_seconds}s exceeded",
                    processed - 1,
                )
            step()
        self.now = horizon
        return None

    def _watchdog(self, summary: str, processed: int) -> WatchdogTimeout:
        blocked = self.blocked_report()
        roster = "; ".join(blocked) if blocked else "no processes blocked"
        return WatchdogTimeout(
            f"simulation watchdog: {summary} after {processed} events "
            f"(t={self.now:g}); blocked processes: {roster}",
            events_processed=processed,
            sim_time=self.now,
            blocked=blocked,
        )
