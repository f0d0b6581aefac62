"""The sim profiler: where do events — and host time — actually go?

:class:`SimProfiler` hooks the discrete-event engine's ``step()`` (via
``repro.sim.engine.set_profiler``) and attributes every processed event
to a *subsystem*: the `repro` package whose coroutine code the event
resumed (``mpisim``, ``netsim``, ``gpurt``, ``memsys``, ``faults``,
``benchmarks`` …), or ``sim`` for engine-internal bookkeeping events
with no process callback.  Per subsystem it accumulates events
processed, callbacks invoked and host wall-time spent, and the report
gives overall and per-subsystem events/sec — the first question to ask
when a study cell is slow — and the share of the profiled wall time
the event loop accounts for.

Attribution is by code object: a resumed process exposes its generator,
and the generator's code filename names the package.  The classifier
caches per filename, so the steady-state cost of profiling is two
``perf_counter`` calls and a dict hit per event.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

#: packages we attribute to by path component; anything else under
#: ``repro/`` keeps its own package name, non-repro code becomes "other"
_KNOWN = ("mpisim", "netsim", "gpurt", "memsys", "faults", "benchmarks",
          "sim", "core", "hardware", "openmp", "analysis")


@dataclass
class SubsystemStats:
    """Accumulated attribution for one subsystem."""

    events: int = 0
    callbacks: int = 0
    host_seconds: float = 0.0


@dataclass
class ProfileReport:
    """Snapshot of one profiling session."""

    subsystems: dict[str, SubsystemStats] = field(default_factory=dict)
    total_events: int = 0
    total_callbacks: int = 0
    total_host_seconds: float = 0.0
    wall_seconds: float = 0.0
    #: host time includes states measured in other processes (``--jobs``
    #: workers, cell-cache entries), so it is not a share of the wall time
    summed_over_workers: bool = False

    @property
    def events_per_second(self) -> float:
        if self.total_host_seconds <= 0.0:
            return 0.0
        return self.total_events / self.total_host_seconds


class SimProfiler:
    """Accounts engine events per subsystem; install via
    :func:`repro.sim.engine.set_profiler`."""

    def __init__(self) -> None:
        self.subsystems: dict[str, SubsystemStats] = {}
        self._by_file: dict[str, str] = {}
        self.total_events = 0
        self.total_callbacks = 0
        self.total_host_seconds = 0.0
        self.summed_over_workers = False
        self.wall_start = time.perf_counter()

    # -- classification ----------------------------------------------------
    def _classify_filename(self, filename: str) -> str:
        subsystem = self._by_file.get(filename)
        if subsystem is None:
            parts = filename.replace("\\", "/").split("/")
            subsystem = "other"
            if "repro" in parts:
                tail = parts[parts.index("repro") + 1:]
                if len(tail) > 1:
                    subsystem = tail[0]
                elif tail:
                    subsystem = "sim" if tail[0].endswith(".py") else tail[0]
            for known in _KNOWN:
                if subsystem == known:
                    break
            self._by_file[filename] = subsystem
        return subsystem

    def _classify(self, callbacks) -> str:
        for callback in callbacks:
            owner = getattr(callback, "__self__", None)
            generator = getattr(owner, "_generator", None)
            if generator is None:
                continue
            # walk the ``yield from`` chain: a rank coroutine suspended
            # inside mpisim's send() should attribute to mpisim, not to
            # the benchmark file that defined the outer generator
            while True:
                sub = getattr(generator, "gi_yieldfrom", None)
                if sub is None or not hasattr(sub, "gi_code"):
                    break
                generator = sub
            code = getattr(generator, "gi_code", None)
            if code is not None:
                return self._classify_filename(code.co_filename)
        return "sim"

    # -- the engine hook ---------------------------------------------------
    def account(self, event, callbacks, host_dt: float) -> None:
        """Called by ``Environment.step`` once per processed event."""
        subsystem = self._classify(callbacks)
        stats = self.subsystems.get(subsystem)
        if stats is None:
            stats = self.subsystems[subsystem] = SubsystemStats()
        stats.events += 1
        stats.callbacks += len(callbacks)
        stats.host_seconds += host_dt
        self.total_events += 1
        self.total_callbacks += len(callbacks)
        self.total_host_seconds += host_dt

    # -- process-boundary merge (the parallel study path) ------------------
    def dump_state(self) -> dict:
        """A picklable image of the accumulated attribution."""
        return {
            "subsystems": {
                name: (stats.events, stats.callbacks, stats.host_seconds)
                for name, stats in self.subsystems.items()
            },
            "total_events": self.total_events,
            "total_callbacks": self.total_callbacks,
            "total_host_seconds": self.total_host_seconds,
            "pid": os.getpid(),
        }

    def merge_state(self, state: dict) -> None:
        """Fold a worker profiler's :meth:`dump_state` into this one.

        Event and callback counts add exactly; host seconds add as
        floats (they are advisory, host-dependent figures that no gate
        reads).
        """
        for name, (events, callbacks, host_seconds) in state["subsystems"].items():
            stats = self.subsystems.get(name)
            if stats is None:
                stats = self.subsystems[name] = SubsystemStats()
            stats.events += events
            stats.callbacks += callbacks
            stats.host_seconds += host_seconds
        self.total_events += state["total_events"]
        self.total_callbacks += state["total_callbacks"]
        self.total_host_seconds += state["total_host_seconds"]
        if state.get("pid") != os.getpid():
            self.summed_over_workers = True

    # -- reporting ---------------------------------------------------------
    def report(self) -> ProfileReport:
        return ProfileReport(
            subsystems={k: self.subsystems[k] for k in sorted(self.subsystems)},
            total_events=self.total_events,
            total_callbacks=self.total_callbacks,
            total_host_seconds=self.total_host_seconds,
            wall_seconds=time.perf_counter() - self.wall_start,
            summed_over_workers=self.summed_over_workers,
        )

    def render(self) -> str:
        """Human summary: one line per subsystem plus totals."""
        report = self.report()
        lines = [
            "sim profile (events attributed by resumed coroutine):",
            f"  {'subsystem':12s} {'events':>10s} {'callbacks':>10s} "
            f"{'host ms':>10s} {'share':>7s}",
        ]
        total_s = report.total_host_seconds or 1.0
        for name, stats in sorted(
            report.subsystems.items(),
            key=lambda kv: kv[1].host_seconds, reverse=True,
        ):
            lines.append(
                f"  {name:12s} {stats.events:10d} {stats.callbacks:10d} "
                f"{stats.host_seconds * 1e3:10.2f} "
                f"{stats.host_seconds / total_s:6.1%}"
            )
        if report.summed_over_workers:
            coverage = "summed over workers,"
        else:
            share = report.total_host_seconds / (report.wall_seconds or 1.0)
            coverage = f"{share:.1%} of"
        lines.append(
            f"  total: {report.total_events} events, "
            f"{report.total_callbacks} callbacks, "
            f"{report.total_host_seconds * 1e3:.2f} ms in step() "
            f"({report.events_per_second:,.0f} events/sec; {coverage} "
            f"{report.wall_seconds * 1e3:.2f} ms profiled wall)"
        )
        return "\n".join(lines)
