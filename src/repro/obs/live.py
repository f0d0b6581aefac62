"""Live run telemetry: the aggregator behind ``/progress`` and ``--progress``.

:class:`LiveAggregator` is the one mutable, lock-protected picture of a
run in flight: planned/done/degraded cell counts, per-cell states,
supervisor recovery tallies, cache traffic and an ETA derived from the
wall-time history of completed cells.  The scheduler, supervisor and
cell cache all report into it through :class:`RunTelemetry`, which fans
each notification out three ways:

* the **aggregator** (this module) — snapshotted by the status server's
  ``/progress`` endpoint and the OpenMetrics renderer;
* the **event log** (:mod:`repro.obs.events`) — one JSONL line per
  transition when ``--events-out`` is armed;
* the **progress line** (:class:`ProgressReporter`) — a throttled
  ``cells 17/52, 2 degraded, ETA 41s`` stderr ticker under
  ``--progress``.

Activation mirrors :mod:`repro.obs.runtime`: one module-level current
telemetry, defaulting to a shared disabled :data:`NULL_TELEMETRY` whose
notifier methods are no-ops — so with no telemetry flag armed, every
instrumented call site costs one attribute read and one empty call, and
the run's stdout/artifacts stay byte-identical (the same discipline the
null observability context enforces).

Thread safety: notifications come from the run's main thread (the
scheduler and supervisor run in the parent process); snapshots are read
from the status-server thread.  The aggregator lock covers both, so a
snapshot is always internally consistent.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from .events import EventLog

#: cell lifecycle states, in the order they can be reached
CELL_STATES = ("pending", "running", "done", "degraded")


class LiveAggregator:
    """Lock-protected snapshot of one run's execution state."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started = time.time()
        self.finished: Optional[float] = None
        self.targets: tuple[str, ...] = ()
        self.jobs = 1
        self.seed: Optional[int] = None
        #: cell label -> {"state": ..., "wall_seconds": ..., "source": ...}
        self._cells: dict[str, dict] = {}
        #: wall-time history of computed cells, feeding the ETA
        self._wall_history: list[float] = []
        self.retries = 0
        self.worker_crashes = 0
        self.pool_rebuilds = 0
        self.cache_hits = 0
        #: optional zero-argument callable returning the live
        #: :class:`~repro.obs.profiler.SimProfiler` (or ``None``), so the
        #: snapshot can report engine events/sec without owning the
        #: profiler's lifecycle
        self.profiler_supplier = None

    # -- notifications (called by RunTelemetry, main thread) ---------------
    def run_started(self, targets, jobs: int, seed: Optional[int]) -> None:
        with self._lock:
            self.targets = tuple(targets)
            self.jobs = max(1, int(jobs))
            self.seed = seed
            self.started = time.time()

    def cells_planned(self, labels) -> None:
        with self._lock:
            for label in labels:
                self._cells.setdefault(label, {"state": "pending"})

    def cell_started(self, label: str) -> None:
        with self._lock:
            cell = self._cells.setdefault(label, {})
            cell["state"] = "running"

    def cell_finished(
        self,
        label: str,
        degraded: bool,
        wall_seconds: float = 0.0,
        source: str = "computed",
    ) -> None:
        with self._lock:
            cell = self._cells.setdefault(label, {})
            cell["state"] = "degraded" if degraded else "done"
            cell["wall_seconds"] = wall_seconds
            cell["source"] = source
            if source == "computed" and wall_seconds > 0:
                self._wall_history.append(wall_seconds)
            elif source == "cache":
                self.cache_hits += 1

    def worker_crashed(self) -> None:
        with self._lock:
            self.worker_crashes += 1

    def pool_rebuilt(self) -> None:
        with self._lock:
            self.pool_rebuilds += 1

    def cell_retried(self) -> None:
        with self._lock:
            self.retries += 1

    def run_ended(self) -> None:
        with self._lock:
            self.finished = time.time()

    # -- derived figures ---------------------------------------------------
    def _counts_locked(self) -> dict[str, int]:
        counts = {state: 0 for state in CELL_STATES}
        for cell in self._cells.values():
            counts[cell.get("state", "pending")] += 1
        return counts

    def _eta_locked(self, counts: dict[str, int]) -> Optional[float]:
        """Remaining wall estimate from the completed-cell history.

        ``mean(completed walls) * remaining / jobs`` — crude but honest:
        with no completed cell yet there is no basis, so the ETA is
        ``None`` rather than a fabricated figure.
        """
        remaining = counts["pending"] + counts["running"]
        if remaining == 0:
            return 0.0
        if not self._wall_history:
            return None
        mean = sum(self._wall_history) / len(self._wall_history)
        return mean * remaining / self.jobs

    def snapshot(self) -> dict:
        """A JSON-ready, internally consistent progress snapshot."""
        with self._lock:
            counts = self._counts_locked()
            eta = self._eta_locked(counts)
            done = counts["done"] + counts["degraded"]
            out = {
                "schema": "repro.progress/v1",
                "state": "done" if self.finished is not None else "running",
                "started": self.started,
                "updated": time.time(),
                "finished": self.finished,
                "targets": list(self.targets),
                "jobs": self.jobs,
                "seed": self.seed,
                "cells": {
                    "total": len(self._cells),
                    "done": done,
                    "completed": counts["done"],
                    "degraded": counts["degraded"],
                    "running": counts["running"],
                    "pending": counts["pending"],
                    "cache_hits": self.cache_hits,
                },
                "supervisor": {
                    "retries": self.retries,
                    "worker_crashes": self.worker_crashes,
                    "pool_rebuilds": self.pool_rebuilds,
                },
                "eta_seconds": eta,
                "per_cell": {
                    label: dict(cell)
                    for label, cell in sorted(self._cells.items())
                },
            }
        profiler = self.profiler_supplier() if self.profiler_supplier else None
        if profiler is not None:
            report = profiler.report()
            out["events_per_second"] = report.events_per_second
            out["total_events"] = report.total_events
        else:
            out["events_per_second"] = None
            out["total_events"] = None
        return out


class ProgressReporter:
    """Throttled one-line stderr progress ticker (``--progress``).

    Updates at most once per ``min_interval`` seconds and only when
    stderr is a TTY — CI logs must not fill with carriage-returned
    ticker frames.  ``--progress=force`` (or ``REPRO_FORCE_PROGRESS=1``)
    sets ``force``, which skips the TTY gate for CI systems that *do*
    want the ticker in captured logs.  The final frame (on ``finish``)
    always renders and is sealed with a newline.
    """

    def __init__(
        self,
        aggregator: LiveAggregator,
        min_interval: float = 1.0,
        stream=None,
        force: bool = False,
    ) -> None:
        self.aggregator = aggregator
        self.min_interval = min_interval
        self._stream = stream
        self.force = force
        # monotonic() counts from an arbitrary origin (boot, on Linux),
        # so only -inf guarantees the first tick is never throttled
        self._last = -math.inf
        self._wrote_any = False

    @property
    def stream(self):
        return self._stream if self._stream is not None else sys.stderr

    def _enabled(self) -> bool:
        if self.force:
            return True
        try:
            return bool(self.stream.isatty())
        except (AttributeError, ValueError):
            return False

    @staticmethod
    def render(snapshot: dict) -> str:
        cells = snapshot["cells"]
        parts = [f"cells {cells['done']}/{cells['total']}"]
        if cells["degraded"]:
            parts.append(f"{cells['degraded']} degraded")
        eta = snapshot.get("eta_seconds")
        if eta is not None:
            parts.append(f"ETA {eta:.0f}s")
        return ", ".join(parts)

    def tick(self, force: bool = False) -> None:
        if not self._enabled():
            return
        now = time.monotonic()
        if not force and now - self._last < self.min_interval:
            return
        self._last = now
        line = self.render(self.aggregator.snapshot())
        self.stream.write(f"\r\x1b[K{line}")
        self.stream.flush()
        self._wrote_any = True

    def finish(self) -> None:
        if not self._enabled():
            return
        self.tick(force=True)
        if self._wrote_any:
            self.stream.write("\n")
            self.stream.flush()


class RunTelemetry:
    """One run's telemetry session: aggregator + event log + ticker.

    Every notifier both updates the aggregator and (when armed) appends
    the matching structured event, so ``/progress`` and the JSONL log
    can never drift apart.  The supervised dispatch path calls these
    from the parent process only — workers stay telemetry-free, which
    keeps the event stream totally ordered without cross-process locks.
    """

    enabled = True

    def __init__(
        self,
        aggregator: Optional[LiveAggregator] = None,
        events: Optional[EventLog] = None,
        progress: Optional[ProgressReporter] = None,
    ) -> None:
        self.aggregator = aggregator or LiveAggregator()
        self.events = events
        self.progress = progress or None
        if self.progress is not None and self.progress.aggregator is None:
            self.progress.aggregator = self.aggregator
        #: latched by the first ``run_end`` so the CLI can call it again
        #: from its ``finally`` block without double-emitting
        self._ended = False

    # -- lifecycle ---------------------------------------------------------
    def run_start(self, targets, jobs: int, seed: Optional[int]) -> None:
        self.aggregator.run_started(targets, jobs, seed)
        if self.events is not None:
            self.events.emit(
                "run_start", targets=list(targets), jobs=jobs, seed=seed
            )

    def run_end(self, outcome: str = "ok") -> None:
        """Close the run (idempotent — the CLI calls this from a
        ``finally`` block, so an exception or Ctrl-C still seals the
        event stream, with ``outcome`` recording *how* it ended)."""
        if self._ended:
            return
        self._ended = True
        self.aggregator.run_ended()
        if self.events is not None:
            snapshot = self.aggregator.snapshot()
            self.events.emit(
                "run_end",
                outcome=outcome,
                cells=snapshot["cells"]["total"],
                completed=snapshot["cells"]["completed"],
                degraded=snapshot["cells"]["degraded"],
                wall_seconds=(
                    snapshot["finished"] - snapshot["started"]
                    if snapshot["finished"] else None
                ),
            )
        if self.progress is not None:
            self.progress.finish()

    def close(self) -> None:
        if self.events is not None:
            self.events.close()

    # -- cell lifecycle ----------------------------------------------------
    def cells_planned(self, labels) -> None:
        self.aggregator.cells_planned(labels)
        self._tick()

    def cell_start(self, cell: str, ordinal: int = 0, attempt: int = 1) -> None:
        self.aggregator.cell_started(cell)
        if self.events is not None:
            self.events.emit(
                "cell_start", cell=cell, ordinal=ordinal, attempt=attempt
            )
        self._tick()

    def cell_done(
        self,
        cell: str,
        degraded: bool,
        wall_seconds: float = 0.0,
        source: str = "computed",
    ) -> None:
        self.aggregator.cell_finished(
            cell, degraded, wall_seconds=wall_seconds, source=source
        )
        if self.events is not None:
            kind = "cell_degraded" if degraded else "cell_done"
            self.events.emit(
                kind, cell=cell, wall_seconds=wall_seconds, source=source
            )
        self._tick()

    def cache_hit(self, cell: str) -> None:
        if self.events is not None:
            self.events.emit("cache_hit", cell=cell)

    # -- supervisor recovery -----------------------------------------------
    def worker_crash(self, cell: str, detail: str = "") -> None:
        self.aggregator.worker_crashed()
        if self.events is not None:
            self.events.emit("worker_crash", cell=cell, detail=detail)
        self._tick()

    def pool_rebuild(self, count: int) -> None:
        self.aggregator.pool_rebuilt()
        if self.events is not None:
            self.events.emit("pool_rebuild", count=count)
        self._tick()

    def cell_retry(self, cell: str, attempt: int) -> None:
        self.aggregator.cell_retried()
        self._tick()

    def _tick(self) -> None:
        if self.progress is not None:
            self.progress.tick()


class NullRunTelemetry:
    """The disabled telemetry session: every notifier is a no-op."""

    enabled = False
    aggregator = None
    events = None
    progress = None

    def run_start(self, targets, jobs, seed) -> None:
        pass

    def run_end(self, outcome: str = "ok") -> None:
        pass

    def close(self) -> None:
        pass

    def cells_planned(self, labels) -> None:
        pass

    def cell_start(self, cell, ordinal=0, attempt=1) -> None:
        pass

    def cell_done(self, cell, degraded, wall_seconds=0.0,
                  source="computed") -> None:
        pass

    def cache_hit(self, cell) -> None:
        pass

    def worker_crash(self, cell, detail="") -> None:
        pass

    def pool_rebuild(self, count) -> None:
        pass

    def cell_retry(self, cell, attempt) -> None:
        pass


#: the disabled session every un-flagged run lives in
NULL_TELEMETRY = NullRunTelemetry()

_current: RunTelemetry | NullRunTelemetry = NULL_TELEMETRY


def current() -> RunTelemetry | NullRunTelemetry:
    """The active run-telemetry session (the null session by default)."""
    return _current


def activate(
    session: RunTelemetry | NullRunTelemetry,
) -> RunTelemetry | NullRunTelemetry:
    """Install ``session`` process-wide; returns the previous one.
    Prefer the :func:`telemetry` context manager."""
    global _current
    previous = _current
    _current = session
    return previous


@contextmanager
def telemetry(
    session: RunTelemetry | NullRunTelemetry,
) -> Iterator[RunTelemetry | NullRunTelemetry]:
    """Activate ``session`` for the duration of a ``with`` block."""
    previous = activate(session)
    try:
        yield session
    finally:
        activate(previous)


__all__ = [
    "CELL_STATES",
    "LiveAggregator",
    "ProgressReporter",
    "RunTelemetry",
    "NullRunTelemetry",
    "NULL_TELEMETRY",
    "current",
    "activate",
    "telemetry",
]
