"""Run telemetry: one notifier over the ``--events-out`` event log.

The scheduler and cell cache report every cell transition into the
current :class:`RunTelemetry`, which appends the matching
structured event (:mod:`repro.obs.events`).  Besides the log the
session keeps only what the run's closing records need: the targets and
start time the artifact manifest reads, and a label → state map from
which ``run_end`` tallies the planned, completed and degraded cells.

Activation mirrors :mod:`repro.obs.runtime`: one module-level current
telemetry, defaulting to a shared disabled :data:`NULL_TELEMETRY` whose
notifier methods are no-ops — so without ``--events-out`` every
instrumented call site costs one attribute read and one empty call, and
the run's stdout/artifacts stay byte-identical (the same discipline the
null observability context enforces).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Optional

from .events import EventLog


class RunTelemetry:
    """One run's telemetry session: a notifier over one event log.

    The scheduler calls these from the parent process only — workers
    stay telemetry-free, which keeps the event stream totally ordered
    without cross-process locks, and the state map without a lock of
    its own.
    """

    enabled = True

    def __init__(self, events: EventLog) -> None:
        self.events = events
        #: the run's targets and start time, read by the artifact manifest
        self.targets: tuple[str, ...] = ()
        self.started = time.time()
        #: cell label -> "pending", "running", "done" or "degraded"
        self._cells: dict[str, str] = {}
        #: latched by the first ``run_end`` so the CLI can call it again
        #: from its ``finally`` block without double-emitting
        self._ended = False

    # -- lifecycle ---------------------------------------------------------
    def run_start(self, targets, jobs: int, seed: Optional[int]) -> None:
        self.targets = tuple(targets)
        self.started = time.time()
        self.events.emit(
            "run_start", targets=list(targets), jobs=jobs, seed=seed
        )

    def run_end(self, outcome: str = "ok") -> None:
        """Close the run (idempotent — the CLI calls this from a
        ``finally`` block, so an exception or Ctrl-C still seals the
        event stream, with ``outcome`` recording *how* it ended).

        ``cells`` counts every cell planned or started, including those
        an interrupted run never finished."""
        if self._ended:
            return
        self._ended = True
        states = list(self._cells.values())
        self.events.emit(
            "run_end",
            outcome=outcome,
            cells=len(states),
            completed=states.count("done"),
            degraded=states.count("degraded"),
            wall_seconds=time.time() - self.started,
        )

    def close(self) -> None:
        self.events.close()

    # -- cell lifecycle ----------------------------------------------------
    def cells_planned(self, labels) -> None:
        for label in labels:
            self._cells.setdefault(label, "pending")

    def cell_start(self, cell: str, ordinal: int = 0) -> None:
        # ``attempt`` stays in the event for the repro.events/v1 layout;
        # a cell is computed once per run
        self._cells[cell] = "running"
        self.events.emit("cell_start", cell=cell, ordinal=ordinal, attempt=1)

    def cell_done(
        self,
        cell: str,
        degraded: bool,
        wall_seconds: float = 0.0,
        source: str = "computed",
    ) -> None:
        self._cells[cell] = "degraded" if degraded else "done"
        kind = "cell_degraded" if degraded else "cell_done"
        self.events.emit(
            kind, cell=cell, wall_seconds=wall_seconds, source=source
        )

    def cache_hit(self, cell: str) -> None:
        self.events.emit("cache_hit", cell=cell)


class NullRunTelemetry:
    """The disabled telemetry session: every notifier is a no-op."""

    enabled = False
    events = None

    def run_start(self, targets, jobs, seed) -> None:
        pass

    def run_end(self, outcome: str = "ok") -> None:
        pass

    def close(self) -> None:
        pass

    def cells_planned(self, labels) -> None:
        pass

    def cell_start(self, cell, ordinal=0) -> None:
        pass

    def cell_done(self, cell, degraded, wall_seconds=0.0,
                  source="computed") -> None:
        pass

    def cache_hit(self, cell) -> None:
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
    "RunTelemetry",
    "NullRunTelemetry",
    "NULL_TELEMETRY",
    "current",
    "activate",
    "telemetry",
]
