"""Supervised worker pools: crash containment, deadlines, recovery.

``concurrent.futures.ProcessPoolExecutor`` has brutal failure
semantics: one SIGKILLed worker breaks the *whole* pool and fails every
in-flight future with :class:`BrokenProcessPool`, with no indication of
which cell the dead worker was executing.  Before this module, one
crashed worker therefore aborted the entire study and discarded every
completed cell.  :class:`CellSupervisor` turns that into a recoverable
event:

* **attribution** — each dispatch first touches a start marker
  (``<ordinal>.<attempt>``, containing the worker pid) in a spool
  directory, *before* any work (or injected chaos) runs.  When the pool
  breaks, cells that were started-but-unfinished are the suspects; the
  rest were innocent bystanders whose futures died with the pool.
* **recovery** — bystanders are re-queued into a rebuilt shared pool
  with no attempt charged.  Each suspect re-runs in an *isolated*
  single-worker pool with exponential backoff, so a genuinely poisonous
  cell can only kill itself: its retries are charged individually and
  its crashes cannot take sibling cells down again.
* **deadlines** — with ``cell_timeout`` armed the parent polls the
  start markers and SIGKILLs (by pid) any worker whose cell has been
  running past the deadline; the kill surfaces as an ordinary pool
  break and flows through the same attribution/retry path.
* **degradation** — a cell that exhausts ``max_cell_retries`` extra
  attempts becomes a :class:`~repro.core.resilience.Degraded` outcome
  with a ``worker failure`` footnote, flowing through the exact
  ``—†`` rendering path injected node failures use; the study survives.

Exceptions a worker *raises* (as opposed to the worker dying) transfer
cleanly through the pool and are not crashes: they propagate, because a
:class:`~repro.errors.CellExecutionError` is a bug to fix, not an event
to retry.

Determinism: supervision never changes *what* a cell computes — results
derive from ``(seed, cell)`` in whichever process finally runs them —
so a crashed-and-recovered run is byte-identical to a clean one.  Only
the advisory ``supervisor.*`` counters (retries, deadline kills, pool
rebuilds) record that recovery happened (DESIGN.md 5g).
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from ..obs import live, runtime as obs
from .resilience import Degraded

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .parallel import CellTask
    from .config import StudyConfig

#: parent poll interval while a deadline is armed (seconds)
_TICK = 0.05

#: dispatch completion callback: (ordinal, task, outcome, cacheable)
OnComplete = Callable[[int, "CellTask", object, bool], None]


def _supervised_execute(
    config: "StudyConfig",
    task: "CellTask",
    obs_enabled: bool,
    profile: bool,
    ordinal: int,
    attempt: int,
    spool: str,
):
    """Worker entry: leave a start marker, then run the cell.

    The marker is written *before* any work or injected chaos, so a
    worker that dies mid-cell is always attributable — and it carries
    the worker pid, so a stalled cell can be killed surgically.
    """
    from .parallel import execute_cell

    try:
        with open(os.path.join(spool, f"{ordinal}.{attempt}"), "w") as fh:
            fh.write(str(os.getpid()))
    except OSError:
        pass  # attribution degrades to "bystander"; execution is unaffected
    return execute_cell(
        config, task, obs_enabled, profile, ordinal=ordinal, attempt=attempt
    )


@dataclass
class SupervisorStats:
    """Advisory recovery tallies for one supervised group pass."""

    dispatched: int = 0
    retried: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    degraded: int = 0

    def as_dict(self) -> dict:
        return {
            "dispatched": self.dispatched,
            "retried": self.retried,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "degraded": self.degraded,
        }


class CellSupervisor:
    """Dispatches cell tasks with deadlines, crash recovery and retries.

    ``run`` drives a list of ``(ordinal, task)`` items to completion:
    every item either completes (``on_complete(..., cacheable=True)``)
    or degrades (``cacheable=False`` — a host event must never poison
    the persistent cell cache).  Ordinals are the 1-based roster
    positions from :func:`~repro.core.parallel.plan_tasks`, which is
    what the deterministic chaos specs key on.
    """

    def __init__(
        self,
        config: "StudyConfig",
        workers: int,
        *,
        cell_timeout: Optional[float] = None,
        max_cell_retries: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        max_pool_rebuilds: int = 8,
    ) -> None:
        self.config = config
        self.workers = max(1, workers)
        self.cell_timeout = cell_timeout
        self.max_cell_retries = max_cell_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        #: shared+isolated rebuild budget; on breach every cell still in
        #: flight degrades, so a pathologically unstable host cannot
        #: spin the supervisor forever
        self.max_pool_rebuilds = max_pool_rebuilds
        self.stats = SupervisorStats()

    # -- public ------------------------------------------------------------
    def run(
        self,
        items: list,
        obs_enabled: bool,
        profile: bool,
        on_complete: OnComplete,
    ) -> None:
        """Drive every ``(ordinal, task)`` item to completion/degradation."""
        spool = tempfile.mkdtemp(prefix="repro-supervise-")
        attempts = {ordinal: 0 for ordinal, _ in items}
        #: last failure description per ordinal, for degraded footnotes
        detail: dict = {}
        queue = list(items)
        try:
            while queue:
                batch, queue = queue, []
                failures = self._run_batch(
                    batch, min(self.workers, len(batch)),
                    obs_enabled, profile, spool, attempts, detail,
                    on_complete,
                )
                if not failures:
                    continue
                if not self._note_rebuild():
                    for ordinal, task, _started in failures:
                        self._degrade(
                            ordinal, task, attempts,
                            "pool rebuild budget exhausted", on_complete,
                        )
                    continue
                self._backoff(self.stats.pool_rebuilds)
                for ordinal, task, started in failures:
                    if started:
                        # the suspect: quarantine into an isolated
                        # single-worker pool so its crashes stay its own
                        self._run_isolated(
                            ordinal, task, obs_enabled, profile, spool,
                            attempts, detail, on_complete,
                        )
                    else:
                        # innocent bystander killed by the pool break:
                        # requeue without charging an attempt
                        queue.append((ordinal, task))
        finally:
            shutil.rmtree(spool, ignore_errors=True)

    # -- batch machinery ---------------------------------------------------
    def _run_batch(
        self,
        batch: list,
        workers: int,
        obs_enabled: bool,
        profile: bool,
        spool: str,
        attempts: dict,
        detail: dict,
        on_complete: OnComplete,
    ) -> list:
        """One pool pass over ``batch``.

        Returns ``[(ordinal, task, started)]`` for every cell lost to a
        pool break or deadline kill; an empty list means the whole
        batch completed.  Successful outcomes are delivered through
        ``on_complete`` as they finish — crash safety for the cache.
        """
        tel = live.current()
        pool = ProcessPoolExecutor(max_workers=workers)
        remaining = {}
        unsubmitted: list = []
        for index, (ordinal, task) in enumerate(batch):
            attempts[ordinal] += 1
            self.stats.dispatched += 1
            tel.cell_start(
                "/".join(task.label()), ordinal=ordinal,
                attempt=attempts[ordinal],
            )
            try:
                future = pool.submit(
                    _supervised_execute, self.config, task, obs_enabled,
                    profile, ordinal, attempts[ordinal], spool,
                )
            except BrokenExecutor:
                # an already-dispatched worker died while the rest of
                # the batch was still being submitted; this dispatch
                # never reached the pool (don't charge the attempt) and
                # everything after it requeues as innocent bystanders
                detail.setdefault(
                    ordinal, "worker crashed (process pool broken)"
                )
                attempts[ordinal] -= 1
                unsubmitted = [(ordinal, task)] + batch[index + 1:]
                break
            remaining[future] = (ordinal, task)
        started_at: dict = {}
        pending = set(remaining)
        broke = False
        try:
            while pending and not broke:
                done, pending = wait(
                    pending,
                    timeout=_TICK if self.cell_timeout else None,
                    return_when=FIRST_COMPLETED,
                )
                for future in sorted(done, key=lambda f: remaining[f][0]):
                    ordinal, task = remaining[future]
                    exc = future.exception()
                    if exc is None:
                        on_complete(ordinal, task, future.result(), True)
                        del remaining[future]
                    elif isinstance(exc, BrokenExecutor):
                        detail.setdefault(
                            ordinal, "worker crashed (process pool broken)"
                        )
                        broke = True
                    else:
                        # a cleanly transferred exception is a bug in the
                        # cell, not a dead worker: propagate it
                        raise exc
                if not broke and self.cell_timeout and pending:
                    self._enforce_deadline(
                        pending, remaining, started_at, spool, attempts,
                        detail, pool,
                    )
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        failures = []
        for future, (ordinal, task) in remaining.items():
            marker = os.path.join(spool, f"{ordinal}.{attempts[ordinal]}")
            started = os.path.exists(marker)
            if started:
                tel.worker_crash(
                    "/".join(task.label()),
                    detail=detail.get(ordinal, "worker crashed"),
                )
            else:
                # the attempt never began; don't charge it
                attempts[ordinal] -= 1
            failures.append((ordinal, task, started))
        for ordinal, task in unsubmitted:
            failures.append((ordinal, task, False))
        failures.sort()
        return failures

    def _enforce_deadline(
        self,
        pending: set,
        remaining: dict,
        started_at: dict,
        spool: str,
        attempts: dict,
        detail: dict,
        pool: ProcessPoolExecutor,
    ) -> None:
        """Track start markers; SIGKILL workers past the cell deadline."""
        now = time.monotonic()
        for future in pending:
            if future in started_at:
                continue
            ordinal, _task = remaining[future]
            marker = os.path.join(spool, f"{ordinal}.{attempts[ordinal]}")
            if os.path.exists(marker):
                started_at[future] = now
        for future in pending:
            begun = started_at.get(future)
            if begun is None or now - begun <= self.cell_timeout:
                continue
            ordinal, _task = remaining[future]
            self.stats.timeouts += 1
            obs.count("supervisor.cell.timeout")
            detail[ordinal] = (
                f"cell exceeded the {self.cell_timeout:g}s wall deadline"
            )
            started_at.pop(future, None)
            self._kill_worker(ordinal, attempts[ordinal], spool, pool)

    @staticmethod
    def _kill_worker(
        ordinal: int, attempt: int, spool: str,
        pool: ProcessPoolExecutor,
    ) -> None:
        """SIGKILL the worker running one cell (pid from its marker).

        The kill deliberately breaks the pool — recovery then flows
        through the exact attribution path a spontaneous crash takes.
        Falls back to killing every pool process if the marker pid is
        unreadable.
        """
        pid = None
        try:
            with open(os.path.join(spool, f"{ordinal}.{attempt}")) as fh:
                pid = int(fh.read().strip())
        except (OSError, ValueError):
            pass
        if pid:
            try:
                os.kill(pid, signal.SIGKILL)
                return
            except OSError:
                pass
        for proc in (getattr(pool, "_processes", None) or {}).values():
            try:
                proc.kill()
            except OSError:  # pragma: no cover - already gone
                pass

    # -- quarantine --------------------------------------------------------
    def _run_isolated(
        self,
        ordinal: int,
        task: "CellTask",
        obs_enabled: bool,
        profile: bool,
        spool: str,
        attempts: dict,
        detail: dict,
        on_complete: OnComplete,
    ) -> None:
        """Retry one suspect cell alone until it completes or exhausts."""
        while True:
            if attempts[ordinal] > self.max_cell_retries:
                self._degrade(
                    ordinal, task, attempts,
                    detail.get(ordinal, "worker crashed"), on_complete,
                )
                return
            self.stats.retried += 1
            obs.count("supervisor.cell.retried")
            self._backoff(attempts[ordinal])
            failures = self._run_batch(
                [(ordinal, task)], 1, obs_enabled, profile, spool,
                attempts, detail, on_complete,
            )
            if not failures:
                return
            if not self._note_rebuild():
                self._degrade(
                    ordinal, task, attempts,
                    "pool rebuild budget exhausted", on_complete,
                )
                return

    # -- bookkeeping -------------------------------------------------------
    def _note_rebuild(self) -> bool:
        """Count one pool rebuild; False once the budget is exhausted."""
        self.stats.pool_rebuilds += 1
        obs.count("supervisor.pool.rebuilt")
        live.current().pool_rebuild(self.stats.pool_rebuilds)
        return self.stats.pool_rebuilds <= self.max_pool_rebuilds

    def _backoff(self, n: int) -> None:
        if self.backoff_base <= 0:
            return
        time.sleep(min(self.backoff_cap, self.backoff_base * (2 ** (n - 1))))

    def _degrade(
        self,
        ordinal: int,
        task: "CellTask",
        attempts: dict,
        reason: str,
        on_complete: OnComplete,
    ) -> None:
        """Synthesize a ``—†`` outcome for a cell retries could not save.

        The entry flows through the standard resilience merge (footnote
        rendering, ``degraded_count``, exit code 3); ``cacheable=False``
        keeps this host event out of the persistent cell cache, so a
        later run re-attempts the cell.
        """
        from .parallel import CellOutcome

        entry = Degraded(
            label="/".join(task.label()),
            reason=f"worker failure: {reason}",
            attempts=max(attempts[ordinal], 1),
        )
        self.stats.degraded += 1
        obs.count("supervisor.cell.degraded")
        on_complete(
            ordinal, task,
            CellOutcome(task=task, result=entry, degraded=[entry]),
            False,
        )
