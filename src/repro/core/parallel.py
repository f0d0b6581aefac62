"""Study cell execution: decomposition, one compute per cell, merge.

The paper's outer protocol is embarrassingly parallel — 13 machines x
{BabelStream, OSU, Comm|Scope} cells, each an independent bundle of
binary executions — yet it must stay *bit-deterministic*: the whole
point of the reproduction is that a table regenerates identically every
time.  This module reconciles the two, and it is the only way a
registry-machine cell runs, serial or parallel:

* a :class:`CellTask` names one benchmark cell (machine x metric) by
  registry key, so tasks pickle as a few strings;
* :func:`execute_cell` runs one task in isolation — in this process at
  ``jobs`` 1, in a worker process above: it rebuilds the study from the
  (picklable) config, derives every random stream from ``(study seed,
  cell path)`` via the stable hash in :mod:`repro.sim.random` — no
  sequential stream state crosses cells — and captures the complete
  cell outcome (statistic or degraded marker, resilience entries,
  tracer records, metric deltas, profiler counts) in a picklable
  :class:`CellOutcome`;
* :class:`CellScheduler` computes each cell once — on request at
  ``jobs`` 1, or per roster group on a process pool above — serves and
  feeds the persistent cell cache, storing each outcome as it
  completes, and keeps every outcome; the owning
  :class:`~repro.core.study.Study` then *consumes* an outcome on every
  request, in the order its builders request cells, merging its
  observations on the first, so the resilience log, every
  ``study.*``/``sim.*`` metric, the trace ring and the rendered tables
  are byte-identical at any jobs count.

Determinism contract (DESIGN.md 5e): result values depend only on
``(seed, cell)``; merge effects depend only on consumption order, which
the builders fix; host wall-times and the execution-layer ``cache.*``
instruments are the only fields that vary run to run, and every
consumer treats them as advisory.

A worker process that dies breaks the pool: the run raises
:class:`~repro.errors.CellExecutionError` naming the unfinished cells,
and every finished cell is already in the cell cache, so a rerun on
the same ``--resume DIR`` picks up where the run stopped (DESIGN.md 5g).
"""

from __future__ import annotations

import os
import time
from dataclasses import field, replace
from typing import TYPE_CHECKING, Any, Optional

from .._dataclass import dataclass
from ..benchmarks.osu.runner import PairKind
from ..errors import BenchmarkConfigError, CellExecutionError
from ..machines.registry import (
    CPU_MACHINE_NAMES,
    GPU_MACHINE_NAMES,
    get_machine,
)
from ..obs import live, runtime as obs
from ..obs.runtime import NULL_CONTEXT, ObsContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .config import StudyConfig
    from .study import Study


def resolve_jobs(jobs: int) -> int:
    """Map the ``jobs`` knob to a worker count (0 = all cores)."""
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellTask:
    """One benchmark cell, named portably (registry key + method).

    ``machine`` is the lowercase registry key; ``method`` is the
    :class:`~repro.core.study.Study` method to call; ``variant``
    selects within it ("single"/"all" for the CPU BabelStream cell,
    the :class:`PairKind` value for host latency, empty otherwise).
    """

    machine: str
    method: str
    variant: str = ""

    def label(self) -> tuple[str, ...]:
        """The exact label ``Study._cell`` runs this cell under."""
        name = get_machine(self.machine).name
        if self.method == "cpu_bandwidth":
            return (name, "babelstream-cpu", self.variant)
        if self.method == "gpu_bandwidth":
            return (name, "babelstream-gpu")
        if self.method == "host_latency":
            return (name, "osu", self.variant)
        if self.method == "device_latency":
            return (name, "osu", "device")
        if self.method == "commscope":
            return (name, "cs")
        raise BenchmarkConfigError(f"unknown cell method: {self.method!r}")

    def run_on(self, study: "Study") -> Any:
        """Compute this cell on ``study``, in this process.

        Runs the cell body (``Study._<method>``) under
        :meth:`Study._compute` directly: the public method would route
        the request back through the study's own scheduler.
        """
        label = self.label()
        machine = get_machine(self.machine)
        args: tuple = ()
        if self.method == "cpu_bandwidth":
            args = (self.variant == "single",)
        elif self.method == "host_latency":
            args = (PairKind(self.variant),)
        body = getattr(study, f"_{self.method}")
        return study._compute(lambda: body(machine, *args), label)


def plan_tasks(group: str) -> tuple[CellTask, ...]:
    """Every cell the table builders can request for one machine class.

    ``group`` is ``"cpu"`` (Table 4 cells) or ``"gpu"`` (Table 5/6
    cells).  Order is roster order — informational only, since merge
    order is fixed by consumption, not completion.
    """
    tasks: list[CellTask] = []
    if group == "cpu":
        for key in CPU_MACHINE_NAMES:
            tasks.append(CellTask(key, "cpu_bandwidth", "single"))
            tasks.append(CellTask(key, "cpu_bandwidth", "all"))
            tasks.append(CellTask(key, "host_latency", PairKind.ON_SOCKET.value))
            tasks.append(CellTask(key, "host_latency", PairKind.ON_NODE.value))
    elif group == "gpu":
        for key in GPU_MACHINE_NAMES:
            tasks.append(CellTask(key, "gpu_bandwidth"))
            tasks.append(CellTask(key, "host_latency", PairKind.ON_SOCKET.value))
            tasks.append(CellTask(key, "device_latency"))
            tasks.append(CellTask(key, "commscope"))
    else:
        raise BenchmarkConfigError(f"unknown task group: {group!r}")
    return tuple(tasks)


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------

@dataclass
class CellOutcome:
    """Everything one cell produced, in picklable form.

    ``result`` is the statistic bundle (or :class:`Degraded` marker)
    the builder needs; the remaining fields are the observability and
    resilience side effects computing the cell wrote into its own
    context, captured so the study can merge them when it first
    consumes the cell.
    """

    task: CellTask
    result: Any
    degraded: list = field(default_factory=list)
    records: list = field(default_factory=list)
    tracer_origin: float = 0.0
    tracer_dropped: int = 0
    metrics_state: Optional[dict] = None
    profiler_state: Optional[dict] = None
    wall_seconds: float = 0.0


def execute_cell(
    config: "StudyConfig",
    task: CellTask,
    obs_enabled: bool,
    profile: bool,
) -> CellOutcome:
    """Run one cell in isolation (in-process at ``jobs`` 1, else the
    worker-process entry point).

    It builds a fresh :class:`Study` from the config — its streams and
    fault injector re-derive every generator from ``(seed, path)``, so
    no state from sibling cells or earlier requests can leak in — and
    runs the cell body through :meth:`Study._compute`: bounded retries
    stay inside, the cell span and ``study.cell.*`` counters land in
    this call's own context, and the whole bundle ships home as one
    :class:`CellOutcome`.
    """
    from .study import Study

    started = time.perf_counter()
    study = Study(replace(config, jobs=1, cache=False))
    ctx = (
        ObsContext.create(profile=profile, record_values=True)
        if obs_enabled else NULL_CONTEXT
    )
    # the scheduler owns this cell's telemetry (its start/done events);
    # the null session here keeps Study._compute —
    # and a forked worker, which inherits the parent's live session
    # *and* its open event-log fd — from emitting them a second time
    with live.telemetry(live.NULL_TELEMETRY), obs.observability(ctx):
        result = task.run_on(study)
    return CellOutcome(
        task=task,
        result=result,
        degraded=list(study.resilience.entries),
        records=ctx.tracer.records() if obs_enabled else [],
        tracer_origin=ctx.tracer.wall_origin if obs_enabled else 0.0,
        tracer_dropped=ctx.tracer.dropped if obs_enabled else 0,
        metrics_state=ctx.metrics.dump_state() if obs_enabled else None,
        profiler_state=(
            ctx.profiler.dump_state() if profile and ctx.profiler else None
        ),
        wall_seconds=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# the scheduler
# ---------------------------------------------------------------------------

class CellScheduler:
    """Computes each registry-machine cell once and keeps its outcome.

    At ``jobs`` 1 a cell is computed when it is first requested, in this
    process, and only that cell — a ``table5`` run never pays for
    Comm|Scope.  Above one job the first request for a CPU-class cell
    computes *all* CPU-roster cells in one pool pass (likewise for the
    GPU roster), since the pool needs a batch to fan out.  Either way
    the persistent cell cache (``config.cache``) is consulted before
    computing and fed as each cell completes.  Only registry machines
    participate — :meth:`lookup` returns ``None`` for any other machine
    object, and the study runs that cell in-process.
    """

    def __init__(self, config: "StudyConfig") -> None:
        self.config = config
        self.jobs = resolve_jobs(config.jobs)
        #: persistent cell-result cache (``config.cache``; ``--resume
        #: DIR`` is ``--cache-dir DIR``): consulted before computing a
        #: cell and fed with every freshly computed one
        self.cache = config.cell_cache()
        self._outcomes: dict[tuple[str, ...], CellOutcome] = {}
        #: group -> {cell label: (1-based roster ordinal, task)}
        self._rosters: dict[str, dict] = {}
        #: advisory metadata: host wall time per computed cell label
        self.cell_wall_seconds: dict[str, float] = {}
        #: advisory metadata: host wall time spent per task group
        self.group_wall_seconds: dict[str, float] = {}

    # -- scheduling --------------------------------------------------------
    @staticmethod
    def _group_of(machine) -> Optional[str]:
        """The task group of a machine, or None if it's not the
        registry's own instance (same name but mutated copies must not
        hit the cache)."""
        key = machine.name.strip().lower()
        if key in CPU_MACHINE_NAMES:
            group = "cpu"
        elif key in GPU_MACHINE_NAMES:
            group = "gpu"
        else:
            return None
        if get_machine(key) is not machine:
            return None
        return group

    def _roster(self, group: str) -> dict:
        if group not in self._rosters:
            self._rosters[group] = {
                task.label(): (ordinal, task)
                for ordinal, task in enumerate(plan_tasks(group), start=1)
            }
        return self._rosters[group]

    def _run(self, group: str, items: list) -> None:
        """Serve ``(roster ordinal, task)`` items from the cache or
        compute them, keeping every outcome and storing each computed
        one in the cache as it completes."""
        ctx = obs.current()
        obs_enabled = bool(ctx.enabled)
        profile = ctx.profiler is not None
        tel = live.current()
        config = replace(self.config, jobs=1, cache=False)
        started = time.perf_counter()
        tel.cells_planned(["/".join(task.label()) for _, task in items])

        def keep(task: CellTask, outcome: CellOutcome, source: str) -> None:
            label = task.label()
            self._outcomes[label] = outcome
            self.cell_wall_seconds["/".join(label)] = outcome.wall_seconds
            tel.cell_done(
                "/".join(label), degraded=bool(outcome.degraded),
                wall_seconds=outcome.wall_seconds, source=source,
            )
            if source == "computed" and self.cache is not None:
                self.cache.store(config, task, obs_enabled, profile, outcome)

        pending: list[tuple[int, CellTask]] = []
        for ordinal, task in items:
            outcome = None
            if self.cache is not None:
                outcome = self.cache.load(config, task, obs_enabled, profile)
            if outcome is None:
                pending.append((ordinal, task))
            else:
                keep(task, outcome, "cache")

        if self.jobs > 1 and pending:
            self._run_pool(config, pending, obs_enabled, profile, keep)
        else:
            # in-process through the worker entry point, so fresh and
            # replayed outcomes merge identically
            for ordinal, task in pending:
                tel.cell_start("/".join(task.label()), ordinal=ordinal)
                keep(task, execute_cell(config, task, obs_enabled, profile),
                     "computed")
        self.group_wall_seconds[group] = (
            self.group_wall_seconds.get(group, 0.0)
            + time.perf_counter() - started
        )

    def _run_pool(self, config, pending: list, obs_enabled: bool,
                  profile: bool, keep) -> None:
        """Compute ``pending`` on a process pool, keeping each outcome
        as it completes.

        A cell that raises in its worker does not stop the others:
        once every other cell has finished and been kept (and cached),
        the exception of the first failing cell in roster order
        propagates unchanged, whichever worker finished first, so the
        same cells raise the same error on every run.  A worker that
        dies breaks the pool; the cells that were still unfinished are
        then named in a :class:`CellExecutionError`, after every
        finished one has been kept (and cached).
        """
        # imported here: a run at --jobs 1 never loads the pool
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        tel = live.current()
        pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(pending)))
        try:
            futures = {}
            for ordinal, task in pending:
                tel.cell_start("/".join(task.label()), ordinal=ordinal)
                future = pool.submit(
                    execute_cell, config, task, obs_enabled, profile
                )
                futures[future] = task
            failed = {}
            for future in as_completed(futures):
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    continue  # named below, with every unfinished cell
                except Exception as exc:
                    failed[futures[future]] = exc
                    continue
                keep(futures[future], outcome, "computed")
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        for _, task in pending:
            if task in failed:
                raise failed[task]
        unfinished = [
            "/".join(task.label()) for _, task in pending
            if task.label() not in self._outcomes
        ]
        if unfinished:
            stored = (
                f"; the finished cells are stored under "
                f"{self.cache.directory}, and a rerun on that cache "
                f"directory replays them"
                if self.cache is not None else ""
            )
            raise CellExecutionError(
                f"a worker process died; {len(unfinished)} cell(s) "
                f"unfinished: {', '.join(unfinished)}{stored}"
            )

    # -- the study-facing API ----------------------------------------------
    def lookup(self, machine, label: tuple[str, ...]) -> Optional[CellOutcome]:
        """The outcome for one cell, computing it on first request.

        Returns ``None`` when the cell is outside the scheduler's remit
        (non-registry machine, unknown label) — the study then runs it
        in-process, once per machine object.
        """
        group = self._group_of(machine)
        if group is None:
            return None
        label = tuple(label)
        if label not in self._outcomes:
            roster = self._roster(group)
            if label not in roster:
                return None
            self._run(group, list(roster.values()) if self.jobs > 1
                      else [roster[label]])
        return self._outcomes[label]

    def stats(self) -> dict:
        """Advisory execution metadata (host-dependent; never gated on)."""
        out = {
            "jobs": self.jobs,
            "cells": len(self.cell_wall_seconds),
            "cell_wall_seconds": dict(self.cell_wall_seconds),
            "group_wall_seconds": dict(self.group_wall_seconds),
        }
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        return out
