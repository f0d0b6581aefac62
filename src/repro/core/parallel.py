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
  ``jobs`` 1, or per roster group through a
  :class:`~repro.core.supervisor.CellSupervisor` (a supervised worker
  pool that survives killed/stalled workers with bounded retries, wall
  deadlines and pool rebuilds) above — serves and feeds the persistent
  cell cache, and keeps every outcome; the owning
  :class:`~repro.core.study.Study` then *consumes* an outcome on every
  request, in the order its builders request cells, so the resilience
  log, every ``study.*``/``sim.*`` metric, the trace ring and the
  rendered tables are byte-identical at any jobs count.

Determinism contract (DESIGN.md 5e/5g): result values depend only on
``(seed, cell)``; merge effects depend only on consumption order, which
the builders fix; host wall-times and the execution-layer instruments
(``supervisor.*``, ``cache.*``) are the only fields that vary run to
run, and every consumer treats them as advisory.

Process-level chaos (:class:`~repro.faults.models.WorkerCrash`,
:class:`~repro.faults.models.WorkerStall`) is applied here, in
:func:`execute_cell`, keyed on the cell's 1-based roster ordinal and
dispatch attempt — and only when a supervised dispatch passes an
ordinal, so the in-process path can never SIGKILL the parent.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Optional

from ..benchmarks.osu.runner import PairKind
from ..errors import BenchmarkConfigError
from ..faults.models import WorkerCrash, WorkerStall
from ..machines.registry import (
    CPU_MACHINE_NAMES,
    GPU_MACHINE_NAMES,
    get_machine,
)
from ..obs import live, runtime as obs
from ..obs.runtime import NULL_CONTEXT, ObsContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .study import Study, StudyConfig


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
    context, captured so the study can replay them on every request.
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


def _apply_worker_chaos(plan, ordinal: int, attempt: int) -> None:
    """Fire any armed process-level chaos for this dispatch.

    Stalls apply before crashes so a combined plan exercises the
    deadline path first.  The crash is a real ``SIGKILL`` of the
    current process — exactly the failure mode the supervisor exists
    to contain — so this must only ever run inside a sacrificial
    worker (``ordinal > 0`` guarantees a supervised dispatch).
    """
    for spec in plan.of_kind(WorkerStall):
        if spec.fires(ordinal, attempt):
            time.sleep(spec.seconds)
    for spec in plan.of_kind(WorkerCrash):
        if spec.fires(ordinal, attempt):
            os.kill(os.getpid(), signal.SIGKILL)


def execute_cell(
    config: "StudyConfig",
    task: CellTask,
    obs_enabled: bool,
    profile: bool,
    *,
    ordinal: int = 0,
    attempt: int = 1,
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

    ``ordinal``/``attempt`` identify a *supervised* dispatch (1-based
    roster position and attempt number); they exist solely so armed
    ``WorkerCrash``/``WorkerStall`` chaos can fire deterministically.
    The default ``ordinal=0`` marks an in-process call and disarms
    chaos entirely.
    """
    from .study import Study

    started = time.perf_counter()
    study = Study(replace(config, jobs=1, cache=False))
    ctx = (
        ObsContext.create(profile=profile, record_values=True)
        if obs_enabled else NULL_CONTEXT
    )
    if ordinal and config.faults is not None:
        _apply_worker_chaos(config.faults, ordinal, attempt)
    # the scheduler/supervisor own this cell's telemetry (start/done
    # events, progress); the null session here keeps Study._compute —
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
    computes *all* CPU-roster cells in one supervised pool pass
    (likewise for the GPU roster), since the pool needs a batch to fan
    out.  Either way the persistent cell cache (``config.cache``) is
    consulted before computing and fed after.  Only registry machines
    participate — :meth:`lookup` returns ``None`` for any other machine
    object, and the study runs that cell in-process.
    """

    def __init__(self, config: "StudyConfig") -> None:
        self.config = config
        self.jobs = resolve_jobs(config.jobs)
        #: persistent cell-result cache (``config.cache``; ``--resume
        #: DIR`` is ``--cache-dir DIR``): consulted before computing a
        #: cell and fed with every freshly computed one
        self.cache = None
        if config.cache:
            from .cellcache import CellCache

            self.cache = CellCache(config.cache_dir)
        #: one supervisor per pool pass, kept for stats()
        self._supervisors: list = []
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
        compute them, keeping every outcome.

        The ordinal is stable across cache hits, which is what keeps
        chaos specs and resumed runs deterministic.
        """
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

        pending: list[tuple[int, CellTask]] = []
        for ordinal, task in items:
            outcome = None
            if self.cache is not None:
                outcome = self.cache.load(config, task, obs_enabled, profile)
            if outcome is None:
                pending.append((ordinal, task))
            else:
                keep(task, outcome, "cache")

        def complete(ordinal: int, task: CellTask, outcome: CellOutcome,
                     cacheable: bool) -> None:
            keep(task, outcome, "computed")
            # supervisor-degraded (host crash/deadline) outcomes are not
            # cacheable: a host event must never poison the cache
            if cacheable and self.cache is not None:
                self.cache.store(config, task, obs_enabled, profile, outcome)

        if self.jobs > 1 and pending:
            from .supervisor import CellSupervisor

            supervisor = CellSupervisor(
                config,
                min(self.jobs, len(pending)),
                cell_timeout=self.config.cell_timeout,
                max_cell_retries=self.config.max_cell_retries,
            )
            self._supervisors.append(supervisor)
            supervisor.run(pending, obs_enabled, profile, complete)
        else:
            # in-process through the worker entry point, so fresh and
            # replayed outcomes merge identically; ordinal=0 keeps
            # process chaos disarmed in this process
            for ordinal, task in pending:
                tel.cell_start("/".join(task.label()), ordinal=ordinal)
                complete(ordinal, task,
                         execute_cell(config, task, obs_enabled, profile),
                         True)
        self.group_wall_seconds[group] = (
            self.group_wall_seconds.get(group, 0.0)
            + time.perf_counter() - started
        )

    # -- the study-facing API ----------------------------------------------
    def lookup(self, machine, label: tuple[str, ...]) -> Optional[CellOutcome]:
        """The outcome for one cell, computing it on first request.

        Returns ``None`` when the cell is outside the scheduler's remit
        (non-registry machine, unknown label) — the study then runs it
        in-process on every request.
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
        if self.jobs > 1:
            # always present under --jobs (zeros included) so bench
            # advisory fields are stable run to run
            totals = {
                "dispatched": 0, "retried": 0, "timeouts": 0,
                "pool_rebuilds": 0, "degraded": 0,
            }
            for supervisor in self._supervisors:
                for key, value in supervisor.stats.as_dict().items():
                    totals[key] += value
            out["supervisor"] = totals
        return out
