"""The process-wide observability context.

Worlds, runtimes, links and injectors are constructed many layers below
the CLI, so observability rides on one module-level
:class:`ObsContext`: the CLI (or a test) builds an enabled context,
activates it around the study, and every instrumented call site reads
``current()`` at its own construction or call time.  The default
context is disabled — its tracer and metrics are shared no-op
singletons — which is what keeps an un-flagged run on the exact
pre-observability code path (same discipline as ``--faults none``).

Activation also installs the context's :class:`SimProfiler` into the
event engine (``repro.sim.engine.set_profiler``) and restores the
previous hook on exit, so profiling never leaks across tests.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import field
from typing import TYPE_CHECKING, Iterator, Optional

from .._dataclass import dataclass
from .metrics import DECLARED_COUNTERS, MetricsRegistry, NULL_METRICS, NullMetrics
from .span import DEFAULT_CAPACITY, NULL_TRACER, NullTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover - create() loads it under --profile
    from .profiler import SimProfiler


@dataclass
class ObsContext:
    """One observability session: tracer + metrics + optional profiler."""

    tracer: Tracer | NullTracer
    metrics: MetricsRegistry | NullMetrics
    profiler: Optional[SimProfiler] = None
    enabled: bool = True
    #: (tracer stamp, attributions) of the last :meth:`attributions` call
    _attributed: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def create(
        cls,
        profile: bool = False,
        capacity: Optional[int] = DEFAULT_CAPACITY,
        record_values: bool = False,
    ) -> "ObsContext":
        """A fully-armed context; canonical counters are pre-declared so
        every metrics snapshot carries the whole instrument taxonomy.

        ``record_values=True`` makes histograms retain raw observations
        so the whole context is *mergeable* — the configuration a
        parallel study worker runs under (see
        :meth:`MetricsRegistry.dump_state`).
        """
        metrics = MetricsRegistry(record_values=record_values)
        metrics.declare(DECLARED_COUNTERS)
        profiler = None
        if profile:
            from .profiler import SimProfiler

            profiler = SimProfiler()
        return cls(
            tracer=Tracer(capacity=capacity),
            metrics=metrics,
            profiler=profiler,
        )

    def attributions(self) -> list:
        """Phase attribution of every benchmark window the tracer holds.

        The artifact bundle and the run ledger both attribute the run;
        the second caller reuses the first result unless the tracer has
        recorded since — its kept-plus-dropped record count or its
        open-span stack differs.
        """
        from .analyze.critical_path import attributions_from_tracer

        tracer = self.tracer
        stamp = (len(tracer) + tracer.dropped, tracer.open_spans())
        if self._attributed is None or self._attributed[0] != stamp:
            self._attributed = (stamp, attributions_from_tracer(tracer))
        return list(self._attributed[1])


#: the disabled context every un-instrumented run lives in
NULL_CONTEXT = ObsContext(
    tracer=NULL_TRACER, metrics=NULL_METRICS, profiler=None, enabled=False
)

_current: ObsContext = NULL_CONTEXT


def current() -> ObsContext:
    """The active observability context (the null context by default)."""
    return _current


def count(name: str, amount: int | float = 1) -> None:
    """Hot-path counter increment; a no-op when observability is off."""
    ctx = _current
    if ctx.enabled:
        ctx.metrics.counter(name).inc(amount)


def activate(ctx: ObsContext) -> ObsContext:
    """Install ``ctx`` as the process-wide context; returns the previous
    one.  Installs/uninstalls the engine profiler hook as a side effect.
    Prefer the :func:`observability` context manager."""
    global _current
    from ..sim import engine

    previous = _current
    _current = ctx
    engine.set_profiler(ctx.profiler if ctx.enabled else None)
    return previous


@contextmanager
def observability(ctx: ObsContext) -> Iterator[ObsContext]:
    """Activate ``ctx`` for the duration of a ``with`` block."""
    previous = activate(ctx)
    try:
        yield ctx
    finally:
        activate(previous)
