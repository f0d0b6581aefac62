"""Exception hierarchy for the repro package.

All package-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this library with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class UnitParseError(ReproError, ValueError):
    """A quantity string (e.g. ``"128MB"``) could not be parsed."""


class SimulationError(ReproError):
    """Generic failure inside the discrete-event simulation engine."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still blocked."""


class WatchdogTimeout(SimulationError):
    """A simulation exceeded its event or wall-clock budget.

    Carries enough context to diagnose the hang: the budget that fired,
    the simulated time reached, and the roster of still-blocked
    processes with what each was waiting on.
    """

    def __init__(
        self,
        message: str,
        *,
        events_processed: int = 0,
        sim_time: float = 0.0,
        blocked: tuple[str, ...] = (),
    ) -> None:
        super().__init__(message)
        self.events_processed = events_processed
        self.sim_time = sim_time
        self.blocked = blocked


class FaultConfigError(ReproError, ValueError):
    """A fault specification or profile is invalid."""


class InjectedFault(ReproError, RuntimeError):
    """A deterministic injected fault fired (node failure, retransmit
    exhaustion).  The resilient study runner catches these and records
    the affected cell as degraded instead of crashing the sweep."""


class HardwareConfigError(ReproError, ValueError):
    """An inconsistent or impossible hardware description was supplied."""


class TopologyError(HardwareConfigError):
    """A topology query failed (no route, unknown endpoint, bad class)."""


class UnknownMachineError(ReproError, KeyError):
    """A machine name or Top500 rank is not present in the registry."""


class PlacementError(ReproError, ValueError):
    """A process/thread/rank could not be placed on the requested resource."""


class OpenMPConfigError(ReproError, ValueError):
    """Invalid OpenMP environment configuration (places/bind parsing)."""


class GpuRuntimeError(ReproError, RuntimeError):
    """An error raised by the simulated CUDA/HIP-like device runtime."""


class InvalidStreamError(GpuRuntimeError):
    """Operation issued on a destroyed or foreign stream."""


class PinnedMemoryError(GpuRuntimeError):
    """A host buffer involved in an async copy was not page-locked."""


class MpiSimError(ReproError, RuntimeError):
    """An error raised by the simulated MPI layer."""


class BenchmarkConfigError(ReproError, ValueError):
    """A benchmark was configured with invalid parameters."""


class CellExecutionError(RuntimeError):
    """A benchmark cell raised a genuine bug (not an injected fault), or
    the worker process computing it died.

    Wraps the original exception with the cell's identity — machine,
    benchmark label and study seed — so a failure surfacing from a
    worker process names the cell instead of arriving as a bare pickled
    traceback; a dead worker names every cell its pool left unfinished.
    Deliberately *not* a :class:`ReproError`: programming bugs and host
    failures must propagate, never degrade into a ``—†`` table cell."""


class ObservabilityError(RuntimeError):
    """Misuse of the observability layer (span exit-order violation,
    instrument type conflict, bad instrument name).

    Deliberately *not* a :class:`ReproError`: these are programming
    bugs in instrumentation, and the resilient study runner must never
    swallow one into a degraded table cell."""


class TraceAnalysisError(ReproError, ValueError):
    """A recorded trace or metrics artifact could not be interpreted
    (malformed Chrome ``trace_event`` JSON, unknown phase, no cell
    window).  Unlike :class:`ObservabilityError` this concerns *data*
    read back from disk, so it is a :class:`ReproError`."""


class BenchDataError(ReproError, ValueError):
    """A ``repro.bench/v1`` metrics document (a ledgered run's
    ``metrics.json`` or a committed ``BENCH_*.json``) is malformed or
    incompatible with the current schema."""


class LedgerError(ReproError, ValueError):
    """A run-ledger lookup or maintenance operation failed (unknown or
    ambiguous run id, empty ledger, unwritable index rewrite).  Write
    paths of the ledger itself never raise — recording degrades to a
    warning — so this surfaces only from the ``repro runs`` CLI."""


class CheckSpecError(ReproError, ValueError):
    """A ``repro.checks/v1`` check-spec document is malformed: bad
    schema tag, unknown keys, out-of-range thresholds or policy knobs,
    duplicate check names, or an unparseable TOML/JSON spec file.
    Raised at load/validation time, never during evaluation —
    evaluation degrades failing extractions to skip-with-reason."""
