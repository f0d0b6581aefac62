"""Study orchestration: the paper's outer measurement protocol.

"Binaries for each of the three tests ... are executed 100 times.  The
mean and standard deviation are calculated across those 100 tests."
(paper section 4).  :class:`Study` implements exactly that per machine
and metric.

Two execution modes:

* ``exact=True`` — every one of the ``runs`` binary executions runs its
  full simulated benchmark (discrete-event protocol and all).  Faithful
  and used by the tests for spot checks.
* ``exact=False`` (default) — the binary runs once on the simulator to
  obtain its deterministic figure; the run-to-run machine jitter is then
  drawn vectorised from the same noise model the exact path uses.  The
  two modes agree in distribution because within-run benchmarks are
  deterministic given the jitter draw.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from ..benchmarks.babelstream.sweep import (
    best_cpu_bandwidth,
    best_gpu_bandwidth,
    default_gpu_size,
)
from ..benchmarks.commscope.runner import CommScopeResults, run_commscope
from ..benchmarks.osu.runner import (
    PairKind,
    device_latency_by_class,
    latency_for_pair,
)
from ..errors import BenchmarkConfigError, CellExecutionError, ReproError
from ..faults import FaultPlan, make_injector
from ..hardware.topology import LinkClass
from ..machines.base import Machine
from ..obs import live, runtime as obs
from ..sim.random import (
    NOISE_BANDWIDTH,
    NOISE_CPU_BANDWIDTH,
    NOISE_LATENCY,
    NOISE_LAUNCH,
    NoiseModel,
    RandomStreams,
)
from .parallel import CellScheduler
from .resilience import Degraded, ResilienceLog, degraded_in, run_cell
from .results import Statistic


@dataclass(frozen=True)
class StudyConfig:
    """Knobs for one study pass.

    Every parameter is validated here, at construction — a bad value
    raises :class:`~repro.errors.ReproError` immediately with a clear
    message instead of failing hundreds of events deep inside a sweep.
    """

    runs: int = 100
    seed: int = 20230612
    exact: bool = False
    #: array size for the CPU BabelStream sweep (None = paper default)
    cpu_array_bytes: int | None = None
    #: array size for the device BabelStream run (None = paper's 1 GB)
    gpu_array_bytes: int | None = None
    #: fault plan injected into the study (None or a null plan = clean)
    faults: FaultPlan | None = None
    #: extra attempts per benchmark cell before it degrades
    max_retries: int = 2
    #: per-cell simulation event budget (watchdog); None = unbounded
    cell_max_events: int | None = 5_000_000
    #: explicit osu_latency sweep sizes (None = upstream power-of-two set)
    latency_sweep_sizes: tuple[int, ...] | None = None
    #: worker processes for benchmark cells (1 = serial, 0 = all cores)
    jobs: int = 1
    #: serve unchanged benchmark cells from the persistent result cache
    cache: bool = False
    #: cache directory override (None = ``~/.cache/repro``)
    cache_dir: str | None = None
    #: per-cell wall deadline under ``jobs`` > 1 (seconds); a worker
    #: running one cell past it is killed and the cell retried.  None
    #: (the default) disarms the deadline.
    cell_timeout: float | None = None
    #: extra dispatch attempts per cell after a worker crash/deadline
    #: kill before the cell degrades to a ``—†`` marker
    max_cell_retries: int = 2

    def __post_init__(self) -> None:
        if not isinstance(self.runs, int) or self.runs < 1:
            raise BenchmarkConfigError(f"runs must be an int >= 1: {self.runs!r}")
        if (
            not isinstance(self.jobs, int)
            or isinstance(self.jobs, bool)
            or self.jobs < 0
        ):
            raise BenchmarkConfigError(
                f"jobs must be an int >= 0 (0 = all cores): {self.jobs!r}"
            )
        if not isinstance(self.seed, int):
            raise BenchmarkConfigError(f"seed must be an int: {self.seed!r}")
        for name in ("cpu_array_bytes", "gpu_array_bytes"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int) or value <= 0):
                raise BenchmarkConfigError(
                    f"{name} must be a positive int or None: {value!r}"
                )
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise BenchmarkConfigError(
                f"max_retries must be an int >= 0: {self.max_retries!r}"
            )
        if self.cell_max_events is not None and (
            not isinstance(self.cell_max_events, int) or self.cell_max_events < 1
        ):
            raise BenchmarkConfigError(
                f"cell_max_events must be a positive int or None: "
                f"{self.cell_max_events!r}"
            )
        if not isinstance(self.cache, bool):
            raise BenchmarkConfigError(f"cache must be a bool: {self.cache!r}")
        if self.cache_dir is not None and not isinstance(self.cache_dir, str):
            raise BenchmarkConfigError(
                f"cache_dir must be a str or None: {self.cache_dir!r}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise BenchmarkConfigError(
                f"faults must be a FaultPlan or None: {self.faults!r}"
            )
        if self.cell_timeout is not None and (
            not isinstance(self.cell_timeout, (int, float))
            or isinstance(self.cell_timeout, bool)
            or self.cell_timeout <= 0
        ):
            raise BenchmarkConfigError(
                f"cell_timeout must be a positive number or None: "
                f"{self.cell_timeout!r}"
            )
        if (
            not isinstance(self.max_cell_retries, int)
            or isinstance(self.max_cell_retries, bool)
            or self.max_cell_retries < 0
        ):
            raise BenchmarkConfigError(
                f"max_cell_retries must be an int >= 0: "
                f"{self.max_cell_retries!r}"
            )
        sizes = self.latency_sweep_sizes
        if sizes is not None:
            if len(sizes) == 0:
                raise BenchmarkConfigError("latency_sweep_sizes must not be empty")
            for size in sizes:
                if not isinstance(size, int) or size < 0:
                    raise BenchmarkConfigError(
                        f"latency_sweep_sizes entries must be ints >= 0: {size!r}"
                    )
            if any(b <= a for a, b in zip(sizes, sizes[1:])):
                raise BenchmarkConfigError(
                    "latency_sweep_sizes must be strictly increasing: "
                    f"{sizes!r}"
                )


@dataclass(frozen=True)
class CommScopeStats:
    """Aggregated Comm|Scope quantities for one machine (Table 6 row)."""

    launch: Statistic
    wait: Statistic
    hd_latency: Statistic
    hd_bandwidth: Statistic
    d2d_latency: dict[LinkClass, Statistic] = field(default_factory=dict)


class Study:
    """Runs the paper's measurement protocol on simulated machines.

    With a fault plan armed (``config.faults``), every cell runs inside
    a resilient attempt loop: injected node failures and watchdog
    timeouts consume bounded retries, and exhausted cells degrade to a
    ``—†`` marker (collected in :attr:`resilience`) instead of crashing
    the sweep.  Straggler faults perturb the per-execution samples; in
    ``exact`` mode the transport faults additionally run through the
    discrete-event protocol itself (drop -> retransmit machinery).

    Registry-machine cells run through :class:`~repro.core.parallel
    .CellScheduler`, which computes each cell once — in this process at
    ``config.jobs`` 1, on a process pool above — and every request
    replays that outcome in request order; results, resilience log,
    traces and metrics are byte-identical at any jobs count
    (DESIGN.md 5e).
    """

    def __init__(self, config: StudyConfig | None = None) -> None:
        self.config = config or StudyConfig()
        self.streams = RandomStreams(self.config.seed)
        #: None when no plan (or a null plan) is armed — that guarantee
        #: is what keeps ``--faults none`` byte-identical to pre-fault runs
        self.injector = make_injector(self.config.faults, self.streams)
        self.resilience = ResilienceLog()
        #: computes each registry-machine cell once (in-process at
        #: ``jobs`` 1, on supervised worker processes above) and serves
        #: it from the persistent result cache when ``config.cache`` is
        #: armed
        self.scheduler = CellScheduler(self.config)
        #: raw result of every cell this study ran, by cell label, in
        #: completion order — the run ledger's :func:`~repro.obs.ledger
        #: .study_metrics_doc` flattens these into comparable metrics.
        #: A cell requested for a second target overwrites its entry.
        self.cell_results: dict[tuple[str, ...], object] = {}

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _samples(
        self, base: float, noise: NoiseModel, *path: str, kind: str = "latency"
    ) -> np.ndarray:
        rng = self.streams.get(*path)
        samples = noise.sample_many(rng, base, self.config.runs)
        if self.injector is not None:
            samples = self.injector.perturb_samples(samples, *path, kind=kind)
        return samples

    def _sim_injector(self, *label: str):
        """The injector handed into a cell's discrete-event simulations.

        Scoped per cell (stable hash of the cell label) so the sim-level
        fault draws — message drops keyed by rank pair, GPU faults keyed
        by device — are independent of which cells ran earlier.  Without
        this, exact-mode fault streams would be sequential across cells
        and serial/parallel runs could not agree.
        """
        if self.injector is None:
            return None
        return self.injector.for_cell(*label)

    def _cell(self, fn, *label: str, machine: Machine):
        """Serve one benchmark cell to a table builder.

        The scheduler computes a registry-machine cell once; this and
        every later request replay its outcome through :meth:`_consume`.
        A cell outside the scheduler's remit (a user-built machine, or a
        mutated copy sharing a registry name) runs in-process through
        :meth:`_compute` on every request.
        """
        outcome = self.scheduler.lookup(machine, label)
        if outcome is None:
            result = self._compute(fn, label)
        else:
            result = self._consume(outcome)
        self.cell_results[label] = result
        return result

    def _compute(self, fn, label: tuple[str, ...]):
        """Run one cell body resiliently (bounded retries, degrade).

        With observability active the cell runs inside a ``study`` span
        carrying the cell label and outcome (degraded, attempts), and
        bumps the ``study.cell.*`` counters; with the null context this
        is a shared no-op span.  :func:`~repro.core.parallel
        .execute_cell` runs every registry cell through here, under a
        null telemetry session (the scheduler reports those cells).
        """
        ctx = obs.current()
        tel = live.current()
        if tel.enabled:
            tel.cell_start("/".join(label))
            began = time.perf_counter()
        with ctx.tracer.span("/".join(label), "study") as span:
            try:
                result = run_cell(
                    fn,
                    label=label,
                    injector=self.injector,
                    max_retries=self.config.max_retries,
                    log=self.resilience,
                )
            except (ReproError, CellExecutionError):
                raise
            except Exception as exc:
                # a genuine bug in the cell: name the cell before the
                # traceback leaves this process (it may be pickled back
                # from a worker), and never degrade it into a ``—†``
                raise CellExecutionError(
                    f"benchmark cell {'/'.join(label)} "
                    f"(seed {self.config.seed}) raised "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            if ctx.enabled:
                lost = degraded_in(result)
                if lost:
                    span.set(
                        degraded=True,
                        attempts=max(d.attempts for d in lost),
                        reason="; ".join(d.reason for d in lost),
                    )
                    ctx.metrics.counter("study.cell.degraded").inc()
                else:
                    span.set(degraded=False)
                ctx.metrics.counter("study.cell.completed").inc()
        if tel.enabled:
            tel.cell_done(
                "/".join(label),
                degraded=bool(degraded_in(result)),
                wall_seconds=time.perf_counter() - began,
            )
        return result

    def _consume(self, outcome) -> object:
        """Merge one scheduler-computed cell outcome into this study.

        Replays, in order, every side effect :meth:`_compute` has:
        degraded entries append to the resilience log, the computing
        context's tracer ring (cell span included) is absorbed, metric
        deltas replay into the live registry and profiler counts
        accumulate.  Consumption order is the builders' request order,
        which is what makes the merge deterministic at any jobs count.
        """
        self.resilience.extend(outcome.degraded)
        ctx = obs.current()
        if ctx.enabled:
            if outcome.records or outcome.tracer_dropped:
                ctx.tracer.absorb(
                    outcome.records,
                    wall_origin=outcome.tracer_origin,
                    dropped=outcome.tracer_dropped,
                )
            if outcome.metrics_state is not None:
                ctx.metrics.merge_state(outcome.metrics_state)
            if outcome.profiler_state is not None and ctx.profiler is not None:
                ctx.profiler.merge_state(outcome.profiler_state)
        return outcome.result

    def parallel_stats(self) -> dict:
        """Advisory scheduler metadata (jobs, per-cell wall times).
        Host-dependent; never gated on."""
        return self.scheduler.stats()

    def outcome_summary(self) -> dict[str, dict]:
        """Every cell statistic this study produced, flattened to
        ``repro.bench/v1`` metric rows.

        Keys are ``sim.<cell label>[/<component>]`` (per-class dicts and
        :class:`CommScopeStats` bundles expand one level per component);
        values carry mean/std/n with the goodness direction (bandwidths
        are better higher, everything else lower) and ``gate=True`` —
        these numbers are deterministic given the seed, so a cross-run
        diff may gate on them.  Degraded cells contribute no row (they
        have no number); they are reported through :attr:`resilience`.
        """
        out: dict[str, dict] = {}
        for label in sorted(self.cell_results):
            self._flatten_cell(
                out, "sim." + "/".join(label), self.cell_results[label]
            )
        return out

    @classmethod
    def _flatten_cell(cls, out: dict[str, dict], base: str, value) -> None:
        if isinstance(value, Degraded):
            return
        if isinstance(value, Statistic):
            out[base] = cls._metric_row(base, value)
            return
        if isinstance(value, dict):
            for key in sorted(value, key=str):
                name = getattr(key, "value", key)
                cls._flatten_cell(out, f"{base}/{name}", value[key])
            return
        if dataclasses.is_dataclass(value):
            for spec in dataclasses.fields(value):
                cls._flatten_cell(
                    out, f"{base}/{spec.name}", getattr(value, spec.name)
                )
            return
        if isinstance(value, (int, float)):
            out[base] = cls._metric_row(
                base, Statistic(mean=float(value), std=0.0, n=1)
            )

    @staticmethod
    def _metric_row(name: str, stat: Statistic) -> dict:
        from ..analysis.metrics import better_direction

        return {
            "mean": stat.mean, "std": stat.std, "n": stat.n, "unit": "",
            "better": better_direction(name), "gate": True,
        }

    # ------------------------------------------------------------------
    # BabelStream
    # ------------------------------------------------------------------
    def cpu_bandwidth(
        self, machine: Machine, single_thread: bool
    ) -> Statistic | Degraded:
        """Table 4 "Single"/"All" cell: best over Table 1 configs x ops."""
        label = "single" if single_thread else "all"
        return self._cell(
            lambda: self._cpu_bandwidth(machine, single_thread),
            machine.name, "babelstream-cpu", label,
            machine=machine,
        )

    def _cpu_bandwidth(self, machine: Machine, single_thread: bool) -> Statistic:
        if self.config.exact:
            best = best_cpu_bandwidth(
                machine,
                single_thread,
                array_bytes=self.config.cpu_array_bytes,
                runs=self.config.runs,
                streams=self.streams,
            )
            return Statistic.from_samples(best.samples)
        best = best_cpu_bandwidth(
            machine, single_thread,
            array_bytes=self.config.cpu_array_bytes, runs=1,
            streams=RandomStreams(0), deterministic=True,
        )
        base = float(best.samples[0])
        label = "single" if single_thread else "all"
        return Statistic.from_samples(
            self._samples(base, NOISE_CPU_BANDWIDTH,
                          machine.name, "babelstream-cpu", label,
                          kind="bandwidth")
        )

    def gpu_bandwidth(self, machine: Machine) -> Statistic | Degraded:
        """Table 5 "Device" cell: best over ops at the 1 GB size."""
        return self._cell(
            lambda: self._gpu_bandwidth(machine),
            machine.name, "babelstream-gpu",
            machine=machine,
        )

    def _gpu_bandwidth(self, machine: Machine) -> Statistic:
        size = self.config.gpu_array_bytes or default_gpu_size()
        if self.config.exact:
            best = best_gpu_bandwidth(
                machine, array_bytes=size, runs=self.config.runs,
                streams=self.streams,
            )
            return Statistic.from_samples(best.samples)
        best = best_gpu_bandwidth(
            machine, array_bytes=size, runs=1,
            streams=RandomStreams(0), deterministic=True,
        )
        return Statistic.from_samples(
            self._samples(float(best.samples[0]), NOISE_BANDWIDTH,
                          machine.name, "babelstream-gpu", kind="bandwidth")
        )

    # ------------------------------------------------------------------
    # OSU latency
    # ------------------------------------------------------------------
    def host_latency(
        self, machine: Machine, kind: PairKind
    ) -> Statistic | Degraded:
        """Table 4 on-socket/on-node or Table 5 host-to-host cell."""
        return self._cell(
            lambda: self._host_latency(machine, kind),
            machine.name, "osu", kind.value,
            machine=machine,
        )

    def _host_latency(self, machine: Machine, kind: PairKind) -> Statistic:
        budget = self.config.cell_max_events
        if self.config.exact:
            rng = self.streams.get(machine.name, "osu", kind.value)
            injector = self._sim_injector(machine.name, "osu", kind.value)
            samples = [
                latency_for_pair(
                    machine, kind, rng=rng,
                    injector=injector, max_events=budget,
                ).latency
                for _ in range(self.config.runs)
            ]
            return Statistic.from_samples(samples)
        base = latency_for_pair(machine, kind, max_events=budget).latency
        return Statistic.from_samples(
            self._samples(base, NOISE_LATENCY, machine.name, "osu", kind.value)
        )

    def device_latency(
        self, machine: Machine
    ) -> dict[LinkClass, Statistic] | Degraded:
        """Table 5 device-to-device cells, one per link class."""
        return self._cell(
            lambda: self._device_latency(machine),
            machine.name, "osu", "device",
            machine=machine,
        )

    def _device_latency(self, machine: Machine) -> dict[LinkClass, Statistic]:
        budget = self.config.cell_max_events
        if self.config.exact:
            rng = self.streams.get(machine.name, "osu", "device")
            injector = self._sim_injector(machine.name, "osu", "device")
            acc: dict[LinkClass, list[float]] = {}
            for _ in range(self.config.runs):
                by_class = device_latency_by_class(
                    machine, rng=rng,
                    injector=injector, max_events=budget,
                )
                for cls, res in by_class.items():
                    acc.setdefault(cls, []).append(res.latency)
            return {
                cls: Statistic.from_samples(v) for cls, v in acc.items()
            }
        bases = device_latency_by_class(machine, max_events=budget)
        return {
            cls: Statistic.from_samples(
                self._samples(res.latency, NOISE_LATENCY,
                              machine.name, "osu", "device", cls.value)
            )
            for cls, res in bases.items()
        }

    # ------------------------------------------------------------------
    # Comm|Scope
    # ------------------------------------------------------------------
    def commscope(self, machine: Machine) -> CommScopeStats | Degraded:
        """Table 6 row for one machine."""
        return self._cell(
            lambda: self._commscope(machine), machine.name, "cs",
            machine=machine,
        )

    def _commscope(self, machine: Machine) -> CommScopeStats:
        if self.config.exact:
            rng = self.streams.get(machine.name, "commscope")
            results = [
                run_commscope(machine, rng=rng) for _ in range(self.config.runs)
            ]
            return self._aggregate_commscope(results)
        base = run_commscope(machine)
        name = machine.name

        def stat(value: float, noise: NoiseModel, *path: str,
                 kind: str = "latency") -> Statistic:
            return Statistic.from_samples(
                self._samples(value, noise, *path, kind=kind)
            )

        return CommScopeStats(
            launch=stat(base.launch, NOISE_LAUNCH, name, "cs", "launch"),
            wait=stat(base.wait, NOISE_LAUNCH, name, "cs", "wait"),
            hd_latency=stat(base.hd_latency, NOISE_LATENCY, name, "cs", "hdlat"),
            hd_bandwidth=stat(base.hd_bandwidth, NOISE_BANDWIDTH, name, "cs",
                              "hdbw", kind="bandwidth"),
            d2d_latency={
                cls: stat(v, NOISE_LATENCY, name, "cs", "d2d", cls.value)
                for cls, v in base.d2d_latency.items()
            },
        )

    # ------------------------------------------------------------------
    # sweeps
    # ------------------------------------------------------------------
    def latency_sweep(
        self, machine: Machine, kind: PairKind = PairKind.ON_SOCKET
    ):
        """osu_latency over the configured message-size sweep.

        Uses ``config.latency_sweep_sizes`` (validated strictly
        increasing at construction) when set, else the upstream
        power-of-two set.
        """
        from ..benchmarks.osu.latency import osu_latency_sweep
        from ..mpisim.placement import on_node_pair, on_socket_pair

        pair = (
            on_socket_pair(machine) if kind == PairKind.ON_SOCKET
            else on_node_pair(machine)
        )
        return osu_latency_sweep(
            machine, pair, sizes=self.config.latency_sweep_sizes
        )

    @staticmethod
    def _aggregate_commscope(results: list[CommScopeResults]) -> CommScopeStats:
        classes = results[0].d2d_latency.keys()
        return CommScopeStats(
            launch=Statistic.from_samples([r.launch for r in results]),
            wait=Statistic.from_samples([r.wait for r in results]),
            hd_latency=Statistic.from_samples([r.hd_latency for r in results]),
            hd_bandwidth=Statistic.from_samples([r.hd_bandwidth for r in results]),
            d2d_latency={
                cls: Statistic.from_samples(
                    [r.d2d_latency[cls] for r in results]
                )
                for cls in classes
            },
        )
