"""``repro bench``: the performance-regression harness.

Runs a small, fixed roster of *bench targets* — direct discrete-event
microbenchmarks plus one full study slice — ``--repeats`` times each
under a fresh observability context, and records per target:

* the **simulated** latencies (``sim.*``, deterministic given the seed
  — these gate the exit code),
* host ``wall_seconds`` and the profiler's ``events_per_sec``
  (machine-dependent, advisory only),

as mean/std/n into a ``BENCH_*.json`` trajectory file (schema
``repro.bench/v1``; see :mod:`repro.obs.analyze.baseline`).  The first
repeat's trace additionally yields the per-cell phase-attribution
digest and the span-vs-counter cross-check.

Against ``--baseline`` the run is compared metric-by-metric (Welch's
t-test + relative-error threshold); exit codes:

* 0 — no gating metric regressed;
* 3 — comparison incomplete (missing targets/metrics, degraded runs);
* 4 — at least one gating metric regressed (named on stdout).

Every invocation also records itself into the persistent run ledger
(``--no-ledger`` opts out; see :mod:`repro.obs.ledger`), so ``repro
runs diff``/``trend`` can compare bench history without re-running
anything.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..analysis.metrics import better_direction
from ..core.resilience import Degraded
from ..core.results import Statistic
from ..errors import ReproError, SimulationError
from ..faults import FaultPlan, get_profile, make_injector
from ..obs import runtime as obs_runtime
from ..obs.analyze import (
    BenchRun,
    MetricStat,
    PhaseAttribution,
    TargetRecord,
    TraceDocument,
    attribute_cells,
    compare_runs,
    cross_check_counters,
    load_bench,
    render_attribution,
    render_comparison,
    render_run,
    save_bench,
)
from ..obs.export import chrome_trace, metrics_snapshot
from ..obs.runtime import ObsContext
from ..sim.random import RandomStreams

#: exit status when a gating metric regressed against the baseline
EXIT_REGRESSED = 4
#: exit status when the comparison is incomplete (missing/degraded)
EXIT_INCOMPLETE = 3

#: event budget per direct microbenchmark run (same watchdog idea as
#: StudyConfig.cell_max_events)
_MAX_EVENTS = 5_000_000

#: at most this many cell digests are persisted per target
_MAX_ATTRIBUTIONS = 8

#: sustained-load sizes per target.  The gated ``sim.*`` metrics come
#: from the canonical single measurements (identical to the study
#: path); the sustained loops only exist so each repeat drives enough
#: events (tens of thousands, not tens) that the profiler's
#: ``events_per_sec`` measures steady-state engine throughput instead
#: of interpreter warm-up.
_SUSTAIN_PINGPONG_ITERS = 1500
_SUSTAIN_COPIES = 800
_SUSTAIN_LAUNCHES = 2000
_SUSTAIN_STUDY_SLICES = 40


@dataclass
class TargetOutcome:
    """One repeat of one target: sim metric values, or a degradation.

    ``advisory`` carries host-dependent execution metadata (parallel
    worker count, per-cell wall times) that is recorded with
    ``gate=False`` so baselines stay host-portable.
    """

    metrics: dict[str, float]
    degraded: bool = False
    advisory: dict[str, float] = field(default_factory=dict)


def _osu_pingpong(machine_name: str, nbytes: int) -> Callable:
    def run(seed: int, plan: Optional[FaultPlan]) -> TargetOutcome:
        from ..benchmarks.osu.latency import measure_pingpong
        from ..machines.registry import get_machine
        from ..mpisim.placement import on_socket_pair
        from ..mpisim.transport import BufferKind

        machine = get_machine(machine_name)
        injector = make_injector(plan, RandomStreams(seed), scope="bench")
        latency = measure_pingpong(
            machine, on_socket_pair(machine), nbytes, BufferKind.HOST,
            timed_iterations=_SUSTAIN_PINGPONG_ITERS, warmup=8,
            injector=injector, max_events=_MAX_EVENTS,
        )
        return TargetOutcome({"sim.latency_us": latency * 1e6})

    return run


def _memcpy_h2d(machine_name: str, nbytes: int) -> Callable:
    def run(seed: int, plan: Optional[FaultPlan]) -> TargetOutcome:
        from ..benchmarks.commscope.memcpy_tests import memcpy_pinned_to_gpu
        from ..gpurt.api import DeviceRuntime
        from ..machines.registry import get_machine

        machine = get_machine(machine_name)
        measurement = memcpy_pinned_to_gpu(machine, nbytes)
        # sustained DMA load for a steady-state events/sec reading
        rt = DeviceRuntime(machine)
        src = rt.alloc_host(nbytes, pinned=True)
        dst = rt.alloc_device(0, nbytes)

        def host():
            for _ in range(_SUSTAIN_COPIES):
                yield from rt.memcpy_async(dst, src, nbytes)
                yield from rt.stream_synchronize(0)

        rt.run(host())
        return TargetOutcome({"sim.h2d_us": measurement.seconds * 1e6})

    return run


def _launch(machine_name: str) -> Callable:
    def run(seed: int, plan: Optional[FaultPlan]) -> TargetOutcome:
        from ..benchmarks.commscope.launch import launch_latency
        from ..gpurt.api import DeviceRuntime
        from ..gpurt.kernel import EMPTY_KERNEL
        from ..machines.registry import get_machine

        machine = get_machine(machine_name)
        seconds = launch_latency(machine)
        # sustained launch stream for a steady-state events/sec reading
        rt = DeviceRuntime(machine)

        def host():
            for _ in range(_SUSTAIN_LAUNCHES):
                yield from rt.launch_kernel(EMPTY_KERNEL, device=0)
            yield from rt.device_synchronize(0)

        rt.run(host())
        return TargetOutcome({"sim.launch_us": seconds * 1e6})

    return run


def _table4_slice(machine_name: str, runs: int, jobs: int = 1) -> Callable:
    def run(seed: int, plan: Optional[FaultPlan]) -> TargetOutcome:
        from ..core.study import Study, StudyConfig
        from ..core.tables import build_table4
        from ..machines.registry import get_machine

        machine = get_machine(machine_name)
        study = Study(StudyConfig(runs=runs, seed=seed, faults=plan,
                                  jobs=jobs))
        row = build_table4(study, machines=[machine])[0]
        # sustained load: repeat the (deterministic) slice so the
        # events/sec reading reflects warm study machinery, not the
        # first pass through cold code paths
        for _ in range(_SUSTAIN_STUDY_SLICES - 1):
            extra = Study(StudyConfig(runs=runs, seed=seed, faults=plan,
                                      jobs=jobs))
            build_table4(extra, machines=[machine])
        metrics: dict[str, float] = {}
        degraded = False
        for field_name, stat in (
            ("on_socket_us", row.on_socket),
            ("on_node_us", row.on_node),
        ):
            if isinstance(stat, Degraded):
                degraded = True
                continue
            metrics[f"sim.table4.{field_name}"] = stat.mean
        outcome = TargetOutcome(metrics, degraded=degraded)
        stats = study.parallel_stats()
        if stats["jobs"] > 1:
            # host-dependent, never gated: worker count and cell walls
            walls = list(stats["cell_wall_seconds"].values())
            outcome.advisory = {
                "parallel.workers": float(stats["jobs"]),
                "parallel.cell_wall_mean_s":
                    sum(walls) / len(walls) if walls else 0.0,
                "parallel.cell_wall_max_s": max(walls) if walls else 0.0,
            }
            supervisor = stats.get("supervisor")
            if supervisor is not None:
                # recovery activity on this host: zero on a healthy run,
                # advisory either way (gate=False)
                outcome.advisory["supervisor.retries"] = float(
                    supervisor["retried"]
                )
                outcome.advisory["supervisor.pool_rebuilds"] = float(
                    supervisor["pool_rebuilds"]
                )
        return outcome

    return run


#: the bench roster: deterministic microbenchmarks spanning the MPI
#: eager path, the rendezvous path, the GPU DMA path, the launch path
#: and one full study slice through the resilient cell machinery
BENCH_TARGETS: dict[str, Callable] = {
    "osu/sawtooth/on-socket-0b": _osu_pingpong("sawtooth", 0),
    "osu/sawtooth/on-socket-1mb": _osu_pingpong("sawtooth", 1 << 20),
    "commscope/frontier/h2d-128b": _memcpy_h2d("frontier", 128),
    "commscope/summit/launch": _launch("summit"),
    "study/table4-sawtooth": _table4_slice("sawtooth", runs=5),
}


@dataclass
class BenchResult:
    """Everything one bench invocation produced."""

    run: BenchRun
    attributions: list[PhaseAttribution]
    findings: list[str]


def _first_repeat_analysis(
    ctx: ObsContext,
) -> tuple[list[PhaseAttribution], list[str]]:
    """Phase attribution + span/counter cross-check from a live context."""
    doc = TraceDocument.from_dict(chrome_trace(ctx.tracer))
    attributions = attribute_cells(doc.sim_spans(), doc.cell_windows())
    snapshot = metrics_snapshot(ctx.metrics)["instruments"]
    findings = cross_check_counters(
        doc.span_names(), snapshot, dropped=doc.dropped
    )
    return attributions, findings


def run_bench(
    repeats: int,
    seed: int,
    faults: str = "none",
    targets: Optional[list[str]] = None,
    jobs: int = 1,
) -> BenchResult:
    """Run the roster ``repeats`` times and aggregate the trajectory.

    Each repeat runs under its own fresh observability context (with
    the profiler armed) and a fresh, identically-seeded injector, so a
    deterministic simulation yields identical repeats — the property
    the zero-variance Welch handling in the comparator relies on.

    ``jobs != 1`` runs the study slice through the parallel cell
    scheduler: the gating ``sim.*`` metrics are byte-identical to the
    serial run (the determinism contract), and worker count plus
    per-cell wall times are recorded as extra advisory (``gate=False``)
    metrics, so baselines remain host-portable either way.
    """
    plan = get_profile(faults)
    if plan.is_null():
        plan = None
    roster = dict(BENCH_TARGETS)
    if jobs != 1:
        roster["study/table4-sawtooth"] = _table4_slice(
            "sawtooth", runs=5, jobs=jobs
        )
    if targets is not None:
        unknown = sorted(set(targets) - set(roster))
        if unknown:
            raise ReproError(
                f"unknown bench target(s) {unknown}; "
                f"known: {sorted(roster)}"
            )
        roster = {name: roster[name] for name in targets}

    run = BenchRun(repeats=repeats, seed=seed,
                   faults=faults if plan is not None else "none",
                   date=time.strftime("%Y-%m-%d"))
    all_attributions: list[PhaseAttribution] = []
    all_findings: list[str] = []
    for target_name, target_fn in roster.items():
        samples: dict[str, list[float]] = {}
        advisory_samples: dict[str, list[float]] = {}
        walls: list[float] = []
        events_rates: list[float] = []
        degraded = False
        attributions: list[PhaseAttribution] = []
        for repeat in range(repeats):
            ctx = ObsContext.create(profile=True)
            with obs_runtime.observability(ctx):
                t_start = time.perf_counter()
                try:
                    outcome = target_fn(seed, plan)
                except SimulationError as exc:
                    outcome = TargetOutcome({}, degraded=True)
                    all_findings.append(
                        f"{target_name}: repeat {repeat} degraded: {exc}"
                    )
                walls.append(time.perf_counter() - t_start)
            degraded = degraded or outcome.degraded
            for name, value in outcome.metrics.items():
                samples.setdefault(name, []).append(value)
            for name, value in outcome.advisory.items():
                advisory_samples.setdefault(name, []).append(value)
            report = ctx.profiler.report()
            if report.total_host_seconds > 0:
                events_rates.append(report.events_per_second)
            if repeat == 0:
                attributions, findings = _first_repeat_analysis(ctx)
                all_findings.extend(
                    f"{target_name}: {finding}" for finding in findings
                )
        record = TargetRecord(degraded=degraded)
        for name, values in samples.items():
            if len(values) < repeats:
                # a metric missing from some repeats (degradation) must
                # not masquerade as a clean trajectory
                degraded = record.degraded = True
                continue
            stat = Statistic.from_samples(values)
            record.metrics[name] = MetricStat(
                mean=stat.mean, std=stat.std, n=stat.n, unit="us",
                better=better_direction(name), gate=True,
            )
        record.metrics["wall_seconds"] = _advisory(
            walls, "s", better_direction("wall_seconds")
        )
        if events_rates:
            record.metrics["events_per_sec"] = _advisory(
                events_rates, "1/s", better_direction("events_per_sec")
            )
        for name, values in advisory_samples.items():
            # units stay name-derived; the goodness direction comes from
            # the one shared inference rule
            if name.startswith("supervisor."):
                unit = "count"
            elif "wall" in name:
                unit = "s"
            else:
                unit = "workers"
            record.metrics[name] = _advisory(
                values, unit, better_direction(name)
            )
        record.attribution = [
            a.to_json() for a in attributions[:_MAX_ATTRIBUTIONS]
        ]
        all_attributions.extend(attributions[:_MAX_ATTRIBUTIONS])
        run.targets[target_name] = record
    return BenchResult(run=run, attributions=all_attributions,
                       findings=all_findings)


def _advisory(values: list[float], unit: str, better: str) -> MetricStat:
    stat = Statistic.from_samples(values)
    return MetricStat(mean=stat.mean, std=stat.std, n=stat.n, unit=unit,
                      better=better, gate=False)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def bench_main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="doe-microbench bench",
        description="Measure the bench-target roster and gate against a "
                    "recorded baseline (exit 4 on regression).",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="repeats per target (default: 5)",
    )
    parser.add_argument(
        "--seed", type=int, default=20230612, help="root RNG seed"
    )
    parser.add_argument(
        "--faults", type=str, default="none", metavar="PROFILE",
        help="fault-injection profile for the bench workloads",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the study-slice target (1 = serial, "
             "0 = all cores); sim.* metrics are identical at any value, "
             "worker count and cell walls are recorded as advisory",
    )
    parser.add_argument(
        "--baseline", type=str, default="", metavar="FILE",
        help="compare against this BENCH_*.json; exit 4 on regression",
    )
    parser.add_argument(
        "--out", type=str, default="", metavar="FILE",
        help="write this run's trajectory to FILE (BENCH_<n>.json)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="overwrite --baseline with this run instead of gating",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.02,
        help="relative-error threshold below which a delta is noise "
             "(default: 0.02)",
    )
    parser.add_argument(
        "--alpha", type=float, default=0.01,
        help="Welch's t-test significance level (default: 0.01)",
    )
    parser.add_argument(
        "--targets", nargs="*", default=None, metavar="NAME",
        help="restrict the roster to these targets",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress stderr notices; stdout is unchanged",
    )
    parser.add_argument(
        "--no-ledger", dest="ledger_record", action="store_false",
        default=True,
        help="do not record this bench run in the persistent run ledger",
    )
    parser.add_argument(
        "--ledger-dir", type=str, default="", metavar="DIR",
        help="run-ledger root (default: $REPRO_LEDGER_DIR or .repro/runs)",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error(f"--repeats must be >= 1: {args.repeats}")
    if args.jobs < 0:
        parser.error(f"--jobs must be >= 0 (0 = all cores): {args.jobs}")
    if args.update_baseline and not args.baseline:
        parser.error("--update-baseline requires --baseline")

    def notice(text: str) -> None:
        if not args.quiet and text:
            print(text, file=sys.stderr)

    started_at = time.time()
    try:
        result = run_bench(
            repeats=args.repeats, seed=args.seed, faults=args.faults,
            targets=args.targets, jobs=args.jobs,
        )
    except ReproError as exc:
        parser.error(str(exc))

    print(render_run(result.run))
    print()
    print(render_attribution(result.attributions))
    for finding in result.findings:
        notice(f"cross-check: {finding}")

    if args.out:
        save_bench(args.out, result.run)
        notice(f"wrote {args.out}")

    exit_code = 0
    if args.baseline and args.update_baseline:
        save_bench(args.baseline, result.run)
        notice(f"updated baseline {args.baseline}")
    elif args.baseline:
        try:
            baseline = load_bench(args.baseline)
        except ReproError as exc:
            parser.error(str(exc))
        comparison = compare_runs(
            baseline, result.run,
            threshold=args.threshold, alpha=args.alpha,
        )
        print()
        print(render_comparison(comparison))
        if comparison.regressed:
            exit_code = EXIT_REGRESSED
        elif comparison.missing():
            exit_code = EXIT_INCOMPLETE
    degraded = [
        name for name, record in result.run.targets.items() if record.degraded
    ]
    if degraded and exit_code == 0:
        notice(f"degraded target(s): {', '.join(degraded)}")
        exit_code = EXIT_INCOMPLETE
    if args.ledger_record:
        # recording happens after every stdout line, so the ledger is
        # byte-neutral to the bench output and its exit-code contract
        from ..obs.ledger import record_bench_run

        entry = record_bench_run(
            result.run,
            directory=args.ledger_dir or None,
            started=started_at,
            exit_code=exit_code,
            jobs=args.jobs,
            attributions=result.attributions,
        )
        if entry is not None:
            notice(
                f"ledger: recorded run {entry.run_id} under "
                f"{entry.directory}"
            )
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(bench_main())
