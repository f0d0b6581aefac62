"""Command-line harness: regenerate any table or figure of the paper.

Usage::

    python -m repro table4          # Table 4 (CPU systems)
    python -m repro table5 table6   # several at once
    python -m repro figure1         # Frontier node diagram
    python -m repro compare         # paper-vs-measured for every cell
    python -m repro report          # the full markdown report
    python -m repro all             # everything
    python -m repro selfcheck       # structural model-zoo invariants
    python -m repro --runs 20 table6   # faster, fewer executions
    python -m repro all --faults lossy   # under a fault-injection profile
    python -m repro table4 --profile     # per-subsystem event-loop profile
    python -m repro table6 --trace-out t.json --metrics-out m.json
    python -m repro table4 --jobs 4      # parallel cells, identical bytes
    python -m repro bench --repeats 5 --out BENCH_1.json
    python -m repro bench --baseline BENCH_baseline.json   # exit 4 on regression
    python -m repro table4 --jobs 4 --cell-timeout 120   # kill+retry slow cells
    python -m repro all --resume study.cells   # rerun replays finished cells
    python -m repro all --jobs 4 --progress   # live cells-done/ETA ticker
    python -m repro all --events-out events.jsonl   # structured run log
    python -m repro all --status-port 0   # live /metrics /progress /healthz
    python -m repro all --progress=force   # ETA ticker even when piped (CI)
    python -m repro runs list            # ledgered run history
    python -m repro runs diff latest abc123   # Welch-tested cross-run diff
    python -m repro runs flame latest --cell table6   # attribution icicle
    python -m repro table4 --no-ledger   # opt out of run recording
    python -m repro check                # paper-reference regression checks
    python -m repro check --spec my.toml --adaptive  # custom declarative suite

Under ``--faults <profile>`` individual benchmark cells may be killed by
injected node failures; after bounded retries they are rendered as the
``—†`` degraded marker with a footnote, and the process exits with
status 3 (completed, but degraded) instead of 0.  Under ``--jobs`` the
same contract covers *host* failures: a crashed or stalled worker is
retried in a rebuilt pool (``--max-cell-retries``), and only on
exhaustion does the cell degrade — with a ``worker failure`` footnote
and the same exit status 3.

``--trace-out``/``--metrics-out``/``--profile`` switch observability on
for the run: spans, counters and the event-loop profiler flow to the
named files and to a stderr digest.  Without those flags the null
observability context is active and stdout is byte-identical to a build
without the subsystem.  ``--events-out``/``--status-port``/``--progress``
arm *live* telemetry the same way (DESIGN.md §5h): a structured JSONL
event log, a loopback status server and a stderr progress ticker, all
byte-neutral to stdout and the artifact tables.  ``--quiet`` silences
every stderr report (resilience, profile, file notices, the ticker)
without touching stdout.

Every run additionally records itself into the persistent *run ledger*
(``.repro/runs`` or ``$REPRO_LEDGER_DIR``; DESIGN.md §5i) — manifest,
final metrics, outcome and (when observability is armed) the
critical-path attribution — under a content-addressed run id.  The
``runs`` subcommand family queries that history; ``--no-ledger`` opts a
run out.  Recording happens after stdout is complete and degrades to a
stderr warning on failure, so it is byte-neutral by construction.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from ..core.figures import FIGURE_MACHINES, figure_for, render_node_ascii
from ..core.report import full_report, inventory_section
from ..core.study import Study, StudyConfig
from ..core.summary import build_table7, render_table7
from ..core.tables import (
    build_table4,
    build_table5,
    build_table6,
    render_table4,
    render_table5,
    render_table6,
)
from ..machines.registry import cpu_machines, gpu_machines
from ..openmp.env import table1_configurations
from .compare import (
    compare_table4,
    compare_table5,
    compare_table6,
    render_comparison,
)

TARGETS = (
    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
    "table8", "table9", "figure1", "figure2", "figure3",
    "compare", "report", "sweeps", "internode", "artifacts", "selfcheck",
    "all",
)

#: exit status when the run completed but some cells degraded under faults
EXIT_DEGRADED = 3


def _stderr_report(text: str, quiet: bool) -> None:
    """The one gate every out-of-band report goes through.

    Resilience summaries, observability digests and "wrote FILE" notices
    all land on stderr via this helper, so ``--quiet`` suppresses them
    consistently and stdout stays pure table text either way.
    """
    if quiet or not text:
        return
    print(text, file=sys.stderr)


def _print_table1() -> str:
    lines = ["OMP_NUM_THREADS  OMP_PROC_BIND  OMP_PLACES"]
    node = cpu_machines()[0].node
    for env in table1_configurations(node):
        n, b, p = env.describe()
        n = {"1": "1", str(node.total_cores): "#cores",
             str(node.total_hardware_threads): "#threads"}.get(n, n)
        lines.append(f"{n:15s}  {b:13s}  {p}")
    return "\n".join(lines)


def _print_table2() -> str:
    lines = ["Rank/Name       Location  CPU"]
    for m in cpu_machines():
        lines.append(f"{m.ranked_name():14s}  {m.location:8s}  {m.cpu_model}")
    return "\n".join(lines)


def _print_table3() -> str:
    lines = ["Rank/Name       Location  CPU                  Accelerator"]
    for m in gpu_machines():
        lines.append(
            f"{m.ranked_name():14s}  {m.location:8s}  {m.cpu_model:19s}  "
            f"{m.accelerator_model}"
        )
    return "\n".join(lines)


def _print_table8() -> str:
    lines = ["Rank/Name       Compiler          MPI"]
    for m in cpu_machines():
        lines.append(
            f"{m.ranked_name():14s}  {m.software.compiler:16s}  {m.software.mpi}"
        )
    return "\n".join(lines)


def _print_table9() -> str:
    lines = ["Rank/Name       Compiler         Device Library   MPI"]
    for m in gpu_machines():
        sw = m.software
        lines.append(
            f"{m.ranked_name():14s}  {sw.compiler:15s}  "
            f"{sw.device_library:15s}  {sw.mpi}"
        )
    return "\n".join(lines)


def run_target(target: str, study: Study) -> str:
    """Produce the output text for one CLI target.

    ``check`` is not a command-line target (the word is the regression
    check subcommand); it names the section of ``all`` that prints the
    structural self-check, the same text as ``selfcheck``.
    """
    if target == "table1":
        return _print_table1()
    if target == "table2":
        return _print_table2()
    if target == "table3":
        return _print_table3()
    if target == "table4":
        return render_table4(build_table4(study))
    if target == "table5":
        return render_table5(build_table5(study))
    if target == "table6":
        return render_table6(build_table6(study))
    if target == "table7":
        return render_table7(
            build_table7(build_table5(study), build_table6(study))
        )
    if target == "table8":
        return _print_table8()
    if target == "table9":
        return _print_table9()
    if target.startswith("figure"):
        number = int(target.removeprefix("figure"))
        return render_node_ascii(figure_for(number))
    if target == "compare":
        rows = (
            compare_table4(build_table4(study))
            + compare_table5(build_table5(study))
            + compare_table6(build_table6(study))
        )
        return render_comparison(rows)
    if target == "report":
        return full_report(study)
    if target == "sweeps":
        return _print_sweeps()
    if target == "internode":
        return _print_internode()
    if target in ("check", "selfcheck"):
        from .selfcheck import render_selfcheck, run_selfcheck

        return render_selfcheck(run_selfcheck())
    raise ValueError(f"unknown target: {target}")


def _print_sweeps() -> str:
    from ..core.curves import (
        babelstream_cpu_curve,
        babelstream_gpu_curve,
        osu_latency_curve,
        render_curve,
    )
    from ..machines.registry import get_machine

    parts = []
    for name in ("sawtooth", "trinity"):
        machine = get_machine(name)
        parts.append(render_curve(babelstream_cpu_curve(machine)))
        parts.append(render_curve(osu_latency_curve(machine)))
    for name in ("frontier", "summit"):
        parts.append(render_curve(babelstream_gpu_curve(get_machine(name))))
    return "\n\n".join(parts)


def _print_internode() -> str:
    """Future-work extension: inter-node latency/bandwidth per machine."""
    from ..mpisim.transport import BufferKind
    from ..netsim.cluster import Cluster, ClusterRankLocation
    from ..units import to_gb_per_s, to_us

    def pingpong(nbytes, buffer, iters=4):
        def rank0(ctx):
            t0 = ctx.env.now
            for _ in range(iters):
                yield from ctx.send(1, nbytes, buffer)
                yield from ctx.recv(1)
            return (ctx.env.now - t0) / (2 * iters)

        def rank1(ctx):
            for _ in range(iters):
                yield from ctx.recv(0)
                yield from ctx.send(0, nbytes, buffer)

        return [rank0, rank1]

    lines = [
        "Inter-node extension (not a paper table; see DESIGN.md 3b)",
        f"{'machine':12s} {'fabric':16s} {'lat (us)':>9s} {'bw (GB/s)':>10s}",
    ]
    for machine in cpu_machines() + gpu_machines():
        cluster = Cluster(machine, 8)
        pair = [
            ClusterRankLocation(core=0, node=0),
            ClusterRankLocation(core=0, node=4),
        ]
        lat = cluster.world(pair).run(pingpong(0, BufferKind.HOST))[0]
        cluster.reset_network()
        n = 16 << 20
        t = cluster.world(pair).run(pingpong(n, BufferKind.HOST))[0]
        lines.append(
            f"{machine.name:12s} {cluster.fabric.name:16s} "
            f"{to_us(lat):9.2f} {to_gb_per_s(n / t):10.2f}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "bench":
        # the bench harness has its own flag set and exit-code contract
        # (0 ok / 3 incomplete / 4 regressed); everything else below is
        # untouched so un-flagged runs stay byte-identical
        from .bench import bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "runs":
        # cross-run analytics over the ledger (0 ok / 2 usage error /
        # 3 significant regression from `runs diff`)
        from .runs_cli import runs_main

        return runs_main(argv[1:])
    if argv and argv[0] == "check":
        # declarative regression checks (0 ok / 3 regression /
        # 4 inflated); like `bench` and `runs` the word must come
        # first, and as a positional target it is an invalid choice
        from .check_cli import check_main

        return check_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="doe-microbench",
        description="Regenerate the tables and figures of the SC-W'23 DOE "
                    "microbenchmark paper on simulated hardware.",
    )
    parser.add_argument("targets", nargs="+", choices=TARGETS)
    parser.add_argument(
        "--runs", type=int, default=100,
        help="binary executions per measurement (paper: 100)",
    )
    parser.add_argument(
        "--seed", type=int, default=20230612, help="root RNG seed"
    )
    parser.add_argument(
        "--exact", action="store_true",
        help="run every execution through the discrete-event simulator "
             "instead of vectorising run-to-run jitter",
    )
    parser.add_argument(
        "--faults", type=str, default="none", metavar="PROFILE",
        help="fault-injection profile: none, noisy, lossy, chaos, smoke "
             "(default: none — numerically identical to not passing it)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2,
        help="extra attempts per benchmark cell before it degrades "
             "(default: 2)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for benchmark cells (1 = serial, 0 = all "
             "cores); output is byte-identical at any value",
    )
    parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=None,
        help="serve unchanged benchmark cells from the persistent result "
             "cache (~/.cache/repro); output is byte-identical to an "
             "uncached run (--no-cache forces it off; default: off)",
    )
    parser.add_argument(
        "--cache-dir", "--resume", type=str, default="", metavar="DIR",
        help="cell-cache directory (implies --cache unless --no-cache); "
             "every cell is stored as it completes, so rerunning an "
             "interrupted study on the same DIR replays its finished "
             "cells, byte-identical to an uninterrupted run",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell wall deadline under --jobs: a worker running one "
             "cell past it is killed and the cell retried (default: none)",
    )
    parser.add_argument(
        "--max-cell-retries", type=int, default=2, metavar="N",
        help="extra dispatch attempts per cell after a worker crash or "
             "deadline kill before the cell degrades to —† (default: 2)",
    )
    parser.add_argument(
        "--output", type=str, default="",
        help="write the (last) target's output to this file as well",
    )
    parser.add_argument(
        "--trace-out", type=str, default="", metavar="FILE",
        help="write a Chrome trace_event JSON (Perfetto-loadable) of the "
             "run's spans to FILE",
    )
    parser.add_argument(
        "--metrics-out", type=str, default="", metavar="FILE",
        help="write the run's counters/gauges/histograms to FILE as JSON",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="profile the event loop per subsystem and print the digest "
             "to stderr",
    )
    parser.add_argument(
        "--events-out", type=str, default="", metavar="FILE",
        help="append one JSONL event per run transition (cell start/done, "
             "crashes, cache hits) to FILE; crash-safe, schema "
             "repro.events/v1; stdout is unchanged",
    )
    parser.add_argument(
        "--status-port", type=int, default=None, metavar="PORT",
        help="serve /metrics (OpenMetrics), /progress (JSON) and /healthz "
             "on 127.0.0.1:PORT for the duration of the run (0 = pick an "
             "ephemeral port, printed to stderr); stdout is unchanged",
    )
    parser.add_argument(
        "--progress", nargs="?", const="auto", default=None,
        choices=("auto", "force"), metavar="MODE",
        help="tick a one-line cells-done/ETA progress report on stderr "
             "(TTY only, at most once per second); --progress=force (or "
             "REPRO_FORCE_PROGRESS=1) ticks even when stderr is piped; "
             "stdout is unchanged",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress all stderr reports (resilience, profile, file "
             "notices); stdout is unchanged",
    )
    parser.add_argument(
        "--no-ledger", dest="ledger_record", action="store_false",
        default=True,
        help="do not record this run in the persistent run ledger",
    )
    parser.add_argument(
        "--ledger-dir", type=str, default="", metavar="DIR",
        help="run-ledger root (default: $REPRO_LEDGER_DIR or .repro/runs)",
    )
    args = parser.parse_args(argv)
    if args.status_port is not None and not 0 <= args.status_port <= 65535:
        parser.error(
            f"--status-port must be 0-65535 (0 = ephemeral), "
            f"got {args.status_port}"
        )

    from ..errors import ReproError
    from ..faults import get_profile

    cache = args.cache if args.cache is not None else bool(args.cache_dir)
    try:
        plan = get_profile(args.faults)
        study = Study(StudyConfig(
            runs=args.runs, seed=args.seed, exact=args.exact,
            faults=plan, max_retries=args.max_retries, jobs=args.jobs,
            cache=cache, cache_dir=args.cache_dir or None,
            cell_timeout=args.cell_timeout,
            max_cell_retries=args.max_cell_retries,
        ))
    except ReproError as exc:
        parser.error(str(exc))
    targets = list(args.targets)
    if "all" in targets:
        # "all" output is byte-compared across fault-free runs, so its
        # sections keep their order and headers: the structural
        # self-check still prints under "==> check"
        targets = [
            t for t in TARGETS
            if t not in ("all", "report", "artifacts", "selfcheck")
        ] + ["check", "report"]

    from ..obs import live
    from ..obs import runtime as obs_runtime
    from ..obs.runtime import NULL_CONTEXT, ObsContext

    obs_wanted = bool(args.trace_out or args.metrics_out or args.profile)
    ctx = ObsContext.create(profile=args.profile) if obs_wanted else NULL_CONTEXT

    # live telemetry is opt-in exactly like observability: with none of
    # the three flags armed the shared null session is active and the
    # run's stdout/artifacts are byte-identical (DESIGN.md 5h)
    force_progress = (
        args.progress == "force"
        or os.environ.get("REPRO_FORCE_PROGRESS", "") not in ("", "0")
    )
    progress_wanted = args.progress is not None or force_progress
    tel_wanted = bool(
        args.events_out or args.status_port is not None or progress_wanted
    )
    session = live.NULL_TELEMETRY
    status_server = None
    if tel_wanted:
        from ..core.parallel import resolve_jobs
        from ..obs.events import EventLog

        session = live.RunTelemetry(
            events=EventLog(args.events_out) if args.events_out else None,
            progress=(
                live.ProgressReporter(None, force=force_progress)
                if progress_wanted and not args.quiet else None
            ),
        )
        session.aggregator.profiler_supplier = (
            lambda: obs_runtime.current().profiler
        )
        session.run_start(targets, resolve_jobs(args.jobs), args.seed)
        if args.status_port is not None:
            from .status_server import StatusServer

            status_server = StatusServer(
                session.aggregator,
                registry_supplier=lambda: obs_runtime.current().metrics,
                port=args.status_port,
            ).start()
            _stderr_report(
                f"status server on http://127.0.0.1:{status_server.port}/ "
                f"(/metrics /progress /healthz)",
                args.quiet,
            )

    text = ""
    wrote_bundle = False
    started_at = time.time()
    run_outcome = "ok"
    try:
        with obs_runtime.observability(ctx), live.telemetry(session):
            try:
                for target in targets:
                    if target == "artifacts":
                        from .artifacts import write_artifacts

                        directory = args.output or "artifacts"
                        written = write_artifacts(directory, study)
                        wrote_bundle = True
                        print(
                            f"==> artifacts ({len(written)} files under "
                            f"{directory})"
                        )
                        continue
                    text = run_target(target, study)
                    print(f"==> {target}")
                    print(text)
                    print()
            except KeyboardInterrupt:
                run_outcome = "interrupted"
                raise
            except BaseException:
                run_outcome = "error"
                raise
    finally:
        # every exit path — clean end, a raising cell, Ctrl-C — seals
        # the event stream (run_end is idempotent and records *how* the
        # run ended), releases the status port, closes the log, and
        # records the run in the ledger
        session.run_end(outcome=run_outcome)
        if status_server is not None:
            status_server.stop()
        session.close()
        if args.ledger_record:
            from ..obs.ledger import record_study_run

            entry = record_study_run(
                study,
                targets=targets,
                directory=args.ledger_dir or None,
                started=started_at,
                outcome=run_outcome,
                exit_code=(
                    (EXIT_DEGRADED if study.resilience.degraded_count else 0)
                    if run_outcome == "ok" else None
                ),
                events=session.events,
                obs=ctx if ctx.enabled else None,
            )
            if entry is not None:
                _stderr_report(
                    f"ledger: recorded run {entry.run_id} under "
                    f"{entry.directory}",
                    args.quiet,
                )
    if args.events_out and session.events is not None:
        stats = session.events.stats()
        _stderr_report(
            f"wrote {stats['path']} ({stats['emitted']} event(s)"
            + (f", {stats['dropped']} dropped" if stats["dropped"] else "")
            + ")",
            args.quiet,
        )
    if args.output and not wrote_bundle:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        _stderr_report(f"wrote {args.output}", args.quiet)
    if study.injector is not None or study.resilience.degraded_count:
        # the summary goes to stderr so stdout stays pure table text;
        # crash-degraded cells report even under --faults none
        _stderr_report(study.resilience.summary(), args.quiet)
    if study.scheduler.cache is not None:
        stats = study.scheduler.cache.stats()
        _stderr_report(
            f"cell cache: {stats['hits']} hit(s), {stats['misses']} "
            f"miss(es), {stats['stores']} store(s), "
            f"{stats['invalidated']} invalidated under {stats['directory']}",
            args.quiet,
        )
    if ctx.enabled:
        from ..obs.export import (
            text_summary,
            write_chrome_trace,
            write_metrics,
        )

        if args.trace_out:
            write_chrome_trace(args.trace_out, ctx.tracer)
            _stderr_report(f"wrote {args.trace_out}", args.quiet)
        if args.metrics_out:
            write_metrics(args.metrics_out, ctx.metrics)
            _stderr_report(f"wrote {args.metrics_out}", args.quiet)
        _stderr_report(
            text_summary(ctx.tracer, ctx.metrics, ctx.profiler), args.quiet
        )
    if study.resilience.degraded_count:
        # injected faults *and* real worker failures land here: the
        # tables rendered, but some cells carry the —† marker
        return EXIT_DEGRADED
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
