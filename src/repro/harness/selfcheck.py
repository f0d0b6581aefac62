"""Release self-check: validate the whole model zoo in one pass.

``python -m repro selfcheck`` runs every structural invariant that does
not need a study: node validation, topology classification coverage,
calibration sanity (efficiencies below 1, latencies positive, paper
anomalies flagged where documented), fabric coverage, kernel
correctness, and registry completeness.  Returns a list of findings;
empty means healthy.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..benchmarks.babelstream.kernels import StreamArrays
from ..hardware.topology import LinkClass
from ..machines.registry import all_machines, cpu_machines, gpu_machines
from ..netsim.fabric import FABRIC_CATALOG


@dataclass(frozen=True)
class Finding:
    """One self-check complaint."""

    machine: str
    check: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.machine}] {self.check}: {self.detail}"


def check_registry() -> list[Finding]:
    out = []
    machines = all_machines()
    if len(machines) != 13:
        out.append(Finding("-", "registry", f"expected 13 machines, "
                           f"got {len(machines)}"))
    ranks = [m.rank for m in machines]
    if len(set(ranks)) != len(ranks):
        out.append(Finding("-", "registry", "duplicate Top500 ranks"))
    return out


def check_nodes() -> list[Finding]:
    out = []
    for m in all_machines():
        try:
            m.node.validate()
        except Exception as exc:  # pragma: no cover - healthy registry
            out.append(Finding(m.name, "node", str(exc)))
    return out


def check_topologies() -> list[Finding]:
    out = []
    expected_classes = {
        "Frontier": {LinkClass.A, LinkClass.B, LinkClass.C, LinkClass.D},
        "RZVernal": {LinkClass.A, LinkClass.B, LinkClass.C, LinkClass.D},
        "Tioga": {LinkClass.A, LinkClass.B, LinkClass.C, LinkClass.D},
        "Summit": {LinkClass.A, LinkClass.B},
        "Sierra": {LinkClass.A, LinkClass.B},
        "Lassen": {LinkClass.A, LinkClass.B},
        "Perlmutter": {LinkClass.A},
        "Polaris": {LinkClass.A},
    }
    for m in gpu_machines():
        classes = set(m.node.topology.gpu_pair_classes())
        if classes != expected_classes[m.name]:
            out.append(Finding(
                m.name, "topology",
                f"pair classes {sorted(c.value for c in classes)} != "
                f"paper's {sorted(c.value for c in expected_classes[m.name])}"
            ))
        # every pair classified, none twice
        n = m.node.n_gpus
        total = sum(len(v) for v in m.node.topology.gpu_pair_classes().values())
        if total != n * (n - 1) // 2:
            out.append(Finding(m.name, "topology", "unclassified GPU pairs"))
    return out


def check_calibrations() -> list[Finding]:
    out = []
    for m in gpu_machines():
        cal = m.calibration.gpu_runtime
        if not 0.5 < cal.stream_efficiency < 1.0:
            out.append(Finding(m.name, "calibration",
                               f"stream efficiency {cal.stream_efficiency}"))
        if cal.launch_overhead <= 0 or cal.sync_overhead <= 0:
            out.append(Finding(m.name, "calibration", "non-positive overheads"))
    for m in cpu_machines():
        cal = m.calibration.cpu_stream
        anomalous = cal.anomaly_factor < 1.0
        if anomalous != (m.name == "Theta"):
            out.append(Finding(
                m.name, "calibration",
                "anomaly factor set on the wrong machine "
                "(the paper documents only Theta's)",
            ))
    return out


def check_fabrics() -> list[Finding]:
    out = []
    for m in all_machines():
        if m.name not in FABRIC_CATALOG:
            out.append(Finding(m.name, "fabric", "no interconnect recorded"))
    return out


def check_kernels() -> list[Finding]:
    out = []
    arrays = StreamArrays(4096)
    arrays.run_all(repetitions=2)
    arrays.dot()
    if not arrays.check_solution(repetitions=2):
        out.append(Finding("-", "babelstream", "kernel validation failed"))
    return out


ALL_CHECKS = (
    check_registry,
    check_nodes,
    check_topologies,
    check_calibrations,
    check_fabrics,
    check_kernels,
)


def run_selfcheck() -> list[Finding]:
    """Run every check; returns all findings (empty = healthy)."""
    findings: list[Finding] = []
    for check in ALL_CHECKS:
        findings.extend(check())
    return findings


def render_selfcheck(findings: list[Finding]) -> str:
    if not findings:
        return (
            f"self-check passed: {len(all_machines())} machines, "
            f"{len(ALL_CHECKS)} check families, no findings"
        )
    return "\n".join(str(f) for f in findings)


# ---------------------------------------------------------------------------
# fault-injection smoke checks: ``python -m repro selfcheck --faults smoke``
# ---------------------------------------------------------------------------

def check_fault_null_plan() -> list[Finding]:
    """The default plan must be inert: no injector is even built."""
    from ..faults import get_profile, make_injector

    out = []
    plan = get_profile("none")
    if not plan.is_null():
        out.append(Finding("-", "faults", "'none' profile is not null"))
    if make_injector(plan, 1234) is not None:
        out.append(Finding("-", "faults",
                           "null plan produced a live injector"))
    if make_injector(None, 1234) is not None:
        out.append(Finding("-", "faults",
                           "absent plan produced a live injector"))
    return out


def check_fault_retransmit() -> list[Finding]:
    """Message drops must inflate the ping-pong via retransmits."""
    from ..benchmarks.osu.latency import measure_pingpong
    from ..errors import InjectedFault
    from ..faults import FaultInjector, FaultPlan, MessageDrop
    from ..machines.registry import get_machine
    from ..mpisim.placement import on_socket_pair
    from ..mpisim.transport import BufferKind

    machine = get_machine("sawtooth")
    pair = on_socket_pair(machine)
    clean = measure_pingpong(machine, pair, 0, BufferKind.HOST)
    injector = FaultInjector(
        FaultPlan("smoke", (MessageDrop(probability=0.75),)), 99
    )
    try:
        faulty = measure_pingpong(
            machine, pair, 0, BufferKind.HOST,
            injector=injector, max_events=500_000,
        )
    except InjectedFault:
        # retransmit budget exhausted: the drop machinery clearly engaged
        return []
    if faulty <= clean:
        return [Finding(machine.name, "faults",
                        f"75% message drop did not slow the ping-pong "
                        f"({faulty:g} <= {clean:g})")]
    return []


def check_fault_link_window() -> list[Finding]:
    """A degradation window must throttle a link while it is open."""
    from ..faults import LinkFault
    from ..netsim.links import NetworkLink

    out = []
    link = NetworkLink(name="smoke-link", bandwidth=1e9, latency=1e-6)
    link.add_fault(
        LinkFault(start=1.0, duration=2.0, bandwidth_factor=0.25,
                  extra_latency=5e-6)
    )
    if link.effective_bandwidth(2.0) != 0.25e9:
        out.append(Finding("-", "faults", "bandwidth window not applied"))
    if link.effective_latency(2.0) != 1e-6 + 5e-6:
        out.append(Finding("-", "faults", "latency window not applied"))
    if link.effective_bandwidth(5.0) != 1e9:
        out.append(Finding("-", "faults",
                           "degradation leaked past the window"))
    down = NetworkLink(name="smoke-down", bandwidth=1e9, latency=1e-6)
    down.add_fault(LinkFault(start=0.0, duration=3.0, down=True))
    if not down.is_down(1.0) or down.up_at(1.0) != 3.0:
        out.append(Finding("-", "faults", "down window not honoured"))
    return out


def check_fault_kernel_inflation() -> list[Finding]:
    """A certain GPU fault must inflate kernel durations and stall copies."""
    from ..faults import FaultInjector, FaultPlan, GpuFault

    injector = FaultInjector(
        FaultPlan(
            "smoke",
            (GpuFault(probability=1.0, duration_factor=2.0,
                      memcpy_stall=3e-6),),
        ),
        7,
    )
    out = []
    if injector.kernel_duration_factor(0) != 2.0:
        out.append(Finding("-", "faults", "kernel inflation did not fire"))
    if injector.memcpy_stall(0) != 3e-6:
        out.append(Finding("-", "faults", "memcpy stall did not fire"))
    return out


def check_fault_watchdog() -> list[Finding]:
    """The event-budget watchdog must fire and name blocked processes."""
    from ..errors import WatchdogTimeout
    from ..sim.engine import Environment

    def spinner(env: Environment):
        while True:
            yield env.timeout(1.0)

    env = Environment()
    env.process(spinner(env), name="spinner")
    try:
        env.run(max_events=50)
    except WatchdogTimeout as exc:
        if "spinner" not in str(exc):
            return [Finding("-", "faults",
                            "watchdog roster missing the blocked process")]
        return []
    return [Finding("-", "faults", "watchdog did not fire at 50 events")]


FAULT_CHECKS = (
    check_fault_null_plan,
    check_fault_retransmit,
    check_fault_link_window,
    check_fault_kernel_inflation,
    check_fault_watchdog,
)


def run_fault_smoke() -> list[Finding]:
    """Exercise the fault subsystem end to end; empty list = healthy."""
    findings: list[Finding] = []
    for check in FAULT_CHECKS:
        findings.extend(check())
    return findings


def render_fault_smoke(findings: list[Finding]) -> str:
    if not findings:
        return (
            f"fault smoke passed: {len(FAULT_CHECKS)} check families "
            f"(null plan, retransmit, link windows, GPU faults, watchdog)"
        )
    return "\n".join(str(f) for f in findings)


# ---------------------------------------------------------------------------
# observability smoke checks: ``python -m repro selfcheck --obs smoke``
# ---------------------------------------------------------------------------

def check_obs_null_context() -> list[Finding]:
    """The default context must be the shared disabled singletons."""
    from ..obs import NULL_CONTEXT, NULL_SPAN, runtime as obs
    from ..sim.trace import NULL_TRACE

    out = []
    if obs.current().enabled and obs.current() is not NULL_CONTEXT:
        # a test harness may have armed a context; restore-on-exit is
        # covered by the unit tests, so only flag a *leaked* enable
        out.append(Finding("-", "obs", "enabled context leaked into "
                           "selfcheck outside an observability() block"))
    with obs.observability(NULL_CONTEXT):
        # every hot-path helper must degrade to a shared no-op
        obs.count("mpisim.send.eager")
        obs.observe("gpurt.kernel.queue_wait_us", 1.0)
        if obs.current().tracer.span("x", "study") is not NULL_SPAN:
            out.append(Finding("-", "obs", "null tracer allocated a span"))
        if obs.active_recorder() is not NULL_TRACE:
            out.append(Finding("-", "obs",
                               "disabled context built a live recorder"))
    return out


def check_obs_span_roundtrip() -> list[Finding]:
    """An instrumented ping-pong must export a well-formed Chrome trace
    with live mpisim counters."""
    from ..benchmarks.osu.latency import measure_pingpong
    from ..machines.registry import get_machine
    from ..mpisim.placement import on_socket_pair
    from ..mpisim.transport import BufferKind
    from ..obs import ObsContext, chrome_trace, runtime as obs

    out = []
    ctx = ObsContext.create(profile=True)
    with obs.observability(ctx):
        machine = get_machine("sawtooth")
        measure_pingpong(machine, on_socket_pair(machine), 0, BufferKind.HOST)
    trace = chrome_trace(ctx.tracer)
    events = trace.get("traceEvents", [])
    complete = [e for e in events if e.get("ph") == "X"]
    if not complete:
        out.append(Finding("-", "obs", "ping-pong produced no spans"))
    for event in events:
        required = {"name", "ph", "ts", "pid", "tid"}
        if event.get("ph") == "X":
            required |= {"dur", "cat"}
        missing = required - event.keys()
        if missing:
            out.append(Finding("-", "obs",
                               f"trace event missing keys {sorted(missing)}"))
            break
    snapshot = ctx.metrics.snapshot()
    if not snapshot.get("mpisim.send.eager", {}).get("value"):
        out.append(Finding("-", "obs", "eager-send counter never moved"))
    if ctx.profiler is None or not ctx.profiler.report().total_events:
        out.append(Finding("-", "obs", "profiler attributed no events"))
    return out


def check_obs_histogram_edges() -> list[Finding]:
    """Bucket boundaries are inclusive upper bounds; overflow is kept."""
    from ..obs import Histogram

    out = []
    h = Histogram("smoke.hist.edges", bounds=(1.0, 10.0))
    for value in (1.0, 10.0, 11.0):
        h.observe(value)
    buckets = h.snapshot()["buckets"]
    if (buckets["le_1"], buckets["le_10"], buckets["overflow"]) != (1, 1, 1):
        out.append(Finding("-", "obs", f"bucket edges misplaced: {buckets}"))
    if h.quantile(0.5) != 10.0:
        out.append(Finding("-", "obs",
                           f"median {h.quantile(0.5)} != bucket bound 10"))
    return out


def check_obs_profile_cli() -> list[Finding]:
    """``python -m repro table4 --profile`` must emit the table on stdout
    and the per-subsystem digest on stderr (exit 0)."""
    import contextlib
    import io

    from .cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = main(["table4", "--runs", "2", "--profile"])
    out = []
    if status != 0:
        out.append(Finding("-", "obs", f"--profile run exited {status}"))
    if "==> table4" not in stdout.getvalue():
        out.append(Finding("-", "obs", "--profile run lost the table"))
    if "events/sec" not in stderr.getvalue():
        out.append(Finding("-", "obs",
                           "--profile digest missing from stderr"))
    return out


def check_obs_trace_reader() -> list[Finding]:
    """Every record the exporter writes must read back losslessly: the
    trace reader reconstructs the same span count, categories and cell
    windows the live tracer held."""
    from ..benchmarks.osu.latency import measure_pingpong
    from ..machines.registry import get_machine
    from ..mpisim.placement import on_socket_pair
    from ..mpisim.transport import BufferKind
    from ..obs import ObsContext, chrome_trace, runtime as obs
    from ..obs.analyze import TraceDocument, attribute_cells

    out = []
    ctx = ObsContext.create(profile=False)
    with obs.observability(ctx):
        machine = get_machine("sawtooth")
        measure_pingpong(machine, on_socket_pair(machine), 0, BufferKind.HOST)
    live = ctx.tracer.span_records()
    doc = TraceDocument.from_dict(chrome_trace(ctx.tracer))
    if len(doc.spans) != len(live):
        out.append(Finding("-", "obs",
                           f"reader saw {len(doc.spans)} spans, "
                           f"tracer held {len(live)}"))
    live_cats = {r.category for r in live}
    if doc.categories() != live_cats:
        out.append(Finding("-", "obs",
                           f"reader categories {sorted(doc.categories())} "
                           f"!= tracer's {sorted(live_cats)}"))
    windows = doc.cell_windows()
    if not windows:
        out.append(Finding("-", "obs", "no benchmark cell window in trace"))
    else:
        attribution = attribute_cells(doc.sim_spans(), windows)[0]
        drift = abs(sum(attribution.phases.values()) - attribution.total)
        if drift > 0.01 * max(attribution.total, 1e-30):
            out.append(Finding("-", "obs",
                               f"phase sum drifts {drift} from cell total"))
    return out


def check_obs_bench_gate() -> list[Finding]:
    """The bench harness must find a self-comparison unchanged."""
    from ..obs.analyze import compare_runs
    from .bench import run_bench

    out = []
    result = run_bench(
        repeats=1, seed=20230612, targets=["osu/sawtooth/on-socket-0b"]
    )
    if result.findings:
        out.append(Finding("-", "obs",
                           f"bench cross-check: {result.findings[0]}"))
    comparison = compare_runs(result.run, result.run)
    if comparison.regressed or comparison.missing():
        out.append(Finding("-", "obs",
                           "bench self-comparison not clean"))
    if not result.attributions:
        out.append(Finding("-", "obs", "bench produced no attribution"))
    return out


def check_obs_live_status() -> list[Finding]:
    """A study run against a live status server must answer ``/healthz``,
    report monotone ``/progress`` done counts, serve a well-formed
    OpenMetrics ``/metrics`` exposition, and take the socket down with
    the server."""
    import json
    import threading
    import urllib.error
    import urllib.request

    from ..core.study import Study, StudyConfig
    from ..core.tables import build_table4
    from ..machines.registry import get_machine
    from ..obs import live
    from .status_server import StatusServer

    out = []
    session = live.RunTelemetry()
    server = StatusServer(session.aggregator, port=0).start()
    base = f"http://127.0.0.1:{server.port}"

    def fetch(path: str) -> tuple[int, str]:
        with urllib.request.urlopen(base + path, timeout=5) as resp:
            return resp.status, resp.read().decode()

    done_counts = []
    try:
        status, body = fetch("/healthz")
        if status != 200 or body != "ok\n":
            out.append(Finding("-", "live", f"/healthz answered {status}"))
        with live.telemetry(session):
            session.run_start(["table4"], 1, 11)
            study = Study(StudyConfig(runs=2, seed=11))
            worker = threading.Thread(
                target=build_table4, args=(study,),
                kwargs={"machines": [get_machine("sawtooth")]},
            )
            worker.start()
            while worker.is_alive():
                done_counts.append(
                    json.loads(fetch("/progress")[1])["cells"]["done"]
                )
            worker.join()
            session.run_end()
        snapshot = json.loads(fetch("/progress")[1])
        done_counts.append(snapshot["cells"]["done"])
        if snapshot["state"] != "done":
            out.append(Finding("-", "live",
                               f"terminal state {snapshot['state']!r} "
                               f"!= 'done'"))
        if snapshot["cells"]["done"] != snapshot["cells"]["total"] or \
                not snapshot["cells"]["total"]:
            out.append(Finding("-", "live",
                               f"final cell tally incomplete: "
                               f"{snapshot['cells']}"))
        metrics = fetch("/metrics")[1]
        if not metrics.endswith("# EOF\n") or \
                "repro_run_cells_done" not in metrics:
            out.append(Finding("-", "live",
                               "/metrics is not a run exposition"))
    finally:
        server.stop()
    if any(b < a for a, b in zip(done_counts, done_counts[1:])):
        out.append(Finding("-", "live",
                           f"/progress done count went backwards: "
                           f"{done_counts}"))
    try:
        fetch("/healthz")
        out.append(Finding("-", "live",
                           "/healthz still answers after server stop"))
    except (urllib.error.URLError, OSError):
        pass  # the socket closing is the liveness signal
    return out


OBS_CHECKS = (
    check_obs_null_context,
    check_obs_span_roundtrip,
    check_obs_histogram_edges,
    check_obs_profile_cli,
    check_obs_trace_reader,
    check_obs_bench_gate,
    check_obs_live_status,
)


def run_obs_smoke() -> list[Finding]:
    """Exercise the observability subsystem end to end; empty = healthy."""
    findings: list[Finding] = []
    for check in OBS_CHECKS:
        findings.extend(check())
    return findings


def render_obs_smoke(findings: list[Finding]) -> str:
    if not findings:
        return (
            f"obs smoke passed: {len(OBS_CHECKS)} check families "
            f"(null context, span roundtrip, histogram edges, --profile CLI, "
            f"trace reader, bench gate, live status server)"
        )
    return "\n".join(str(f) for f in findings)


# ---------------------------------------------------------------------------
# parallel-equivalence smoke checks: ``python -m repro selfcheck --parallel``
# ---------------------------------------------------------------------------

def check_parallel_jobs_knob() -> list[Finding]:
    """The jobs knob must validate early and resolve 0 to the core count."""
    from ..core.parallel import resolve_jobs
    from ..core.study import StudyConfig
    from ..errors import BenchmarkConfigError

    out = []
    if resolve_jobs(0) < 1:
        out.append(Finding("-", "parallel", "jobs=0 resolved below 1"))
    if resolve_jobs(3) != 3:
        out.append(Finding("-", "parallel", "jobs=3 did not resolve to 3"))
    for bad in (-1, 1.5, True):
        try:
            StudyConfig(runs=2, jobs=bad)
        except BenchmarkConfigError:
            continue
        out.append(Finding("-", "parallel",
                           f"jobs={bad!r} accepted by StudyConfig"))
    return out


def check_parallel_digest() -> list[Finding]:
    """A serial and a 2-worker study must produce identical table text,
    resilience logs and simulation metrics (the determinism contract).
    The chaos profile now carries real worker kills, so the 2-worker leg
    also exercises crash recovery; the execution-layer instruments it
    bumps are advisory and excluded via :func:`simulation_metrics`."""
    import hashlib

    from ..core.study import Study, StudyConfig
    from ..core.tables import build_table4, render_table4
    from ..faults import get_profile
    from ..obs import (
        ObsContext,
        metrics_snapshot,
        runtime as obs,
        simulation_metrics,
    )

    def digest(jobs: int) -> str:
        ctx = ObsContext.create()
        with obs.observability(ctx):
            study = Study(StudyConfig(
                runs=2, seed=77, jobs=jobs, faults=get_profile("chaos"),
            ))
            text = render_table4(build_table4(study))
        payload = "\n".join([
            text,
            study.resilience.summary(),
            repr(sorted(
                simulation_metrics(metrics_snapshot(ctx.metrics)).items()
            )),
        ])
        return hashlib.sha256(payload.encode()).hexdigest()

    serial, parallel = digest(1), digest(2)
    if serial != parallel:
        return [Finding("-", "parallel",
                        f"serial digest {serial[:12]} != "
                        f"2-worker digest {parallel[:12]}")]
    return []


def check_parallel_scheduler_stats() -> list[Finding]:
    """A parallel study must expose advisory wall-time metadata for
    every cell it actually scheduled."""
    from ..core.study import Study, StudyConfig
    from ..core.tables import build_table4

    study = Study(StudyConfig(runs=2, seed=77, jobs=2))
    build_table4(study)
    stats = study.parallel_stats()
    out = []
    if stats is None:
        return [Finding("-", "parallel", "parallel study reported no stats")]
    if stats["jobs"] != 2:
        out.append(Finding("-", "parallel",
                           f"stats jobs {stats['jobs']} != 2"))
    if stats["cells"] != 20:
        out.append(Finding("-", "parallel",
                           f"CPU roster scheduled {stats['cells']} cells, "
                           f"expected 20"))
    if any(w < 0 for w in stats["cell_wall_seconds"].values()):
        out.append(Finding("-", "parallel", "negative cell wall time"))
    return out


def check_cache_roundtrip() -> list[Finding]:
    """Two identical cached studies: the first stores every cell, the
    second serves every cell from disk, and the rendered bytes match."""
    import tempfile

    from ..core.study import Study, StudyConfig
    from ..core.tables import build_table4, render_table4
    from ..machines.registry import get_machine

    out = []
    with tempfile.TemporaryDirectory() as tmp:
        def render() -> tuple[str, dict]:
            study = Study(StudyConfig(
                runs=2, seed=77, cache=True, cache_dir=tmp,
            ))
            text = render_table4(build_table4(
                study, machines=[get_machine("sawtooth")]
            ))
            return text, study.scheduler.cache.stats()

        cold_text, cold = render()
        warm_text, warm = render()
    if cold["hits"] != 0 or cold["stores"] == 0:
        out.append(Finding("-", "cache",
                           f"cold run expected all stores, got {cold}"))
    if warm["misses"] != 0 or warm["hits"] != cold["stores"]:
        out.append(Finding("-", "cache",
                           f"warm run expected all hits, got {warm}"))
    if warm_text != cold_text:
        out.append(Finding("-", "cache",
                           "warm table text differs from cold run"))
    return out


def check_cache_version_invalidation() -> list[Finding]:
    """A code-version bump must hard-invalidate existing entries."""
    import tempfile
    from unittest import mock

    from ..core import cellcache
    from ..core.study import Study, StudyConfig
    from ..core.tables import build_table4
    from ..machines.registry import get_machine

    out = []
    with tempfile.TemporaryDirectory() as tmp:
        def run() -> dict:
            study = Study(StudyConfig(
                runs=2, seed=77, cache=True, cache_dir=tmp,
            ))
            build_table4(study, machines=[get_machine("sawtooth")])
            return study.scheduler.cache.stats()

        cold = run()
        with mock.patch.object(cellcache, "_CODE_VERSION", "0.0.0-smoke"):
            stale = run()
    if stale["invalidated"] != cold["stores"] or stale["hits"] != 0:
        out.append(Finding(
            "-", "cache",
            f"version bump did not invalidate all {cold['stores']} "
            f"entries: {stale}",
        ))
    return out


CACHE_CHECKS = (
    check_cache_roundtrip,
    check_cache_version_invalidation,
)


def run_cache_smoke() -> list[Finding]:
    """Exercise the persistent cell cache end to end; empty = healthy."""
    findings: list[Finding] = []
    for check in CACHE_CHECKS:
        findings.extend(check())
    return findings


def render_cache_smoke(findings: list[Finding]) -> str:
    if not findings:
        return (
            f"cache smoke passed: {len(CACHE_CHECKS)} check families "
            f"(cold/warm byte-identity, version invalidation)"
        )
    return "\n".join(str(f) for f in findings)


PARALLEL_CHECKS = (
    check_parallel_jobs_knob,
    check_parallel_digest,
    check_parallel_scheduler_stats,
)


def run_parallel_smoke() -> list[Finding]:
    """Exercise the parallel scheduler end to end; empty list = healthy."""
    findings: list[Finding] = []
    for check in PARALLEL_CHECKS:
        findings.extend(check())
    return findings


def render_parallel_smoke(findings: list[Finding]) -> str:
    if not findings:
        return (
            f"parallel smoke passed: {len(PARALLEL_CHECKS)} check families "
            f"(jobs knob, serial-vs-parallel digest, scheduler stats)"
        )
    return "\n".join(str(f) for f in findings)


# ---------------------------------------------------------------------------
# run-ledger smoke checks: ``python -m repro selfcheck --ledger``
# ---------------------------------------------------------------------------

def check_ledger_roundtrip() -> list[Finding]:
    """Record two study runs, list them back, diff a run against itself
    (all-zeros), and prune history down to one entry."""
    import tempfile

    from ..core.study import Study, StudyConfig
    from ..core.tables import build_table4
    from ..machines.registry import get_machine
    from ..obs.analyze import BenchRun, compare_runs
    from ..obs.ledger import RunLedger, record_study_run

    out = []
    with tempfile.TemporaryDirectory() as tmp:
        ledger = RunLedger(tmp)

        def record(started: float):
            study = Study(StudyConfig(runs=2, seed=77))
            build_table4(study, machines=[get_machine("sawtooth")])
            # distinct started values: the run id is content-addressed,
            # so identical records would collapse onto one id
            return record_study_run(
                study, targets=["table4"], ledger=ledger,
                started=started, finished=started + 1.0,
            )

        first = record(1.0)
        second = record(2.0)
        if first is None or second is None:
            return [Finding("-", "ledger", "recording returned None")]
        records, skipped = ledger.read_index()
        if len(records) != 2 or skipped:
            out.append(Finding(
                "-", "ledger",
                f"expected 2 index records, 0 skipped; got "
                f"{len(records)}, {skipped}",
            ))
        run = ledger.load(ledger.resolve("latest"))
        if run.metrics is None or run.manifest is None:
            out.append(Finding("-", "ledger",
                               "loaded run is missing documents"))
        else:
            comparison = compare_runs(
                BenchRun.from_json(run.metrics),
                BenchRun.from_json(run.metrics),
            )
            if comparison.regressed or comparison.missing():
                out.append(Finding("-", "ledger",
                                   "diff-against-self found deltas"))
            if any(r.verdict != "unchanged" for r in comparison.rows):
                out.append(Finding("-", "ledger",
                                   "diff-against-self rows not unchanged"))
        removed = ledger.gc(keep=1)
        kept, _skipped = ledger.read_index()
        if len(removed) != 1 or len(kept) != 1:
            out.append(Finding(
                "-", "ledger",
                f"gc(keep=1) removed {len(removed)}, kept {len(kept)}",
            ))
    return out


def check_ledger_regression_gate() -> list[Finding]:
    """An injected metric delta between two recorded runs must trip the
    comparator — the property ``runs diff`` exits 3 on."""
    import copy
    import tempfile

    from ..core.study import Study, StudyConfig
    from ..core.tables import build_table4
    from ..machines.registry import get_machine
    from ..obs.analyze import BenchRun, compare_runs
    from ..obs.ledger import RunLedger, record_study_run, study_metrics_doc

    out = []
    with tempfile.TemporaryDirectory() as tmp:
        ledger = RunLedger(tmp)
        study = Study(StudyConfig(runs=2, seed=77))
        build_table4(study, machines=[get_machine("sawtooth")])
        baseline = record_study_run(
            study, targets=["table4"], ledger=ledger,
            started=1.0, finished=2.0,
        )
        worse = copy.deepcopy(study_metrics_doc(study))
        metrics = worse["targets"]["study"]["metrics"]
        victim = next(
            k for k in sorted(metrics)
            if k.startswith("sim.") and metrics[k]["better"] == "lower"
        )
        metrics[victim]["mean"] *= 1.5
        injected = ledger.record(
            kind="cli", targets=["table4"], metrics=worse,
            outcome={"outcome": "ok", "exit_code": 0, "started": 3.0},
        )
        if baseline is None or injected is None:
            return [Finding("-", "ledger", "recording returned None")]
        run_a = ledger.load(baseline.run_id)
        run_b = ledger.load(injected.run_id)
        comparison = compare_runs(
            BenchRun.from_json(run_a.metrics),
            BenchRun.from_json(run_b.metrics),
        )
        if not comparison.regressed:
            out.append(Finding(
                "-", "ledger",
                f"1.5x delta on {victim} did not register as a regression",
            ))
    return out


def check_ledger_torn_index() -> list[Finding]:
    """A torn index tail must be skipped on read and sealed by the next
    append — the append-only JSONL crash discipline."""
    import tempfile

    from ..obs.ledger import RunLedger

    out = []
    with tempfile.TemporaryDirectory() as tmp:
        ledger = RunLedger(tmp)
        ledger.record(kind="cli", targets=["a"],
                      outcome={"outcome": "ok", "started": 1.0})
        with open(ledger.index_path, "a") as fh:
            fh.write('{"schema": "repro.ledger/v1", "run_id": "torn')
        records, skipped = ledger.read_index()
        if len(records) != 1 or skipped != 1:
            out.append(Finding(
                "-", "ledger",
                f"torn tail: expected 1 record + 1 skipped, got "
                f"{len(records)} + {skipped}",
            ))
        ledger.record(kind="cli", targets=["b"],
                      outcome={"outcome": "ok", "started": 2.0})
        records, skipped = ledger.read_index()
        if len(records) != 2 or skipped != 1:
            out.append(Finding(
                "-", "ledger",
                f"sealed append: expected 2 records + 1 skipped, got "
                f"{len(records)} + {skipped}",
            ))
    return out


LEDGER_CHECKS = (
    check_ledger_roundtrip,
    check_ledger_regression_gate,
    check_ledger_torn_index,
)


def run_ledger_smoke() -> list[Finding]:
    """Exercise the run ledger end to end; empty list = healthy."""
    findings: list[Finding] = []
    for check in LEDGER_CHECKS:
        findings.extend(check())
    return findings


def render_ledger_smoke(findings: list[Finding]) -> str:
    if not findings:
        return (
            f"ledger smoke passed: {len(LEDGER_CHECKS)} check families "
            f"(record/list/diff/gc roundtrip, injected-regression gate, "
            f"torn-index recovery)"
        )
    return "\n".join(str(f) for f in findings)


# ---------------------------------------------------------------------------
# regression-check smoke suite (``selfcheck --checks``)
# ---------------------------------------------------------------------------

def check_spec_roundtrip() -> list[Finding]:
    """A suite survives dict round-trip and bad specs are rejected."""
    from ..checks.spec import (
        CheckSpec,
        CheckSuite,
        Reference,
        StatPolicy,
        suite_from_dict,
    )
    from ..errors import CheckSpecError

    out: list[Finding] = []
    suite = CheckSuite(
        name="smoke",
        checks=(
            CheckSpec(
                name="latency",
                path="metrics:sim.latency",
                reference=Reference(5.67, None, 0.05, "us"),
                policy=StatPolicy(mode="welch", alpha=0.05),
            ),
            CheckSpec(
                name="bandwidth",
                path="metrics:sim.bandwidth",
                reference=Reference(100.0, -0.1, 0.1, "GB/s"),
                better="higher",
            ),
        ),
    )
    back = suite_from_dict(suite.to_dict())
    if back != suite:
        out.append(Finding("-", "checks",
                           "suite did not survive dict round-trip"))
    if back.checks[0].reference.to_tuple() != (5.67, None, 0.05, "us"):
        out.append(Finding("-", "checks",
                           "reference tuple lost in round-trip"))
    for bad, why in (
        ({"schema": "repro.checks/v2", "checks": []}, "bad schema"),
        ({"schema": "repro.checks/v1", "checks": []}, "empty suite"),
        ({"schema": "repro.checks/v1",
          "checks": [{"name": "x", "path": "p",
                      "reference": {"value": 1.0, "upper": -0.1}}]},
         "negative upper threshold"),
    ):
        try:
            suite_from_dict(bad)
        except CheckSpecError:
            continue
        out.append(Finding("-", "checks", f"{why} was not rejected"))
    return out


def check_injected_regression() -> list[Finding]:
    """An out-of-band observation must gate with the regression exit."""
    from ..checks.evaluate import (
        EXIT_INFLATED,
        EXIT_OK,
        EXIT_REGRESSION,
        evaluate,
    )
    from ..checks.extract import MetricsSource
    from ..checks.spec import CheckSpec, CheckSuite, Reference

    out: list[Finding] = []

    def suite_for(value: float) -> CheckSuite:
        return CheckSuite(
            name="smoke-gate",
            checks=(CheckSpec(
                name="lat",
                path="metrics:sim.latency",
                reference=Reference(value, -0.05, 0.05, "us"),
            ),),
        )

    def source_for(mean: float) -> MetricsSource:
        return MetricsSource({
            "sim.latency": {"mean": mean, "std": 0.01, "n": 5,
                            "better": "lower", "gate": True},
        })

    # observed 2.0 vs reference 1.0 (+-5%): slower latency = regression
    report = evaluate(suite_for(1.0), source_for(2.0))
    if report.exit_code != EXIT_REGRESSION:
        out.append(Finding("-", "checks",
                           f"injected regression exited "
                           f"{report.exit_code}, want {EXIT_REGRESSION}"))
    # observed 0.5: suspiciously *better* than the band = inflated
    report = evaluate(suite_for(1.0), source_for(0.5))
    if report.exit_code != EXIT_INFLATED:
        out.append(Finding("-", "checks",
                           f"inflated observation exited "
                           f"{report.exit_code}, want {EXIT_INFLATED}"))
    # in-band observation passes clean
    report = evaluate(suite_for(1.0), source_for(1.02))
    if report.exit_code != EXIT_OK:
        out.append(Finding("-", "checks",
                           f"in-band observation exited "
                           f"{report.exit_code}, want {EXIT_OK}"))
    # a dangling path must skip with a reason, never gate or crash
    report = evaluate(CheckSuite(
        name="smoke-skip",
        checks=(CheckSpec(
            name="missing", path="metrics:sim.nope",
            reference=Reference(1.0, -0.05, 0.05),
        ),),
    ), source_for(1.0))
    if report.exit_code != EXIT_OK or not report.skipped:
        out.append(Finding("-", "checks",
                           "missing metric did not skip cleanly"))
    elif not report.skipped[0].reason:
        out.append(Finding("-", "checks", "skip carries no reason"))
    return out


def check_adaptive_stopping() -> list[Finding]:
    """Adaptive sampling stops early on low variance, caps on high."""
    from ..checks.evaluate import adaptive_observe
    from ..checks.extract import CallableSource
    from ..checks.spec import CheckSpec, Reference, StatPolicy

    out: list[Finding] = []
    calls: list[int] = []

    def quiet_sampler(path: str, n: int) -> list[float]:
        calls.append(n)
        return [5.0 + 1e-9 * i for i in range(n)]

    spec = CheckSpec(
        name="quiet", path="cell",
        reference=Reference(5.0, -0.1, 0.1),
        policy=StatPolicy(min_repeats=3, max_repeats=64, ci_rel=0.05),
    )
    obs, repeats = adaptive_observe(CallableSource(quiet_sampler), spec)
    if repeats != 3:
        out.append(Finding("-", "checks",
                           f"low-variance cell took {repeats} repeats, "
                           f"want min_repeats=3"))
    if calls != [3]:
        out.append(Finding("-", "checks",
                           f"low-variance cell sampled {calls}, want [3]"))

    def noisy_sampler(path: str, n: int) -> list[float]:
        # +-50% swings: the CI target is unreachable, so the loop must
        # cap at max_repeats instead of spinning
        return [5.0 * (1 + (-0.5 if i % 2 else 0.5)) for i in range(n)]

    obs, repeats = adaptive_observe(CallableSource(noisy_sampler), spec)
    if repeats != spec.policy.max_repeats:
        out.append(Finding("-", "checks",
                           f"noisy cell stopped at {repeats} repeats, "
                           f"want max_repeats={spec.policy.max_repeats}"))
    if obs.n > spec.policy.max_repeats:
        out.append(Finding("-", "checks",
                           f"noisy cell exceeded max_repeats ({obs.n})"))
    return out


CHECKS_CHECKS = (
    check_spec_roundtrip,
    check_injected_regression,
    check_adaptive_stopping,
)


def run_checks_smoke() -> list[Finding]:
    """Exercise the regression-check subsystem; empty list = healthy."""
    findings: list[Finding] = []
    for check in CHECKS_CHECKS:
        findings.extend(check())
    return findings


def render_checks_smoke(findings: list[Finding]) -> str:
    if not findings:
        return (
            f"checks smoke passed: {len(CHECKS_CHECKS)} check families "
            f"(spec roundtrip, injected-regression gate, "
            f"adaptive stopping)"
        )
    return "\n".join(str(f) for f in findings)
