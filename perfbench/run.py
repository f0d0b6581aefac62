"""The repo benchmark: ``python -m repro`` workloads timed from outside.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run repeats its workload's commands (``workloads.py``), one fresh
interpreter at a time, for about ``--seconds`` and at least
``MIN_ROUNDS`` times, checks every output, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and the metrics
``BENCHMARK.json`` declares.  ``--trace 0`` reports the end-to-end
metrics, each the median over the run's repetitions, with times scaled
to a reference host speed (``REFERENCE``).  ``--trace 1``
alternates untraced repetitions with traced ones (``traced.py``) and
reports the per-layer metrics.  The lines before the last give each
metric's quartiles and sample count, the host's steal time and the
filesystem the working directories are on.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import re
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import (
    DIGESTS,
    ROOT,
    SRC,
    WORKLOADS,
    Workload,
    launch,
    load_digests,
    parse_output,
    problems,
    program_seed,
    trace_span_count,
)

HERE = Path(__file__).resolve().parent
TRACED = HERE / "traced.py"
WORK = HERE / ".work"

#: repetitions every untraced run makes, however long they take, so
#: each end-to-end value is a median of at least this many; a traced
#: run makes at least one (its per-layer metrics have no bound).  The
#: setup probe runs in the first MIN_ROUNDS rounds only.
MIN_ROUNDS = 4

SETUP = "import repro.harness.cli"

#: The host's speed drifts by a third within a minute (other tenants),
#: and a run of ``--seconds`` cannot average that out.  So a run times
#: this reference before every round and once after the last: it shares
#: no code with the repo but does the workloads' two kinds of work,
#: library imports and a pure-Python loop.  A round's times are scaled
#: by REFERENCE_S over the mean of the references around it: seconds on
#: a host that runs the reference in REFERENCE_S, its median on the
#: 2-core host the benchmark was tuned on.
REFERENCE = (
    "import numpy, networkx\n"
    "d = {}\n"
    "for i in range(400_000):\n"
    "    d[i % 997] = d.get(i % 997, 0) + i\n"
    "    x = [i, str(i)]\n"
)
REFERENCE_S = 0.65


@dataclass
class Iteration:
    """One pass over a workload's commands."""

    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: traced passes only: one spans document per command, the
    #: networkx cumulative import time, spans in the trace file
    spans: list[dict] = field(default_factory=list)
    networkx_s: float = 0.0
    trace_spans: int = 0


def run_iteration(
    name: str, seed: int, digests: dict, workdir: Path, traced: bool
) -> Iteration:
    workload = WORKLOADS[name]
    pseed = program_seed(seed)
    it = Iteration()
    for k, inv in enumerate(workload.invocations):
        cwd = workdir / f"{k}-{inv.key}"
        args = inv.argv(pseed, workdir / "cache")
        spans_path = cwd / "spans.json"
        if traced:
            argv = [sys.executable, "-X", "importtime", str(TRACED),
                    str(spans_path), *args]
        else:
            argv = [sys.executable, "-m", "repro", *args]
        done = launch(argv, cwd)
        it.attempted += 1
        it.wall_s += done.wall_s
        it.peak_rss_mb = max(it.peak_rss_mb, done.peak_rss_mb)
        expected = digests.get(name, {}).get(inv.key, {}).get(str(pseed))
        found = problems(done, inv, expected)
        if traced:
            try:
                it.spans.append(json.loads(spans_path.read_text()))
            except (OSError, ValueError) as exc:
                found.append(f"no spans: {exc}")
            it.networkx_s += networkx_import_s(done.stderr)
            if "trace.json" in inv.outputs and not found:
                it.trace_spans += trace_span_count(
                    parse_output(cwd / "trace.json"))
        it.failed += bool(found)
        it.failures += [f"{inv.key}: {p}" for p in found]
    return it


def networkx_import_s(stderr: bytes) -> float:
    """Cumulative ``networkx`` import time from ``-X importtime``."""
    match = re.search(
        rb"^import time:\s*\d+ \|\s*(\d+) \|\s*networkx\s*$",
        stderr, re.MULTILINE,
    )
    return int(match.group(1)) / 1e6 if match else 0.0


def probe(code: str, workdir: Path, what: str) -> Iteration:
    """``python -c code``, timed from spawn to exit."""
    done = launch([sys.executable, "-c", code], workdir)
    it = Iteration(wall_s=done.wall_s, attempted=1)
    if done.returncode != 0:
        it.failed = 1
        it.failures.append(f"{what}: exit status {done.returncode}")
    return it


def layer_metrics(it: Iteration) -> dict[str, float]:
    """The per-layer metrics of one traced pass.  Every ``_s`` metric
    is the self time of the named spans: their duration minus the part
    their child spans cover."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    requests: set[str] = set()
    modules = 0
    covered = window = 0.0
    for doc in it.spans:
        spans = doc["spans"]
        children = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
            else:
                covered += end - start
        for (span, start, end, _), inner in zip(spans, children):
            self_s[span] = self_s.get(span, 0.0) + end - start - inner
            calls[span] = calls.get(span, 0) + 1
        for counter, value in doc["counts"].items():
            counts[counter] = counts.get(counter, 0) + value
        requests.update(doc["requests"])
        modules += doc["modules"]
        window += doc["ended"] - doc["began"]
    s = lambda span: self_s.get(span, 0.0)  # noqa: E731
    computed = calls.get("core.cell", 0)
    return {
        "import.s": s("import"),
        "import.modules": modules,
        "import.networkx_s": it.networkx_s,
        "harness.render_s": s("harness.render"),
        "checks.evaluate_s": s("checks.evaluate"),
        "core.cells_computed": computed,
        "core.cells_distinct": len(requests),
        "core.cell_yield": len(requests) / computed if computed else 0.0,
        "core.cell_s": s("core.cell"),
        "cellcache.hits": counts.get("cellcache.hits", 0),
        "cellcache.stores": calls.get("cellcache.store", 0),
        "cellcache.load_s": s("cellcache.load"),
        "cellcache.store_s": s("cellcache.store"),
        "benchmarks.babelstream_s": s("benchmarks.babelstream"),
        "benchmarks.osu_s": s("benchmarks.osu"),
        "benchmarks.commscope_s": s("benchmarks.commscope"),
        "sim.events": counts.get("sim.events", 0),
        "sim.run_s": s("sim.run"),
        "gpurt.runtimes": calls.get("gpurt.runtime_init", 0),
        "gpurt.runtime_init_s": s("gpurt.runtime_init"),
        "openmp.teams": calls.get("openmp.team", 0),
        "openmp.team_s": s("openmp.team"),
        "hardware.pair_classifications":
            counts.get("hardware.pair_classifications", 0),
        "memsys.model_s": s("memsys.model"),
        "obs.spans": it.trace_spans,
        "obs.attribution_windows": counts.get("obs.attribution_windows", 0),
        "obs.attribution_s": s("obs.attribution"),
        "obs.export_s": s("obs.export"),
        "obs.events_s": s("obs.events"),
        "obs.ledger_s": s("obs.ledger"),
        "trace.coverage": covered / window if window else 0.0,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def steal_jiffies() -> tuple[int, int] | None:
    """(steal, total) CPU jiffies since boot, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def filesystem_of(path: Path) -> str:
    """``<fs type> at <mount point>`` for the mount holding ``path``."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as fh:
            for line in fh:
                head, _, tail = line.partition(" - ")
                mount = head.split()[4]
                inside = str(path) == mount or str(path).startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, tail.split()[0]
    except (OSError, IndexError):
        pass
    return f"{kind} at {best or '?'}"


@dataclass
class Run:
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, it: Iteration) -> None:
        self.attempted += it.attempted
        self.failed += it.failed
        self.failures += it.failures

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def median(self, key: str) -> float:
        return quartiles(self.samples[key])[1]


def measure(
    name: str, seed: int, seconds: float, trace: bool, digests: dict,
    workdir: Path,
) -> Run:
    """Repeat the workload for about ``seconds``, at least ``MIN_ROUNDS``
    times untraced, and take the medians."""
    workload: Workload = WORKLOADS[name]
    run = Run()
    traced_passes: list[Iteration] = []
    references: list[float] = []
    walls: list[float] = []
    setups: list[float] = []

    def reference(where: Path) -> None:
        done = probe(REFERENCE, where, "reference")
        run.add(done)
        references.append(done.wall_s)

    began = time.perf_counter()
    longest = 0.0
    rounds = 0
    least = 1 if trace else MIN_ROUNDS
    while rounds < least or time.perf_counter() - began + longest <= seconds:
        round_began = time.perf_counter()
        roundir = workdir / f"round-{rounds}"
        if trace:
            it = run_iteration(name, seed, digests, roundir / "plain", False)
            traced = run_iteration(name, seed, digests, roundir / "traced",
                                   True)
            run.add(it)
            run.add(traced)
            run.sample("untraced_wall_s", it.wall_s)
            run.sample("traced_wall_s", traced.wall_s)
            traced_passes.append(traced)
        else:
            reference(roundir / "reference")
            if rounds < MIN_ROUNDS:
                # what each of the workload's commands pays before main
                setup = probe(SETUP, roundir / "setup", "setup")
                run.add(setup)
                setups.append(setup.wall_s * len(workload.invocations))
            it = run_iteration(name, seed, digests, roundir / "plain", False)
            run.add(it)
            walls.append(it.wall_s)
            run.sample("peak_rss_mb", it.peak_rss_mb)
        shutil.rmtree(roundir, ignore_errors=True)
        rounds += 1
        longest = max(longest, time.perf_counter() - round_began)

    if not trace:
        reference(workdir / "reference")
        # a round is scaled by the references just before and after it
        scales = [2 * REFERENCE_S / (a + b)
                  for a, b in zip(references, references[1:])]
        run.samples.update(
            wall_s=[w * k for w, k in zip(walls, scales)],
            setup_s=[t * k for t, k in zip(setups, scales)],
            unscaled_wall_s=walls,
            reference_s=references,
        )
        run.metrics = {
            "wall_s": run.median("wall_s"),
            "setup_s": run.median("setup_s"),
            "peak_rss_mb": run.median("peak_rss_mb"),
            "ok_ratio": 1.0 - run.failed / run.attempted,
        }
        return run

    per_pass = [layer_metrics(it) for it in traced_passes if it.spans]
    for key in (per_pass[0] if per_pass else {}):
        run.samples[key] = values = [m[key] for m in per_pass]
        if isinstance(values[0], int):
            if len(set(values)) > 1:
                run.failures.append(
                    f"{key} differs between traced passes: {values}")
            run.metrics[key] = values[0]
        else:
            run.metrics[key] = run.median(key)
    run.metrics["trace.overhead_s"] = (
        run.median("traced_wall_s") - run.median("untraced_wall_s"))
    return run


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file() or not DIGESTS.is_file():
        print(f"perfbench: no repro sources under {SRC} or no {DIGESTS}",
              file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    digests = load_digests()
    # an installed package is byte-compiled; so is the measured one
    if not compileall.compile_dir(SRC / "repro", quiet=2):
        print("perfbench: src/repro does not compile", file=sys.stderr)
        return 2

    workdir = WORK / f"run-{os.getpid()}"
    steal_before = steal_jiffies()
    try:
        # untimed: page in the interpreter and the imported libraries
        probe(SETUP, workdir / "warm-up", "warm-up")
        run = measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            digests, workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    steal_after = steal_jiffies()

    missing = set(declared) - set(run.metrics)
    if missing:
        print(f"perfbench: metrics not measured: {sorted(missing)}",
              file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed} "
          f"(program seed {program_seed(args.seed)}), trace {args.trace}")
    print(f"working directories on {filesystem_of(WORK)}; "
          f"{os.cpu_count()} cores")
    if steal_before and steal_after and steal_after[1] > steal_before[1]:
        share = (steal_after[0] - steal_before[0]) / (
            steal_after[1] - steal_before[1])
        print(f"steal time during the run: {share:.1%} of CPU time")
    for key, values in run.samples.items():
        q1, q2, q3 = quartiles(values)
        print(f"  {key:32s} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"n {len(values)}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            key: {"value": run.metrics[key], "unit": unit}
            for key, unit in declared.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
