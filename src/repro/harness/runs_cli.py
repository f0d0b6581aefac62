"""``python -m repro runs`` — cross-run analytics over the run ledger.

The ledger (:mod:`repro.obs.ledger`) records every CLI invocation;
this module is the query side:

* ``runs list`` — filterable history table (newest first), with the
  ``—†`` degraded-run footnote discipline of the results tables;
* ``runs show <run>`` — one run's config, outcome and metrics;
* ``runs diff <a> <b>`` — config-fingerprint diff, then run B's metrics
  judged by :func:`repro.checks.evaluate.evaluate` against a ``welch``
  check per gating metric of run A: A's mean ± ``--threshold``, tested
  at ``--alpha`` against A's std and n (exit 3 on a regression, so CI
  can gate on history);
* ``runs trend <metric>`` — a metric's trajectory over ledgered runs as
  a sparkline;
* ``runs flame <run>`` — text flamegraph of the recorded critical-path
  attribution, with per-span drill-down via ``--cell``;
* ``runs gc`` — prune history to the newest N runs.

Every metrics document is read through
:class:`~repro.checks.extract.MetricsSource`.  Run ids accept unique
prefixes and ``latest``; all errors surface as ``error: ...`` on stderr
with exit 2, mirroring the other harnesses.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from ..analysis.format import layout_table
from ..checks.extract import ExtractionError, MetricsSource
from ..core.resilience import DEGRADED_MARK
from ..errors import LedgerError, ReproError
from ..obs.analyze.flamegraph import render_flame
from ..obs.ledger import BENCH_SCHEMA, RunLedger

#: a statistically significant regression between the two diffed runs
EXIT_REGRESSED = 3

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float]) -> str:
    """Values as unicode block levels (flat series renders mid-level)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK_LEVELS[3] * len(values)
    span = hi - lo
    out = []
    for value in values:
        idx = int((value - lo) / span * (len(_SPARK_LEVELS) - 1))
        out.append(_SPARK_LEVELS[idx])
    return "".join(out)


def _fmt_when(ts) -> str:
    if ts is None:
        return "—"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(ts))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doe-microbench runs",
        description="List, inspect, diff and trend ledgered runs.",
    )
    parser.add_argument(
        "--ledger-dir", default=None, metavar="DIR",
        help="run-ledger root (default: $REPRO_LEDGER_DIR or .repro/runs)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="run history, newest first")
    p_list.add_argument(
        "--target", default=None,
        help="only runs whose target list contains this substring",
    )
    p_list.add_argument("--faults", default=None, metavar="PROFILE")
    p_list.add_argument("--limit", type=int, default=20, metavar="N")

    p_show = sub.add_parser("show", help="one run's record in full")
    p_show.add_argument("run", help="run id, unique prefix, or 'latest'")

    p_diff = sub.add_parser(
        "diff", help="compare two runs (exit 3 on regression)"
    )
    p_diff.add_argument("a", help="baseline run id / prefix / 'latest'")
    p_diff.add_argument("b", help="current run id / prefix / 'latest'")
    p_diff.add_argument("--threshold", type=float, default=0.02)
    p_diff.add_argument("--alpha", type=float, default=0.01)

    p_trend = sub.add_parser(
        "trend", help="one metric across ledgered runs"
    )
    p_trend.add_argument(
        "metric", help="metric name, e.g. sim.Sawtooth/osu/on-socket"
    )
    p_trend.add_argument(
        "--target", default=None,
        help="target the metric belongs to (required when ambiguous)",
    )
    p_trend.add_argument("--width", type=int, default=40)

    p_flame = sub.add_parser(
        "flame", help="text flamegraph of a run's recorded attribution"
    )
    p_flame.add_argument("run", help="run id, unique prefix, or 'latest'")
    p_flame.add_argument(
        "--cell", default=None,
        help="filter to cells matching this substring and drill into spans",
    )
    p_flame.add_argument("--width", type=int, default=32)

    p_gc = sub.add_parser("gc", help="prune history to the newest N runs")
    p_gc.add_argument("--keep", type=int, default=32, metavar="N")
    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cells_column(record: dict) -> str:
    cells = record.get("cells") or {}
    total = cells.get("total", 0)
    degraded = cells.get("degraded", 0)
    if degraded:
        return f"{total - degraded}/{total} {DEGRADED_MARK}"
    return str(total)


def _cmd_list(ledger: RunLedger, args) -> int:
    records, skipped = ledger.read_index()
    if skipped:
        print(
            f"note: skipped {skipped} unreadable index line(s)",
            file=sys.stderr,
        )
    records = list(reversed(records))
    if args.target:
        records = [
            r for r in records
            if any(args.target in t for t in r.get("targets", []))
        ]
    if args.faults:
        records = [r for r in records if r.get("faults") == args.faults]
    if args.limit > 0:
        records = records[: args.limit]
    if not records:
        print("no recorded runs match")
        return 0
    rows = []
    footnoted = []
    for r in records:
        cells = r.get("cells") or {}
        if cells.get("degraded"):
            footnoted.append((r["run_id"], cells["degraded"]))
        rows.append([
            r["run_id"],
            _fmt_when(r.get("finished") or r.get("started")),
            r.get("kind", "?"),
            ",".join(r.get("targets", [])) or "—",
            str(r.get("seed", "—")),
            str(r.get("jobs", "—")),
            r.get("faults", "none"),
            _cells_column(r),
            str(r.get("outcome", "?")),
            str(r.get("exit_code", "—")),
        ])
    print(layout_table(
        ["run", "recorded", "kind", "targets", "seed", "jobs",
         "faults", "cells", "outcome", "exit"],
        rows,
    ))
    if footnoted:
        print()
        for run_id, n in footnoted:
            print(
                f"{DEGRADED_MARK} {run_id}: {n} degraded cell(s) under "
                f"fault injection; excluded from error statistics"
            )
    return 0


def _metrics_source(run) -> MetricsSource:
    """A run's metrics document as a source; another schema is refused."""
    doc = run.metrics
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != BENCH_SCHEMA or not isinstance(doc.get("targets"), dict):
        raise LedgerError(
            f"run {run.run_id}: unsupported metrics schema {schema!r} "
            f"(want {BENCH_SCHEMA})"
        )
    return MetricsSource(doc)


def _render_metrics(run) -> str:
    """One row per (target, metric), then a row per degraded target."""
    rows = []
    for target, name, row in _metrics_source(run).rows():
        obs = MetricsSource.observation(f"{target}:{name}", row)
        value = f"{obs.mean:.6g}" + (f" ±{obs.std:.2g}" if obs.std else "")
        role = "gate" if row.get("gate", True) else "advisory"
        rows.append([target, name, value, obs.unit, str(obs.n), role])
    targets = run.metrics["targets"]
    rows += [
        [target, "(degraded)", DEGRADED_MARK, "", "", ""]
        for target, entry in targets.items() if entry.get("degraded")
    ]
    rows.sort(key=lambda r: r[0])  # stable: a target's metrics come first
    config = run.metrics.get("config", {})
    header = (
        f"bench run: {len(targets)} target(s), "
        f"{config.get('repeats', 1)} repeat(s), seed {config.get('seed', 0)}, "
        f"faults {config.get('faults', 'none')}"
    )
    table = layout_table(
        ["target", "metric", "value", "unit", "n", "role"], rows
    )
    return f"{header}\n{table}"


def _cmd_show(ledger: RunLedger, args) -> int:
    run = ledger.load(ledger.resolve(args.run))
    record = run.record or {}
    manifest = run.manifest or {}
    config = manifest.get("config", {})
    outcome = run.outcome or {}
    print(f"run {run.run_id}  ({record.get('kind', '?')})")
    print(f"recorded: {_fmt_when(record.get('finished'))}")
    print(
        f"config: seed={config.get('seed', '—')} "
        f"runs={config.get('runs', '—')} "
        f"jobs={config.get('jobs', '—')} "
        f"faults={config.get('faults', 'none')}"
    )
    print(f"fingerprint: {config.get('fingerprint', '—')}")
    wall = outcome.get("wall_seconds")
    print(
        f"outcome: {outcome.get('outcome', '?')} "
        f"(exit {outcome.get('exit_code', '—')}"
        + (f", wall {wall:.2f}s" if wall is not None else "")
        + ")"
    )
    for key in ("cache", "events"):
        if key in outcome:
            print(f"{key}: {outcome[key]}")
    if run.metrics is not None:
        print()
        print(_render_metrics(run))
    degraded = outcome.get("degraded") or []
    if degraded:
        print()
        for note in degraded:
            print(f"{DEGRADED_MARK} {note}")
    if run.attribution:
        print()
        print(
            f"attribution: {len(run.attribution)} cell window(s) recorded "
            f"(see `runs flame {run.run_id}`)"
        )
    return 0


def _diff_suite(run, threshold: float, alpha: float):
    """Each gating metric row of ``run`` as a ``welch`` check: its mean
    ± ``threshold``, tested at ``alpha`` against its std and n.

    Returns the suite and the names of the advisory rows it leaves out.
    """
    from ..checks.spec import CheckSpec, CheckSuite, Reference, StatPolicy

    policy = StatPolicy(mode="welch", alpha=alpha)
    checks, advisory = [], []
    for target, name, row in _metrics_source(run).rows():
        key = f"{target}:{name}"
        if not row.get("gate", True):
            advisory.append(key)
            continue
        base = MetricsSource.observation(key, row)
        checks.append(CheckSpec(
            name=key,
            path=f"metrics:{key}",
            reference=Reference(
                base.mean, -threshold, threshold, base.unit,
                std=base.std, n=base.n,
            ),
            policy=policy,
            better=str(row.get("better", "lower")),
        ))
    suite = CheckSuite(
        name=f"runs diff (welch, alpha {alpha:g})", checks=tuple(checks)
    )
    return suite, advisory


def _cmd_diff(ledger: RunLedger, args) -> int:
    from ..checks.evaluate import evaluate
    from ..checks.report import render_report

    run_a = ledger.load(ledger.resolve(args.a))
    run_b = ledger.load(ledger.resolve(args.b))
    for run, token in ((run_a, args.a), (run_b, args.b)):
        if run.metrics is None:
            raise LedgerError(
                f"run {run.run_id} (from {token!r}) has no metrics document"
            )
    suite, advisory = _diff_suite(run_a, args.threshold, args.alpha)
    current = _metrics_source(run_b)
    fp_a = ((run_a.manifest or {}).get("config") or {}).get("fingerprint")
    fp_b = ((run_b.manifest or {}).get("config") or {}).get("fingerprint")
    print(f"baseline: {run_a.run_id}   current: {run_b.run_id}")
    if fp_a and fp_b and fp_a == fp_b:
        print(f"config fingerprints identical ({fp_a[:12]}…)")
    else:
        print("config fingerprints differ:")
        conf_a = (run_a.manifest or {}).get("config") or {}
        conf_b = (run_b.manifest or {}).get("config") or {}
        for key in sorted(set(conf_a) | set(conf_b)):
            if conf_a.get(key) != conf_b.get(key):
                print(f"  {key}: {conf_a.get(key)!r} -> {conf_b.get(key)!r}")
    report = evaluate(suite, current)
    print()
    print(render_report(report))
    baseline = {check.name for check in suite} | set(advisory)
    for key in advisory:
        print(f"not judged: {key} (advisory)")
    for target, name, _row in current.rows():
        if f"{target}:{name}" not in baseline:
            print(f"not judged: {target}:{name} (not in the baseline run)")
    # an improvement fails its check as "inflated" but does not gate
    return EXIT_REGRESSED if report.regressions else 0


def _metric_points(
    doc: dict, metric: str, target_filter: Optional[str]
) -> list[tuple[str, float]]:
    """``(target, mean)`` for every target carrying ``metric``."""
    return [
        (target, float(row["mean"]))
        for target, name, row in MetricsSource(doc).rows()
        if name == metric and target_filter in (None, target)
    ]


def _cmd_trend(ledger: RunLedger, args) -> int:
    rows: list[list[str]] = []
    values: list[float] = []
    records, _skipped = ledger.read_index()
    for record in records:
        run = ledger.load(record["run_id"])
        if run.metrics is None:
            continue
        points = _metric_points(run.metrics, args.metric, args.target)
        if len(points) > 1:
            names = ", ".join(name for name, _v in points)
            raise LedgerError(
                f"metric {args.metric!r} appears in multiple targets "
                f"({names}); disambiguate with --target"
            )
        for _name, value in points:
            rows.append([
                f"run {record['run_id']}",
                _fmt_when(record.get("finished")),
                f"{value:.6g}",
            ])
            values.append(value)
    if not values:
        print(f"no recorded value for metric {args.metric!r}")
        return 1
    print(layout_table(["source", "recorded", args.metric], rows))
    print()
    print(f"trend: {sparkline(values[-args.width:])}")
    print(
        f"min {min(values):.6g}  max {max(values):.6g}  "
        f"last {values[-1]:.6g}  ({len(values)} point(s))"
    )
    return 0


def _cmd_flame(ledger: RunLedger, args) -> int:
    run = ledger.load(ledger.resolve(args.run))
    if not run.attribution:
        print(
            f"run {run.run_id} has no recorded attribution "
            f"(re-run with --trace-out/--metrics-out to capture one)"
        )
        return 0
    sys.stdout.write(render_flame(
        run.attribution,
        width=args.width,
        cell=args.cell,
        drill=args.cell is not None,
    ))
    return 0


def _cmd_gc(ledger: RunLedger, args) -> int:
    removed = ledger.gc(keep=args.keep)
    records, _skipped = ledger.read_index()
    print(f"removed {len(removed)} run(s), kept {len(records)}")
    return 0


def runs_main(argv=None) -> int:
    args = _parser().parse_args(argv)
    ledger = RunLedger(args.ledger_dir)
    handler = {
        "list": _cmd_list,
        "show": _cmd_show,
        "diff": _cmd_diff,
        "trend": _cmd_trend,
        "flame": _cmd_flame,
        "gc": _cmd_gc,
    }[args.command]
    try:
        return handler(ledger, args)
    except (ReproError, ExtractionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(runs_main())
