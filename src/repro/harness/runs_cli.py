"""``python -m repro runs`` — cross-run analytics over the run ledger.

The ledger (:mod:`repro.obs.ledger`) records every CLI invocation;
this module is the query side:

* ``runs list`` — filterable history table (newest first), with the
  ``—†`` degraded-run footnote discipline of the results tables;
* ``runs show <run>`` — one run's config, outcome and metrics;
* ``runs diff <a> <b>`` — config-fingerprint diff plus the Welch-tested
  metric comparison of :mod:`repro.obs.analyze.baseline` (exit 3 on a
  significant regression, so CI can gate on history);
* ``runs trend <metric>`` — a metric's trajectory over ledgered runs as
  a sparkline;
* ``runs flame <run>`` — text flamegraph of the recorded critical-path
  attribution, with per-span drill-down via ``--cell``;
* ``runs gc`` — prune history to the newest N runs.

Run ids accept unique prefixes and ``latest``; all errors surface as
``error: ...`` on stderr with exit 2, mirroring the other harnesses.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from ..analysis.format import layout_table
from ..core.resilience import DEGRADED_MARK
from ..errors import LedgerError, ReproError
from ..obs.analyze import (
    BenchRun,
    compare_runs,
    render_comparison,
    render_flame,
    render_run,
)
from ..obs.ledger import RunLedger

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
        print(render_run(BenchRun.from_json(run.metrics)))
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


def _cmd_diff(ledger: RunLedger, args) -> int:
    run_a = ledger.load(ledger.resolve(args.a))
    run_b = ledger.load(ledger.resolve(args.b))
    for run, token in ((run_a, args.a), (run_b, args.b)):
        if run.metrics is None:
            raise LedgerError(
                f"run {run.run_id} (from {token!r}) has no metrics document"
            )
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
    comparison = compare_runs(
        BenchRun.from_json(run_a.metrics),
        BenchRun.from_json(run_b.metrics),
        threshold=args.threshold,
        alpha=args.alpha,
    )
    print()
    print(render_comparison(comparison))
    return EXIT_REGRESSED if comparison.regressed else 0


def _metric_points(
    doc: dict, metric: str, target_filter: Optional[str]
) -> list[tuple[str, float]]:
    """``(target, mean)`` for every target carrying ``metric``."""
    points = []
    for name in sorted(doc.get("targets", {})):
        if target_filter is not None and name != target_filter:
            continue
        stat = doc["targets"][name].get("metrics", {}).get(metric)
        if stat is not None:
            points.append((name, float(stat["mean"])))
    return points


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
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(runs_main())
