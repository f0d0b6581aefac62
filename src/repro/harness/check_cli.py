"""``python -m repro check`` — evaluate declarative regression checks.

Usage::

    python -m repro check                       # committed paper refs
    python -m repro check --runs 10             # faster study under it
    python -m repro check --spec checks.toml    # a custom suite
    python -m repro check --adaptive            # repeat-until-CI-target
    python -m repro check --ledger-run last     # gate a recorded run
    python -m repro check --json                # machine-readable report

Exit codes follow the evaluator's discipline: 0 when every check
passes (skips are advisory), 3 when any failure is a *regression*
(observation on the metric's bad side of the band), 4 when failures
are only *inflated* (suspiciously better than the reference — model
drift, not a slowdown).  Argparse usage errors exit 2 as usual.

Without ``--spec`` the committed :func:`repro.checks.paper_refs
.paper_suite` runs against a fresh study — the CI gate for
sim-vs-paper agreement.  ``--adaptive`` swaps the fixed-runs study for
per-check sequential sampling: each table cell starts at the policy's
``min_repeats`` and doubles until the confidence half-width of its
mean meets the target (or ``max_repeats`` caps it).
"""

from __future__ import annotations

import argparse
import sys

from ..checks.evaluate import evaluate
from ..checks.extract import (
    CompositeSource,
    ExtractionError,
    MetricsSource,
    Observation,
    Source,
    TableSource,
    ledger_source,
    study_source,
)
from ..checks.paper_refs import paper_suite
from ..checks.report import render_report, render_report_json
from ..checks.spec import load_suite
from ..core.study import Study, StudyConfig
from ..errors import ReproError


class StudyCellSource(Source):
    """A per-cell, per-repeat-count study source for adaptive sampling.

    ``resolve_n(path, n)`` runs *only* the table row the path names,
    under a fresh serial study configured for ``n`` repeats, so the
    adaptive loop can escalate one noisy cell without re-running the
    world (a study at ``jobs`` > 1 would compute the row's whole roster
    on its pool).  Built rows are cached per ``(table, machine, n)``.
    """

    def __init__(self, base: StudyConfig):
        self._base = base
        self._cache: dict[tuple[str, str, int], TableSource] = {}

    def resolve(self, path: str) -> Observation:
        return self.resolve_n(path, self._base.runs)

    def resolve_n(self, path: str, n: int) -> Observation:
        import dataclasses

        from ..core.tables import build_table4, build_table5, build_table6
        from ..machines.registry import get_machine

        parts = path.split(".")
        if len(parts) < 3 or parts[0] not in ("table4", "table5", "table6"):
            raise ExtractionError(
                f"{path}: adaptive sampling addresses table cells only "
                "(tableN.<machine>.<cell>)"
            )
        table, machine_name = parts[0], parts[1]
        try:
            machine = get_machine(machine_name)
        except ReproError as exc:
            raise ExtractionError(f"{path}: {exc}") from exc
        key = (table, machine_name.lower(), n)
        source = self._cache.get(key)
        if source is None:
            study = Study(dataclasses.replace(self._base, runs=n, jobs=1))
            builder = {
                "table4": build_table4,
                "table5": build_table5,
                "table6": build_table6,
            }[table]
            rows = builder(study, [machine])
            source = TableSource(
                table4=rows if table == "table4" else (),
                table5=rows if table == "table5" else (),
                table6=rows if table == "table6" else (),
            )
            self._cache[key] = source
        return source.resolve(path)


def _build_source(args) -> Source:
    if args.ledger_run:
        return ledger_source(args.ledger_run)
    if args.metrics:
        import json

        try:
            with open(args.metrics) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ReproError(
                f"cannot read metrics file {args.metrics}: {exc}"
            ) from exc
        return MetricsSource(doc)
    config = StudyConfig(runs=args.runs, seed=args.seed, jobs=args.jobs)
    if args.adaptive:
        return StudyCellSource(config)
    from ..machines.registry import cpu_machines, gpu_machines

    return study_source(Study(config), cpu_machines(), gpu_machines())


def check_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="Evaluate declarative regression checks "
                    "(repro.checks/v1) over study outputs.",
    )
    parser.add_argument(
        "--spec", type=str, default="", metavar="FILE",
        help="check-suite spec file (.toml or .json); default: the "
             "committed paper-reference suite",
    )
    parser.add_argument(
        "--adaptive", action="store_true",
        help="per-check sequential sampling: repeat each cell from the "
             "policy's min_repeats, doubling until its confidence "
             "half-width meets the target or max_repeats caps it",
    )
    parser.add_argument(
        "--runs", type=int, default=10,
        help="executions per measurement for the non-adaptive study "
             "(default: 10; the paper used 100)",
    )
    parser.add_argument(
        "--seed", type=int, default=20230612, help="root RNG seed"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the non-adaptive study's cells "
             "(report is byte-identical at any value)",
    )
    parser.add_argument(
        "--ledger-run", type=str, default="", metavar="RUN",
        help="evaluate against a recorded ledger run (id, unique prefix, "
             "or 'last') instead of running a study",
    )
    parser.add_argument(
        "--metrics", type=str, default="", metavar="FILE",
        help="evaluate against a repro.bench/v1 metrics/bench JSON file "
             "instead of running a study",
    )
    parser.add_argument(
        "--only", type=str, default="", metavar="NAMES",
        help="comma-separated subset of check names to evaluate",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the JSON report instead of the text table",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the stderr summary line; stdout is unchanged",
    )
    args = parser.parse_args(argv)

    try:
        suite = load_suite(args.spec) if args.spec else paper_suite()
        if args.only:
            suite = suite.subset(
                n.strip() for n in args.only.split(",") if n.strip()
            )
        source = _build_source(args)
        report = evaluate(suite, source, adaptive=args.adaptive)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_report_json(report) if args.json else render_report(report))
    if not args.quiet and report.skipped:
        print(
            f"note: {len(report.skipped)} check(s) skipped "
            "(see report reasons)",
            file=sys.stderr,
        )
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(check_main())
