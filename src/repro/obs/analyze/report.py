"""Human-readable rendering for metrics documents, their comparisons
and phase attributions.

Everything routes through :func:`repro.analysis.format.layout_table` so
these reports match the table style of the rest of the harness.
"""

from __future__ import annotations

from ...analysis.format import layout_table
from .baseline import BenchComparison, BenchRun
from .critical_path import PhaseAttribution

_VERDICT_MARKS = {
    "improved": "+",
    "unchanged": "=",
    "regressed": "!",
    "missing": "?",
}


def _fmt_stat(mean: float | None, std: float | None) -> str:
    # a metric with no samples reports None, not a fabricated figure
    if mean is None:
        return "-"
    if not std:
        return f"{mean:.6g}"
    return f"{mean:.6g} ±{std:.2g}"


def render_run(run: BenchRun) -> str:
    """One row per (target, metric) of a ``repro.bench/v1`` document."""
    rows = []
    for target_name in sorted(run.targets):
        record = run.targets[target_name]
        for metric_name in sorted(record.metrics):
            stat = record.metrics[metric_name]
            rows.append([
                target_name,
                metric_name,
                _fmt_stat(stat.mean, stat.std),
                stat.unit,
                str(stat.n),
                "gate" if stat.gate else "advisory",
            ])
        if record.degraded:
            rows.append([target_name, "(degraded)", "—†", "", "", ""])
    table = layout_table(
        ["target", "metric", "value", "unit", "n", "role"], rows
    )
    header = (
        f"bench run: {len(run.targets)} target(s), "
        f"{run.repeats} repeat(s), seed {run.seed}, faults {run.faults}"
    )
    return f"{header}\n{table}"


def render_comparison(comparison: BenchComparison) -> str:
    """The baseline-vs-current verdict table plus a one-line summary."""
    rows = []
    for row in comparison.rows:
        base = f"{row.baseline.mean:.6g}" if row.baseline else "—"
        cur = f"{row.current.mean:.6g}" if row.current else "—"
        if row.baseline and row.current and row.baseline.mean != 0:
            signed = (row.current.mean - row.baseline.mean) / abs(
                row.baseline.mean
            )
            rel = f"{signed:+.1%}"
        else:
            rel = "—"
        rows.append([
            _VERDICT_MARKS[row.verdict],
            row.target,
            row.metric,
            base,
            cur,
            rel,
            f"{row.p_value:.3g}"
            if row.baseline and row.current and row.p_value is not None
            else "—",
            row.verdict + ("" if row.gate else " (advisory)"),
        ])
    table = layout_table(
        ["", "target", "metric", "baseline", "current", "delta", "p",
         "verdict"],
        rows,
    )
    regressions = comparison.regressions()
    missing = comparison.missing()
    lines = [table, ""]
    if regressions:
        names = ", ".join(f"{r.target}:{r.metric}" for r in regressions)
        lines.append(
            f"REGRESSED ({len(regressions)} gating metric(s)): {names}"
        )
    if missing:
        names = ", ".join(f"{r.target}:{r.metric}" for r in missing)
        lines.append(f"comparison incomplete, missing: {names}")
    if not regressions and not missing:
        lines.append(
            "no regressions "
            f"(threshold {comparison.threshold:.0%}, "
            f"alpha {comparison.alpha:g})"
        )
    return "\n".join(lines)


def render_attribution(attributions: list[PhaseAttribution]) -> str:
    """The per-cell phase digest: exclusive µs and share per phase."""
    if not attributions:
        return "no benchmark cell windows recorded"
    rows = []
    for attribution in attributions:
        shares = attribution.phase_shares()
        for phase, seconds in sorted(
            attribution.phases.items(), key=lambda kv: -kv[1]
        ):
            rows.append([
                attribution.cell,
                phase,
                f"{seconds * 1e6:.3f}",
                f"{shares[phase]:.1%}",
            ])
        rows.append([
            attribution.cell, "total", f"{attribution.total * 1e6:.3f}",
            "100.0%",
        ])
    return layout_table(["cell", "phase", "us", "share"], rows)
