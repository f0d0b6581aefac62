"""Renderers for :class:`~repro.checks.evaluate.CheckReport`.

Both forms are deterministic functions of the report — no timestamps,
no host state — so goldens can pin them and the ``--jobs``
byte-identity property holds through rendering.
"""

from __future__ import annotations

import json

from ..analysis.format import layout_table
from .evaluate import CheckReport, CheckResult

__all__ = ["render_report", "render_report_json"]

_GLYPH = {"pass": "ok", "fail": "FAIL", "skip": "skip"}


def _band(result: CheckResult) -> str:
    ref = result.reference
    low = "-inf" if ref.lower is None else f"{ref.lower:+.0%}"
    high = "+inf" if ref.upper is None else f"{ref.upper:+.0%}"
    unit = f" {ref.unit}" if ref.unit else ""
    return f"{ref.value:g}{unit} [{low}, {high}]"


def _observed(result: CheckResult) -> str:
    obs = result.observed
    if obs is None:
        return "-"
    cell = f"{obs.mean:.4g}"
    if obs.n > 1:
        cell += f" ±{result.ci_width:.2g} (n={obs.n})"
    return cell


def render_report(report: CheckReport) -> str:
    """The text form: one aligned row per check, then a verdict line."""
    headers = ["check", "status", "observed", "reference", "note"]
    rows = []
    for result in report.results:
        note = result.reason
        if result.failure_kind:
            note = f"{result.failure_kind}: {note}" if note \
                else result.failure_kind
        if result.repeats:
            suffix = f"adaptive: {result.repeats} repeats"
            note = f"{note}; {suffix}" if note else suffix
        rows.append([
            result.name,
            _GLYPH.get(result.status, result.status),
            _observed(result),
            _band(result),
            note,
        ])
    lines = [
        f"check suite: {report.suite}"
        + (" (adaptive)" if report.adaptive else ""),
        layout_table(headers, rows),
    ]
    counts = (
        f"{len(report.passed)} passed, {len(report.failed)} failed, "
        f"{len(report.skipped)} skipped"
    )
    if report.regressions:
        verdict = f"REGRESSION: {counts}"
    elif report.inflated:
        verdict = f"INFLATED: {counts}"
    else:
        verdict = f"OK: {counts}"
    lines.append(verdict)
    return "\n".join(lines)


def render_report_json(report: CheckReport) -> str:
    """The JSON form: the report dict, stable key order, one per line."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)
