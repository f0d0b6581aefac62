"""Table rendering of phase attributions.

Everything routes through :func:`repro.analysis.format.layout_table` so
these reports match the table style of the rest of the harness.
"""

from __future__ import annotations

from ...analysis.format import layout_table
from .critical_path import PhaseAttribution


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
