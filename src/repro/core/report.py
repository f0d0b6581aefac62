"""Markdown study report: every table, figure and paper comparison."""

from __future__ import annotations

from .._version import (
    BABELSTREAM_VERSION,
    COMMSCOPE_VERSION,
    OSU_MICROBENCHMARKS_VERSION,
    TOP500_EDITION,
    __version__,
)
from ..machines.registry import all_machines, cpu_machines, gpu_machines
from .figures import FIGURE_MACHINES, figure_for, render_node_ascii
from .study import Study
from .summary import build_table7, render_table7
from .tables import (
    build_table4,
    build_table5,
    build_table6,
    render_table4,
    render_table5,
    render_table6,
)


def inventory_section() -> str:
    """Tables 2/3/8/9: machine and software inventory."""
    lines = ["## Systems under study", ""]
    lines.append("### Non-accelerator systems (Table 2 / Table 8)")
    lines.append("")
    for m in cpu_machines():
        sw = m.software
        lines.append(
            f"- **{m.ranked_name()}** ({m.location}) — {m.cpu_model}; "
            f"compiler `{sw.compiler}`, MPI `{sw.mpi}`"
        )
    lines.append("")
    lines.append("### Accelerator systems (Table 3 / Table 9)")
    lines.append("")
    for m in gpu_machines():
        sw = m.software
        note = f" ({m.notes})" if m.notes else ""
        lines.append(
            f"- **{m.ranked_name()}** ({m.location}) — {m.cpu_model} + "
            f"{m.node.n_gpus} x {m.accelerator_model}{note}; "
            f"compiler `{sw.compiler}`, device `{sw.device_library}`, "
            f"MPI `{sw.mpi}`"
        )
    return "\n".join(lines)


def full_report(study: Study | None = None, include_comparison: bool = True) -> str:
    """The complete study as a markdown document."""
    # imported here to avoid a core -> harness import cycle at module load
    from ..harness.compare import comparison_rows, render_comparison

    study = study or Study()
    t4 = build_table4(study)
    t5 = build_table5(study)
    t6 = build_table6(study)
    t7 = build_table7(t5, t6)

    parts = [
        "# Simulated DOE microbenchmark study",
        "",
        f"repro {__version__}: BabelStream {BABELSTREAM_VERSION}, "
        f"OSU Micro-Benchmarks {OSU_MICROBENCHMARKS_VERSION}, "
        f"Comm|Scope {COMMSCOPE_VERSION} behaviour on simulated "
        f"{TOP500_EDITION} Top500 DOE nodes "
        f"({study.config.runs} executions per binary).",
        "",
        inventory_section(),
        "",
        "## Table 4 — non-accelerator systems",
        "", "```", render_table4(t4), "```", "",
        "## Table 5 — accelerator systems (BabelStream + OSU)",
        "", "```", render_table5(t5), "```", "",
        "## Table 6 — accelerator systems (Comm|Scope)",
        "", "```", render_table6(t6), "```", "",
        "## Table 7 — per-family ranges",
        "", "```", render_table7(t7), "```", "",
        "## Figures 1-3 — node topologies",
        "",
    ]
    for number in sorted(FIGURE_MACHINES):
        machine = figure_for(number)
        parts += [f"### Figure {number}: {machine.name}", "",
                  "```", render_node_ascii(machine), "```", ""]

    if include_comparison:
        parts += [
            "## Paper vs. measured (all table cells)",
            "",
            render_comparison(comparison_rows(t4, t5, t6), markdown=True),
            "",
        ]
    return "\n".join(parts)
