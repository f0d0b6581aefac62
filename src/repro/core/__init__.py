"""The paper's study harness: orchestration, tables, figures, reports.

:mod:`~repro.core.study` runs each benchmark binary the paper's 100
times and aggregates mean +- std; :mod:`~repro.core.tables` builds the
exact rows of Tables 4-6; :mod:`~repro.core.summary` reduces them to the
Table 7 ranges; :mod:`~repro.core.figures` renders the node diagrams of
Figures 1-3.
"""

from .. import _lazy_exports

__all__, __getattr__ = _lazy_exports(__name__, {
    ".parallel": ("CellOutcome", "CellScheduler", "CellTask", "resolve_jobs"),
    ".resilience": ("DEGRADED_MARK", "Degraded", "ResilienceLog"),
    ".results": ("Statistic",),
    ".spec": ("ExperimentSpec", "all_experiments", "get_experiment"),
    ".study": ("Study",),
    ".config": ("StudyConfig",),
    ".tables": (
        "Table4Row",
        "Table5Row",
        "Table6Row",
        "build_table4",
        "build_table5",
        "build_table6",
        "render_table4",
        "render_table5",
        "render_table6",
    ),
    ".summary": ("Table7Row", "build_table7", "render_table7"),
    ".figures": ("render_node_ascii", "render_node_dot", "figure_for"),
})
