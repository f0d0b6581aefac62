"""Paper-vs-measured comparison (the EXPERIMENTS.md engine).

For every cell of Tables 4-6 this builds a :class:`ComparisonRow`
holding the paper's value, the simulation's value and the relative
error, and renders them as text/markdown.  The cells come from
:func:`~repro.harness.paper_values.paper_cells` and are read out of the
table rows by :class:`~repro.checks.extract.TableSource`, the map the
``check`` suite resolves too.
"""

from __future__ import annotations

from .._dataclass import dataclass
from ..analysis.format import layout_table
from ..analysis.metrics import relative_error
from ..checks.extract import ExtractionError, TableSource, cell_meta
from ..core.resilience import DEGRADED_MARK, Degraded
from .paper_values import paper_cells


@dataclass(frozen=True)
class ComparisonRow:
    """One compared quantity.

    ``measured_mean`` may be a :class:`Degraded` marker when the cell
    was lost to fault injection; such rows render as ``—†`` and carry
    no relative error (they must not pollute the error statistics).
    """

    table: str
    machine: str
    metric: str
    paper_mean: float
    measured_mean: float | Degraded

    @property
    def degraded(self) -> bool:
        return isinstance(self.measured_mean, Degraded)

    @property
    def rel_error(self) -> float:
        if self.degraded:
            raise ValueError(
                f"degraded cell {self.table}/{self.machine}/{self.metric} "
                "has no relative error"
            )
        return relative_error(self.measured_mean, self.paper_mean)

    def cells(self) -> list[str]:
        if self.degraded:
            measured, err = DEGRADED_MARK, DEGRADED_MARK
        else:
            measured = f"{self.measured_mean:.2f}"
            err = f"{self.rel_error * 100:.1f}%"
        return [
            self.table,
            self.machine,
            self.metric,
            f"{self.paper_mean:.2f}",
            measured,
            err,
        ]


def comparison_rows(table4=(), table5=(), table6=()) -> list[ComparisonRow]:
    """One row per paper cell the given table rows hold, in the paper's
    order; a degraded cell keeps its row, with the marker as its value."""
    source = TableSource(table4, table5, table6)
    out = []
    for path, mean, _std in paper_cells():
        try:
            row, value = source.lookup(path)
        except ExtractionError:
            continue  # no row for this machine, or no pair of this class
        out.append(ComparisonRow(
            f"T{path[5]}",  # table4.… -> T4
            row.machine, cell_meta(path)[1], mean,
            value if isinstance(value, Degraded) else value.mean,
        ))
    return out


def render_comparison(rows: list[ComparisonRow], markdown: bool = False) -> str:
    headers = ["Table", "Machine", "Metric", "Paper", "Measured", "RelErr"]
    cells = [r.cells() for r in rows]
    footnote = ""
    if any(r.degraded for r in rows):
        footnote = (
            f"\n{DEGRADED_MARK} cell degraded under fault injection; "
            "excluded from error statistics"
        )
    if not markdown:
        return layout_table(headers, cells) + footnote
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    lines += ["| " + " | ".join(c) + " |" for c in cells]
    return "\n".join(lines) + footnote
