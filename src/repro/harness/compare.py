"""Paper-vs-measured comparison (the EXPERIMENTS.md engine).

For every cell of Tables 4-6 this builds a :class:`ComparisonRow`
holding the paper's value, the simulation's value and the relative
error, and renders them as text/markdown.
"""

from __future__ import annotations

from .._dataclass import dataclass
from ..analysis.format import layout_table
from ..analysis.metrics import relative_error
from ..core.resilience import DEGRADED_MARK, Degraded
from ..core.tables import Table4Row, Table5Row, Table6Row
from .paper_values import PAPER_TABLE4, PAPER_TABLE5, PAPER_TABLE6


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


def _measured(stat) -> float | Degraded:
    return stat if isinstance(stat, Degraded) else stat.mean


def compare_table4(rows: list[Table4Row]) -> list[ComparisonRow]:
    out = []
    for row in rows:
        ref = PAPER_TABLE4[row.machine]
        for metric, stat in (
            ("single GB/s", row.single),
            ("all GB/s", row.all_threads),
            ("on-socket us", row.on_socket),
            ("on-node us", row.on_node),
        ):
            key = metric.split()[0].replace("-", "_")
            out.append(ComparisonRow(
                "T4", row.machine, metric, ref[key][0],
                stat if isinstance(stat, Degraded) else stat.mean,
            ))
    return out


def compare_table5(rows: list[Table5Row]) -> list[ComparisonRow]:
    out = []
    for row in rows:
        ref = PAPER_TABLE5[row.machine]
        out.append(ComparisonRow(
            "T5", row.machine, "device GB/s", ref["device_bw"][0],
            _measured(row.device_bw),
        ))
        out.append(ComparisonRow(
            "T5", row.machine, "host-host us", ref["host"][0],
            _measured(row.host_to_host),
        ))
        d2d = row.device_to_device
        if isinstance(d2d, Degraded):
            # the whole per-class dict was lost: one row per paper class
            d2d = {cls: d2d for cls in ref["d2d"]}
        for cls, stat in sorted(d2d.items(), key=lambda kv: kv[0].value):
            if cls in ref["d2d"]:
                out.append(ComparisonRow(
                    "T5", row.machine, f"d2d[{cls.value}] us",
                    ref["d2d"][cls][0], _measured(stat),
                ))
    return out


def compare_table6(rows: list[Table6Row]) -> list[ComparisonRow]:
    out = []
    for row in rows:
        ref = PAPER_TABLE6[row.machine]
        for metric, key, stat in (
            ("launch us", "launch", row.launch),
            ("wait us", "wait", row.wait),
            ("hd-lat us", "hd_lat", row.hd_latency),
            ("hd-bw GB/s", "hd_bw", row.hd_bandwidth),
        ):
            out.append(ComparisonRow(
                "T6", row.machine, metric, ref[key][0], _measured(stat)
            ))
        d2d = row.d2d_latency
        if isinstance(d2d, Degraded):
            d2d = {cls: d2d for cls in ref["d2d"]}
        for cls, stat in sorted(d2d.items(), key=lambda kv: kv[0].value):
            if cls in ref["d2d"]:
                out.append(ComparisonRow(
                    "T6", row.machine, f"d2d[{cls.value}] us",
                    ref["d2d"][cls][0], _measured(stat),
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


def worst_relative_error(rows: list[ComparisonRow]) -> ComparisonRow:
    rows = [r for r in rows if not r.degraded]
    if not rows:
        raise ValueError("no comparison rows")
    return max(rows, key=lambda r: r.rel_error)


def gate_comparison(rows: list[ComparisonRow], tolerance: float = 0.05):
    """Judge every comparison row through the shared checks evaluator.

    Each non-degraded row becomes one interval check — the paper mean
    with a ``±tolerance`` relative band — evaluated by
    :func:`repro.checks.evaluate.evaluate`, so the sim-vs-paper gate
    uses the exact same threshold semantics as ``repro check``.
    Degraded rows are excluded the same way the error
    statistics exclude them.  Returns the
    :class:`~repro.checks.evaluate.CheckReport`.
    """
    from ..checks.evaluate import evaluate
    from ..checks.extract import MetricsSource
    from ..checks.spec import CheckSpec, CheckSuite, Reference

    specs = []
    metrics: dict[str, dict] = {}
    for row in rows:
        if row.degraded:
            continue
        name = f"{row.table}/{row.machine}/{row.metric}"
        metrics[name] = {"mean": row.measured_mean, "std": 0.0, "n": 1}
        specs.append(CheckSpec(
            name=name,
            path=f"metrics:{name}",
            reference=Reference(
                row.paper_mean, -tolerance, tolerance,
                row.metric.split()[-1],
            ),
        ))
    suite = CheckSuite(name="paper-compare", checks=tuple(specs))
    return evaluate(suite, MetricsSource(metrics))
