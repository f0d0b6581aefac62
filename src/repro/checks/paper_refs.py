"""The committed reference suite: the paper's headline values.

Every cell of Tables 4-6 becomes one :class:`CheckSpec` whose
reference is the paper's ``mean ± std`` (n = 100 runs) and whose band
is the repo's standing sim-vs-paper agreement target: the acceptance
tests pin the worst relative error below 5%, so the committed gate
allows ``±8%`` — tight enough to catch a real model drift, loose
enough that seed-to-seed noise cannot flake CI.

``python -m repro check`` evaluates this suite by default, and the
golden tests resolve every path here against a real run so no
reference can dangle.
"""

from __future__ import annotations

from ..harness.paper_values import paper_cells
from .extract import cell_meta
from .spec import CheckSpec, CheckSuite, Reference

__all__ = ["PAPER_TOLERANCE", "paper_suite"]

#: relative band half-width around every paper value (see module doc)
PAPER_TOLERANCE = 0.08

#: n the paper used for its mean/std columns
_PAPER_RUNS = 100

_TABLES = ("table4", "table5", "table6")


def paper_suite(
    tables: tuple[str, ...] = _TABLES,
    tolerance: float = PAPER_TOLERANCE,
) -> CheckSuite:
    """The paper-reference suite, optionally restricted to some tables;
    its checks follow the paper's order."""
    for table in tables:
        if table not in _TABLES:
            raise ValueError(
                f"unknown table {table!r} (want table4/5/6)"
            )
    checks = tuple(
        CheckSpec(name=path, path=path, reference=Reference(
            value=mean, lower=-tolerance, upper=tolerance,
            unit=cell_meta(path)[0], std=std, n=_PAPER_RUNS,
        ))
        for path, mean, std in paper_cells()
        if path.split(".", 1)[0] in tables
    )
    return CheckSuite(
        name="paper-refs",
        description=(
            "Headline values of Tables 4-6 from the paper, "
            f"±{tolerance:.0%} with the published std over "
            f"{_PAPER_RUNS} runs"
        ),
        checks=checks,
    )
