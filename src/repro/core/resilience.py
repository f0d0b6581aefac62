"""Resilient cell execution: bounded retries + graceful degradation.

The paper's sweep runs ~100 binary executions per cell across 13
machines; on real DOE systems individual binaries crash, nodes go away
and jobs hit walltime, yet the study still ships a table.  This module
gives the simulated study the same property: every benchmark *cell*
(one machine x one metric) runs in an isolated attempt loop, and a cell
whose attempts are exhausted is recorded as :class:`Degraded` instead
of killing the whole run.

A :class:`Degraded` value stands in for a
:class:`~repro.core.results.Statistic` anywhere a table holds one: it
renders as the ``—†`` marker and survives unit scaling, so the builders
and renderers need no special-casing beyond the footnote block.
"""

from __future__ import annotations

from dataclasses import field
from typing import Any, Callable

from .._dataclass import dataclass
from ..errors import ReproError

#: what a degraded cell renders as in tables (footnote marker included)
DEGRADED_MARK = "—†"


@dataclass(frozen=True)
class Degraded:
    """A benchmark cell that could not produce a number.

    Duck-types the pieces of :class:`~repro.core.results.Statistic` the
    table pipeline touches (``format``/``scaled``) so it can flow
    through builders and renderers unchanged.
    """

    label: str
    reason: str
    attempts: int = 1

    def format(self, digits: int = 2) -> str:
        return DEGRADED_MARK

    def scaled(self, factor: float) -> "Degraded":
        return self

    @property
    def mean(self) -> float:
        raise ReproError(
            f"degraded cell {self.label} has no mean ({self.reason})"
        )

    def footnote(self) -> str:
        tries = "attempt" if self.attempts == 1 else "attempts"
        return f"{self.label}: {self.reason} ({self.attempts} {tries})"


@dataclass
class ResilienceLog:
    """Every degraded cell of one study, in execution order."""

    entries: list[Degraded] = field(default_factory=list)

    def record(self, entry: Degraded) -> None:
        self.entries.append(entry)

    def extend(self, entries: list[Degraded]) -> None:
        """Merge a worker cell's degraded entries, preserving order.

        The per-cell retry loop runs *inside* the worker process; only
        its outcome travels back, so the parent merges whole-cell entry
        lists in consumption order and ends up with the same log a
        serial run would have written.
        """
        self.entries.extend(entries)

    @property
    def degraded_count(self) -> int:
        return len(self.entries)

    def summary(self) -> str:
        if not self.entries:
            return "resilience: all cells healthy"
        lines = [f"resilience: {len(self.entries)} degraded cell(s)"]
        lines += [f"  † {e.footnote()}" for e in self.entries]
        return "\n".join(lines)


def run_cell(
    fn: Callable[[], Any],
    *,
    label: tuple[str, ...],
    injector=None,
    max_retries: int = 2,
    log: ResilienceLog | None = None,
) -> Any:
    """Run one benchmark cell with bounded retries.

    Each attempt first lets the injector kill the cell (simulated node
    failure — drawn independently per attempt, so retries genuinely
    recover), then runs ``fn``.  Any :class:`ReproError` — injected
    faults, watchdog timeouts, deadlocks — consumes an attempt; once
    ``max_retries`` extra attempts are spent, the cell degrades to a
    :class:`Degraded` record instead of propagating.

    Non-:class:`ReproError` exceptions (genuine bugs) propagate.
    """
    attempt = 0
    while True:
        attempt += 1
        try:
            if injector is not None:
                injector.check_cell(*label, attempt=attempt)
            return fn()
        except ReproError as exc:
            if attempt <= max_retries:
                continue
            degraded = Degraded(
                label="/".join(label),
                reason=f"{type(exc).__name__}: {exc}",
                attempts=attempt,
            )
            if log is not None:
                log.record(degraded)
            return degraded


def degraded_in(cell: Any) -> list[Degraded]:
    """All distinct :class:`Degraded` values reachable from one cell
    value (a scalar cell, a per-class dict, or a stats bundle)."""
    if isinstance(cell, Degraded):
        return [cell]
    if isinstance(cell, dict):
        out: list[Degraded] = []
        for value in cell.values():
            out.extend(degraded_in(value))
        return out
    return []
