"""Utilization analysis from traces and link counters.

Answers "where did the time go": DMA-engine busy fractions from the
GPU runtime's ``dma:`` spans, and per-link traffic/occupancy
summaries from a cluster's :class:`~repro.netsim.links.LinkTable` —
the observability layer a performance study needs once experiments get
bigger than one ping-pong.
"""

from __future__ import annotations

from typing import Iterable

from .._dataclass import dataclass
from ..errors import BenchmarkConfigError
from ..obs.span import SpanRecord


@dataclass(frozen=True)
class DmaUtilization:
    """Aggregate DMA activity of one device over an observation window."""

    device: int
    transfers: int
    bytes_moved: int
    busy_seconds: float
    window_seconds: float

    @property
    def busy_fraction(self) -> float:
        if self.window_seconds <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / self.window_seconds)

    @property
    def achieved_bandwidth(self) -> float:
        """bytes/second while busy (0 if never busy)."""
        if self.busy_seconds <= 0:
            return 0.0
        return self.bytes_moved / self.busy_seconds


def dma_utilization(
    records: Iterable[SpanRecord], window_seconds: float
) -> dict[int, DmaUtilization]:
    """Per-device DMA utilization from the GPU runtime's ``dma:`` spans.

    Each copy leaves one ``dma:<kind>`` span carrying ``device`` and
    ``nbytes``; its simulated duration is the time the copy held an
    engine.  ``records`` is a tracer's :meth:`~repro.obs.span.Tracer
    .records`; spans of other names are ignored.
    """
    if window_seconds <= 0:
        raise BenchmarkConfigError(
            f"window must be positive: {window_seconds}"
        )
    acc: dict[int, dict[str, float]] = {}
    for record in records:
        if not record.name.startswith("dma:"):
            continue
        slot = acc.setdefault(
            int(record.attrs["device"]),
            {"transfers": 0, "bytes": 0, "busy": 0.0},
        )
        slot["transfers"] += 1
        slot["bytes"] += int(record.attrs["nbytes"])
        slot["busy"] += record.sim_end - record.sim_begin
    return {
        device: DmaUtilization(
            device=device,
            transfers=int(v["transfers"]),
            bytes_moved=int(v["bytes"]),
            busy_seconds=v["busy"],
            window_seconds=window_seconds,
        )
        for device, v in sorted(acc.items())
    }


@dataclass(frozen=True)
class LinkUsage:
    """One network link's traffic summary."""

    name: str
    transfers: int
    bytes_carried: int
    utilisation: float


def link_usage(link_table, window_seconds: float,
               busiest: int | None = None) -> list[LinkUsage]:
    """Traffic summary of a cluster's links, busiest first."""
    if window_seconds <= 0:
        raise BenchmarkConfigError(f"window must be positive: {window_seconds}")
    rows = [
        LinkUsage(
            name=link.name,
            transfers=link.transfers,
            bytes_carried=link.bytes_carried,
            utilisation=link.utilisation_until(window_seconds),
        )
        for link in link_table.links.values()
        if link.transfers > 0
    ]
    rows.sort(key=lambda r: r.bytes_carried, reverse=True)
    return rows[:busiest] if busiest is not None else rows


def render_link_usage(rows: list[LinkUsage]) -> str:
    lines = [f"{'link':22s} {'transfers':>9s} {'GB':>8s} {'util':>6s}"]
    for row in rows:
        lines.append(
            f"{row.name:22s} {row.transfers:9d} "
            f"{row.bytes_carried / 1e9:8.2f} {row.utilisation * 100:5.1f}%"
        )
    return "\n".join(lines)
