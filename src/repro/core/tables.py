"""Builders and renderers for the paper's result tables (4, 5, 6).

Each ``build_tableN`` runs the study on the relevant machines and
returns structured rows; each ``render_tableN`` lays the rows out as a
text table in the paper's units (GB/s and microseconds).
"""

from __future__ import annotations

from dataclasses import field

from .._dataclass import dataclass
from ..hardware.topology import LinkClass
from ..machines.base import Machine
from ..machines.registry import cpu_machines, gpu_machines
from ..benchmarks.osu.runner import PairKind
from ..units import GB, US
from .resilience import Degraded, degraded_in
from .results import Statistic
from .study import Study

_TO_GBS = 1.0 / GB
_TO_US = 1.0 / US

#: column order for the device-pair classes
CLASS_ORDER = (LinkClass.A, LinkClass.B, LinkClass.C, LinkClass.D)


# ---------------------------------------------------------------------------
# Table 4: non-accelerator systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table4Row:
    """One CPU machine: bandwidths in GB/s, latencies in microseconds."""

    machine: str
    rank: int
    single: Statistic
    all_threads: Statistic
    peak_label: str
    on_socket: Statistic
    on_node: Statistic


def build_table4(
    study: Study | None = None, machines: list[Machine] | None = None
) -> list[Table4Row]:
    study = study or Study()
    machines = machines if machines is not None else cpu_machines()
    rows = []
    for m in machines:
        rows.append(
            Table4Row(
                machine=m.name,
                rank=m.rank,
                single=study.cpu_bandwidth(m, single_thread=True).scaled(_TO_GBS),
                all_threads=study.cpu_bandwidth(m, single_thread=False).scaled(_TO_GBS),
                peak_label=m.peak_label,
                on_socket=study.host_latency(m, PairKind.ON_SOCKET).scaled(_TO_US),
                on_node=study.host_latency(m, PairKind.ON_NODE).scaled(_TO_US),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Table 5: accelerator systems, BabelStream + OSU
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table5Row:
    """One GPU machine: device bandwidth (GB/s) and MPI latencies (us).

    Any field may hold a :class:`Degraded` marker instead of a
    statistic when the study ran under fault injection.
    """

    machine: str
    rank: int
    device_bw: Statistic
    peak_label: str
    host_to_host: Statistic
    device_to_device: dict[LinkClass, Statistic] | Degraded = field(
        default_factory=dict
    )


def build_table5(
    study: Study | None = None, machines: list[Machine] | None = None
) -> list[Table5Row]:
    study = study or Study()
    machines = machines if machines is not None else gpu_machines()
    rows = []
    for m in machines:
        by_class = study.device_latency(m)
        if not isinstance(by_class, Degraded):
            by_class = {
                cls: stat.scaled(_TO_US) for cls, stat in by_class.items()
            }
        rows.append(
            Table5Row(
                machine=m.name,
                rank=m.rank,
                device_bw=study.gpu_bandwidth(m).scaled(_TO_GBS),
                peak_label=m.peak_label,
                host_to_host=study.host_latency(m, PairKind.ON_SOCKET).scaled(_TO_US),
                device_to_device=by_class,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Table 6: accelerator systems, Comm|Scope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table6Row:
    """One GPU machine's Comm|Scope figures (us and GB/s)."""

    machine: str
    rank: int
    launch: Statistic
    wait: Statistic
    hd_latency: Statistic
    hd_bandwidth: Statistic
    d2d_latency: dict[LinkClass, Statistic] | Degraded = field(
        default_factory=dict
    )


def build_table6(
    study: Study | None = None, machines: list[Machine] | None = None
) -> list[Table6Row]:
    study = study or Study()
    machines = machines if machines is not None else gpu_machines()
    rows = []
    for m in machines:
        cs = study.commscope(m)
        if isinstance(cs, Degraded):
            rows.append(
                Table6Row(
                    machine=m.name, rank=m.rank, launch=cs, wait=cs,
                    hd_latency=cs, hd_bandwidth=cs, d2d_latency=cs,
                )
            )
            continue
        rows.append(
            Table6Row(
                machine=m.name,
                rank=m.rank,
                launch=cs.launch.scaled(_TO_US),
                wait=cs.wait.scaled(_TO_US),
                hd_latency=cs.hd_latency.scaled(_TO_US),
                hd_bandwidth=cs.hd_bandwidth.scaled(_TO_GBS),
                d2d_latency={
                    cls: stat.scaled(_TO_US)
                    for cls, stat in cs.d2d_latency.items()
                },
            )
        )
    return rows


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _layout(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    def fmt(cells: list[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(headers), sep] + [fmt(r) for r in rows])


def _class_cells(
    stats: dict[LinkClass, Statistic] | Degraded,
) -> list[str]:
    if isinstance(stats, Degraded):
        return [stats.format()] * len(CLASS_ORDER)
    return [
        stats[cls].format() if cls in stats else ""
        for cls in CLASS_ORDER
    ]


def _footnotes(cells: list) -> str:
    """Footnote block for every distinct degraded cell, or ''.

    Distinctness is by identity: a degraded stats bundle (Comm|Scope)
    puts the same :class:`Degraded` object in several columns and must
    footnote once.
    """
    seen: dict[int, Degraded] = {}
    for cell in cells:
        for entry in degraded_in(cell):
            seen.setdefault(id(entry), entry)
    if not seen:
        return ""
    return "\n" + "\n".join(
        f"† degraded: {entry.footnote()}" for entry in seen.values()
    )


def render_table4(rows: list[Table4Row]) -> str:
    headers = ["Rank/Name", "Single (GB/s)", "All (GB/s)", "Peak",
               "On-Socket (us)", "On-Node (us)"]
    body = [
        [f"{r.rank}. {r.machine}", r.single.format(), r.all_threads.format(),
         r.peak_label, r.on_socket.format(), r.on_node.format()]
        for r in rows
    ]
    notes = _footnotes(
        [c for r in rows for c in (r.single, r.all_threads, r.on_socket, r.on_node)]
    )
    return _layout(headers, body) + notes


def render_table5(rows: list[Table5Row]) -> str:
    headers = ["Rank/Name", "Device (GB/s)", "Peak", "Host-to-Host (us)",
               "A", "B", "C", "D"]
    body = [
        [f"{r.rank}. {r.machine}", r.device_bw.format(), r.peak_label,
         r.host_to_host.format(), *_class_cells(r.device_to_device)]
        for r in rows
    ]
    notes = _footnotes(
        [c for r in rows for c in (r.device_bw, r.host_to_host, r.device_to_device)]
    )
    return _layout(headers, body) + notes


def render_table6(rows: list[Table6Row]) -> str:
    headers = ["Rank/Name", "Launch (us)", "Wait (us)", "H<->D Lat (us)",
               "H<->D BW (GB/s)", "A", "B", "C", "D"]
    body = [
        [f"{r.rank}. {r.machine}", r.launch.format(), r.wait.format(),
         r.hd_latency.format(), r.hd_bandwidth.format(),
         *_class_cells(r.d2d_latency)]
        for r in rows
    ]
    notes = _footnotes(
        [c for r in rows
         for c in (r.launch, r.wait, r.hd_latency, r.hd_bandwidth, r.d2d_latency)]
    )
    return _layout(headers, body) + notes
