"""Table 7: min-max ranges per accelerator family.

"For accelerator platforms, we can summarize the results of Table 5 and
Table 6 by providing ranges for all of the mean values reported in the
tables." (paper section 4)
"""

from __future__ import annotations

from .._dataclass import dataclass
from ..errors import BenchmarkConfigError
from ..hardware.gpu import GpuFamily
from ..hardware.topology import LinkClass
from ..machines.registry import gpu_machines
from .resilience import Degraded
from .tables import Table5Row, Table6Row

#: the paper's family row order
FAMILY_ORDER = (GpuFamily.V100, GpuFamily.A100, GpuFamily.MI250X)


@dataclass(frozen=True)
class Range:
    """A min-max range over per-machine means."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise BenchmarkConfigError(f"inverted range: {self.low} > {self.high}")

    def format(self, digits: int = 2) -> str:
        return f"{self.low:.{digits}f}-{self.high:.{digits}f}"

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


def _range(values: list[float]) -> Range:
    if not values:
        raise BenchmarkConfigError("empty range")
    return Range(min(values), max(values))


def _means(cells: list) -> list[float]:
    """Per-machine means, skipping degraded cells."""
    return [c.mean for c in cells if not isinstance(c, Degraded)]


def _class_a_mean(cell) -> "float | None":
    """The class-A mean of a per-class dict, or None if degraded/absent."""
    if isinstance(cell, Degraded):
        return None
    stat = cell.get(LinkClass.A)
    if stat is None or isinstance(stat, Degraded):
        return None
    return stat.mean


@dataclass(frozen=True)
class Table7Row:
    """One accelerator family's ranges (GB/s and microseconds)."""

    family: GpuFamily
    memory_bw: Range
    mpi_latency: Range
    kernel_launch: Range
    kernel_wait: Range
    hd_latency: Range
    hd_bandwidth: Range
    d2d_latency: Range


def build_table7(
    table5: list[Table5Row], table6: list[Table6Row]
) -> list[Table7Row]:
    """Reduce Table 5 + Table 6 rows to the Table 7 family ranges.

    Note the paper's conventions: the "MPI Lat." column ranges over the
    *device* MPI latencies (class A, the headline figure per machine) and
    "D2D Lat." over all Comm|Scope class means.
    """
    family_of = {m.name: m.node.gpus[0].family for m in gpu_machines()}
    rows_by_family: dict[GpuFamily, Table7Row] = {}
    t6_by_name = {r.machine: r for r in table6}

    for family in FAMILY_ORDER:
        t5 = [r for r in table5 if family_of.get(r.machine) == family]
        t6 = [t6_by_name[r.machine] for r in t5 if r.machine in t6_by_name]
        if not t5 or not t6:
            continue
        # Table 5 quantities; degraded cells cannot contribute a mean,
        # so they are left out of the family ranges
        mem = _means([r.device_bw for r in t5])
        # the paper's "MPI Lat." column ranges over the class-A means
        # (18.10-18.72 for V100 — the ~19.5 us class-B cells excluded)
        mpi = [
            v for v in (_class_a_mean(r.device_to_device) for r in t5)
            if v is not None
        ]
        # Table 6 quantities
        launch = _means([r.launch for r in t6])
        wait = _means([r.wait for r in t6])
        hdl = _means([r.hd_latency for r in t6])
        hdb = _means([r.hd_bandwidth for r in t6])
        # like the MPI column, the paper ranges over the class-A cells
        # (its Table 7 V100 row is 23.91-24.97, excluding class B)
        d2d = [
            v for v in (_class_a_mean(r.d2d_latency) for r in t6)
            if v is not None
        ]
        if not all((mem, mpi, launch, wait, hdl, hdb, d2d)):
            # every machine of the family degraded for some quantity:
            # no range to report
            continue
        rows_by_family[family] = Table7Row(
            family=family,
            memory_bw=_range(mem),
            mpi_latency=_range(mpi),
            kernel_launch=_range(launch),
            kernel_wait=_range(wait),
            hd_latency=_range(hdl),
            hd_bandwidth=_range(hdb),
            d2d_latency=_range(d2d),
        )
    return [rows_by_family[f] for f in FAMILY_ORDER if f in rows_by_family]


def render_table7(rows: list[Table7Row]) -> str:
    headers = ["Accelerator", "Memory BW", "MPI Lat.", "Kernel Launch",
               "Kernel Wait", "H2D/D2H Lat.", "H2D/D2H BW", "D2D Lat."]
    body = [
        [r.family.value, r.memory_bw.format(), r.mpi_latency.format(),
         r.kernel_launch.format(), r.kernel_wait.format(),
         r.hd_latency.format(), r.hd_bandwidth.format(),
         r.d2d_latency.format()]
        for r in rows
    ]
    widths = [
        max(len(h), *(len(b[i]) for b in body)) if body else len(h)
        for i, h in enumerate(headers)
    ]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(headers), sep] + [fmt(b) for b in body])
