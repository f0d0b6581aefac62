"""Interconnect link models.

A :class:`LinkSpec` describes one *lane bundle* of a link technology: its
per-direction peak bandwidth and its hardware signalling latency.  Links
between two components are :class:`LinkInstance` objects — a spec plus a
lane-bundle count (e.g. "2 NVLink2 bricks", "4 Infinity Fabric links").

Peak numbers come from vendor documentation:

* PCIe 3.0 x16: 15.75 GB/s per direction (8 GT/s × 16 lanes, 128b/130b).
* PCIe 4.0 x16: 31.5 GB/s per direction.
* NVLink 2.0 brick: 25 GB/s per direction (Volta whitepaper [1]).
* NVLink 3.0 link: 25 GB/s per direction (Ampere whitepaper [3]).
* AMD Infinity Fabric (xGMI) GPU-GPU link: 50 GB/s per direction
  (CDNA2 whitepaper [4]: 100 GB/s bidirectional per link).
* AMD Infinity Fabric CPU-GPU on Frontier-class nodes: 36 GB/s per
  direction (Frontier user guide [11]).
* Intel UPI: 10.4 GT/s ≈ 20.8 GB/s per direction.
* IBM X-Bus (Power9 socket-to-socket): 64 GB/s.
* KNL 2D mesh: per-hop latency dominates; bandwidth is effectively the
  on-die fabric and never a bottleneck for the paper's experiments.
"""

from __future__ import annotations

import enum

from .._dataclass import dataclass
from ..errors import HardwareConfigError
from ..units import gb_per_s, ns


class LinkKind(enum.Enum):
    """Link technology families used by the June-2023 DOE machines."""

    PCIE3 = "pcie3"
    PCIE4 = "pcie4"
    NVLINK2 = "nvlink2"
    NVLINK3 = "nvlink3"
    XGMI_GPU = "xgmi-gpu"          # AMD Infinity Fabric between GCDs
    XGMI_CPU_GPU = "xgmi-cpu-gpu"  # AMD Infinity Fabric CPU<->GCD
    UPI = "upi"                    # Intel socket-to-socket
    XBUS = "xbus"                  # IBM Power9 socket-to-socket
    KNL_MESH = "knl-mesh"          # Xeon Phi on-die mesh (per hop)
    ONDIE = "ondie"                # same-die fabric (effectively free)


@dataclass(frozen=True)
class LinkSpec:
    """One lane bundle of a link technology."""

    kind: LinkKind
    #: peak bandwidth per direction for ONE bundle, bytes/second
    bandwidth_per_dir: float
    #: hardware signalling latency of one traversal, seconds
    latency: float

    def __post_init__(self) -> None:
        if self.bandwidth_per_dir <= 0:
            raise HardwareConfigError(
                f"link bandwidth must be positive: {self.bandwidth_per_dir}"
            )
        if self.latency < 0:
            raise HardwareConfigError(f"negative link latency: {self.latency}")


#: Catalog of link technologies (see module docstring for provenance).
LINK_CATALOG: dict[LinkKind, LinkSpec] = {
    LinkKind.PCIE3: LinkSpec(LinkKind.PCIE3, gb_per_s(15.75), ns(500)),
    LinkKind.PCIE4: LinkSpec(LinkKind.PCIE4, gb_per_s(31.5), ns(400)),
    LinkKind.NVLINK2: LinkSpec(LinkKind.NVLINK2, gb_per_s(25.0), ns(300)),
    LinkKind.NVLINK3: LinkSpec(LinkKind.NVLINK3, gb_per_s(25.0), ns(250)),
    LinkKind.XGMI_GPU: LinkSpec(LinkKind.XGMI_GPU, gb_per_s(50.0), ns(350)),
    LinkKind.XGMI_CPU_GPU: LinkSpec(LinkKind.XGMI_CPU_GPU, gb_per_s(36.0), ns(400)),
    LinkKind.UPI: LinkSpec(LinkKind.UPI, gb_per_s(20.8), ns(130)),
    LinkKind.XBUS: LinkSpec(LinkKind.XBUS, gb_per_s(64.0), ns(120)),
    LinkKind.KNL_MESH: LinkSpec(LinkKind.KNL_MESH, gb_per_s(400.0), ns(4)),
    LinkKind.ONDIE: LinkSpec(LinkKind.ONDIE, gb_per_s(1000.0), ns(20)),
}


@dataclass(frozen=True)
class LinkInstance:
    """A concrete link: a technology spec plus a bundle count.

    ``count`` is the number of parallel lane bundles; aggregate bandwidth
    scales with count, latency does not.
    """

    spec: LinkSpec
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise HardwareConfigError(f"link bundle count must be >= 1: {self.count}")

    @property
    def kind(self) -> LinkKind:
        return self.spec.kind

    @property
    def bandwidth_per_dir(self) -> float:
        """Aggregate peak bandwidth per direction, bytes/second."""
        return self.spec.bandwidth_per_dir * self.count

    @property
    def latency(self) -> float:
        return self.spec.latency

    def describe(self) -> str:
        mult = f"{self.count}x " if self.count != 1 else ""
        return f"{mult}{self.spec.kind.value}"


def link(kind: LinkKind, count: int = 1) -> LinkInstance:
    """Convenience constructor using the catalog spec for ``kind``."""
    return LinkInstance(LINK_CATALOG[kind], count)
