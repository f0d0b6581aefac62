"""Interconnect fabric models for the studied machines.

Constants are public, vendor-documented figures:

* **Slingshot-11** (Frontier, Perlmutter, RZVernal, Tioga): 200 Gb/s
  NICs (25 GB/s injection), ~2 us end-to-end MPI latency.
* **Slingshot-10** (Polaris at the June-2023 list): 100 Gb/s NICs.
* **EDR InfiniBand** (Summit, Sierra, Lassen, Sawtooth, Eagle):
  100 Gb/s, ~1 us MPI latency.
* **Aries** (Trinity, Theta): Cray XC40 dragonfly, ~1.3 us.
* **Omni-Path** (Manzano): 100 Gb/s, ~1 us.
"""

from __future__ import annotations

from .._dataclass import dataclass
from ..errors import HardwareConfigError, UnknownMachineError
from ..machines.base import Machine
from ..units import gb_per_s, ns, us


@dataclass(frozen=True)
class FabricSpec:
    """One network technology."""

    name: str
    #: NIC injection bandwidth per direction, bytes/second
    injection_bandwidth: float
    #: router-to-router (and NIC-to-router) link bandwidth, bytes/second
    link_bandwidth: float
    #: software+NIC overhead per message per side, seconds
    nic_overhead: float
    #: per-hop router traversal latency, seconds
    hop_latency: float
    #: cable/serialisation latency per link, seconds
    wire_latency: float
    #: large-message protocol efficiency (fraction of line rate)
    efficiency: float = 0.90

    def __post_init__(self) -> None:
        if self.injection_bandwidth <= 0 or self.link_bandwidth <= 0:
            raise HardwareConfigError(f"{self.name}: bandwidths must be positive")
        if min(self.nic_overhead, self.hop_latency, self.wire_latency) < 0:
            raise HardwareConfigError(f"{self.name}: negative latency")
        if not 0 < self.efficiency <= 1:
            raise HardwareConfigError(f"{self.name}: bad efficiency")

    def zero_byte_latency(self, hops: int) -> float:
        """One-way latency of an empty message over ``hops`` links."""
        if hops < 1:
            raise HardwareConfigError(f"need at least one hop, got {hops}")
        return (
            2 * self.nic_overhead
            + hops * (self.hop_latency + self.wire_latency)
        )

    def degraded(
        self, bandwidth_factor: float = 1.0, extra_latency: float = 0.0
    ) -> "FabricSpec":
        """This fabric under a whole-network degradation fault.

        Scales injection and per-link bandwidth by ``bandwidth_factor``
        and adds ``extra_latency`` to every wire traversal — the
        fabric-wide analogue of a per-link
        :class:`repro.faults.LinkFault` window, used to build clusters
        that are sick for an entire experiment.
        """
        if not 0.0 < bandwidth_factor <= 1.0:
            raise HardwareConfigError(
                f"{self.name}: bandwidth_factor must be in (0, 1]: "
                f"{bandwidth_factor}"
            )
        if extra_latency < 0:
            raise HardwareConfigError(
                f"{self.name}: negative extra latency: {extra_latency}"
            )
        return FabricSpec(
            name=f"{self.name} (degraded)",
            injection_bandwidth=self.injection_bandwidth * bandwidth_factor,
            link_bandwidth=self.link_bandwidth * bandwidth_factor,
            nic_overhead=self.nic_overhead,
            hop_latency=self.hop_latency,
            wire_latency=self.wire_latency + extra_latency,
            efficiency=self.efficiency,
        )


SLINGSHOT_11 = FabricSpec(
    name="Slingshot-11",
    injection_bandwidth=gb_per_s(25.0),
    link_bandwidth=gb_per_s(25.0),
    nic_overhead=us(0.75),
    hop_latency=ns(120),
    wire_latency=ns(60),
)

SLINGSHOT_10 = FabricSpec(
    name="Slingshot-10",
    injection_bandwidth=gb_per_s(12.5),
    link_bandwidth=gb_per_s(25.0),
    nic_overhead=us(0.85),
    hop_latency=ns(120),
    wire_latency=ns(60),
)

INFINIBAND_EDR = FabricSpec(
    name="EDR InfiniBand",
    injection_bandwidth=gb_per_s(12.5),
    link_bandwidth=gb_per_s(12.5),
    nic_overhead=us(0.40),
    hop_latency=ns(90),
    wire_latency=ns(50),
)

ARIES = FabricSpec(
    name="Aries",
    injection_bandwidth=gb_per_s(10.2),
    link_bandwidth=gb_per_s(5.25),
    nic_overhead=us(0.55),
    hop_latency=ns(100),
    wire_latency=ns(60),
)

OMNI_PATH = FabricSpec(
    name="Omni-Path",
    injection_bandwidth=gb_per_s(12.5),
    link_bandwidth=gb_per_s(12.5),
    nic_overhead=us(0.45),
    hop_latency=ns(110),
    wire_latency=ns(50),
)

FABRIC_CATALOG: dict[str, FabricSpec] = {
    "Frontier": SLINGSHOT_11,
    "Perlmutter": SLINGSHOT_11,
    "RZVernal": SLINGSHOT_11,
    "Tioga": SLINGSHOT_11,
    "Polaris": SLINGSHOT_10,
    "Summit": INFINIBAND_EDR,
    "Sierra": INFINIBAND_EDR,
    "Lassen": INFINIBAND_EDR,
    "Sawtooth": INFINIBAND_EDR,
    "Eagle": INFINIBAND_EDR,
    "Trinity": ARIES,
    "Theta": ARIES,
    "Manzano": OMNI_PATH,
}


def fabric_for_machine(machine: Machine | str) -> FabricSpec:
    """The interconnect technology a studied machine uses."""
    name = machine.name if isinstance(machine, Machine) else str(machine)
    try:
        return FABRIC_CATALOG[name]
    except KeyError:
        raise UnknownMachineError(
            f"no fabric recorded for {name!r}; known: {sorted(FABRIC_CATALOG)}"
        ) from None
