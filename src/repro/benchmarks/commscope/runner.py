"""One full Comm|Scope binary execution per machine.

Collects everything Table 6 needs: launch, wait, the averaged
(H->D + D->H)/2 latency and bandwidth, and D->D latency per link class.
"""

from __future__ import annotations

from dataclasses import field

from ..._dataclass import dataclass
from ...errors import BenchmarkConfigError
from ...hardware.topology import LinkClass
from ...machines.base import Machine
from ...sim.random import Generator
from ...units import to_gb_per_s, to_us
from .launch import launch_latency
from .memcpy_tests import (
    BANDWIDTH_BYTES,
    LATENCY_BYTES,
    d2d_by_class,
    memcpy_gpu_to_pinned,
    memcpy_pinned_to_gpu,
)
from .sync import sync_latency


@dataclass(frozen=True)
class CommScopeResults:
    """All Table 6 quantities from one binary execution (seconds / B/s)."""

    machine: str
    launch: float
    wait: float
    #: (H->D + D->H)/2 at 128 B, seconds
    hd_latency: float
    #: (H->D + D->H)/2 at 1 GB, bytes/second
    hd_bandwidth: float
    #: D->D latency at 128 B per link class, seconds
    d2d_latency: dict[LinkClass, float] = field(default_factory=dict)

    def summary(self) -> str:
        parts = [
            f"{self.machine}: launch {to_us(self.launch):.2f} us",
            f"wait {to_us(self.wait):.2f} us",
            f"H<->D {to_us(self.hd_latency):.2f} us / "
            f"{to_gb_per_s(self.hd_bandwidth):.2f} GB/s",
        ]
        for cls in sorted(self.d2d_latency, key=lambda c: c.value):
            parts.append(f"D2D[{cls.value}] {to_us(self.d2d_latency[cls]):.2f} us")
        return ", ".join(parts)


def run_commscope(
    machine: Machine,
    device: int = 0,
    rng: Generator | None = None,
    injector=None,
    max_events: int | None = None,
) -> CommScopeResults:
    """Execute the whole Comm|Scope suite once on ``machine``.

    ``injector`` arms GPU fault injection (kernel downclock, DMA
    stalls) and ``max_events`` the watchdog of every test's simulation.
    """
    if not machine.node.has_gpus:
        raise BenchmarkConfigError(f"{machine.name} has no accelerators")
    sim = {"injector": injector, "max_events": max_events}

    launch = launch_latency(machine, device, rng, **sim)
    wait = sync_latency(machine, device, rng, **sim)

    h2d_lat = memcpy_pinned_to_gpu(machine, LATENCY_BYTES, device, rng, **sim)
    d2h_lat = memcpy_gpu_to_pinned(machine, LATENCY_BYTES, device, rng, **sim)
    hd_latency = (h2d_lat.seconds + d2h_lat.seconds) / 2

    h2d_bw = memcpy_pinned_to_gpu(machine, BANDWIDTH_BYTES, device, rng, **sim)
    d2h_bw = memcpy_gpu_to_pinned(machine, BANDWIDTH_BYTES, device, rng, **sim)
    hd_bandwidth = (h2d_bw.bandwidth + d2h_bw.bandwidth) / 2

    d2d = {
        cls: m.seconds
        for cls, m in d2d_by_class(machine, LATENCY_BYTES, rng, **sim).items()
    }

    return CommScopeResults(
        machine=machine.name,
        launch=launch,
        wait=wait,
        hd_latency=hd_latency,
        hd_bandwidth=hd_bandwidth,
        d2d_latency=d2d,
    )
