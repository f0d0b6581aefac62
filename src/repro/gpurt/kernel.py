"""Kernel execution-time models.

A :class:`KernelSpec` maps a device to an execution duration.  Two kinds
matter to the paper: the **empty kernel** (zero work; what the launch
benchmark submits) and **streaming kernels** whose duration is memory
traffic divided by achieved device bandwidth (the BabelStream backend).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .._dataclass import dataclass
from ..errors import GpuRuntimeError
from ..memsys.hbm import device_stream_bandwidth
from ..memsys.writealloc import KernelTraffic

if TYPE_CHECKING:  # pragma: no cover
    from .api import Device

#: Device-side execution time of a kernel with no work: the hardware
#: still schedules a grid.  Negligible next to launch overheads.
EMPTY_KERNEL_DEVICE_TIME = 0.2e-6


@dataclass(frozen=True)
class KernelSpec:
    """One launchable kernel."""

    name: str
    duration_fn: Callable[["Device"], float]

    def duration_on(self, device: "Device") -> float:
        duration = self.duration_fn(device)
        if duration < 0:
            raise GpuRuntimeError(f"kernel {self.name} computed negative duration")
        return duration


EMPTY_KERNEL = KernelSpec("empty", lambda _device: EMPTY_KERNEL_DEVICE_TIME)


def stream_kernel(traffic: KernelTraffic, array_bytes: int) -> KernelSpec:
    """A BabelStream operation over arrays of ``array_bytes`` each.

    GPU stores stream past the cache, so actual traffic equals counted
    traffic (no write-allocate); the dot kernel's reduction penalty is
    applied by the bandwidth model.
    """
    if array_bytes <= 0:
        raise GpuRuntimeError(f"array size must be positive: {array_bytes}")

    def duration(device: "Device") -> float:
        bandwidth = device_stream_bandwidth(device.spec, device.calibration, traffic)
        actual = traffic.actual_bytes(array_bytes, write_allocate=False)
        return EMPTY_KERNEL_DEVICE_TIME + actual / bandwidth

    return KernelSpec(f"babelstream-{traffic.name.lower()}", duration)
