"""GPU (accelerator) models.

A :class:`GpuSpec` describes one *device as seen by the programming
model*: for NVIDIA parts that is the whole GPU; for the AMD MI250X it is
one **Graphics Compute Die (GCD)** — HIP exposes each GCD as a separate
device, which is why the paper's Frontier rows describe 8 "GPUs" per node
and why BabelStream only ever exercises half of an MI250X package.
"""

from __future__ import annotations

import enum

from .._dataclass import dataclass
from ..errors import HardwareConfigError
from .memory import MemorySpec, hbm2, hbm2e


class GpuVendor(enum.Enum):
    NVIDIA = "NVIDIA"
    AMD = "AMD"


class GpuFamily(enum.Enum):
    """Accelerator families present in the paper (Table 3 / Table 7)."""

    V100 = "V100"
    A100 = "A100"
    MI250X = "MI250X"


@dataclass(frozen=True)
class GpuSpec:
    """One accelerator device (a full NVIDIA GPU or one AMD GCD)."""

    model: str
    vendor: GpuVendor
    family: GpuFamily
    memory: MemorySpec
    #: compute throughput is irrelevant to the paper's bandwidth/latency
    #: focus, but kernels need *some* execution-rate model
    fp64_tflops: float
    #: devices per physical package (2 for MI250X GCDs, 1 for NVIDIA)
    dies_per_package: int = 1

    def __post_init__(self) -> None:
        if self.fp64_tflops <= 0:
            raise HardwareConfigError(f"fp64 rate must be positive: {self.fp64_tflops}")
        if self.dies_per_package < 1:
            raise HardwareConfigError(
                f"dies_per_package must be >= 1: {self.dies_per_package}"
            )

    @property
    def peak_bandwidth(self) -> float:
        """Device-memory peak bandwidth, bytes/second."""
        return self.memory.peak_bandwidth


def v100(hbm_gib: int = 16) -> GpuSpec:
    """NVIDIA Tesla V100 (Volta GV100): 900 GB/s HBM2 [1]."""
    return GpuSpec(
        model="Tesla V100",
        vendor=GpuVendor.NVIDIA,
        family=GpuFamily.V100,
        memory=hbm2(hbm_gib, 900.0),
        fp64_tflops=7.8,
    )


def a100_40gb() -> GpuSpec:
    """NVIDIA A100-40GB (Ampere): 1555.2 GB/s HBM2e [3].

    Perlmutter's majority partition and all of Polaris use the 40 GB SKU;
    the paper measures only those.
    """
    return GpuSpec(
        model="A100-SXM4-40GB",
        vendor=GpuVendor.NVIDIA,
        family=GpuFamily.A100,
        memory=hbm2e(40, 1555.2),
        fp64_tflops=9.7,
    )


def mi250x_gcd() -> GpuSpec:
    """One GCD of an AMD MI250X: 1638.4 GB/s HBM2e (half of 3276.8) [4, 9]."""
    return GpuSpec(
        model="MI250X (GCD)",
        vendor=GpuVendor.AMD,
        family=GpuFamily.MI250X,
        memory=hbm2e(64, 1638.4),
        fp64_tflops=23.9,
        dies_per_package=2,
    )
