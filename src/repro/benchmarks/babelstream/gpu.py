"""BabelStream CUDA/HIP (device) backend on the simulated runtime.

Each operation is a kernel launch followed by a synchronize, timed on
the simulated host clock — the same structure as upstream, where small
sizes are launch-bound and the 1 GB vectors of the paper sit firmly on
the bandwidth plateau.  On the MI250X machines the runtime targets one
GCD, which is why (as the paper stresses) the reported figure is less
than half the two-GCD package peak.
"""

from __future__ import annotations

from ..._dataclass import dataclass
from ...errors import BenchmarkConfigError
from ...machines.base import Machine
from ...memsys.writealloc import ALL_KERNELS
from ...gpurt.api import DeviceRuntime
from ...gpurt.kernel import stream_kernel
from ...sim.random import NOISE_BANDWIDTH, Generator, NoiseModel
from .kernels import validate_kernels


@dataclass(frozen=True)
class GpuStreamRun:
    """Result of one device BabelStream binary execution."""

    machine: str
    device: int
    array_bytes: int
    #: reported bandwidth per operation name, bytes/second
    reported: dict[str, float]

    def best_op(self) -> tuple[str, float]:
        op = max(self.reported, key=lambda k: self.reported[k])
        return op, self.reported[op]


def run_gpu_stream(
    machine: Machine,
    array_bytes: int,
    device: int = 0,
    rng: Generator | None = None,
    noise: NoiseModel = NOISE_BANDWIDTH,
    validate: bool = True,
    injector=None,
    max_events: int | None = None,
) -> GpuStreamRun:
    """Execute one device BabelStream run (all five kernels, timed).

    ``injector`` arms GPU fault injection (kernel downclock) and
    ``max_events`` the simulation watchdog.
    """
    if not machine.node.has_gpus:
        raise BenchmarkConfigError(f"{machine.name} has no accelerators")
    if array_bytes < 16:
        raise BenchmarkConfigError(f"array too small: {array_bytes} bytes")
    capacity = machine.node.gpu_spec(device).memory.capacity
    if 3 * array_bytes > capacity:
        raise BenchmarkConfigError(
            f"three {array_bytes}-byte arrays exceed device memory ({capacity})"
        )

    if validate:
        validate_kernels()

    rt = DeviceRuntime(machine, injector=injector)
    jitter = 1.0 if rng is None else noise.sample(rng, 1.0)
    durations: dict[str, float] = {}

    def host():
        for kernel in ALL_KERNELS:
            spec = stream_kernel(kernel, array_bytes)
            t0 = rt.env.now
            yield from rt.launch_kernel(spec, device=device)
            yield from rt.device_synchronize(device)
            durations[kernel.name] = rt.env.now - t0

    rt.run(host(), max_events=max_events)

    reported = {}
    for kernel in ALL_KERNELS:
        counted = kernel.counted_bytes(array_bytes)
        # jitter scales the achieved bandwidth; overheads stay fixed
        reported[kernel.name] = counted / durations[kernel.name] * jitter
    return GpuStreamRun(
        machine=machine.name,
        device=device,
        array_bytes=array_bytes,
        reported=reported,
    )
