"""``Comm_Duplex_*``: simultaneous bidirectional transfers.

Comm|Scope's duplex tests drive H->D and D->H (or both directions of a
GPU pair) at once on separate streams, measuring whether the two DMA
engines and the link's two directions actually overlap.  The paper's
Table 6 uses the unidirectional tests; duplex comes with the suite and
is exercised here as an extension.
"""

from __future__ import annotations

from ..._dataclass import dataclass
from ...errors import BenchmarkConfigError
from ...gpurt.api import DeviceRuntime
from ...machines.base import Machine


@dataclass(frozen=True)
class DuplexMeasurement:
    """One duplex test: aggregate rate over both directions."""

    machine: str
    description: str
    nbytes_each: int
    seconds: float

    @property
    def aggregate_bandwidth(self) -> float:
        """Total bytes moved (both directions) per second."""
        return 2 * self.nbytes_each / self.seconds


def duplex_host_device(
    machine: Machine, nbytes: int, device: int = 0
) -> DuplexMeasurement:
    """H->D and D->H of ``nbytes`` each, concurrently, on two streams."""
    if not machine.node.has_gpus:
        raise BenchmarkConfigError(f"{machine.name} has no accelerators")
    rt = DeviceRuntime(machine)
    h_src = rt.alloc_host(nbytes, pinned=True)
    h_dst = rt.alloc_host(nbytes, pinned=True)
    d_a = rt.alloc_device(device, nbytes)
    d_b = rt.alloc_device(device, nbytes)
    up_stream = rt.device(device).create_stream()
    down_stream = rt.device(device).create_stream()

    def host():
        t0 = rt.env.now
        up = yield from rt.memcpy_async(d_a, h_src, stream=up_stream)
        down = yield from rt.memcpy_async(h_dst, d_b, stream=down_stream)
        yield up.completion
        yield down.completion
        return rt.env.now - t0

    seconds = rt.run(host())
    return DuplexMeasurement(machine.name, "HostDevice", nbytes, seconds)


def duplex_gpu_gpu(
    machine: Machine, src_device: int, dst_device: int, nbytes: int
) -> DuplexMeasurement:
    """Both directions of a GPU pair at once (each device's engine sends)."""
    if src_device == dst_device:
        raise BenchmarkConfigError("duplex GPUToGPU needs two distinct devices")
    rt = DeviceRuntime(machine)
    a_out = rt.alloc_device(src_device, nbytes)
    a_in = rt.alloc_device(src_device, nbytes)
    b_out = rt.alloc_device(dst_device, nbytes)
    b_in = rt.alloc_device(dst_device, nbytes)

    def host():
        t0 = rt.env.now
        fwd = yield from rt.memcpy_async(b_in, a_out)
        rev = yield from rt.memcpy_async(a_in, b_out)
        yield fwd.completion
        yield rev.completion
        return rt.env.now - t0

    seconds = rt.run(host())
    return DuplexMeasurement(
        machine.name, f"GPUGPU[{src_device}<->{dst_device}]", nbytes, seconds
    )
