"""``Comm_*MemcpyAsync_*``: data-copy latency and bandwidth.

Per the paper (section 4): copies invoke and complete an asynchronous
memcpy; host-side buffers are pinned; latency uses 128 B transfers and
bandwidth uses 1 GB transfers; H2D and D2H are averaged and reported
together; device-to-device copies are reported per link class.
"""

from __future__ import annotations

from ..._dataclass import dataclass
from ...errors import BenchmarkConfigError
from ...gpurt.api import DeviceRuntime
from ...gpurt.buffers import Buffer
from ...hardware.topology import LinkClass
from ...machines.base import Machine
from ...obs import runtime as obs_runtime
from ...sim.random import NOISE_BANDWIDTH, NOISE_LATENCY, Generator, NoiseModel

#: the paper's transfer sizes
LATENCY_BYTES = 128
BANDWIDTH_BYTES = 1 << 30


@dataclass(frozen=True)
class MemcpyMeasurement:
    """One memcpy test: time and derived rate."""

    machine: str
    description: str
    nbytes: int
    #: issue-to-completion wall time, seconds
    seconds: float

    @property
    def bandwidth(self) -> float:
        """bytes/second over the full issue-to-completion window."""
        return self.nbytes / self.seconds


def _timed_copy(rt: DeviceRuntime, dst: Buffer, src: Buffer, nbytes: int,
                sync_device: int, max_events: int | None) -> float:
    def host():
        t0 = rt.env.now
        yield from rt.memcpy_async(dst, src, nbytes)
        yield from rt.stream_synchronize(sync_device)
        # the cell window the trace analyzer attributes phases within
        obs_runtime.current().tracer.complete(
            "cs.memcpy", "benchmarks", t0, rt.env.now, nbytes=nbytes,
        )
        return rt.env.now - t0

    return rt.run(host(), max_events=max_events)


def memcpy_pinned_to_gpu(
    machine: Machine,
    nbytes: int,
    device: int = 0,
    rng: Generator | None = None,
    noise: NoiseModel | None = None,
    injector=None,
    max_events: int | None = None,
) -> MemcpyMeasurement:
    """``Comm_cudaMemcpyAsync_PinnedToGPU`` (H2D, pinned source).

    ``injector`` arms GPU fault injection (DMA stalls) and
    ``max_events`` the simulation watchdog, here and in the other tests
    of this module.
    """
    rt = DeviceRuntime(machine, injector=injector)
    src = rt.alloc_host(nbytes, pinned=True)
    dst = rt.alloc_device(device, nbytes)
    seconds = _timed_copy(rt, dst, src, nbytes, device, max_events)
    seconds = _jitter(seconds, nbytes, rng, noise)
    return MemcpyMeasurement(machine.name, "PinnedToGPU", nbytes, seconds)


def memcpy_gpu_to_pinned(
    machine: Machine,
    nbytes: int,
    device: int = 0,
    rng: Generator | None = None,
    noise: NoiseModel | None = None,
    injector=None,
    max_events: int | None = None,
) -> MemcpyMeasurement:
    """``Comm_cudaMemcpyAsync_GPUToPinned`` (D2H, pinned destination)."""
    rt = DeviceRuntime(machine, injector=injector)
    src = rt.alloc_device(device, nbytes)
    dst = rt.alloc_host(nbytes, pinned=True)
    seconds = _timed_copy(rt, dst, src, nbytes, device, max_events)
    seconds = _jitter(seconds, nbytes, rng, noise)
    return MemcpyMeasurement(machine.name, "GPUToPinned", nbytes, seconds)


def memcpy_d2d(
    machine: Machine,
    src_device: int,
    dst_device: int,
    nbytes: int,
    rng: Generator | None = None,
    noise: NoiseModel | None = None,
    injector=None,
    max_events: int | None = None,
) -> MemcpyMeasurement:
    """``Comm_cudaMemcpyAsync_GPUToGPU`` between two devices."""
    if src_device == dst_device:
        raise BenchmarkConfigError("GPUToGPU needs two distinct devices")
    rt = DeviceRuntime(machine, injector=injector)
    src = rt.alloc_device(src_device, nbytes)
    dst = rt.alloc_device(dst_device, nbytes)
    seconds = _timed_copy(rt, dst, src, nbytes, src_device, max_events)
    seconds = _jitter(seconds, nbytes, rng, noise)
    return MemcpyMeasurement(
        machine.name, f"GPUToGPU[{src_device}->{dst_device}]", nbytes, seconds
    )


def d2d_by_class(
    machine: Machine,
    nbytes: int = LATENCY_BYTES,
    rng: Generator | None = None,
    noise: NoiseModel | None = None,
    injector=None,
    max_events: int | None = None,
) -> dict[LinkClass, MemcpyMeasurement]:
    """One representative GPUToGPU measurement per topology link class."""
    names = machine.node.gpu_names()
    out: dict[LinkClass, MemcpyMeasurement] = {}
    for cls, (a, b) in machine.node.topology.representative_pairs().items():
        out[cls] = memcpy_d2d(
            machine, names.index(a), names.index(b), nbytes, rng, noise,
            injector=injector, max_events=max_events,
        )
    return out


def _jitter(
    seconds: float,
    nbytes: int,
    rng: Generator | None,
    noise: NoiseModel | None,
) -> float:
    if rng is None:
        return seconds
    if noise is None:
        noise = NOISE_LATENCY if nbytes <= 4096 else NOISE_BANDWIDTH
    return noise.sample(rng, seconds)
