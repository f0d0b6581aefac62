"""``Comm_cudaDeviceSynchronize`` / ``Comm_hipDeviceSynchronize``.

Empty-queue wait latency: the host wall time of a device synchronize
when nothing is queued (paper section 3.2).
"""

from __future__ import annotations

from ...errors import BenchmarkConfigError
from ...gpurt.api import DeviceRuntime
from ...machines.base import Machine
from ...sim.random import NOISE_LAUNCH, Generator, NoiseModel
from .iteration import IterationController, run_adaptive

PROBE_BATCH = 8


def sync_latency(
    machine: Machine,
    device: int = 0,
    rng: Generator | None = None,
    noise: NoiseModel = NOISE_LAUNCH,
    injector=None,
    max_events: int | None = None,
) -> float:
    """One binary execution's empty-queue wait figure, seconds."""
    if not machine.node.has_gpus:
        raise BenchmarkConfigError(f"{machine.name} has no accelerators")
    rt = DeviceRuntime(machine, injector=injector)

    def host():
        yield from rt.device_synchronize(device)  # warm
        t0 = rt.env.now
        for _ in range(PROBE_BATCH):
            yield from rt.device_synchronize(device)
        return (rt.env.now - t0) / PROBE_BATCH

    base = rt.run(host(), max_events=max_events)
    _ctrl, per_iter = run_adaptive(base, IterationController())
    return per_iter if rng is None else noise.sample(rng, per_iter)
