"""``Comm_cudart_kernel`` / ``Comm_hip_kernel``: launch latency.

Measures the host wall time of *launching* (not completing) empty,
zero-argument kernels — paper section 4.  The probe batch runs on the
simulated clock; the adaptive controller then fixes the iteration count
and the per-iteration figure is the launch call's host cost.
"""

from __future__ import annotations

from ...errors import BenchmarkConfigError
from ...gpurt.api import DeviceRuntime
from ...gpurt.kernel import EMPTY_KERNEL
from ...machines.base import Machine
from ...sim.random import NOISE_LAUNCH, Generator, NoiseModel
from .iteration import IterationController, run_adaptive

#: kernels launched per DES probe batch (enough to amortise queue state)
PROBE_BATCH = 8


def launch_latency(
    machine: Machine,
    device: int = 0,
    rng: Generator | None = None,
    noise: NoiseModel = NOISE_LAUNCH,
    injector=None,
    max_events: int | None = None,
) -> float:
    """One binary execution's launch-latency figure, seconds."""
    if not machine.node.has_gpus:
        raise BenchmarkConfigError(f"{machine.name} has no accelerators")
    rt = DeviceRuntime(machine, injector=injector)

    def host():
        # warm the queue, then time a probe batch of launches only
        yield from rt.launch_kernel(EMPTY_KERNEL, device=device)
        yield from rt.device_synchronize(device)
        t0 = rt.env.now
        for _ in range(PROBE_BATCH):
            yield from rt.launch_kernel(EMPTY_KERNEL, device=device)
        per_launch = (rt.env.now - t0) / PROBE_BATCH
        yield from rt.device_synchronize(device)
        return per_launch

    base = rt.run(host(), max_events=max_events)
    _ctrl, per_iter = run_adaptive(base, IterationController())
    return per_iter if rng is None else noise.sample(rng, per_iter)
