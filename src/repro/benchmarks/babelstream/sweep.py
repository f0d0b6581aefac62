"""Size sweeps and the best-of-configuration selection.

The paper (Appendix B.2): sizes are swept from 16 k doubles up to
16M-128M doubles by powers of two on CPUs (report at the largest size,
>= 128 MB everywhere) and 1 GB vectors on GPUs; the reported number is
the best over every Table 1 OpenMP configuration and every operation.
"""

from __future__ import annotations

from ..._dataclass import dataclass
from ...errors import BenchmarkConfigError
from ...machines.base import Machine
from ...openmp.env import OmpEnvironment, table1_configurations
from ...sim.random import RandomStreams, sample_mean, sample_std
from .cpu import run_cpu_config
from .gpu import run_gpu_stream

DOUBLE = 8  # sizeof(double)


def default_cpu_sizes() -> list[int]:
    """16k .. 128M doubles by powers of two, in bytes per array."""
    return [(1 << p) * DOUBLE for p in range(14, 28)]  # 16 Ki .. 128 Mi doubles


def default_gpu_size() -> int:
    """1 GiB arrays (2^27 doubles), the paper's accelerator size."""
    return (1 << 27) * DOUBLE


@dataclass(frozen=True)
class BestResult:
    """Winner of a best-over-(configs x ops) selection."""

    machine: str
    env: OmpEnvironment | None
    op: str
    array_bytes: int
    #: per-execution reported bandwidths for the winner, bytes/second
    samples: list[float]

    @property
    def mean(self) -> float:
        return sample_mean(self.samples)

    @property
    def std(self) -> float:
        return sample_std(self.samples)


def best_cpu_bandwidth(
    machine: Machine,
    single_thread: bool,
    array_bytes: int | None = None,
    runs: int = 100,
    streams: RandomStreams | None = None,
    configs: list[OmpEnvironment] | None = None,
    deterministic: bool = False,
) -> BestResult:
    """Best CPU bandwidth over Table 1 configurations and operations.

    ``single_thread`` selects between the paper's "Single" and "All"
    columns.  Each (config, op) pair is executed ``runs`` times with
    run-to-run jitter; the winner is the pair with the best mean, whose
    sample vector becomes the reported mean +- std.
    """
    if runs < 1:
        raise BenchmarkConfigError(f"runs must be >= 1: {runs}")
    streams = streams or RandomStreams()
    if array_bytes is None:
        array_bytes = default_cpu_sizes()[-1]
    if configs is None:
        configs = table1_configurations(machine.node)
    wanted = [
        c for c in configs
        if (c.resolve_num_threads(machine.node) == 1) == single_thread
    ]
    if not wanted:
        raise BenchmarkConfigError("no configurations match the requested mode")

    best: BestResult | None = None
    for idx, env in enumerate(wanted):
        rng = None if deterministic else streams.get(
            machine.name, "babelstream-cpu",
            "single" if single_thread else "all", f"cfg{idx}",
        )
        per_op: dict[str, list[float]] = {}
        for _run in range(runs):
            # validate only once per config: the kernels are deterministic
            result = run_cpu_config(
                machine, env, array_bytes, rng=rng, validate=(_run == 0),
            )
            for op, bw in result.reported.items():
                per_op.setdefault(op, []).append(bw)
        for op, values in per_op.items():
            if best is None or sample_mean(values) > best.mean:
                best = BestResult(machine.name, env, op, array_bytes, values)
    assert best is not None
    return best


def best_gpu_bandwidth(
    machine: Machine,
    array_bytes: int | None = None,
    device: int = 0,
    runs: int = 100,
    streams: RandomStreams | None = None,
    deterministic: bool = False,
    injector=None,
    max_events: int | None = None,
) -> BestResult:
    """Best device bandwidth over the five operations at the 1 GB size.

    ``injector`` and ``max_events`` reach every run's simulation (see
    :func:`~repro.benchmarks.babelstream.gpu.run_gpu_stream`).
    """
    if runs < 1:
        raise BenchmarkConfigError(f"runs must be >= 1: {runs}")
    streams = streams or RandomStreams()
    if array_bytes is None:
        array_bytes = default_gpu_size()
    rng = None if deterministic else streams.get(
        machine.name, "babelstream-gpu", f"dev{device}"
    )
    per_op: dict[str, list[float]] = {}
    for _run in range(runs):
        result = run_gpu_stream(
            machine, array_bytes, device=device, rng=rng,
            validate=(_run == 0),
            injector=injector, max_events=max_events,
        )
        for op, bw in result.reported.items():
            per_op.setdefault(op, []).append(bw)
    best: BestResult | None = None
    for op, values in per_op.items():
        if best is None or sample_mean(values) > best.mean:
            best = BestResult(machine.name, None, op, array_bytes, values)
    assert best is not None
    return best


def cpu_size_curve(
    machine: Machine,
    env: OmpEnvironment,
    sizes: list[int] | None = None,
) -> list[tuple[int, float]]:
    """Noise-free reported bandwidth of the best op at each sweep size.

    Shows the realistic ramp: small sizes are region-overhead-bound and
    the curve plateaus where the paper reports (largest size).
    """
    sizes = sizes or default_cpu_sizes()
    out = []
    for size in sizes:
        run = run_cpu_config(machine, env, size, rng=None, validate=False)
        out.append((size, run.best_op()[1]))
    return out
