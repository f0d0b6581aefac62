"""BabelStream OpenMP (CPU) backend on the simulated node.

One *run* of the benchmark binary, for one Table 1 environment
configuration: builds the thread team, computes each kernel's
per-iteration duration from the memory model (including the
write-allocate traffic the byte counter ignores), and reports the
upstream-convention bandwidth for every operation.

The numbers the paper tabulates come from
:func:`repro.benchmarks.babelstream.sweep.best_cpu_bandwidth`, which
sweeps configurations and operations exactly as the authors did.
"""

from __future__ import annotations

from ..._dataclass import dataclass
from ...errors import BenchmarkConfigError
from ...machines.base import Machine
from ...memsys.scaling import team_bandwidth
from ...memsys.writealloc import ALL_KERNELS
from ...openmp.env import OmpEnvironment
from ...openmp.team import ThreadTeam, build_team
from ...sim.random import NOISE_CPU_BANDWIDTH, Generator, NoiseModel
from .kernels import validate_kernels

#: OpenMP parallel-region entry/exit cost (fork + barrier), seconds.
OMP_REGION_OVERHEAD_SINGLE = 0.5e-6
OMP_REGION_OVERHEAD_PARALLEL = 5.0e-6

#: BabelStream's default in-binary repetition count (the paper keeps it).
DEFAULT_NUM_TIMES = 100


@dataclass(frozen=True)
class CpuStreamRun:
    """Result of one binary execution for one configuration."""

    machine: str
    env: OmpEnvironment
    array_bytes: int
    #: reported bandwidth per operation name, bytes/second
    reported: dict[str, float]
    #: raw (traffic-side) bandwidth the memory system sustained, bytes/s
    raw_bandwidth: float

    def best_op(self) -> tuple[str, float]:
        op = max(self.reported, key=lambda k: self.reported[k])
        return op, self.reported[op]


def _region_overhead(team: ThreadTeam) -> float:
    return (
        OMP_REGION_OVERHEAD_SINGLE
        if team.num_threads == 1
        else OMP_REGION_OVERHEAD_PARALLEL
    )


def run_cpu_config(
    machine: Machine,
    env: OmpEnvironment,
    array_bytes: int,
    rng: Generator | None = None,
    noise: NoiseModel = NOISE_CPU_BANDWIDTH,
    num_times: int = DEFAULT_NUM_TIMES,
    validate: bool = True,
) -> CpuStreamRun:
    """Execute one BabelStream binary run for one configuration.

    ``rng`` of ``None`` produces the deterministic (noise-free) result.
    With a generator, one multiplicative jitter is drawn for the run,
    exactly as machine state varies between the paper's 100 executions.
    """
    if array_bytes < 16:
        raise BenchmarkConfigError(f"array too small: {array_bytes} bytes")
    if num_times < 1:
        raise BenchmarkConfigError(f"num_times must be >= 1: {num_times}")
    cal = machine.calibration.cpu_stream
    if cal is None:
        raise BenchmarkConfigError(f"{machine.name} has no CPU stream calibration")

    team = build_team(machine.node, env)
    jitter = 1.0 if rng is None else noise.sample(rng, 1.0)

    if validate:
        # the check failing would poison every reported figure, as in
        # upstream BabelStream
        validate_kernels()

    raw_bw = team_bandwidth(machine.node, cal, team) * jitter
    if machine.node.cpu.memory_mode is not None:
        # KNL cache mode: three arrays of working set against MCDRAM
        from ...hardware.memory import MemoryMode
        from ...memsys.knl_cache import effective_bandwidth

        if machine.node.cpu.memory_mode == MemoryMode.CACHE:
            raw_bw = effective_bandwidth(
                machine.node.cpu, raw_bw, 3 * array_bytes
            )
    reported: dict[str, float] = {}
    for kernel in ALL_KERNELS:
        actual = kernel.actual_bytes(array_bytes, cal.write_allocate)
        duration = _region_overhead(team) + actual / raw_bw
        counted = kernel.counted_bytes(array_bytes)
        reported[kernel.name] = counted / duration
    return CpuStreamRun(
        machine=machine.name,
        env=env,
        array_bytes=array_bytes,
        reported=reported,
        raw_bandwidth=raw_bw,
    )
