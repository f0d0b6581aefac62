"""Ablations of the design choices DESIGN.md calls out (§3b).

Each ablation flips one modelling ingredient off and shows the table
shape breaks — evidence that the ingredient is load-bearing, not
decoration.
"""

import dataclasses

import pytest

from repro.benchmarks.babelstream.cpu import run_cpu_config
from repro.benchmarks.commscope.memcpy_tests import d2d_by_class
from repro.benchmarks.osu.latency import measure_pingpong
from repro.hardware.topology import LinkClass
from repro.machines.calibration import GpuMpiMode
from repro.machines.registry import get_machine
from repro.memsys.scaling import team_bandwidth
from repro.mpisim.placement import RankLocation, device_pair
from repro.mpisim.transport import BufferKind, Transport
from repro.openmp.env import OmpEnvironment, table1_configurations
from repro.openmp.team import build_team
from repro.units import MiB, to_us


def recalibrated(machine, part, **changes):
    """``machine`` with fields of one calibration part replaced."""
    calibration = dataclasses.replace(
        machine.calibration,
        **{part: dataclasses.replace(
            getattr(machine.calibration, part), **changes
        )},
    )
    return dataclasses.replace(machine, calibration=calibration)


def test_ablation_write_allocate():
    """Without write-allocate accounting, Copy/Triad tie Dot and the
    best-of-op selection loses its meaning (Table 4 shape breaks)."""
    machine = get_machine("sawtooth")
    env = OmpEnvironment(num_threads=48, proc_bind="spread", places="cores")
    with_wa = run_cpu_config(machine, env, 128 * MiB)
    without_wa = run_cpu_config(
        recalibrated(machine, "cpu_stream", write_allocate=False),
        env, 128 * MiB,
    )
    # with the real accounting, Dot beats Copy by the 3/2 traffic ratio
    assert with_wa.reported["Dot"] > 1.4 * with_wa.reported["Copy"]
    # ablated: all kernels collapse to the same figure
    assert without_wa.reported["Dot"] == pytest.approx(
        without_wa.reported["Copy"], rel=0.01
    )


def test_ablation_thread_binding():
    """Remove the affinity model (treat every config as ideally bound)
    and the Table 1 sweep stops mattering."""
    machine = get_machine("sawtooth")
    cal = machine.calibration.cpu_stream
    real, ablated = {}, {}
    for env in table1_configurations(machine.node):
        if env.resolve_num_threads(machine.node) == 1:
            continue
        team = build_team(machine.node, env)
        real[env] = team_bandwidth(machine.node, cal, team)
        ideal = build_team(
            machine.node,
            OmpEnvironment(env.num_threads, "spread", "cores"),
        )
        ablated[env] = team_bandwidth(machine.node, cal, ideal)
    # the real sweep spreads by >5%; idealised binding compresses it
    real_spread = (max(real.values()) - min(real.values())) / max(real.values())
    abl_spread = (
        max(ablated.values()) - min(ablated.values())
    ) / max(ablated.values())
    assert real_spread > 0.05
    assert abl_spread < real_spread


def test_ablation_gpu_rma_vs_pipeline():
    """Force Frontier's MPI onto the CUDA-style pipeline path: the
    paper's headline sub-microsecond device latency disappears."""
    frontier = get_machine("frontier")
    pair = device_pair(frontier, 0, 1)
    rma = measure_pingpong(frontier, pair, 0, BufferKind.DEVICE)
    piped_machine = recalibrated(
        frontier, "mpi",
        gpu_mode=GpuMpiMode.PIPELINE,
        gpu_pipeline_overhead=13.0e-6,  # an A100-class driver path
    )
    piped = measure_pingpong(piped_machine, pair, 0, BufferKind.DEVICE)
    assert to_us(rma) < 1.0
    assert to_us(piped) > 10.0


def test_ablation_topology_classes():
    """Collapse the link-class latency increments: Frontier's Comm|Scope
    A/B/C spread (Table 6) vanishes."""
    frontier = get_machine("frontier")
    real = d2d_by_class(frontier)
    flat = d2d_by_class(
        recalibrated(frontier, "gpu_runtime", d2d_class_extra={})
    )
    real_spread = real[LinkClass.C].seconds - real[LinkClass.A].seconds
    flat_spread = max(m.seconds for m in flat.values()) - min(
        m.seconds for m in flat.values()
    )
    assert real_spread > 0.5e-6
    # the leftover nanoseconds are the 128-byte wire time differing with
    # link width — three orders of magnitude below the real spread
    assert flat_spread < 5e-9


def test_ablation_mesh_distance():
    """Zero the KNL mesh-hop cost: Trinity's on-node/on-socket gap
    (0.99 vs 0.67 us) collapses."""
    trinity = get_machine("trinity")
    t = Transport(trinity)
    near = t.path(RankLocation(0), RankLocation(1), BufferKind.HOST)
    far = t.path(RankLocation(0), RankLocation(67), BufferKind.HOST)
    tf = Transport(recalibrated(trinity, "mpi", mesh_hop=0.0))
    far_flat = tf.path(RankLocation(0), RankLocation(67), BufferKind.HOST)
    assert far.zero_byte - near.zero_byte > 0.25e-6
    assert far_flat.zero_byte == pytest.approx(near.zero_byte)
