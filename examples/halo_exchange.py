#!/usr/bin/env python3
"""A 2D halo-exchange stencil application across a GPU cluster.

The paper's audience is "developers of portable application codes" who
need the node-level numbers to predict application behaviour.  This
example closes that loop: a prototypical iterative stencil solver —
one MPI rank per GPU (the decomposition the paper notes DOE codes use),
halo exchange with the four neighbours every step, a residual
allreduce every 10 steps — is timed on simulated Frontier, Summit and
Perlmutter clusters, and the breakdown shows how each machine's Table
5/6 characteristics (device MPI latency, bandwidth, launch cost)
surface at application level.

Usage::

    python examples/halo_exchange.py [steps]
"""

import operator
import sys

from repro import get_machine
from repro.gpurt.kernel import stream_kernel
from repro.memsys.writealloc import ADD
from repro.mpisim.collectives import allreduce
from repro.mpisim.transport import BufferKind
from repro.netsim import Cluster
from repro.units import to_us


class StencilConfig:
    """A 2D domain decomposed over a px x py process grid."""

    def __init__(self, global_n=16384, px=4, py=4, halo_width=2,
                 dtype_bytes=8):
        self.global_n = global_n
        self.px, self.py = px, py
        self.local_nx = global_n // px
        self.local_ny = global_n // py
        self.halo_bytes = halo_width * self.local_nx * dtype_bytes
        self.field_bytes = self.local_nx * self.local_ny * dtype_bytes

    def neighbours(self, rank):
        """Up to four neighbours on the process grid (5-point stencil)."""
        x, y = rank % self.px, rank // self.px
        out = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = x + dx, y + dy
            if 0 <= nx < self.px and 0 <= ny < self.py:
                out.append(ny * self.px + nx)
        return out


def run_stencil(machine_name, steps):
    machine = get_machine(machine_name)
    cfg = StencilConfig()
    ranks = cfg.px * cfg.py
    gpus = machine.node.n_gpus
    n_nodes = -(-ranks // gpus)
    cluster = Cluster(machine, n_nodes)

    from repro.netsim.cluster import ClusterRankLocation

    placement = [
        ClusterRankLocation(
            core=r % machine.node.total_cores,
            device=r % gpus,
            node=r // gpus,
        )
        for r in range(ranks)
    ]
    world = cluster.world(placement)

    # per-step device compute: one stencil sweep = read + write the field
    from repro.gpurt.api import DeviceRuntime

    rt = DeviceRuntime(machine)
    sweep = stream_kernel(ADD, cfg.field_bytes)
    compute_seconds = (
        machine.calibration.gpu_runtime.launch_overhead
        + sweep.duration_on(rt.device(0))
    )

    breakdown = {"compute": 0.0, "halo": 0.0, "allreduce": 0.0}

    def make_rank(rank):
        neighbours = cfg.neighbours(rank)

        def fn(ctx):
            t_start = ctx.env.now
            for step in range(steps):
                # stencil sweep on the device
                t0 = ctx.env.now
                yield ctx.env.timeout(compute_seconds)
                if rank == 0:
                    breakdown["compute"] += ctx.env.now - t0

                # halo exchange with every neighbour (device buffers)
                t0 = ctx.env.now
                sends = [
                    ctx.env.process(
                        ctx.send(nb, cfg.halo_bytes, BufferKind.DEVICE)
                    )
                    for nb in neighbours
                ]
                for nb in neighbours:
                    yield from ctx.recv(nb)
                for s in sends:
                    yield s
                if rank == 0:
                    breakdown["halo"] += ctx.env.now - t0

                # residual reduction every 10 steps
                if step % 10 == 9:
                    t0 = ctx.env.now
                    yield from allreduce(
                        ctx, 1.0, 8, operator.add, BufferKind.DEVICE
                    )
                    if rank == 0:
                        breakdown["allreduce"] += ctx.env.now - t0
            return ctx.env.now - t_start

        return fn

    times = world.run([make_rank(r) for r in range(ranks)])
    return machine, max(times), dict(breakdown), steps


def main() -> None:
    steps = int(sys.argv[1]) if len(sys.argv) > 1 else 50
    print(f"2D stencil, 16384^2 doubles on a 4x4 rank grid, {steps} steps, "
          f"one rank per GPU\n")
    print(f"{'machine':12s} {'accel':7s} {'us/step':>9s}  "
          f"{'compute':>9s} {'halo':>9s} {'allreduce':>10s}")
    for name in ("frontier", "summit", "perlmutter", "polaris"):
        machine, total, breakdown, n = run_stencil(name, steps)
        print(
            f"{machine.name:12s} {machine.accelerator_family:7s} "
            f"{to_us(total / n):9.1f}  "
            f"{to_us(breakdown['compute'] / n):9.1f} "
            f"{to_us(breakdown['halo'] / n):9.1f} "
            f"{to_us(breakdown['allreduce'] / n):10.1f}"
        )
    print(
        "\nthe halo column tracks Table 5's device MPI latencies: "
        "sub-microsecond RMA on the MI250X machines vs the 10-19 us "
        "pipelined path on the CUDA machines."
    )


if __name__ == "__main__":
    main()
