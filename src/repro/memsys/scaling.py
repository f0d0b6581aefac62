"""Multicore bandwidth scaling under an OpenMP thread team.

All-core bandwidth is the minimum of (a) the sum of per-core concurrency
limits over the cores the team actually covers, per socket, and (b) each
socket's saturated capability (``allcore_efficiency x peak``).  Three
team-level effects modulate the result:

* **unbound teams** pay a migration/imbalance penalty — the OS moves
  threads between cores mid-run and NUMA placement is first-touch-lucky;
* **SMT oversubscription** (more threads than cores) adds scheduling
  overhead without adding memory concurrency — siblings share the same
  line-fill buffers;
* KNL's documented **anomaly factor** (Theta) multiplies at the end.

This is what makes the paper's Table 1 sweep meaningful in simulation:
the bound one-thread-per-core configurations genuinely win.
"""

from __future__ import annotations

from ..errors import HardwareConfigError
from ..hardware.node import NodeSpec
from ..machines.calibration import CpuStreamCalibration
from ..openmp.team import ThreadTeam
from .stream_model import per_core_bandwidth

#: Achieved-bandwidth multiplier for unbound (OS-scheduled) teams.
UNBOUND_PENALTY = 0.93
#: Multiplier per extra SMT sibling sharing a core's miss resources.
SMT_SHARING_PENALTY = 0.985


def team_bandwidth(
    node: NodeSpec, cal: CpuStreamCalibration, team: ThreadTeam
) -> float:
    """Achieved read bandwidth of ``team`` on ``node``, bytes/second."""
    if team.node is not node:
        raise HardwareConfigError("team was built for a different node")
    cpu = node.cpu
    core_bw = per_core_bandwidth(cpu, cal)
    socket_cap = cpu.memory.peak_bandwidth * cal.allcore_efficiency

    if team.bound:
        total = sum(
            min(n * core_bw, socket_cap) for _, n in team.cores_per_socket()
        )
    else:
        # Unbound: the scheduler spreads runnable threads over idle cores,
        # roughly evenly across sockets.
        ncores = team.effective_core_count()
        per_socket = ncores / node.n_sockets
        total = node.n_sockets * min(per_socket * core_bw, socket_cap)
        total *= UNBOUND_PENALTY

    tpc = team.max_threads_per_core()
    if tpc > 1:
        total *= SMT_SHARING_PENALTY ** (tpc - 1)

    if team.num_threads > 1:
        # The documented anomaly (Theta) is a saturation pathology: single
        # threads measure normally; the machine collapses under load.
        total *= cal.anomaly_factor
    return total
