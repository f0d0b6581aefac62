"""Rank placement: which core (and optionally which device) a rank owns.

The paper's three pairings:

* **on-socket** — two ranks on the first two cores of socket 0 (on KNL,
  the "close" pair: cores 0 and 1);
* **on-node** — two ranks on different sockets (on single-socket KNL,
  the "far" pair: cores 0 and N-1);
* **device pair** — one rank per accelerator, each bound to a core on
  the accelerator's home socket.
"""

from __future__ import annotations

from .._dataclass import dataclass
from ..errors import PlacementError
from ..machines.base import Machine


@dataclass(frozen=True)
class RankLocation:
    """Where one rank runs."""

    core: int
    device: int | None = None

    def __post_init__(self) -> None:
        if self.core < 0:
            raise PlacementError(f"negative core id: {self.core}")
        if self.device is not None and self.device < 0:
            raise PlacementError(f"negative device id: {self.device}")


def on_socket_pair(machine: Machine) -> tuple[RankLocation, RankLocation]:
    """The paper's "on-socket" pair: cores 0 and 1."""
    if machine.node.total_cores < 2:
        raise PlacementError(f"{machine.name} has fewer than two cores")
    return RankLocation(0), RankLocation(1)


def on_node_pair(machine: Machine) -> tuple[RankLocation, RankLocation]:
    """The paper's "on-node" pair.

    Multi-socket nodes: core 0 and the first core of socket 1.  KNL
    (single socket): the first and last cores, i.e. the "far" mesh pair.
    """
    node = machine.node
    if node.cpu.is_manycore or node.n_sockets == 1:
        if node.total_cores < 2:
            raise PlacementError(f"{machine.name} has fewer than two cores")
        return RankLocation(0), RankLocation(node.total_cores - 1)
    return RankLocation(0), RankLocation(node.cpu.cores)


def device_pair(
    machine: Machine, device_a: int, device_b: int
) -> tuple[RankLocation, RankLocation]:
    """One rank per accelerator, bound near its device."""
    node = machine.node
    if not node.has_gpus:
        raise PlacementError(f"{machine.name} has no accelerators")
    for dev in (device_a, device_b):
        if not 0 <= dev < node.n_gpus:
            raise PlacementError(
                f"device {dev} out of range on {machine.name} ({node.n_gpus} GPUs)"
            )
    if device_a == device_b:
        raise PlacementError("device pair needs two distinct devices")
    topo = node.topology
    names = node.gpu_names()
    cores = []
    for dev in (device_a, device_b):
        socket = topo.component(names[dev]).socket
        # first free core of the device's home socket; keep the pair on
        # distinct cores when both devices share a socket
        base = socket * node.cpu.cores
        cores.append(base)
    if cores[0] == cores[1]:
        cores[1] += 1
    return (
        RankLocation(cores[0], device=device_a),
        RankLocation(cores[1], device=device_b),
    )
