"""Multi-node clusters of the studied machines.

A :class:`Cluster` is ``n_nodes`` copies of one of the paper's node
models joined by a network topology of the machine's actual fabric.
It hands out :class:`~repro.mpisim.world.MpiWorld` instances whose
transport routes intra-node messages through the node-level models
(unchanged — the paper's tables still hold inside a node) and
inter-node messages over shared, contended fabric links.
"""

from __future__ import annotations

from typing import Optional

from .._dataclass import dataclass
from ..errors import MpiSimError, PlacementError
from ..machines.base import Machine
from ..machines.calibration import GpuMpiMode
from ..mpisim.placement import RankLocation
from ..mpisim.transport import BufferKind, PathCost, Transport
from ..mpisim.world import MpiWorld
from ..sim.engine import Environment
from .fabric import FabricSpec, fabric_for_machine
from .topology import DragonflyTopology, FatTreeTopology, NetworkTopology


@dataclass(frozen=True)
class ClusterRankLocation(RankLocation):
    """A rank location extended with the node it lives on."""

    node: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.node < 0:
            raise PlacementError(f"negative node id: {self.node}")


class ClusterTransport:
    """Routes messages intra-node (node models) or inter-node (fabric)."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self._intra = Transport(cluster.machine)

    def path(
        self, src: RankLocation, dst: RankLocation, kind: BufferKind
    ) -> PathCost:
        src_node = getattr(src, "node", 0)
        dst_node = getattr(dst, "node", 0)
        if src_node == dst_node:
            return self._intra.path(src, dst, kind)
        return self._inter_node_path(src_node, dst_node, kind)

    def _inter_node_path(
        self, src_node: int, dst_node: int, kind: BufferKind
    ) -> PathCost:
        cluster = self.cluster
        fabric = cluster.fabric
        mpi = cluster.machine.calibration.mpi
        if cluster.adaptive:
            links = cluster.adaptive_links_between(src_node, dst_node)
        else:
            links = tuple(cluster.links_between(src_node, dst_node))
        o_side = mpi.sw_overhead + fabric.nic_overhead
        wire = 0.0
        if kind == BufferKind.DEVICE:
            if mpi.gpu_mode == GpuMpiMode.RMA:
                # Slingshot-class NICs read/write GPU memory directly.
                wire += mpi.gpu_rma_exchange
            else:
                wire += mpi.gpu_pipeline_overhead
        bandwidth = (
            min(link.bandwidth for link in links) * fabric.efficiency
        )
        return PathCost(
            o_send=o_side,
            o_recv=o_side,
            wire=wire,
            bandwidth=bandwidth,
            shared_links=links,
        )


class Cluster:
    """``n_nodes`` of one machine on its fabric."""

    def __init__(
        self,
        machine: Machine,
        n_nodes: int,
        fabric: Optional[FabricSpec] = None,
        topology: Optional[NetworkTopology] = None,
        adaptive: bool = False,
    ) -> None:
        if n_nodes < 1:
            raise MpiSimError(f"cluster needs at least one node, got {n_nodes}")
        self.machine = machine
        self.n_nodes = n_nodes
        #: adaptive (Valiant) routing: pick the least-loaded candidate
        #: path per message instead of always routing minimally
        self.adaptive = adaptive
        self.fabric = fabric if fabric is not None else fabric_for_machine(machine)
        self.topology = (
            topology if topology is not None
            else self.default_topology(self.fabric, n_nodes)
        )
        if self.topology.n_nodes < n_nodes:
            raise MpiSimError("network topology smaller than the cluster")
        # NIC links: node <-> its router, at injection bandwidth
        for node in range(n_nodes):
            router = self.topology.router_of(node)
            self.topology.links.add(
                f"node{node}", router,
                self.fabric.injection_bandwidth, self.fabric.wire_latency,
            )
            self.topology.links.add(
                router, f"node{node}",
                self.fabric.injection_bandwidth, self.fabric.wire_latency,
            )

    @staticmethod
    def default_topology(fabric: FabricSpec, n_nodes: int) -> NetworkTopology:
        """Dragonfly for Slingshot/Aries fabrics, fat-tree for the rest."""
        if "Slingshot" in fabric.name or fabric.name == "Aries":
            import math

            per_router = 4
            routers_per_group = 4
            groups = max(2, math.ceil(n_nodes / (per_router * routers_per_group)))
            return DragonflyTopology(
                fabric, n_nodes, groups=groups,
                routers_per_group=routers_per_group,
                nodes_per_router=per_router,
            )
        return FatTreeTopology(fabric, n_nodes)

    # ------------------------------------------------------------------
    def links_between(self, src_node: int, dst_node: int):
        """NIC-to-NIC directed link path between two nodes."""
        if src_node == dst_node:
            raise MpiSimError("links_between needs two distinct nodes")
        for node in (src_node, dst_node):
            if not 0 <= node < self.n_nodes:
                raise MpiSimError(
                    f"node {node} out of range ({self.n_nodes} nodes)"
                )
        router_path = self.topology.route(src_node, dst_node)
        names = [f"node{src_node}", *router_path, f"node{dst_node}"]
        return self.topology.links.along(names)

    def hops(self, src_node: int, dst_node: int) -> int:
        return self.topology.hops(src_node, dst_node)

    def adaptive_links_between(self, src_node: int, dst_node: int):
        """Candidate link paths (minimal + Valiant) as an AdaptiveRoute."""
        from .links import AdaptiveRoute

        if not hasattr(self.topology, "nonminimal_routes"):
            return tuple(self.links_between(src_node, dst_node))
        candidates = []
        for router_path in self.topology.nonminimal_routes(src_node, dst_node):
            names = [f"node{src_node}", *router_path, f"node{dst_node}"]
            candidates.append(self.topology.links.along(names))
        return AdaptiveRoute(candidates)

    # ------------------------------------------------------------------
    def placement(
        self, ranks_per_node: int = 1, nodes: Optional[list[int]] = None,
        device_ranks: bool = False,
    ) -> list[ClusterRankLocation]:
        """Standard block placement: ``ranks_per_node`` per listed node."""
        if ranks_per_node < 1:
            raise PlacementError(f"ranks_per_node must be >= 1: {ranks_per_node}")
        nodes = list(range(self.n_nodes)) if nodes is None else list(nodes)
        out = []
        for node in nodes:
            for r in range(ranks_per_node):
                device = r % max(1, self.machine.node.n_gpus) if device_ranks else None
                if device_ranks and not self.machine.node.has_gpus:
                    raise PlacementError(
                        f"{self.machine.name} has no accelerators"
                    )
                out.append(
                    ClusterRankLocation(core=r, device=device, node=node)
                )
        return out

    def world(
        self,
        placement: list[ClusterRankLocation],
        env: Optional[Environment] = None,
    ) -> MpiWorld:
        """An MPI world whose transport knows about the fabric."""
        for loc in placement:
            if getattr(loc, "node", 0) >= self.n_nodes:
                raise MpiSimError(
                    f"rank node {loc.node} out of range ({self.n_nodes} nodes)"
                )
        return MpiWorld(
            self.machine, placement, env=env,
            transport=ClusterTransport(self),
        )

    def reset_network(self) -> None:
        """Clear link occupancy between experiments."""
        self.topology.links.reset()
