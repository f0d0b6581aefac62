"""Inter-node network substrate (the paper's future work, section 5).

The paper restricts itself to node-level measurements and names
inter-node benchmarking — network contention, injection bandwidth,
topology, collectives — as its first planned extension.  This package
provides that extension on the same simulation substrate:

* fabric models for the interconnects the studied machines actually
  use (Slingshot-11/10, EDR InfiniBand, Aries, Omni-Path);
* network topologies (dragonfly and fat-tree) as graphs of routers
  with per-hop latencies and shared, contended links;
* a :class:`~repro.netsim.cluster.Cluster` that places MPI ranks on
  multiple nodes of one of the paper's machines and routes inter-node
  messages over the fabric — intra-node messages keep using the
  node-level transport the tables were built on.

Everything here is an *extension*: the paper has no inter-node tables,
so the ``internode`` target labels these as future-work experiments
rather than paper artifacts.
"""

from .fabric import FabricSpec, fabric_for_machine, FABRIC_CATALOG
from .topology import DragonflyTopology, FatTreeTopology, NetworkTopology
from .links import NetworkLink
from .cluster import Cluster, ClusterRankLocation, ClusterTransport

__all__ = [
    "FabricSpec",
    "fabric_for_machine",
    "FABRIC_CATALOG",
    "NetworkTopology",
    "DragonflyTopology",
    "FatTreeTopology",
    "NetworkLink",
    "Cluster",
    "ClusterRankLocation",
    "ClusterTransport",
]
