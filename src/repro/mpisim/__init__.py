"""Simulated intra-node MPI.

Ranks are simulation processes; point-to-point messages run an
eager/rendezvous protocol over transport cost models derived from each
machine's calibration and topology:

* host buffers: shared-memory transport (software overhead per side +
  cache-coherent exchange, plus UPI-hop or KNL-mesh distance);
* device buffers on the MI250X machines: fabric RMA directly on GPU
  memory (device latency == host latency, the paper's headline result);
* device buffers on the CUDA machines: staged/pipelined through the
  driver, with a large fixed overhead and an extra penalty for pairs
  with no direct link (the paper's class-B figures).
"""

from .. import _lazy_exports

__all__, __getattr__ = _lazy_exports(__name__, {
    ".placement": (
        "RankLocation", "on_socket_pair", "on_node_pair", "device_pair",
    ),
    ".transport": ("BufferKind", "PathCost", "Transport"),
    ".protocols": ("EAGER_THRESHOLD",),
    ".world": ("ANY_TAG", "MatchQueue", "Message", "MpiWorld", "RankContext"),
    ".collectives": ("collectives",),
})
