"""Node topology graph and GPU-pair link classification.

The paper groups device-to-device measurements into classes:

* Summit / Sierra / Lassen — **A**: GPUs directly connected by NVLink,
  **B**: otherwise (the transfer is staged across the socket fabric).
* Frontier / RZVernal / Tioga — **A/B/C**: GCD pairs joined by quad-,
  dual- or single Infinity Fabric links, **D**: no direct connection.
* Perlmutter / Polaris — all four GPUs are equally connected (single
  class, reported under A).

:class:`Topology` holds an adjacency map of node components (CPU
sockets, GPUs, host bridges) whose links carry
:class:`~repro.hardware.links.LinkInstance` payloads, and implements the
classification and the lowest-latency routing the DMA/MPI models use.
"""

from __future__ import annotations

import enum
from dataclasses import field
from heapq import heappop, heappush
from itertools import count
from typing import Iterable, Iterator, Optional

from .._dataclass import dataclass
from ..errors import TopologyError
from .links import LinkInstance, LinkKind


class ComponentKind(enum.Enum):
    CPU = "cpu"
    GPU = "gpu"
    BRIDGE = "bridge"   # PCIe switch / host bridge


class LinkClass(enum.Enum):
    """The paper's device-pair classes (Tables 5 and 6 column heads)."""

    A = "A"
    B = "B"
    C = "C"
    D = "D"


@dataclass(frozen=True)
class PairClassification:
    """Result of classifying a GPU pair."""

    link_class: LinkClass
    description: str
    #: the direct link if one exists, else None
    direct: Optional[LinkInstance]
    #: component path used when staging is required (includes endpoints)
    route: tuple[str, ...]


@dataclass(frozen=True)
class Component:
    name: str
    kind: ComponentKind
    #: socket index this component belongs to / attaches to
    socket: int
    #: arbitrary extra attributes (e.g. gpu index, package id)
    attrs: dict = field(default_factory=dict, hash=False, compare=False)


class Topology:
    """The intra-node interconnect graph."""

    def __init__(self) -> None:
        #: component -> {neighbour: link}; insertion order is kept, since
        #: it decides between equal-latency routes
        self._adj: dict[str, dict[str, LinkInstance]] = {}
        self._components: dict[str, Component] = {}
        # Static structure, memoized because a built machine's graph
        # never changes and every simulated copy or benchmark run asked
        # for it again: shortest routes, the device-ordered GPU list,
        # the class of each ordered GPU pair and the grouping of all
        # unordered pairs.  _invalidate clears them on every mutation.
        self._route_cache: dict[tuple[str, str], tuple[str, ...]] = {}
        self._gpus: list[str] | None = None
        self._pair_cache: dict[tuple[str, str], PairClassification] = {}
        self._pair_classes: dict[LinkClass, list[tuple[str, str]]] | None = None
        self._representatives: dict[LinkClass, tuple[str, str]] | None = None

    def __repr__(self) -> str:
        """Content-only image (no object ids): components and links in
        sorted order.  The cell cache fingerprints machine specs through
        this, so two topologies built the same way must repr the same."""
        comps = ", ".join(
            f"{c.name}:{c.kind.value}@{c.socket}"
            + (f"{sorted(c.attrs.items())}" if c.attrs else "")
            for c in sorted(self._components.values(), key=lambda c: c.name)
        )
        edges = ", ".join(
            f"{a}<->{b}={self._adj[a][b]!r}"
            for a, b in sorted(
                (a, b) for a in self._adj for b in self._adj[a] if a < b
            )
        )
        return f"Topology(components=[{comps}], links=[{edges}])"

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_component(
        self, name: str, kind: ComponentKind, socket: int = 0, **attrs
    ) -> Component:
        if name in self._components:
            raise TopologyError(f"duplicate component name: {name}")
        comp = Component(name, kind, socket, attrs)
        self._components[name] = comp
        self._adj[name] = {}
        self._invalidate()
        return comp

    def connect(self, a: str, b: str, link: LinkInstance) -> None:
        self._require(a)
        self._require(b)
        if a == b:
            raise TopologyError(f"self-link on {a}")
        if b in self._adj[a]:
            raise TopologyError(f"duplicate link {a} <-> {b}")
        self._adj[a][b] = link
        self._adj[b][a] = link
        self._invalidate()

    def _invalidate(self) -> None:
        """Drop every memo derived from the graph."""
        self._route_cache.clear()
        self._gpus = None
        self._pair_cache.clear()
        self._pair_classes = None
        self._representatives = None

    def _require(self, name: str) -> Component:
        try:
            return self._components[name]
        except KeyError:
            raise TopologyError(f"unknown component: {name}") from None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def components(self) -> dict[str, Component]:
        return dict(self._components)

    def component(self, name: str) -> Component:
        return self._require(name)

    def gpus(self) -> list[str]:
        if self._gpus is None:
            self._gpus = sorted(
                (n for n, c in self._components.items()
                 if c.kind == ComponentKind.GPU),
                key=lambda n: self._components[n].attrs.get("index", 0),
            )
        return list(self._gpus)

    def cpus(self) -> list[str]:
        return sorted(
            (n for n, c in self._components.items() if c.kind == ComponentKind.CPU),
            key=lambda n: self._components[n].socket,
        )

    def direct_link(self, a: str, b: str) -> Optional[LinkInstance]:
        self._require(a)
        self._require(b)
        return self._adj[a].get(b)

    def neighbors(self, name: str) -> list[tuple[str, LinkInstance]]:
        self._require(name)
        return list(self._adj[name].items())

    def links_between(self, names: Iterable[str]) -> list[LinkInstance]:
        """Links along a component path given as consecutive names."""
        names = list(names)
        out = []
        for a, b in zip(names, names[1:]):
            link = self._adj.get(a, {}).get(b)
            if link is None:
                raise TopologyError(f"no link between {a} and {b} on path")
            out.append(link)
        return out

    def route(self, src: str, dst: str) -> tuple[str, ...]:
        """Lowest-latency component path from ``src`` to ``dst``.

        Routes are memoized per (src, dst): the graph is static once a
        machine spec is built, and re-running Dijkstra per simulated
        memcpy dominated the gpurt hot path.
        """
        cached = self._route_cache.get((src, dst))
        if cached is not None:
            return cached
        self._require(src)
        self._require(dst)
        path = (src,) if src == dst else self._bidirectional_dijkstra(src, dst)
        self._route_cache[(src, dst)] = path
        return path

    def _bidirectional_dijkstra(self, src: str, dst: str) -> tuple[str, ...]:
        """Lowest-latency path by a Dijkstra search from both ends.

        Equal-latency routes are common (the GCD rings), and the one
        picked reaches traces, ledger records and staging bandwidths, so
        the tie rule is fixed (DESIGN §2).  The two searches alternate,
        forward first.  Both heaps order on (distance, push count), with
        one counter shared between them.  Relaxation is strict and visits
        neighbours in insertion order, and the meeting node moves only on
        a strictly shorter total.
        """
        push = count()
        fringe = ([(0, next(push), src)], [(0, next(push), dst)])
        seen = ({src: 0}, {dst: 0})             # tentative distances
        done = (set(), set())                   # settled components
        preds = ({src: None}, {dst: None})
        best = meet = None
        d = 1
        while fringe[0] and fringe[1]:
            d = 1 - d
            dist, _, v = heappop(fringe[d])
            if v in done[d]:
                continue
            done[d].add(v)
            if v in done[1 - d]:
                head = tuple(_walk(meet, preds[0]))[::-1]
                return head + tuple(_walk(preds[1][meet], preds[1]))
            for w, link in self._adj[v].items():
                length = dist + link.latency
                if w in done[d] or (w in seen[d] and length >= seen[d][w]):
                    continue
                seen[d][w] = length
                heappush(fringe[d], (length, next(push), w))
                preds[d][w] = v
                if w in seen[1 - d]:
                    total = length + seen[1 - d][w]
                    if best is None or total < best:
                        best, meet = total, w
        raise TopologyError(f"no route from {src} to {dst}")

    def path_latency(self, path: Iterable[str]) -> float:
        """Sum of hardware link latencies along a component path."""
        return sum(l.latency for l in self.links_between(path))

    def path_bandwidth(self, path: Iterable[str]) -> float:
        """Bottleneck per-direction bandwidth along a component path."""
        links = self.links_between(path)
        if not links:
            raise TopologyError("path has no links")
        return min(l.bandwidth_per_dir for l in links)

    # ------------------------------------------------------------------
    # the paper's A/B/C/D classification
    # ------------------------------------------------------------------
    def classify_gpu_pair(self, a: str, b: str) -> PairClassification:
        """Classify a device pair into the paper's link classes.

        The (frozen) result is memoized per ordered pair.

        Rules (matching Tables 5/6 and Appendix A):

        * direct NVLink of any width → **A**;
        * direct xGMI: count 4 → **A**, 2 → **B**, 1 → **C**;
        * no direct GPU-GPU link: AMD nodes → **D** (staged through a
          peer GCD or the fabric), NVIDIA nodes → **B** (staged through
          the host / socket fabric);
        * PCIe-attached peer GPUs with no NVLink → **B**.
        """
        cached = self._pair_cache.get((a, b))
        if cached is None:
            cached = self._pair_cache[(a, b)] = self._classify(a, b)
        return cached

    def _classify(self, a: str, b: str) -> PairClassification:
        ca, cb = self._require(a), self._require(b)
        if ca.kind != ComponentKind.GPU or cb.kind != ComponentKind.GPU:
            raise TopologyError(f"classify_gpu_pair needs two GPUs: {a}, {b}")
        if a == b:
            raise TopologyError("cannot classify a device against itself")
        direct = self.direct_link(a, b)
        route = self.route(a, b)
        if direct is not None:
            if direct.kind in (LinkKind.NVLINK2, LinkKind.NVLINK3):
                return PairClassification(
                    LinkClass.A, f"direct {direct.describe()}", direct, route
                )
            if direct.kind == LinkKind.XGMI_GPU:
                cls = {4: LinkClass.A, 2: LinkClass.B, 1: LinkClass.C}.get(direct.count)
                if cls is None:
                    raise TopologyError(
                        f"unexpected xGMI width {direct.count} between {a} and {b}"
                    )
                return PairClassification(
                    cls, f"direct {direct.describe()}", direct, route
                )
            if direct.kind in (LinkKind.PCIE3, LinkKind.PCIE4):
                return PairClassification(
                    LinkClass.B, f"direct {direct.describe()}", direct, route
                )
            raise TopologyError(
                f"unclassifiable direct link {direct.kind} between {a} and {b}"
            )
        # No direct link: staged transfer.
        vendor_amd = "amd" in str(ca.attrs.get("vendor", "")).lower()
        cls = LinkClass.D if vendor_amd else LinkClass.B
        via = " via ".join(route[1:-1]) or "fabric"
        return PairClassification(cls, f"staged via {via}", None, route)

    def gpu_pair_classes(self) -> dict[LinkClass, list[tuple[str, str]]]:
        """All unordered GPU pairs grouped by link class."""
        if self._pair_classes is None:
            out: dict[LinkClass, list[tuple[str, str]]] = {}
            gpus = self.gpus()
            for i, a in enumerate(gpus):
                for b in gpus[i + 1:]:
                    cls = self.classify_gpu_pair(a, b).link_class
                    out.setdefault(cls, []).append((a, b))
            self._pair_classes = out
        return {cls: list(pairs) for cls, pairs in self._pair_classes.items()}

    def representative_pairs(self) -> dict[LinkClass, tuple[str, str]]:
        """One canonical pair per class (lowest device indices)."""
        if self._representatives is None:
            groups = self.gpu_pair_classes()
            self._representatives = {
                cls: sorted(pairs)[0] for cls, pairs in sorted(
                    groups.items(), key=lambda kv: kv[0].value
                )
            }
        return dict(self._representatives)

    def host_of_gpu(self, gpu: str) -> str:
        """The CPU socket component a GPU attaches to (its home socket)."""
        comp = self._require(gpu)
        if comp.kind != ComponentKind.GPU:
            raise TopologyError(f"{gpu} is not a GPU")
        cpus = self.cpus()
        if not cpus:
            raise TopologyError("node has no CPU components")
        for cpu in cpus:
            if self._components[cpu].socket == comp.socket:
                return cpu
        return cpus[0]


def _walk(node: Optional[str], preds: dict) -> Iterator[str]:
    """``node`` and its predecessors, back to a search's root."""
    while node is not None:
        yield node
        node = preds[node]
