"""NUMA layout of a node.

The OSU on-socket / on-node distinction and the OpenMP binding sweep both
need to know which hardware threads share a socket and how far apart two
domains are.  :class:`NumaLayout` assigns cores to :class:`NumaDomain`
objects and exposes an abstract distance (hops between domains).
"""

from __future__ import annotations

from dataclasses import field

from .._dataclass import dataclass
from ..errors import HardwareConfigError


@dataclass(frozen=True)
class NumaDomain:
    """One NUMA domain: a socket (or a whole KNL in quad mode)."""

    index: int
    socket: int
    cores: tuple[int, ...]  # global core ids

    def __post_init__(self) -> None:
        if not self.cores:
            raise HardwareConfigError(f"NUMA domain {self.index} has no cores")


@dataclass
class NumaLayout:
    """All NUMA domains of a node, with a domain-hop distance metric."""

    domains: list[NumaDomain] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for dom in self.domains:
            overlap = seen.intersection(dom.cores)
            if overlap:
                raise HardwareConfigError(
                    f"cores {sorted(overlap)} appear in more than one NUMA domain"
                )
            seen.update(dom.cores)
        self._core_to_domain = {
            core: dom.index for dom in self.domains for core in dom.cores
        }

    @property
    def n_domains(self) -> int:
        return len(self.domains)

    def domain_of_core(self, core: int) -> int:
        try:
            return self._core_to_domain[core]
        except KeyError:
            raise HardwareConfigError(f"core {core} not in any NUMA domain") from None

    def same_domain(self, core_a: int, core_b: int) -> bool:
        return self.domain_of_core(core_a) == self.domain_of_core(core_b)

    def same_socket(self, core_a: int, core_b: int) -> bool:
        da = self.domains[self.domain_of_core(core_a)]
        db = self.domains[self.domain_of_core(core_b)]
        return da.socket == db.socket

    def distance(self, core_a: int, core_b: int) -> int:
        """Abstract distance: 0 same domain, 1 same socket, 2 cross socket."""
        if self.same_domain(core_a, core_b):
            return 0
        if self.same_socket(core_a, core_b):
            return 1
        return 2

    def all_cores(self) -> list[int]:
        return sorted(self._core_to_domain)


def single_domain(cores: int) -> NumaLayout:
    """A KNL-in-quad-mode style layout: one domain spanning everything."""
    return NumaLayout([NumaDomain(0, 0, tuple(range(cores)))])


def per_socket(sockets: int, cores_per_socket: int) -> NumaLayout:
    """One NUMA domain per socket, cores numbered socket-major."""
    if sockets < 1 or cores_per_socket < 1:
        raise HardwareConfigError(
            f"invalid socket layout: {sockets} x {cores_per_socket}"
        )
    domains = []
    for s in range(sockets):
        start = s * cores_per_socket
        domains.append(
            NumaDomain(s, s, tuple(range(start, start + cores_per_socket)))
        )
    return NumaLayout(domains)
