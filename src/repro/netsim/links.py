"""Shared, contended network links.

A :class:`NetworkLink` carries traffic from many rank pairs at once;
transfers reserve it FIFO, so two jobs streaming over the same global
link each see half the bandwidth — the "there goes the neighborhood"
effect [20] that the paper names as a reason it stayed intra-node.
"""

from __future__ import annotations

from dataclasses import field

from .._dataclass import dataclass
from ..errors import SimulationError
from ..obs import runtime as obs


@dataclass(slots=True)
class NetworkLink:
    """One direction of one physical link.

    ``faults`` holds time-windowed degradations (any objects exposing
    ``start``/``end``/``bandwidth_factor``/``extra_latency``/``down`` —
    in practice :class:`repro.faults.LinkFault` instances).  While the
    clock is inside a window the link runs slower, adds latency, or —
    for ``down`` windows — carries nothing until the window closes.
    """

    name: str
    bandwidth: float              # bytes/second
    latency: float                # hop + wire latency, seconds
    busy_until: float = 0.0
    bytes_carried: int = 0
    transfers: int = 0
    faults: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise SimulationError(f"{self.name}: bandwidth must be positive")
        if self.latency < 0:
            raise SimulationError(f"{self.name}: negative latency")

    # -- fault windows ------------------------------------------------------
    def add_fault(self, window) -> None:
        """Arm one degradation window on this link."""
        for attr in ("start", "end", "bandwidth_factor", "extra_latency", "down"):
            if not hasattr(window, attr):
                raise SimulationError(
                    f"{self.name}: fault window lacks {attr!r}: {window!r}"
                )
        self.faults.append(window)

    def _windows_at(self, now: float):
        return [w for w in self.faults if w.start <= now < w.end]

    def is_down(self, now: float) -> bool:
        return any(w.down for w in self._windows_at(now))

    def up_at(self, now: float) -> float:
        """Earliest time >= ``now`` at which the link is not down."""
        t = now
        # windows may abut or overlap; iterate until no down window covers t
        for _ in range(len(self.faults) + 1):
            covering = [w for w in self._windows_at(t) if w.down]
            if not covering:
                return t
            t = max(w.end for w in covering)
        return t

    def effective_bandwidth(self, now: float) -> float:
        factor = 1.0
        for w in self._windows_at(now):
            factor *= w.bandwidth_factor
        return self.bandwidth * factor

    def effective_latency(self, now: float) -> float:
        extra = sum(w.extra_latency for w in self._windows_at(now))
        return self.latency + extra

    def _begin(self, earliest: float) -> float:
        """When a transfer arriving at ``earliest`` actually starts:
        after the queue drains (FIFO) and any down window closes."""
        start = max(earliest, self.busy_until)
        if self.faults:
            start = self.up_at(start)
        return start

    # -- reservation --------------------------------------------------------
    def reserve(self, now: float, nbytes: int) -> float:
        """Serialise ``nbytes`` onto the link; return the finish time.

        The transfer begins when the link frees up (FIFO) and occupies
        it for ``nbytes / bandwidth``; the returned time includes the
        link's propagation latency.  Down windows defer the start;
        degradation windows stretch the serialisation.
        """
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        start = self._begin(now)
        self.busy_until = start + nbytes / self.effective_bandwidth(start)
        self.bytes_carried += nbytes
        self.transfers += 1
        ctx = obs.current()
        if ctx.enabled:
            ctx.metrics.counter("netsim.link.reserved").inc()
            ctx.metrics.counter("netsim.link.bytes").inc(nbytes)
            ctx.tracer.complete(
                f"xfer:{self.name}", "netsim", start, self.busy_until,
                nbytes=nbytes, queued=start - now,
            )
        return self.busy_until + self.effective_latency(start)

    def utilisation_until(self, horizon: float) -> float:
        """Fraction of [0, horizon] the link spent busy (approximate)."""
        if horizon <= 0:
            return 0.0
        return min(1.0, (self.bytes_carried / self.bandwidth) / horizon)

    def reset(self) -> None:
        self.busy_until = 0.0
        self.bytes_carried = 0
        self.transfers = 0
        self.faults = []


def reserve_path(links: list["NetworkLink"], now: float, nbytes: int) -> float:
    """Cut-through reservation of a whole path; returns delivery time.

    The message header advances one link latency at a time; each link is
    occupied for the message's serialisation time starting no earlier
    than the header's arrival or the link freeing up.  Zero-byte
    messages therefore cost the sum of link latencies; large messages
    cost ~``nbytes / bottleneck_bandwidth`` plus latencies; and
    contending messages queue FIFO per link.
    """
    if not links:
        raise SimulationError("reserve_path needs at least one link")
    ctx = obs.current()
    header = now
    finish = now
    for link in links:
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        start = link._begin(header)
        link.busy_until = start + nbytes / link.effective_bandwidth(start)
        link.bytes_carried += nbytes
        link.transfers += 1
        latency = link.effective_latency(start)
        if ctx.enabled:
            ctx.metrics.counter("netsim.link.reserved").inc()
            ctx.metrics.counter("netsim.link.bytes").inc(nbytes)
            ctx.tracer.complete(
                f"xfer:{link.name}", "netsim", start, link.busy_until,
                nbytes=nbytes, queued=start - header,
            )
        header = start + latency
        # delivery cannot precede the drain of ANY link on the path
        # (a slow middle link governs even if later links are fast)
        finish = max(finish, link.busy_until + latency)
    return max(header, finish)


class AdaptiveRoute:
    """A set of candidate link paths chosen per message by load.

    Iterating (for latency estimates) yields the minimal candidate;
    :meth:`choose` is called at reservation time with the simulated
    clock and picks the candidate whose busiest link frees up first —
    the essence of adaptive dragonfly routing.
    """

    __slots__ = ("candidates",)

    def __init__(self, candidates: list[list["NetworkLink"]]) -> None:
        if not candidates or any(not c for c in candidates):
            raise SimulationError("AdaptiveRoute needs non-empty candidates")
        self.candidates = candidates

    def __iter__(self):
        return iter(self.candidates[0])

    def __len__(self) -> int:
        return len(self.candidates[0])

    def choose(self, now: float, nbytes: int) -> list["NetworkLink"]:
        def readiness(path: list["NetworkLink"]) -> tuple[float, int]:
            wait = max(max(0.0, l.busy_until - now) for l in path)
            # tie-break toward shorter paths (minimal first in the list)
            return (wait, len(path))

        # link-down routing: never pick a path through a dead link while
        # a live alternative exists (dragonfly reroute-on-failure)
        alive = [
            path for path in self.candidates
            if not any(l.is_down(now) for l in path)
        ]
        chosen = min(alive or self.candidates, key=readiness)
        ctx = obs.current()
        if ctx.enabled:
            ctx.metrics.counter("netsim.route.chosen").inc()
            if alive and len(alive) < len(self.candidates):
                ctx.metrics.counter("netsim.route.rerouted").inc()
        return chosen


@dataclass
class LinkTable:
    """All directed links of a network, keyed by (src, dst) router names."""

    links: dict[tuple[str, str], NetworkLink] = field(default_factory=dict)

    def add(self, src: str, dst: str, bandwidth: float, latency: float) -> None:
        key = (src, dst)
        if key in self.links:
            raise SimulationError(f"duplicate link {src}->{dst}")
        self.links[key] = NetworkLink(f"{src}->{dst}", bandwidth, latency)

    def get(self, src: str, dst: str) -> NetworkLink:
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise SimulationError(f"no link {src}->{dst}") from None

    def along(self, path: list[str]) -> list[NetworkLink]:
        return [self.get(a, b) for a, b in zip(path, path[1:])]

    def arm_faults(self, windows) -> int:
        """Attach fault windows to every link they match; returns the
        number of (link, window) pairs armed."""
        armed = 0
        for link in self.links.values():
            for window in windows:
                matches = getattr(window, "matches", None)
                if matches is None or matches(link.name):
                    link.add_fault(window)
                    armed += 1
        return armed

    def reset(self) -> None:
        for link in self.links.values():
            link.reset()
