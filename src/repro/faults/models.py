"""Fault specifications and plans.

A :class:`FaultPlan` is a *declarative*, seed-independent description of
what can go wrong during a study: which fault kinds are armed and at
what rates or time windows.  Plans carry no randomness themselves — the
:class:`~repro.faults.injector.FaultInjector` binds a plan to the
study's deterministic :class:`~repro.sim.random.RandomStreams`, so two
runs with the same seed and plan inject *exactly* the same faults.

The fault taxonomy follows what the paper names as sources of
measurement noise on real DOE machines (section 1: software overheads
and system noise "obscure latency microbenchmarks") and the stability
literature it builds on:

* :class:`MessageDrop` — a transmission attempt is lost and the
  protocol retransmits after a timeout with exponential backoff.
* :class:`LinkFault` — a time-windowed bandwidth/latency degradation or
  full outage (flap) of named fabric links.
* :class:`StragglerFault` — OS-noise bursts that inflate a fraction of
  the per-execution samples (the classic "one slow rank" effect).
* :class:`GpuFault` — device downclock (kernel-duration inflation) and
  ECC-retry stalls on DMA transfers.
* :class:`NodeFailure` — a whole benchmark cell is lost; with retries
  exhausted the cell is reported as degraded rather than crashing.
"""

from __future__ import annotations

import fnmatch
from dataclasses import field

from .._dataclass import dataclass
from ..errors import FaultConfigError


def _check_probability(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise FaultConfigError(f"{name}: probability must be in [0, 1]: {p}")


@dataclass(frozen=True)
class MessageDrop:
    """Each transmission attempt is independently lost with ``probability``."""

    probability: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("MessageDrop", self.probability)


@dataclass(frozen=True)
class LinkFault:
    """A deterministic degradation window on links matching ``pattern``.

    While the simulated clock is inside ``[start, start + duration)``,
    matching links run at ``bandwidth_factor`` of nominal bandwidth with
    ``extra_latency`` added per traversal; ``down=True`` takes the link
    out entirely (traffic waits for the window to close, and adaptive
    routing avoids the link while it is down).
    """

    start: float
    duration: float
    pattern: str = "*"
    bandwidth_factor: float = 1.0
    extra_latency: float = 0.0
    down: bool = False

    def __post_init__(self) -> None:
        if self.start < 0 or self.duration <= 0:
            raise FaultConfigError(
                f"LinkFault: window [{self.start}, +{self.duration}) invalid"
            )
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise FaultConfigError(
                f"LinkFault: bandwidth_factor must be in (0, 1]: "
                f"{self.bandwidth_factor}"
            )
        if self.extra_latency < 0:
            raise FaultConfigError(
                f"LinkFault: negative extra latency: {self.extra_latency}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration

    def matches(self, link_name: str) -> bool:
        return fnmatch.fnmatchcase(link_name, self.pattern)


@dataclass(frozen=True)
class StragglerFault:
    """OS-noise bursts: each execution sample is independently hit with
    ``probability`` and slowed by ``slowdown`` (latency-like metrics are
    multiplied, bandwidth-like metrics divided)."""

    probability: float = 0.0
    slowdown: float = 2.0

    def __post_init__(self) -> None:
        _check_probability("StragglerFault", self.probability)
        if self.slowdown < 1.0:
            raise FaultConfigError(
                f"StragglerFault: slowdown must be >= 1: {self.slowdown}"
            )


@dataclass(frozen=True)
class GpuFault:
    """Device-side misbehaviour: with ``probability`` per kernel launch
    the kernel runs ``duration_factor`` slower (downclock); with the
    same probability per DMA transfer the copy stalls ``memcpy_stall``
    extra seconds (ECC retry)."""

    probability: float = 0.0
    duration_factor: float = 1.5
    memcpy_stall: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("GpuFault", self.probability)
        if self.duration_factor < 1.0:
            raise FaultConfigError(
                f"GpuFault: duration_factor must be >= 1: {self.duration_factor}"
            )
        if self.memcpy_stall < 0:
            raise FaultConfigError(
                f"GpuFault: negative memcpy stall: {self.memcpy_stall}"
            )


@dataclass(frozen=True)
class NodeFailure:
    """Each benchmark-cell attempt is independently killed with
    ``probability`` (the node "goes away" mid-measurement)."""

    probability: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("NodeFailure", self.probability)


FaultSpec = MessageDrop | LinkFault | StragglerFault | GpuFault | NodeFailure


@dataclass(frozen=True)
class FaultPlan:
    """A named, immutable collection of fault specifications."""

    name: str = "none"
    specs: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise FaultConfigError(f"unknown fault spec: {spec!r}")

    def of_kind(self, kind: type) -> tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if isinstance(s, kind))

    def is_null(self) -> bool:
        """True when the plan can never inject anything.

        A null plan must behave *byte-identically* to running with no
        plan at all — the property tests assert exactly that.
        """
        for spec in self.specs:
            if isinstance(spec, LinkFault):
                return False
            if getattr(spec, "probability", 0.0) > 0.0:
                return False
        return True

    def link_faults_for(self, link_name: str) -> tuple[LinkFault, ...]:
        return tuple(
            s for s in self.of_kind(LinkFault) if s.matches(link_name)
        )

    def describe(self) -> str:
        if not self.specs:
            return f"{self.name}: no faults armed"
        parts = [f"{self.name}:"]
        for spec in self.specs:
            parts.append(f"  - {spec!r}")
        return "\n".join(parts)
