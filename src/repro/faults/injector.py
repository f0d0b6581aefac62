"""The runtime fault injector: binds a plan to deterministic RNG streams.

One :class:`FaultInjector` serves one study (or one hand-built sim).
Every stochastic decision is drawn from a generator keyed by a string
path under the ``"faults"`` namespace of the study's
:class:`~repro.sim.random.RandomStreams`, so:

* the measurement-noise streams are *never* touched — arming a plan
  whose probabilities are all zero yields byte-identical results to
  running with no injector at all;
* within one path the draws are sequential, and the discrete-event
  simulation is deterministic, so the same seed and plan reproduce the
  same faults event-for-event.

Hooks query the injector; the injector never reaches into the models.
"""

from __future__ import annotations

from typing import Optional

from ..errors import InjectedFault
from ..obs import runtime as obs
from ..sim.random import Generator, RandomStreams
from .models import (
    FaultPlan,
    GpuFault,
    LinkFault,
    MessageDrop,
    NodeFailure,
    StragglerFault,
)


class FaultInjector:
    """Deterministic oracle answering "does this fault fire here?"."""

    def __init__(
        self,
        plan: FaultPlan,
        streams: RandomStreams | int | None = None,
        scope: str = "",
    ) -> None:
        self.plan = plan
        if streams is None:
            streams = RandomStreams()
        elif isinstance(streams, int):
            streams = RandomStreams(streams)
        self.streams = streams
        #: extra path component isolating e.g. one machine's draws
        self.scope = scope
        self._rngs: dict[tuple[str, ...], Generator] = {}

    # ------------------------------------------------------------------
    def _rng(self, *path: str) -> Generator:
        key = ("faults", self.scope, *path)
        if key not in self._rngs:
            self._rngs[key] = self.streams.get(*key)
        return self._rngs[key]

    def scoped(self, scope: str) -> "FaultInjector":
        """A sibling injector whose draws are independent of this one's."""
        return FaultInjector(self.plan, self.streams, scope=scope)

    def for_cell(self, *label: str) -> "FaultInjector":
        """The injector one benchmark cell's *simulations* run under.

        Scoping by the cell label re-seeds every sim-level hook (message
        drops, stragglers, GPU faults) from ``(study seed, cell)`` via
        the stable path hash, instead of continuing the shared
        sequential draw state of the study-wide injector.  That makes a
        cell's faults a pure function of the cell — independent of
        which cells ran before it — which is exactly the property the
        parallel scheduler needs for ``--faults`` to compose with
        ``--jobs``: a worker process rebuilding this scope reproduces
        the serial cell's faults event for event.
        """
        return self.scoped("/".join(label))

    @property
    def active(self) -> bool:
        return not self.plan.is_null()

    # ------------------------------------------------------------------
    # transport faults (mpisim hooks)
    # ------------------------------------------------------------------
    def drop_message(self, src: int, dst: int) -> bool:
        """Is this transmission attempt on ``src -> dst`` lost?"""
        specs = self.plan.of_kind(MessageDrop)
        if not specs:
            return False
        p = max(s.probability for s in specs)
        if p <= 0.0:
            return False
        dropped = bool(self._rng("drop", f"{src}->{dst}").random() < p)
        if dropped:
            obs.count("faults.injected.drop")
        return dropped

    def straggler_delay(self, rank: int, base_overhead: float) -> float:
        """Extra software overhead this rank pays right now, seconds.

        A hit inflates the per-message overhead by ``slowdown - 1``
        (the noise burst lands on top of the MPI software path).
        """
        specs = self.plan.of_kind(StragglerFault)
        if not specs:
            return 0.0
        extra = 0.0
        rng = None
        for spec in specs:
            if spec.probability <= 0.0:
                continue
            if rng is None:
                rng = self._rng("straggler", f"rank{rank}")
            if rng.random() < spec.probability:
                obs.count("faults.injected.straggler")
                extra += base_overhead * (spec.slowdown - 1.0)
        return extra

    # ------------------------------------------------------------------
    # link faults (netsim hooks)
    # ------------------------------------------------------------------
    def link_windows(self, link_name: str) -> tuple[LinkFault, ...]:
        """The deterministic degradation windows armed for one link."""
        return self.plan.link_faults_for(link_name)

    # ------------------------------------------------------------------
    # device faults (gpurt hooks)
    # ------------------------------------------------------------------
    def kernel_duration_factor(self, device: int) -> float:
        """Multiplier (>= 1) on this kernel execution's duration."""
        factor = 1.0
        rng = None
        for spec in self.plan.of_kind(GpuFault):
            if spec.probability <= 0.0:
                continue
            if rng is None:
                rng = self._rng("gpu", f"dev{device}", "kernel")
            if rng.random() < spec.probability:
                obs.count("faults.injected.gpu_kernel")
                factor *= spec.duration_factor
        return factor

    def memcpy_stall(self, device: int) -> float:
        """Extra stall (seconds) on this DMA transfer."""
        stall = 0.0
        rng = None
        for spec in self.plan.of_kind(GpuFault):
            if spec.probability <= 0.0 or spec.memcpy_stall <= 0.0:
                continue
            if rng is None:
                rng = self._rng("gpu", f"dev{device}", "memcpy")
            if rng.random() < spec.probability:
                obs.count("faults.injected.gpu_memcpy")
                stall += spec.memcpy_stall
        return stall

    # ------------------------------------------------------------------
    # study-level faults (core hooks)
    # ------------------------------------------------------------------
    def check_cell(self, *label: str, attempt: int = 1) -> None:
        """Raise :class:`InjectedFault` if a node failure kills this
        benchmark-cell attempt.  Each attempt draws independently, so
        bounded retries can genuinely recover."""
        for spec in self.plan.of_kind(NodeFailure):
            if spec.probability <= 0.0:
                continue
            if self._rng("nodefail", *label).random() < spec.probability:
                obs.count("faults.injected.nodefail")
                raise InjectedFault(
                    f"injected node failure during {'/'.join(label)} "
                    f"(attempt {attempt})"
                )

    def perturb_samples(
        self, samples: list[float], *label: str, kind: str = "latency"
    ) -> list[float]:
        """Apply straggler bursts to a list of per-execution samples.

        ``kind`` decides the direction: latency-like samples are
        multiplied by the slowdown, bandwidth-like samples divided.
        Returns the input list untouched (same object) when nothing
        fires, preserving byte-identity for null plans, and otherwise
        a copy.
        """
        specs = [
            s for s in self.plan.of_kind(StragglerFault) if s.probability > 0.0
        ]
        if not specs:
            return samples
        rng = self._rng("straggler-samples", *label)
        out = samples
        for spec in specs:
            hits = [
                i for i, u in enumerate(rng.random(len(out)))
                if u < spec.probability
            ]
            if not hits:
                continue
            obs.count("faults.injected.sample_bursts", len(hits))
            if out is samples:
                out = list(samples)
            for i in hits:
                if kind == "bandwidth":
                    out[i] /= spec.slowdown
                else:
                    out[i] *= spec.slowdown
        return out


def make_injector(
    plan: Optional[FaultPlan],
    streams: RandomStreams | int | None = None,
    scope: str = "",
) -> Optional[FaultInjector]:
    """Build an injector, or ``None`` for a missing/null plan.

    Returning ``None`` for null plans is what guarantees the
    ``--faults none`` path is *exactly* the pre-fault code path.
    """
    if plan is None or plan.is_null():
        return None
    return FaultInjector(plan, streams, scope=scope)
