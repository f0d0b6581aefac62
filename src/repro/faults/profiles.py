"""Named fault profiles selectable from the CLI (``--faults <name>``).

Default rates are chosen to be *of the order of* what the stability
literature reports for production HPC systems, scaled so a 100-execution
study sees a handful of injections:

* message-loss/retransmit rates: high-speed fabrics see per-message
  corruption rates far below 1e-6, but link-level flaps make effective
  loss bursty; the ``lossy`` profile's 2 % per-attempt drop is a
  stress-test rate, not a nominal one.
* OS-noise stragglers: core-specialised DOE machines keep noise below
  ~1 % of iterations (the paper's motivation for pinning and 100
  repeats); ``noisy`` arms 3 % of executions with a 2x slowdown so the
  effect is visible above the calibrated run-to-run jitter.
* GPU downclock/ECC: thermal throttling and ECC retirements are rare
  but long-tailed; ``noisy`` inflates 2 % of kernels by 1.5x.
* node failure: large systems lose nodes daily, which per
  benchmark-cell-hour is small; ``chaos`` uses an exaggerated 30 % per
  attempt so retries and degraded-cell reporting are exercised.

``smoke`` is the CI profile: every fault kind armed at rates that make
injection near-certain within one short run, so the whole layer is
exercised on every PR.
"""

from __future__ import annotations

from ..errors import FaultConfigError
from .models import (
    FaultPlan,
    GpuFault,
    LinkFault,
    MessageDrop,
    NodeFailure,
    StragglerFault,
)

#: no faults: the default; must be byte-identical to running without a plan
NONE = FaultPlan(name="none")

#: measurement noise only: stragglers + occasional GPU downclock
NOISY = FaultPlan(
    name="noisy",
    specs=(
        StragglerFault(probability=0.03, slowdown=2.0),
        GpuFault(probability=0.02, duration_factor=1.5, memcpy_stall=2.0e-6),
    ),
)

#: unreliable transport: per-attempt message drops + a mid-run link flap
LOSSY = FaultPlan(
    name="lossy",
    specs=(
        MessageDrop(probability=0.02),
        LinkFault(start=1.0e-3, duration=1.0e-3, pattern="*",
                  bandwidth_factor=0.5, extra_latency=0.5e-6),
    ),
)

#: everything at stress rates, including cell-killing node failures
CHAOS = FaultPlan(
    name="chaos",
    specs=(
        MessageDrop(probability=0.05),
        StragglerFault(probability=0.10, slowdown=3.0),
        GpuFault(probability=0.05, duration_factor=2.0, memcpy_stall=5.0e-6),
        LinkFault(start=0.5e-3, duration=2.0e-3, pattern="*",
                  bandwidth_factor=0.25, extra_latency=1.0e-6, down=False),
        NodeFailure(probability=0.30),
    ),
)

#: CI smoke profile: injection near-certain within one short run
SMOKE = FaultPlan(
    name="smoke",
    specs=(
        MessageDrop(probability=0.5),
        StragglerFault(probability=0.5, slowdown=2.0),
        GpuFault(probability=1.0, duration_factor=2.0, memcpy_stall=1.0e-6),
        LinkFault(start=0.0, duration=1.0e-4, pattern="*",
                  bandwidth_factor=0.5, extra_latency=0.2e-6),
        NodeFailure(probability=0.5),
    ),
)

PROFILES: dict[str, FaultPlan] = {
    plan.name: plan for plan in (NONE, NOISY, LOSSY, CHAOS, SMOKE)
}


def get_profile(name: str) -> FaultPlan:
    """Look up a named profile (case-insensitive)."""
    try:
        return PROFILES[name.lower()]
    except KeyError:
        raise FaultConfigError(
            f"unknown fault profile {name!r}; known: {sorted(PROFILES)}"
        ) from None
