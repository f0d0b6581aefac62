"""Deterministic fault injection for the simulated study.

Public surface:

* :class:`FaultPlan` plus the spec dataclasses (:class:`MessageDrop`,
  :class:`LinkFault`, :class:`StragglerFault`, :class:`GpuFault`,
  :class:`NodeFailure`) — declarative descriptions of what can go
  wrong;
* :func:`get_profile` / :data:`PROFILES` — the named profiles the CLI
  exposes as ``--faults <name>``;
* :class:`FaultInjector` / :func:`make_injector` — the runtime oracle
  the sim layers query, seeded from the study's deterministic streams.
"""

from .. import _lazy_exports
from .models import (
    FaultPlan,
    FaultSpec,
    GpuFault,
    LinkFault,
    MessageDrop,
    NodeFailure,
    StragglerFault,
)
from .profiles import PROFILES, get_profile

# the injector loads the random streams and obs runtime; load it on first use
_, __getattr__ = _lazy_exports(
    __name__, {".injector": ("FaultInjector", "make_injector")}
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "MessageDrop",
    "LinkFault",
    "StragglerFault",
    "GpuFault",
    "NodeFailure",
    "FaultInjector",
    "make_injector",
    "PROFILES",
    "get_profile",
]
