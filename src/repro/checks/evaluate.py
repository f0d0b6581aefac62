"""The one evaluator every gate goes through.

:func:`evaluate` judges a :class:`~repro.checks.spec.CheckSuite`
against a :class:`~repro.checks.extract.Source`, producing a
:class:`CheckReport` with per-check pass/fail/skip, observed vs
reference, confidence half-widths, and the exit-code discipline
``0 ok / 3 regression / 4 inflated``.  ``python -m repro check`` runs
the paper-reference suite through it, and ``repro runs diff`` runs a
``welch`` suite built from the baseline run's metric rows.

A failed check is a *regression* when the violated bound sits on the
metric's bad side (latency above the band, bandwidth below it) and
*inflated* when the observation is suspiciously better than the
reference — both fail, but they exit differently so CI can distinguish
"got slower" from "the model drifted optimistic".

Extraction failures and non-finite observations **skip with a reason**;
they never crash the evaluator and never flip the exit code on their
own (the paper-refs CI gate treats skips as advisory).
"""

from __future__ import annotations

from dataclasses import field
from typing import Optional

from .._dataclass import dataclass
from ..analysis.metrics import ci_half_width, welch_t_test
from .extract import ExtractionError, Observation, Source
from .spec import CheckSpec, CheckSuite, Reference

__all__ = [
    "CheckResult",
    "CheckReport",
    "evaluate",
    "adaptive_observe",
    "EXIT_OK",
    "EXIT_REGRESSION",
    "EXIT_INFLATED",
]

EXIT_OK = 0
EXIT_REGRESSION = 3
EXIT_INFLATED = 4

PASS, FAIL, SKIP = "pass", "fail", "skip"


# ---------------------------------------------------------------------------
# check results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    """One judged check."""

    name: str
    path: str
    status: str  # pass | fail | skip
    reference: Reference
    direction: str
    mode: str
    observed: Optional[Observation] = None
    #: for fails: "regression" (bad side) or "inflated" (good side)
    failure_kind: str = ""
    reason: str = ""
    #: two-sided CI half-width of the observed mean at the policy alpha
    ci_width: float = 0.0
    #: repeats actually taken (adaptive mode; equals observed.n)
    repeats: int = 0

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> dict:
        doc: dict = {
            "name": self.name,
            "path": self.path,
            "status": self.status,
            "mode": self.mode,
            "direction": self.direction,
            "reference": {
                "value": self.reference.value,
                "lower": self.reference.lower,
                "upper": self.reference.upper,
                "unit": self.reference.unit,
            },
        }
        if self.observed is not None:
            doc["observed"] = {
                "mean": self.observed.mean,
                "std": self.observed.std,
                "n": self.observed.n,
            }
            doc["ci_width"] = self.ci_width
        if self.repeats:
            doc["repeats"] = self.repeats
        if self.failure_kind:
            doc["failure_kind"] = self.failure_kind
        if self.reason:
            doc["reason"] = self.reason
        return doc


@dataclass
class CheckReport:
    """Every result of one suite evaluation."""

    suite: str
    results: list[CheckResult] = field(default_factory=list)
    adaptive: bool = False

    def by_status(self, status: str) -> list[CheckResult]:
        return [r for r in self.results if r.status == status]

    @property
    def passed(self) -> list[CheckResult]:
        return self.by_status(PASS)

    @property
    def failed(self) -> list[CheckResult]:
        return self.by_status(FAIL)

    @property
    def skipped(self) -> list[CheckResult]:
        return self.by_status(SKIP)

    @property
    def regressions(self) -> list[CheckResult]:
        return [r for r in self.failed if r.failure_kind == "regression"]

    @property
    def inflated(self) -> list[CheckResult]:
        return [r for r in self.failed if r.failure_kind == "inflated"]

    @property
    def exit_code(self) -> int:
        if self.regressions:
            return EXIT_REGRESSION
        if self.inflated:
            return EXIT_INFLATED
        return EXIT_OK

    def to_dict(self) -> dict:
        return {
            "schema": "repro.checks/v1",
            "suite": self.suite,
            "adaptive": self.adaptive,
            "counts": {
                "pass": len(self.passed),
                "fail": len(self.failed),
                "skip": len(self.skipped),
            },
            "exit_code": self.exit_code,
            "results": [r.to_dict() for r in self.results],
        }


# ---------------------------------------------------------------------------
# judging one check
# ---------------------------------------------------------------------------

def _failure_kind(observed: float, reference: Reference, direction: str) -> str:
    """Which side of the band was violated, in goodness terms."""
    low, high = reference.bounds()
    above = observed > high
    if direction == "lower":
        return "regression" if above else "inflated"
    return "inflated" if above else "regression"


def _judge(spec: CheckSpec, obs: Observation) -> tuple[str, str, str]:
    """``(status, failure_kind, reason)`` for a finite observation.

    Inside the band passes in either mode.  Outside it, ``interval``
    fails, and ``welch`` fails only when Welch's t-test calls the
    change significant at the policy's alpha.
    """
    ref = spec.reference
    if ref.contains(obs.mean):
        return PASS, "", ""
    kind = _failure_kind(obs.mean, ref, spec.direction)
    if spec.policy.mode == "interval":
        low, high = ref.bounds()
        return FAIL, kind, (
            f"mean {obs.mean:.6g} outside [{low:.6g}, {high:.6g}]"
        )
    if ref.std is None:
        # the reference carries no dispersion: the t-test cannot run,
        # so the interval verdict stands (noted for the report)
        return FAIL, kind, (
            f"mean {obs.mean:.6g} out of band; welch unavailable "
            f"(reference has no std), interval verdict"
        )
    welch = welch_t_test(ref.value, ref.std, ref.n, obs.mean, obs.std, obs.n)
    alpha = spec.policy.alpha
    if not welch.significant(alpha):
        return PASS, "", (
            f"out of band but not significant "
            f"(p={welch.p_value:.3g} >= alpha={alpha})"
        )
    return FAIL, kind, (
        f"mean {obs.mean:.6g} out of band and significant "
        f"(p={welch.p_value:.3g})"
    )


def adaptive_observe(
    source, spec: CheckSpec
) -> tuple[Optional[Observation], int]:
    """Sample a path adaptively: repeat until the CI target is met.

    Starts at ``min_repeats``, doubles while the two-sided confidence
    half-width of the mean exceeds the policy's target, and never
    exceeds ``max_repeats`` ("MPI Benchmarking Revisited"-style
    sequential design).  Zero-variance targets therefore stop at
    ``min_repeats``.  Returns ``(observation, repeats_taken)``;
    the observation is ``None`` if the sampler failed.
    """
    policy = spec.policy
    n = policy.min_repeats
    while True:
        obs = source.resolve_n(spec.path, n)
        width = ci_half_width(obs.std, obs.n, policy.alpha)
        if width <= policy.ci_target(obs.mean) or n >= policy.max_repeats:
            return obs, n
        n = min(n * 2, policy.max_repeats)


def _evaluate_one(spec: CheckSpec, source: Source, adaptive: bool) -> CheckResult:
    base = dict(
        name=spec.name,
        path=spec.path,
        reference=spec.reference,
        direction=spec.direction,
        mode=spec.policy.mode,
    )
    repeats = 0
    try:
        # any source exposing resolve_n(path, n) supports adaptive
        # sampling (CallableSource, the CLI's StudyCellSource)
        if adaptive and hasattr(source, "resolve_n"):
            obs, repeats = adaptive_observe(source, spec)
        else:
            obs = source.resolve(spec.path)
    except ExtractionError as exc:
        return CheckResult(status=SKIP, reason=str(exc), **base)
    if obs is None or not obs.is_finite():
        detail = "no observation" if obs is None else (
            f"non-finite observation (mean={obs.mean}, std={obs.std})"
        )
        return CheckResult(status=SKIP, reason=detail, **base)
    status, kind, reason = _judge(spec, obs)
    return CheckResult(
        status=status,
        failure_kind=kind,
        reason=reason,
        observed=obs,
        ci_width=ci_half_width(obs.std, obs.n, spec.policy.alpha),
        repeats=repeats,
        **base,
    )


def evaluate(
    suite: CheckSuite,
    source: Source,
    adaptive: bool = False,
) -> CheckReport:
    """Judge every check of ``suite`` against ``source``, in spec order.

    Both modes are deterministic, so the report — including its
    rendered forms — is byte-identical on every run.
    """
    results = [_evaluate_one(spec, source, adaptive) for spec in suite.checks]
    return CheckReport(suite=suite.name, results=results, adaptive=adaptive)
