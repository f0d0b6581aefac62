"""The one evaluator every gate goes through.

Two entry points:

* :func:`classify_delta` — the baseline-vs-current comparator
  (practical threshold AND Welch significance must agree before a
  change counts).  ``repro runs diff`` and the study ledger delegate
  here via
  :func:`repro.obs.analyze.baseline.compare_metric`.
* :func:`evaluate` — judge a :class:`~repro.checks.spec.CheckSuite`
  against a :class:`~repro.checks.extract.Source`, producing a
  :class:`CheckReport` with per-check pass/fail/skip, observed vs
  reference, confidence half-widths, and the exit-code discipline
  ``0 ok / 3 regression / 4 inflated``.

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

from dataclasses import dataclass, field
from typing import Optional

from ..analysis.metrics import (
    bootstrap_mean_ci,
    ci_half_width,
    mann_whitney_u,
    relative_error,
    welch_t_test,
)
from .extract import ExtractionError, Observation, Source
from .spec import CheckSpec, CheckSuite, Reference

__all__ = [
    "DeltaVerdict",
    "classify_delta",
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
# baseline-vs-current comparator (runs diff delegates here)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaVerdict:
    """Outcome of one baseline-vs-current metric comparison."""

    verdict: str  # improved | unchanged | regressed
    rel_change: float
    p_value: float


def classify_delta(
    baseline_mean: float,
    baseline_std: float,
    baseline_n: int,
    current_mean: float,
    current_std: float,
    current_n: int,
    better: str = "lower",
    threshold: float = 0.02,
    alpha: float = 0.01,
) -> DeltaVerdict:
    """Classify a change: practical AND statistical tests must agree.

    A metric only counts as changed when the relative deviation
    exceeds ``threshold`` *and* Welch's t-test rejects equality at
    ``alpha`` — a large-but-noisy delta and a significant-but-tiny one
    both stay ``unchanged``.  Direction of goodness then splits changed
    into ``regressed`` vs ``improved``.
    """
    rel = relative_error(current_mean, baseline_mean)
    welch = welch_t_test(
        baseline_mean, baseline_std, baseline_n,
        current_mean, current_std, current_n,
    )
    verdict = "unchanged"
    if rel > threshold and welch.significant(alpha):
        worse = (
            current_mean > baseline_mean
            if better == "lower"
            else current_mean < baseline_mean
        )
        verdict = "regressed" if worse else "improved"
    return DeltaVerdict(verdict=verdict, rel_change=rel, p_value=welch.p_value)


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
    """``(status, failure_kind, reason)`` for a finite observation."""
    ref = spec.reference
    policy = spec.policy
    in_band = ref.contains(obs.mean)
    mode = policy.mode

    if mode == "interval":
        if in_band:
            return PASS, "", ""
        return FAIL, _failure_kind(obs.mean, ref, spec.direction), (
            f"mean {obs.mean:.6g} outside "
            f"[{ref.bounds()[0]:.6g}, {ref.bounds()[1]:.6g}]"
        )

    if mode == "welch":
        if in_band:
            return PASS, "", ""
        if ref.std is None or ref.n < 2 or obs.n < 2:
            # no dispersion on one side: the t-test cannot run, so the
            # interval verdict stands (noted for the report)
            return FAIL, _failure_kind(obs.mean, ref, spec.direction), (
                f"mean {obs.mean:.6g} out of band; welch unavailable "
                f"(need std and n >= 2 on both sides), interval verdict"
            )
        welch = welch_t_test(
            ref.value, ref.std, ref.n, obs.mean, obs.std, obs.n
        )
        if not welch.significant(policy.alpha):
            return PASS, "", (
                f"out of band but not significant "
                f"(p={welch.p_value:.3g} >= alpha={policy.alpha})"
            )
        return FAIL, _failure_kind(obs.mean, ref, spec.direction), (
            f"mean {obs.mean:.6g} out of band and significant "
            f"(p={welch.p_value:.3g})"
        )

    if mode == "mannwhitney":
        if obs.samples is None or len(obs.samples) < 2:
            return SKIP, "", (
                "mannwhitney needs raw samples (summary-only source)"
            )
        if in_band:
            return PASS, "", ""
        # one-sample location test: rank the observed samples against
        # the reference value (a degenerate second sample); significant
        # only when the samples sit consistently on one side of it
        ranks = mann_whitney_u(
            obs.samples, [ref.value] * max(ref.n, 2)
        )
        if not ranks.significant(policy.alpha):
            return PASS, "", (
                f"out of band but ranks not significant "
                f"(p={ranks.p_value:.3g})"
            )
        return FAIL, _failure_kind(obs.mean, ref, spec.direction), (
            f"mean {obs.mean:.6g} out of band, ranks significant "
            f"(p={ranks.p_value:.3g})"
        )

    # bootstrap: the CI of the mean must overlap the acceptance band —
    # an entirely-outside CI fails, a straddling one passes as noise
    if obs.samples is None or len(obs.samples) < 2:
        return SKIP, "", "bootstrap needs raw samples (summary-only source)"
    ci = bootstrap_mean_ci(
        obs.samples,
        alpha=policy.alpha,
        resamples=policy.bootstrap_resamples,
        seed=policy.seed,
    )
    low, high = ref.bounds()
    if ci.high < low or ci.low > high:
        return FAIL, _failure_kind(obs.mean, ref, spec.direction), (
            f"bootstrap CI [{ci.low:.6g}, {ci.high:.6g}] entirely outside "
            f"[{low:.6g}, {high:.6g}]"
        )
    if in_band:
        return PASS, "", ""
    return PASS, "", (
        f"mean {obs.mean:.6g} out of band but bootstrap CI overlaps it"
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
    jobs: int = 1,
) -> CheckReport:
    """Judge every check of ``suite`` against ``source``.

    Results always come back in spec order regardless of ``jobs``, and
    every statistical mode is seeded/deterministic, so the report —
    including its rendered forms — is byte-identical at any job count.
    """
    if jobs > 1:
        # concurrent.futures loads logging and traceback: only a pool pays
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(
                pool.map(
                    lambda spec: _evaluate_one(spec, source, adaptive),
                    suite.checks,
                )
            )
    else:
        results = [
            _evaluate_one(spec, source, adaptive) for spec in suite.checks
        ]
    return CheckReport(suite=suite.name, results=results, adaptive=adaptive)
