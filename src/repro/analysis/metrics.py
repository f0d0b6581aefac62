"""Error metrics for the paper-vs-measured comparison, plus the
statistics the regression gates are built on: Welch's unequal-variance
t-test from summary statistics and the confidence half-width of a mean,
implemented dependency-free ("MPI Benchmarking Revisited": run-to-run
comparisons need a statistical footing, not bare mean deltas)."""

from __future__ import annotations

import math
import re
from functools import lru_cache

from .._dataclass import dataclass

#: splitter for :func:`better_direction` path tokens
_DIRECTION_TOKENS = re.compile(r"[./:\[\]\s-]+")


def relative_error(measured: float, reference: float) -> float:
    """``|measured - reference| / |reference|`` (inf for zero reference)."""
    if reference == 0:
        return float("inf") if measured != 0 else 0.0
    return abs(measured - reference) / abs(reference)


#: path components that name a throughput-like quantity on their own
#: (Table 4 "single"/"all" cells, the CommScope ``hdbw`` component, the
#: profiler's rates, the scheduler's worker count)
_HIGHER_TOKENS = frozenset(
    {"single", "all", "bw", "hdbw", "workers", "events_per_sec"}
)


def better_direction(metric_name: str) -> str:
    """Direction of goodness for a metric, inferred from its name.

    The one shared rule every gate uses (study summaries, ``repro.bench/v1``
    documents, the declarative checks): throughput-like quantities —
    bandwidths, BabelStream rates, events/sec — are better *higher*;
    everything else (latencies, walls, counts of bad events) is better
    *lower*.  Matching is case-insensitive and token-wise over the full
    dotted path, so ``sim.frontier/babelstream-gpu/triad`` and
    ``table4.eagle.single`` classify identically while an ``alltoall``
    latency can never ride on the ``all`` bandwidth token.
    """
    name = metric_name.lower()
    if "babelstream" in name or "bandwidth" in name or "gb/s" in name:
        return "higher"
    for token in _DIRECTION_TOKENS.split(name):
        if token in _HIGHER_TOKENS or token.endswith("_bw"):
            return "higher"
    return "lower"


def ratio(measured: float, reference: float) -> float:
    """measured / reference (inf for zero reference)."""
    if reference == 0:
        return float("inf")
    return measured / reference


def within_factor(measured: float, reference: float, factor: float) -> bool:
    """True when the two values agree within a multiplicative factor."""
    if factor < 1:
        raise ValueError(f"factor must be >= 1: {factor}")
    if measured <= 0 or reference <= 0:
        return measured == reference
    r = measured / reference
    return 1 / factor <= r <= factor


# ---------------------------------------------------------------------------
# Welch's t-test ("MPI Benchmarking Revisited": run-to-run comparisons
# need a statistical footing, not bare mean deltas)
# ---------------------------------------------------------------------------

def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz's continued fraction for the incomplete beta function."""
    max_iterations, eps, tiny = 300, 3e-12, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        for numerator in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + numerator * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + numerator / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """``I_x(a, b)``, the CDF workhorse behind the t distribution."""
    if a <= 0 or b <= 0:
        raise ValueError(f"beta parameters must be positive: a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x out of [0, 1]: {x}")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # the continued fraction converges fast only below the pivot;
    # above it, use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_sf_two_sided(t: float, df: float) -> float:
    """Two-sided p-value for a t statistic with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive: {df}")
    if math.isinf(t):
        return 0.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


@dataclass(frozen=True)
class WelchResult:
    """Welch's t-test outcome for two summarised samples."""

    t: float
    df: float
    p_value: float

    def significant(self, alpha: float = 0.01) -> bool:
        return self.p_value < alpha


def welch_t_test(
    mean_a: float, std_a: float, n_a: int,
    mean_b: float, std_b: float, n_b: int,
) -> WelchResult:
    """Welch's unequal-variance t-test from summary statistics.

    Degenerate inputs are handled the way a deterministic simulator
    needs: when both samples have zero variance (e.g. repeated runs of
    a seeded simulation) any difference in means is certain, equality
    is certain agreement, and no division blows up.
    """
    for name, n in (("n_a", n_a), ("n_b", n_b)):
        if n < 1:
            raise ValueError(f"{name} must be >= 1: {n}")
    if std_a < 0 or std_b < 0:
        raise ValueError(f"negative std: {std_a}, {std_b}")
    va, vb = std_a * std_a / n_a, std_b * std_b / n_b
    if va + vb == 0.0:
        if mean_a == mean_b:
            return WelchResult(t=0.0, df=float(n_a + n_b - 1), p_value=1.0)
        return WelchResult(
            t=math.copysign(math.inf, mean_b - mean_a),
            df=float(n_a + n_b - 1), p_value=0.0,
        )
    t = (mean_b - mean_a) / math.sqrt(va + vb)
    # Welch-Satterthwaite: a zero-variance side contributes nothing
    denom = 0.0
    for v, n in ((va, n_a), (vb, n_b)):
        if v > 0.0:
            if n < 2:
                # a single nonzero-variance sample cannot happen via
                # Statistic.from_samples; be conservative if it does
                return WelchResult(t=t, df=1.0,
                                   p_value=student_t_sf_two_sided(t, 1.0))
            denom += v * v / (n - 1)
    df = (va + vb) ** 2 / denom
    return WelchResult(t=t, df=df, p_value=student_t_sf_two_sided(t, df))


@lru_cache(maxsize=64)
def student_t_quantile_two_sided(alpha: float, df: float) -> float:
    """The critical value ``t*`` with two-sided tail mass ``alpha``.

    Solved by bisection on :func:`student_t_sf_two_sided` (monotone
    decreasing in ``t``), which keeps the module dependency-free.  Used
    for confidence half-widths: ``hw = t* · s / sqrt(n)``.  Memoized:
    a check suite asks for the same few ``(alpha, df)`` many times, and
    each solve takes about 40 evaluations of the incomplete beta.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha out of (0, 1): {alpha}")
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive: {df}")
    lo, hi = 0.0, 2.0
    while student_t_sf_two_sided(hi, df) > alpha:
        hi *= 2.0
        if hi > 1e12:  # pragma: no cover - alpha pathologically small
            return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_sf_two_sided(mid, df) > alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def ci_half_width(std: float, n: int, alpha: float = 0.05) -> float:
    """Two-sided ``(1 - alpha)`` confidence half-width of a sample mean.

    ``t*_{alpha, n-1} · s / sqrt(n)``; a single sample or zero variance
    yields 0.0 (a deterministic simulation's repeats are identical, and
    the adaptive-repeat logic must treat that as "converged").
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1: {n}")
    if std < 0:
        raise ValueError(f"negative std: {std}")
    if n < 2 or std == 0.0:
        return 0.0
    return student_t_quantile_two_sided(alpha, n - 1) * std / math.sqrt(n)


__all__ = [
    "relative_error",
    "ratio",
    "within_factor",
    "better_direction",
    "regularized_incomplete_beta",
    "student_t_sf_two_sided",
    "student_t_quantile_two_sided",
    "ci_half_width",
    "WelchResult",
    "welch_t_test",
]
