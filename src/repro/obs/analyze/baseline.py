"""The ``repro.bench/v1`` metrics schema and its comparator.

A ``repro.bench/v1`` document records, per target, summary statistics
(mean/std/n) for named metrics, each marked gating or advisory.  Every
ledgered run's ``metrics.json`` is one (the study's ``sim.*`` cells as
a single ``study`` target), and so are the committed ``BENCH_*.json``
files, the frozen record of an earlier in-process bench harness:

* ``sim.*`` — simulated quantities (deterministic given the seed;
  these **gate**);
* ``wall_seconds``, ``events_per_sec`` and other host-side figures
  (machine-dependent, advisory: classified and reported but never
  gating).

The comparator follows "MPI Benchmarking Revisited": a metric only
counts as changed when the delta is *both* statistically defensible
(Welch's t-test, :func:`repro.analysis.metrics.welch_t_test`) *and*
practically large (relative error above a threshold,
:func:`repro.analysis.metrics.relative_error`).  Deterministic metrics
(zero variance on both sides) degenerate cleanly: any relative error
above the threshold is a certain change.  The verdict itself is
computed by the one shared comparator,
:func:`repro.checks.evaluate.classify_delta` — ``runs diff`` and the
declarative check suites both gate through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ...errors import BenchDataError

BENCH_SCHEMA = "repro.bench/v1"

#: default practical-significance threshold for gating metrics
DEFAULT_THRESHOLD = 0.02
#: default statistical significance level for Welch's t-test
DEFAULT_ALPHA = 0.01

_VERDICTS = ("improved", "unchanged", "regressed", "missing")


@dataclass(frozen=True)
class MetricStat:
    """Summary statistics for one metric of one target."""

    mean: float
    std: float
    n: int
    unit: str = ""
    #: direction of goodness: "lower" (latency) or "higher" (throughput)
    better: str = "lower"
    #: whether a regression in this metric fails a comparison
    gate: bool = True

    def __post_init__(self) -> None:
        if self.n < 1:
            raise BenchDataError(f"metric sample count must be >= 1: {self.n}")
        if self.std < 0:
            raise BenchDataError(f"negative metric std: {self.std}")
        if self.better not in ("lower", "higher"):
            raise BenchDataError(
                f"better must be 'lower' or 'higher': {self.better!r}"
            )

    def to_json(self) -> dict:
        return {
            "mean": self.mean, "std": self.std, "n": self.n,
            "unit": self.unit, "better": self.better, "gate": self.gate,
        }

    @classmethod
    def from_json(cls, doc: dict, where: str = "") -> "MetricStat":
        try:
            return cls(
                mean=float(doc["mean"]), std=float(doc["std"]),
                n=int(doc["n"]), unit=str(doc.get("unit", "")),
                better=str(doc.get("better", "lower")),
                gate=bool(doc.get("gate", True)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BenchDataError(f"bad metric record {where}: {exc}") from exc


@dataclass
class TargetRecord:
    """One target's measured metrics plus its phase digest."""

    metrics: dict[str, MetricStat] = field(default_factory=dict)
    #: per-cell phase attribution digests (``PhaseAttribution.to_json``)
    attribution: list[dict] = field(default_factory=list)
    #: True when the target degraded (e.g. under a fault profile)
    degraded: bool = False

    def to_json(self) -> dict:
        doc: dict = {
            "metrics": {
                name: self.metrics[name].to_json()
                for name in sorted(self.metrics)
            },
        }
        if self.attribution:
            doc["attribution"] = self.attribution
        if self.degraded:
            doc["degraded"] = True
        return doc

    @classmethod
    def from_json(cls, doc: dict, where: str = "") -> "TargetRecord":
        metrics_doc = doc.get("metrics")
        if not isinstance(metrics_doc, dict):
            raise BenchDataError(f"target {where} has no metrics mapping")
        return cls(
            metrics={
                name: MetricStat.from_json(entry, f"{where}/{name}")
                for name, entry in metrics_doc.items()
            },
            attribution=list(doc.get("attribution", ())),
            degraded=bool(doc.get("degraded", False)),
        )


@dataclass
class BenchRun:
    """One ``repro.bench/v1`` document: every target's record plus config."""

    repeats: int
    seed: int
    faults: str = "none"
    #: ISO date the run was recorded (informational; "" on old files)
    date: str = ""
    targets: dict[str, TargetRecord] = field(default_factory=dict)

    def to_json(self) -> dict:
        config = {
            "repeats": self.repeats,
            "seed": self.seed,
            "faults": self.faults,
        }
        if self.date:
            config["date"] = self.date
        return {
            "schema": BENCH_SCHEMA,
            "config": config,
            "targets": {
                name: self.targets[name].to_json()
                for name in sorted(self.targets)
            },
        }

    @classmethod
    def from_json(cls, doc: dict) -> "BenchRun":
        if not isinstance(doc, dict):
            raise BenchDataError("bench document must be a JSON object")
        schema = doc.get("schema")
        if schema != BENCH_SCHEMA:
            raise BenchDataError(
                f"unsupported bench schema {schema!r} (want {BENCH_SCHEMA})"
            )
        config = doc.get("config", {})
        targets_doc = doc.get("targets")
        if not isinstance(targets_doc, dict):
            raise BenchDataError("bench document has no targets mapping")
        return cls(
            repeats=int(config.get("repeats", 1)),
            seed=int(config.get("seed", 0)),
            faults=str(config.get("faults", "none")),
            date=str(config.get("date", "")),
            targets={
                name: TargetRecord.from_json(entry, name)
                for name, entry in targets_doc.items()
            },
        )


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricComparison:
    """Baseline-vs-current verdict for one metric of one target."""

    target: str
    metric: str
    verdict: str  # improved | unchanged | regressed | missing
    baseline: Optional[MetricStat] = None
    current: Optional[MetricStat] = None
    rel_change: float = 0.0
    p_value: float = 1.0
    gate: bool = True

    def __post_init__(self) -> None:
        if self.verdict not in _VERDICTS:
            raise BenchDataError(f"unknown verdict {self.verdict!r}")


@dataclass
class BenchComparison:
    """Every metric verdict of one baseline-vs-current comparison."""

    rows: list[MetricComparison] = field(default_factory=list)
    threshold: float = DEFAULT_THRESHOLD
    alpha: float = DEFAULT_ALPHA

    def regressions(self) -> list[MetricComparison]:
        return [r for r in self.rows
                if r.verdict == "regressed" and r.gate]

    def missing(self) -> list[MetricComparison]:
        return [r for r in self.rows if r.verdict == "missing"]

    @property
    def regressed(self) -> bool:
        return bool(self.regressions())


def compare_metric(
    target: str,
    metric: str,
    baseline: MetricStat,
    current: MetricStat,
    threshold: float = DEFAULT_THRESHOLD,
    alpha: float = DEFAULT_ALPHA,
) -> MetricComparison:
    """Classify one metric: both tests must agree before a change counts.

    Delegates to the shared :func:`repro.checks.evaluate.classify_delta`
    comparator so ``runs diff`` and the declarative check suites cannot
    drift apart.
    """
    from ...checks.evaluate import classify_delta

    delta = classify_delta(
        baseline.mean, baseline.std, baseline.n,
        current.mean, current.std, current.n,
        better=baseline.better, threshold=threshold, alpha=alpha,
    )
    return MetricComparison(
        target=target, metric=metric, verdict=delta.verdict,
        baseline=baseline, current=current,
        rel_change=delta.rel_change, p_value=delta.p_value,
        gate=baseline.gate and current.gate,
    )


def compare_runs(
    baseline: BenchRun,
    current: BenchRun,
    threshold: float = DEFAULT_THRESHOLD,
    alpha: float = DEFAULT_ALPHA,
) -> BenchComparison:
    """Compare every metric present in either run.

    Metrics or targets present on only one side produce ``missing``
    rows (the comparison is incomplete — the harness exits 3 for that)
    rather than being silently skipped.
    """
    out = BenchComparison(threshold=threshold, alpha=alpha)
    for target_name in sorted(set(baseline.targets) | set(current.targets)):
        base_target = baseline.targets.get(target_name)
        cur_target = current.targets.get(target_name)
        if base_target is None or cur_target is None:
            out.rows.append(MetricComparison(
                target=target_name, metric="*", verdict="missing",
                gate=False,
            ))
            continue
        names = set(base_target.metrics) | set(cur_target.metrics)
        for metric in sorted(names):
            base = base_target.metrics.get(metric)
            cur = cur_target.metrics.get(metric)
            if base is None or cur is None:
                out.rows.append(MetricComparison(
                    target=target_name, metric=metric, verdict="missing",
                    baseline=base, current=cur, gate=False,
                ))
                continue
            out.rows.append(compare_metric(
                target_name, metric, base, cur, threshold, alpha
            ))
    return out
