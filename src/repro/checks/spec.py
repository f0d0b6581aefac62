"""The declarative check-spec model (schema ``repro.checks/v1``).

A *check* pins one addressable study output (an extractor path, see
:mod:`repro.checks.extract`) to a :class:`Reference` — ReFrame's
``(value, lower_thr, upper_thr, unit)`` idiom, thresholds as relative
fractions — plus a :class:`StatPolicy` choosing how the observation is
judged against it: a plain interval test or Welch's t against the
reference's own dispersion, with adaptive repeat counts to a target
confidence half-width instead of a fixed repeat budget ("MPI
Benchmarking Revisited").

Suites are constructible in Python (:class:`CheckSuite`), loadable from
a validated dict (:func:`suite_from_dict`) and from TOML/JSON files
(:func:`load_suite`), and round-trip through :meth:`CheckSuite.to_dict`.
"""

from __future__ import annotations

import json
import math
from dataclasses import field, replace
from typing import Iterable, Mapping, Optional, Sequence

from .._dataclass import dataclass
from ..analysis.metrics import better_direction
from ..errors import CheckSpecError

#: schema tag for check-suite documents; bump on any layout change
CHECKS_SCHEMA = "repro.checks/v1"

#: the statistical modes the evaluator implements
MODES = ("interval", "welch")


@dataclass(frozen=True)
class Reference:
    """One reference value with tolerances, ReFrame-style.

    ``lower`` / ``upper`` are *relative* deviations from ``value``
    (``(5.67, None, 0.05, 'us')`` accepts anything up to 5% above 5.67
    with no lower bound); ``None`` leaves that side unbounded.  ``std``
    and ``n`` optionally carry the reference's own dispersion (the
    paper publishes mean ± std over 100 runs) so the statistical modes
    can test the *delta* instead of assuming the reference is exact.
    """

    value: float
    lower: Optional[float] = None
    upper: Optional[float] = None
    unit: str = ""
    std: Optional[float] = None
    n: int = 1

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise CheckSpecError(f"reference value must be finite: {self.value}")
        for name, thr, sign in (("lower", self.lower, -1),
                                ("upper", self.upper, +1)):
            if thr is None:
                continue
            if not math.isfinite(thr):
                raise CheckSpecError(f"{name} threshold must be finite: {thr}")
            if thr * sign < 0:
                raise CheckSpecError(
                    f"{name} threshold must be {'<= 0' if sign < 0 else '>= 0'}"
                    f" (a relative deviation from the value): {thr}"
                )
        if self.std is not None and self.std < 0:
            raise CheckSpecError(f"negative reference std: {self.std}")
        if self.n < 1:
            raise CheckSpecError(f"reference n must be >= 1: {self.n}")

    def bounds(self) -> tuple[float, float]:
        """The absolute ``(low, high)`` acceptance band (inf-padded)."""
        scale = abs(self.value)
        low = (
            -math.inf if self.lower is None
            else self.value + self.lower * scale
        )
        high = (
            math.inf if self.upper is None
            else self.value + self.upper * scale
        )
        return low, high

    def contains(self, observed: float) -> bool:
        low, high = self.bounds()
        return low <= observed <= high

    def to_tuple(self) -> tuple:
        """The ReFrame 4-tuple ``(value, lower_thr, upper_thr, unit)``."""
        return (self.value, self.lower, self.upper, self.unit)

    @classmethod
    def from_value(cls, doc, where: str = "") -> "Reference":
        """A reference from its dict or ReFrame-tuple form."""
        try:
            if isinstance(doc, Mapping):
                return cls(
                    value=float(doc["value"]),
                    lower=_opt_float(doc.get("lower")),
                    upper=_opt_float(doc.get("upper")),
                    unit=str(doc.get("unit", "")),
                    std=_opt_float(doc.get("std")),
                    n=int(doc.get("n", 1)),
                )
            if isinstance(doc, Sequence) and not isinstance(doc, str):
                if not 1 <= len(doc) <= 4:
                    raise CheckSpecError(
                        f"reference tuple needs 1-4 entries, got {len(doc)}"
                    )
                padded = list(doc) + [None, None, ""][len(doc) - 1:]
                return cls(
                    value=float(padded[0]),
                    lower=_opt_float(padded[1]),
                    upper=_opt_float(padded[2]),
                    unit=str(padded[3] or ""),
                )
        except CheckSpecError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckSpecError(f"bad reference {where}: {exc}") from exc
        raise CheckSpecError(
            f"reference {where} must be a mapping or a "
            f"(value, lower, upper, unit) sequence: {doc!r}"
        )


def _opt_float(value) -> Optional[float]:
    return None if value is None else float(value)


@dataclass(frozen=True)
class StatPolicy:
    """How an observation is judged and how many repeats it may take.

    * ``mode`` — ``interval`` (bounds on the observed mean only) or
      ``welch`` (bounds + Welch's t against the reference dispersion);
    * ``alpha`` — significance level of the t-test and of the reported
      confidence half-widths;
    * ``min_repeats`` / ``max_repeats`` — the adaptive-repeat budget;
    * ``ci_rel`` / ``ci_abs`` — target confidence half-width (relative
      to the mean, or absolute in the metric's unit) at which adaptive
      sampling stops early.
    """

    mode: str = "interval"
    alpha: float = 0.01
    min_repeats: int = 3
    max_repeats: int = 100
    ci_rel: float = 0.05
    ci_abs: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise CheckSpecError(
                f"unknown check mode {self.mode!r} (want one of {MODES})"
            )
        if not 0.0 < self.alpha < 1.0:
            raise CheckSpecError(f"alpha out of (0, 1): {self.alpha}")
        if self.min_repeats < 1:
            raise CheckSpecError(
                f"min_repeats must be >= 1: {self.min_repeats}"
            )
        if self.max_repeats < self.min_repeats:
            raise CheckSpecError(
                f"max_repeats {self.max_repeats} below min_repeats "
                f"{self.min_repeats}"
            )
        if self.ci_rel < 0:
            raise CheckSpecError(f"negative ci_rel: {self.ci_rel}")
        if self.ci_abs is not None and self.ci_abs < 0:
            raise CheckSpecError(f"negative ci_abs: {self.ci_abs}")

    def ci_target(self, mean: float) -> float:
        """The absolute half-width below which sampling may stop."""
        if self.ci_abs is not None:
            return self.ci_abs
        return self.ci_rel * abs(mean)

    def to_dict(self) -> dict:
        doc: dict = {
            "mode": self.mode,
            "alpha": self.alpha,
            "min_repeats": self.min_repeats,
            "max_repeats": self.max_repeats,
            "ci_rel": self.ci_rel,
        }
        if self.ci_abs is not None:
            doc["ci_abs"] = self.ci_abs
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping, where: str = "") -> "StatPolicy":
        unknown = set(doc) - {
            "mode", "alpha", "min_repeats", "max_repeats", "ci_rel", "ci_abs",
        }
        if unknown:
            raise CheckSpecError(
                f"unknown policy key(s) {sorted(unknown)} {where}"
            )
        try:
            return cls(
                mode=str(doc.get("mode", "interval")),
                alpha=float(doc.get("alpha", 0.01)),
                min_repeats=int(doc.get("min_repeats", 3)),
                max_repeats=int(doc.get("max_repeats", 100)),
                ci_rel=float(doc.get("ci_rel", 0.05)),
                ci_abs=_opt_float(doc.get("ci_abs")),
            )
        except CheckSpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise CheckSpecError(f"bad policy {where}: {exc}") from exc


@dataclass(frozen=True)
class CheckSpec:
    """One named check: an extractor path, a reference, and a policy."""

    name: str
    path: str
    reference: Reference
    policy: StatPolicy = field(default_factory=StatPolicy)
    #: direction of goodness; ``None`` infers it from the path through
    #: the one shared :func:`~repro.analysis.metrics.better_direction`
    better: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.strip():
            raise CheckSpecError("check name must be non-empty")
        if not self.path or not self.path.strip():
            raise CheckSpecError(f"check {self.name!r}: path must be non-empty")
        if self.better not in (None, "lower", "higher"):
            raise CheckSpecError(
                f"check {self.name!r}: better must be 'lower', 'higher' "
                f"or omitted: {self.better!r}"
            )

    @property
    def direction(self) -> str:
        return self.better or better_direction(self.path)

    def to_dict(self) -> dict:
        doc: dict = {
            "name": self.name,
            "path": self.path,
            "reference": {
                "value": self.reference.value,
                "lower": self.reference.lower,
                "upper": self.reference.upper,
                "unit": self.reference.unit,
            },
            "policy": self.policy.to_dict(),
        }
        if self.reference.std is not None:
            doc["reference"]["std"] = self.reference.std
            doc["reference"]["n"] = self.reference.n
        if self.better is not None:
            doc["better"] = self.better
        return doc

    @classmethod
    def from_dict(
        cls, doc: Mapping, defaults: Optional[StatPolicy] = None
    ) -> "CheckSpec":
        if not isinstance(doc, Mapping):
            raise CheckSpecError(f"check entry must be a mapping: {doc!r}")
        name = str(doc.get("name", "")).strip()
        where = f"in check {name!r}" if name else "in unnamed check"
        unknown = set(doc) - {"name", "path", "reference", "policy", "better"}
        if unknown:
            raise CheckSpecError(
                f"unknown check key(s) {sorted(unknown)} {where}"
            )
        if "reference" not in doc:
            raise CheckSpecError(f"missing reference {where}")
        policy = defaults or StatPolicy()
        if "policy" in doc:
            merged = dict(policy.to_dict())
            merged.update(doc["policy"])
            policy = StatPolicy.from_dict(merged, where)
        better = doc.get("better")
        return cls(
            name=name,
            path=str(doc.get("path", "")).strip(),
            reference=Reference.from_value(doc["reference"], where),
            policy=policy,
            better=None if better is None else str(better),
        )


@dataclass(frozen=True)
class CheckSuite:
    """A named, ordered collection of checks."""

    name: str
    checks: tuple[CheckSpec, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise CheckSpecError("suite name must be non-empty")
        seen: set[str] = set()
        for check in self.checks:
            if check.name in seen:
                raise CheckSpecError(
                    f"duplicate check name {check.name!r} in suite "
                    f"{self.name!r}"
                )
            seen.add(check.name)

    def __len__(self) -> int:
        return len(self.checks)

    def __iter__(self):
        return iter(self.checks)

    def subset(self, names: Iterable[str]) -> "CheckSuite":
        wanted = set(names)
        unknown = wanted - {c.name for c in self.checks}
        if unknown:
            raise CheckSpecError(
                f"unknown check(s) {sorted(unknown)} in suite {self.name!r}"
            )
        return replace(
            self,
            checks=tuple(c for c in self.checks if c.name in wanted),
        )

    def to_dict(self) -> dict:
        doc: dict = {
            "schema": CHECKS_SCHEMA,
            "suite": self.name,
            "checks": [c.to_dict() for c in self.checks],
        }
        if self.description:
            doc["description"] = self.description
        return doc


def suite_from_dict(doc: Mapping) -> CheckSuite:
    """Validate and build a suite from its dict/TOML-shaped form."""
    if not isinstance(doc, Mapping):
        raise CheckSpecError("check-suite document must be a mapping")
    schema = doc.get("schema")
    if schema != CHECKS_SCHEMA:
        raise CheckSpecError(
            f"unsupported check schema {schema!r} (want {CHECKS_SCHEMA})"
        )
    unknown = set(doc) - {"schema", "suite", "description", "defaults",
                          "checks"}
    if unknown:
        raise CheckSpecError(
            f"unknown suite key(s) {sorted(unknown)}"
        )
    defaults = StatPolicy.from_dict(doc.get("defaults", {}), "in defaults")
    entries = doc.get("checks")
    if not isinstance(entries, Sequence) or isinstance(entries, str):
        raise CheckSpecError("suite must carry a list of checks")
    if not entries:
        raise CheckSpecError("suite carries no checks")
    return CheckSuite(
        name=str(doc.get("suite", "unnamed")),
        description=str(doc.get("description", "")),
        checks=tuple(
            CheckSpec.from_dict(entry, defaults) for entry in entries
        ),
    )


def load_suite(path: str) -> CheckSuite:
    """A suite from a ``.toml`` or ``.json`` spec file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckSpecError(f"cannot read check spec {path}: {exc}") from exc
    if path.endswith(".toml"):
        import tomllib

        try:
            doc = tomllib.loads(raw.decode())
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
            raise CheckSpecError(
                f"cannot parse TOML check spec {path}: {exc}"
            ) from exc
    else:
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            raise CheckSpecError(
                f"cannot parse JSON check spec {path}: {exc}"
            ) from exc
    return suite_from_dict(doc)
