"""Extractors: address any study output by a dotted path.

One path grammar covers the three kinds of numbers the repo produces,
so a single check spec can gate paper tables, obs metrics and ledgered
runs alike:

``table4.<machine>.<single|all|on_socket|on_node>``
    Cells of the non-accelerator table (GB/s and microseconds).
``table5.<machine>.<device_bw|host|d2d.<A-D>>``
    Accelerator BabelStream/OSU cells; ``d2d`` takes a link class.
``table6.<machine>.<launch|wait|hd_lat|hd_bw|d2d.<A-D>>``
    Comm|Scope cells.
``metrics:<name>`` / ``metrics:<target>:<name>``
    A metric row of a ``repro.bench/v1`` document (a bench baseline
    file, a ledger run's metrics doc, or a study's
    :meth:`~repro.core.study.Study.outcome_summary`).  The one-colon
    form requires the name to be unique across targets.

Machine segments match case-insensitively (``table4.sawtooth...``).
Resolution failures raise :class:`ExtractionError` with a reason; the
evaluator turns those into skip-with-reason results, never crashes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from ..core.resilience import Degraded
from ..core.results import Statistic

__all__ = [
    "ExtractionError",
    "Observation",
    "Source",
    "TableSource",
    "MetricsSource",
    "CallableSource",
    "CompositeSource",
    "study_source",
    "ledger_source",
]


class ExtractionError(LookupError):
    """A path did not resolve against this source (carries the reason)."""


@dataclass(frozen=True)
class Observation:
    """One resolved measurement: summary stats plus optional raw samples.

    ``samples`` is populated only by sources that keep raw repeats
    (e.g. :class:`CallableSource`); the nonparametric evaluator modes
    need it, the summary modes do not.
    """

    path: str
    mean: float
    std: float = 0.0
    n: int = 1
    unit: str = ""
    samples: Optional[tuple[float, ...]] = None

    @classmethod
    def from_statistic(
        cls, path: str, stat: Statistic, unit: str = ""
    ) -> "Observation":
        return cls(
            path=path, mean=stat.mean, std=stat.std, n=stat.n, unit=unit
        )

    @classmethod
    def from_samples(
        cls, path: str, samples: Sequence[float], unit: str = ""
    ) -> "Observation":
        stat = Statistic.from_samples(samples)
        return cls(
            path=path, mean=stat.mean, std=stat.std, n=stat.n, unit=unit,
            samples=tuple(float(s) for s in samples),
        )

    def is_finite(self) -> bool:
        return math.isfinite(self.mean) and math.isfinite(self.std)


class Source:
    """Anything a check path can resolve against."""

    def resolve(self, path: str) -> Observation:
        raise NotImplementedError


def _segments(path: str) -> list[str]:
    parts = [seg.strip() for seg in path.split(".")]
    if any(not seg for seg in parts):
        raise ExtractionError(f"empty segment in path {path!r}")
    return parts


def _cell_observation(path: str, value, unit: str) -> Observation:
    if isinstance(value, Degraded):
        raise ExtractionError(
            f"{path}: cell degraded ({value.reason})"
        )
    if isinstance(value, Statistic):
        return Observation.from_statistic(path, value, unit)
    if isinstance(value, (int, float)):
        return Observation(path=path, mean=float(value), unit=unit)
    raise ExtractionError(
        f"{path}: cell holds no scalar statistic ({type(value).__name__})"
    )


def _link_class(token: str, path: str):
    from ..hardware.topology import LinkClass

    try:
        return LinkClass(token.upper())
    except ValueError as exc:
        raise ExtractionError(
            f"{path}: unknown link class {token!r} (want A-D)"
        ) from exc


#: table field name per (table, final path segment); d2d handled apart
_TABLE_FIELDS = {
    ("table4", "single"): ("single", "GB/s"),
    ("table4", "all"): ("all_threads", "GB/s"),
    ("table4", "on_socket"): ("on_socket", "us"),
    ("table4", "on_node"): ("on_node", "us"),
    ("table5", "device_bw"): ("device_bw", "GB/s"),
    ("table5", "host"): ("host_to_host", "us"),
    ("table6", "launch"): ("launch", "us"),
    ("table6", "wait"): ("wait", "us"),
    ("table6", "hd_lat"): ("hd_latency", "us"),
    ("table6", "hd_bw"): ("hd_bandwidth", "GB/s"),
}

_D2D_FIELD = {"table5": "device_to_device", "table6": "d2d_latency"}


class TableSource(Source):
    """Resolves ``tableN.<machine>.<cell>`` paths over built table rows."""

    def __init__(self, table4=(), table5=(), table6=()):
        self._rows = {
            "table4": {r.machine.lower(): r for r in table4},
            "table5": {r.machine.lower(): r for r in table5},
            "table6": {r.machine.lower(): r for r in table6},
        }

    def resolve(self, path: str) -> Observation:
        parts = _segments(path)
        table = parts[0]
        if table not in self._rows:
            raise ExtractionError(
                f"{path}: unknown table {table!r} (want table4/5/6)"
            )
        if len(parts) < 3:
            raise ExtractionError(
                f"{path}: want {table}.<machine>.<cell>"
            )
        rows = self._rows[table]
        if not rows:
            raise ExtractionError(f"{path}: no {table} rows in this source")
        row = rows.get(parts[1].lower())
        if row is None:
            raise ExtractionError(
                f"{path}: no {table} row for machine {parts[1]!r} "
                f"(have {sorted(rows)})"
            )
        cell = parts[2]
        if cell == "d2d":
            if len(parts) != 4:
                raise ExtractionError(
                    f"{path}: want {table}.<machine>.d2d.<A-D>"
                )
            bundle = getattr(row, _D2D_FIELD.get(table, ""), None)
            if bundle is None:
                raise ExtractionError(f"{path}: {table} has no d2d cells")
            if isinstance(bundle, Degraded):
                raise ExtractionError(
                    f"{path}: d2d cells degraded ({bundle.reason})"
                )
            cls = _link_class(parts[3], path)
            if cls not in bundle:
                raise ExtractionError(
                    f"{path}: no class-{cls.value} pair on {row.machine}"
                )
            return _cell_observation(path, bundle[cls], "us")
        if len(parts) != 3:
            raise ExtractionError(f"{path}: trailing segments after {cell!r}")
        try:
            field, unit = _TABLE_FIELDS[(table, cell)]
        except KeyError:
            known = sorted(
                name for (tab, name) in _TABLE_FIELDS if tab == table
            ) + ["d2d"] * (table in _D2D_FIELD)
            raise ExtractionError(
                f"{path}: unknown {table} cell {cell!r} (want one of {known})"
            ) from None
        return _cell_observation(path, getattr(row, field), unit)


class MetricsSource(Source):
    """Resolves ``metrics:`` paths over ``repro.bench/v1`` metric rows.

    Accepts either a flat ``{name: row}`` mapping (a study's
    ``outcome_summary()``) or a full ``repro.bench/v1`` document with a
    ``targets`` mapping (``BenchRun.to_json()`` / a ledger metrics doc).
    """

    def __init__(self, doc: Mapping):
        targets = doc.get("targets") if isinstance(doc, Mapping) else None
        if isinstance(targets, Mapping):
            self._by_target = {
                name: dict(entry.get("metrics", {}))
                for name, entry in targets.items()
                if isinstance(entry, Mapping)
            }
        else:
            self._by_target = {"": dict(doc)}

    def resolve(self, path: str) -> Observation:
        if not path.startswith("metrics:"):
            raise ExtractionError(
                f"{path!r} is not a metrics: path"
            )
        parts = path.split(":")
        if len(parts) == 2:
            target, name = None, parts[1]
        elif len(parts) == 3:
            target, name = parts[1], parts[2]
        else:
            raise ExtractionError(
                f"{path}: want metrics:<name> or metrics:<target>:<name>"
            )
        if not name:
            raise ExtractionError(f"{path}: empty metric name")
        if target is not None:
            metrics = self._by_target.get(target)
            if metrics is None:
                raise ExtractionError(
                    f"{path}: unknown target {target!r} "
                    f"(have {sorted(self._by_target)})"
                )
            hits = [(target, metrics[name])] if name in metrics else []
        else:
            hits = [
                (tgt, metrics[name])
                for tgt, metrics in sorted(self._by_target.items())
                if name in metrics
            ]
        if not hits:
            raise ExtractionError(f"{path}: no metric {name!r} in source")
        if len(hits) > 1:
            raise ExtractionError(
                f"{path}: metric {name!r} is ambiguous across targets "
                f"{sorted(t for t, _ in hits)}; use metrics:<target>:<name>"
            )
        row = hits[0][1]
        try:
            return Observation(
                path=path,
                mean=float(row["mean"]),
                std=float(row.get("std", 0.0)),
                n=int(row.get("n", 1)),
                unit=str(row.get("unit", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ExtractionError(
                f"{path}: malformed metric row ({exc})"
            ) from exc


class CallableSource(Source):
    """Resolves paths through a callable returning raw samples.

    The sampler is invoked as ``fn(path, n)`` and must return at least
    one sample; this is the source the adaptive evaluator re-queries at
    escalating repeat counts, and the only built-in source whose
    observations carry raw samples for the nonparametric modes.
    """

    def __init__(
        self,
        sampler: Callable[[str, int], Sequence[float]],
        unit: str = "",
        default_n: int = 3,
    ):
        self._sampler = sampler
        self._unit = unit
        self._default_n = default_n

    def resolve(self, path: str) -> Observation:
        return self.resolve_n(path, self._default_n)

    def resolve_n(self, path: str, n: int) -> Observation:
        try:
            samples = list(self._sampler(path, n))
        except ExtractionError:
            raise
        except Exception as exc:
            raise ExtractionError(f"{path}: sampler failed ({exc})") from exc
        if not samples:
            raise ExtractionError(f"{path}: sampler returned no samples")
        return Observation.from_samples(path, samples, self._unit)


class CompositeSource(Source):
    """First source that resolves a path wins; reasons accumulate."""

    def __init__(self, *sources: Source):
        self._sources = tuple(sources)

    def resolve(self, path: str) -> Observation:
        reasons = []
        for source in self._sources:
            try:
                return source.resolve(path)
            except ExtractionError as exc:
                reasons.append(str(exc))
        raise ExtractionError("; ".join(reasons) or f"{path}: empty source")


def study_source(
    study,
    cpu_machines: Sequence = (),
    gpu_machines: Sequence = (),
) -> CompositeSource:
    """A source over a study: its tables plus its flattened metrics.

    Builds table 4 over ``cpu_machines`` and tables 5/6 over
    ``gpu_machines`` (skip a family by passing no machines), then
    exposes every cell the study ran as ``metrics:sim.*`` rows too.
    """
    from ..core.tables import build_table4, build_table5, build_table6

    table4 = build_table4(study, list(cpu_machines)) if cpu_machines else []
    table5 = build_table5(study, list(gpu_machines)) if gpu_machines else []
    table6 = build_table6(study, list(gpu_machines)) if gpu_machines else []
    return CompositeSource(
        TableSource(table4, table5, table6),
        MetricsSource(study.outcome_summary()),
    )


def ledger_source(run_token: str, ledger=None) -> MetricsSource:
    """A metrics source over a recorded ledger run's metrics document.

    ``run_token`` may be a full run id, a unique prefix, or ``last``
    (the same resolution the ``repro runs`` CLI uses).
    """
    from ..obs.ledger import RunLedger

    ledger = ledger or RunLedger()
    run_id = ledger.resolve(run_token)
    run = ledger.load(run_id)
    if run.metrics is None:
        raise ExtractionError(
            f"ledger run {run_id} carries no metrics document"
        )
    return MetricsSource(run.metrics)
