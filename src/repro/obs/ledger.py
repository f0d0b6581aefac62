"""Persistent run ledger: the durable, queryable record of every run.

PR 7 made a *single* run observable; this module makes runs comparable
*across time*.  Every CLI invocation (opt-out via ``--no-ledger``)
records, under a content-addressed run id in ``.repro/runs/<run-id>/``:

* ``manifest.json`` — the ``repro.manifest/v1`` provenance record
  (config fingerprint, seed rule, versions, side files);
* ``metrics.json`` — a ``repro.bench/v1`` document holding the run's
  comparable numbers, the per-cell simulated statistics of the study
  (:func:`study_metrics_doc`) — the schema of the committed
  ``BENCH_*.json`` files.  :class:`~repro.checks.extract.MetricsSource`
  reads it for ``runs show``/``trend``, and ``runs diff`` judges one
  against another through the check evaluator;
* ``outcome.json`` — how the run ended: exit code, ``ok`` /
  ``error`` / ``interrupted``, degraded-cell count, wall seconds,
  jobs, cache/event-log traffic;
* ``attribution.json`` — the critical-path phase/span decomposition
  (:meth:`~repro.obs.analyze.critical_path.PhaseAttribution
  .to_detailed_json`) when observability was armed, feeding
  ``runs flame``.

An append-only ``index.jsonl`` (one ``repro.ledger/v1`` summary line
per run, flush + fsync, with the :mod:`repro.obs.jsonl` torn-tail
discipline the event log shares: seal a torn final line on the next
append, skip + count it on read) makes history listable without
touching the per-run directories; :meth:`RunLedger.gc` prunes the
oldest runs.  New records are ``kind: "cli"``; ledgers written while
the package still had a ``bench`` command may also hold
``kind: "bench"`` records, which list, show, diff and trend alike.

The ledger is *telemetry*, not results: recording happens after stdout
is complete, every failure degrades to a warning, and nothing under the
determinism contract reads it back — which is what keeps recording
byte-neutral to stdout and the artifact bundles.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import warnings
from pathlib import Path
from typing import Any, Optional

from .._dataclass import dataclass
from ..errors import LedgerError
from .jsonl import append_line, open_append, read_jsonl, rewrite_lines

#: schema tag stamped on every index line and outcome document; bump on
#: any layout change so consumers can reject foreign lines
LEDGER_SCHEMA = "repro.ledger/v1"
#: schema tag of a run's ``metrics.json`` (and of the ``BENCH_*.json`` files)
BENCH_SCHEMA = "repro.bench/v1"

#: environment override for the ledger root (tests point it at a
#: tmpdir so default-on recording never touches a checkout)
LEDGER_DIR_ENV = "REPRO_LEDGER_DIR"

#: characters of the sha256 content digest used as the run id
_RUN_ID_HEX = 12


def default_ledger_dir() -> Path:
    """``$REPRO_LEDGER_DIR`` when set, else ``.repro/runs``."""
    override = os.environ.get(LEDGER_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path(".repro") / "runs"


@dataclass(frozen=True)
class LedgerEntry:
    """Where one freshly recorded run landed."""

    run_id: str
    directory: Path


@dataclass(frozen=True)
class LedgerRun:
    """One run loaded back from the ledger (absent documents are None)."""

    run_id: str
    record: Optional[dict]
    manifest: Optional[dict]
    metrics: Optional[dict]
    outcome: Optional[dict]
    attribution: Optional[list]


class RunLedger:
    """The persistent run store: per-run directories plus ``index.jsonl``.

    Write paths never raise — an unwritable directory warns once and
    counts the failure, because the ledger must never take a run down.
    Read/maintenance paths (:meth:`resolve`, :meth:`gc`) raise
    :class:`~repro.errors.LedgerError` with a usable message, since
    there the caller *is* the ledger CLI.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = (
            Path(directory).expanduser() if directory else default_ledger_dir()
        )
        self.recorded = 0
        self.write_failed = 0
        self._warned = False

    @property
    def index_path(self) -> Path:
        return self.directory / "index.jsonl"

    # -- the one write path ------------------------------------------------
    def record(
        self,
        *,
        kind: str,
        targets,
        manifest: Optional[dict] = None,
        metrics: Optional[dict] = None,
        outcome: Optional[dict] = None,
        attribution: Optional[list] = None,
    ) -> Optional[LedgerEntry]:
        """Record one run; returns its entry, or ``None`` on failure.

        The run id is the first ``12`` hex chars of the sha256 over the
        canonical JSON of everything recorded — content-addressed, so
        re-recording byte-identical documents lands on the same id.
        """
        outcome = outcome or {}
        config = (manifest or {}).get("config", {})
        summary: dict[str, Any] = {
            "schema": LEDGER_SCHEMA,
            "kind": kind,
            "targets": list(targets),
            "started": outcome.get("started"),
            "finished": outcome.get("finished"),
            "wall_seconds": outcome.get("wall_seconds"),
            "outcome": outcome.get("outcome", "ok"),
            "exit_code": outcome.get("exit_code"),
            "cells": outcome.get("cells", {}),
            "fingerprint": config.get("fingerprint"),
            "seed": config.get("seed"),
            "jobs": config.get("jobs"),
            "faults": config.get("faults", "none"),
            "metrics": sum(
                len(t.get("metrics", {}))
                for t in (metrics or {}).get("targets", {}).values()
            ),
        }
        payload = json.dumps(
            {
                "summary": summary,
                "manifest": manifest,
                "metrics": metrics,
                "outcome": outcome,
                "attribution": attribution,
            },
            sort_keys=True,
            default=str,
        )
        run_id = hashlib.sha256(payload.encode()).hexdigest()[:_RUN_ID_HEX]
        summary["run_id"] = run_id
        run_dir = self.directory / run_id
        try:
            run_dir.mkdir(parents=True, exist_ok=True)
            for name, doc in (
                ("manifest.json", manifest),
                ("metrics.json", metrics),
                ("outcome.json", outcome),
                ("attribution.json", attribution),
            ):
                if doc is None:
                    continue
                (run_dir / name).write_text(
                    json.dumps(doc, indent=1, sort_keys=True, default=str)
                    + "\n"
                )
            self._append_index(summary)
        except OSError as exc:
            self.write_failed += 1
            if not self._warned:
                self._warned = True
                warnings.warn(
                    f"cannot record run in ledger {self.directory}: {exc} "
                    f"(continuing without a run ledger)",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return None
        self.recorded += 1
        return LedgerEntry(run_id=run_id, directory=run_dir)

    def _append_index(self, record: dict) -> None:
        """Append one summary line; a torn tail a killed run left is
        sealed first, so it can never merge with new data."""
        with open_append(self.index_path) as fh:
            append_line(fh, record)

    # -- read paths --------------------------------------------------------
    def read_index(self) -> tuple[list[dict], int]:
        """All index records in recording order: ``(records, skipped)``.

        Unparseable lines (a torn final write) and lines under another
        schema tag are skipped and counted, never raised on.
        """
        return read_jsonl(
            self.index_path,
            lambda doc: doc.get("schema") == LEDGER_SCHEMA
            and "run_id" in doc,
        )

    def resolve(self, token: str) -> str:
        """A run-id token to a full run id.

        Accepts a full id, a unique prefix, or ``latest``/``last`` for
        the most recently recorded run.
        """
        records, _skipped = self.read_index()
        if not records:
            raise LedgerError(
                f"run ledger at {self.directory} has no recorded runs"
            )
        if token in ("latest", "last"):
            return records[-1]["run_id"]
        ids = [r["run_id"] for r in records]
        if token in ids:
            return token
        matches = sorted({i for i in ids if i.startswith(token)})
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise LedgerError(
                f"no run matching {token!r} under {self.directory} "
                f"(try `runs list`)"
            )
        raise LedgerError(
            f"ambiguous run prefix {token!r}: {', '.join(matches)}"
        )

    def load(self, run_id: str) -> LedgerRun:
        """Load one run's documents (missing files load as ``None``)."""
        records, _skipped = self.read_index()
        record = next(
            (r for r in records if r["run_id"] == run_id), None
        )
        run_dir = self.directory / run_id

        def read(name: str):
            try:
                return json.loads((run_dir / name).read_text())
            except (OSError, ValueError):
                return None

        return LedgerRun(
            run_id=run_id,
            record=record,
            manifest=read("manifest.json"),
            metrics=read("metrics.json"),
            outcome=read("outcome.json"),
            attribution=read("attribution.json"),
        )

    # -- maintenance -------------------------------------------------------
    def gc(self, keep: int = 32) -> list[str]:
        """Drop all but the newest ``keep`` runs; returns removed ids.

        The surviving index lines are written durably first, and only
        then are the pruned run directories deleted: a failed rewrite
        deletes nothing, and the index never lists a deleted run.
        """
        if keep < 0:
            raise LedgerError(f"gc keep count must be >= 0: {keep}")
        records, _skipped = self.read_index()
        kept = records[len(records) - keep:] if keep else []
        dropped = records[: len(records) - len(kept)]
        try:
            rewrite_lines(self.index_path, kept)
        except OSError as exc:
            raise LedgerError(
                f"cannot rewrite ledger index {self.index_path}: {exc}"
            ) from exc
        surviving = {r["run_id"] for r in kept}
        removed: list[str] = []
        for record in dropped:
            run_id = record["run_id"]
            removed.append(run_id)
            if run_id in surviving:
                continue  # content-addressed duplicate still referenced
            shutil.rmtree(self.directory / run_id, ignore_errors=True)
        return removed

    def stats(self) -> dict:
        return {
            "directory": str(self.directory),
            "recorded": self.recorded,
            "write_failed": self.write_failed,
        }


# ---------------------------------------------------------------------------
# document assembly
# ---------------------------------------------------------------------------

def study_metrics_doc(study) -> dict:
    """One study run's comparable numbers as a ``repro.bench/v1`` doc.

    The flattened per-cell statistics (:meth:`~repro.core.study.Study
    .outcome_summary`) become the metrics of a single ``study`` target,
    so two ledgered CLI runs diff as a ``welch`` check suite (see
    :mod:`repro.harness.runs_cli`).  ``study`` may also be the config
    of a run that read no cell (:func:`~repro.core.config.study_state`).
    """
    from ..core.config import study_state

    config, cells, resilience, _cache = study_state(study)
    # a run without cell results has no metrics (and maybe no Study)
    target: dict[str, Any] = {
        "metrics": study.outcome_summary() if cells else {}
    }
    if resilience.degraded_count:
        target["degraded"] = True
    return {
        "schema": BENCH_SCHEMA,
        "config": {
            "repeats": config.runs,
            "seed": config.seed,
            "faults": config.faults.name if config.faults else "none",
        },
        "targets": {"study": target},
    }


def study_outcome_doc(
    study,
    *,
    outcome: str = "ok",
    exit_code: Optional[int] = 0,
    started: Optional[float] = None,
    finished: Optional[float] = None,
    events=None,
) -> dict:
    """The outcome document for one study run (JSON-ready); ``study``
    is a Study or a config, as for :func:`study_metrics_doc`."""
    from ..core.config import study_state

    config, cells, resilience, cache = study_state(study)
    doc: dict[str, Any] = {
        "schema": LEDGER_SCHEMA,
        "outcome": outcome,
        "exit_code": exit_code,
        "started": started,
        "finished": finished,
        "wall_seconds": (
            finished - started
            if started is not None and finished is not None
            else None
        ),
        "jobs": config.jobs,
        "cells": {
            "total": len(cells),
            "degraded": resilience.degraded_count,
        },
        "degraded": [e.footnote() for e in resilience.entries],
    }
    if cache is not None:
        doc["cache"] = cache.stats()
    if events is not None:
        doc["events"] = events.stats()
    return doc


def record_study_run(
    study,
    *,
    targets,
    directory: str | Path | None = None,
    started: Optional[float] = None,
    finished: Optional[float] = None,
    outcome: str = "ok",
    exit_code: Optional[int] = 0,
    events=None,
    obs=None,
    ledger: Optional[RunLedger] = None,
) -> Optional[LedgerEntry]:
    """Assemble and record one CLI study run; never raises.

    ``study`` is the run's Study, or its config when no target read a
    cell (:func:`~repro.core.config.study_state`).  ``obs`` is the
    run's :class:`~repro.obs.runtime.ObsContext` — when it is enabled
    the tracer's benchmark windows are attributed and recorded for
    ``runs flame``.
    """
    try:
        from .manifest import build_manifest

        finished = time.time() if finished is None else finished
        ledger = ledger if ledger is not None else RunLedger(directory)
        manifest = build_manifest(
            study,
            targets=targets,
            events_path=(
                str(events.path) if events is not None else None
            ),
            started=started,
            finished=finished,
        )
        attribution = None
        if obs is not None and getattr(obs, "enabled", False):
            attribution = [
                a.to_detailed_json() for a in obs.attributions()
            ] or None
        return ledger.record(
            kind="cli",
            targets=targets,
            manifest=manifest,
            metrics=study_metrics_doc(study),
            outcome=study_outcome_doc(
                study,
                outcome=outcome,
                exit_code=exit_code,
                started=started,
                finished=finished,
                events=events,
            ),
            attribution=attribution,
        )
    except Exception as exc:
        warnings.warn(
            f"run-ledger recording failed: {exc} "
            f"(run results are unaffected)",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


__all__ = [
    "LEDGER_SCHEMA",
    "LEDGER_DIR_ENV",
    "default_ledger_dir",
    "LedgerEntry",
    "LedgerRun",
    "RunLedger",
    "study_metrics_doc",
    "study_outcome_doc",
    "record_study_run",
]
