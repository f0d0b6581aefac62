"""Run manifest: the provenance record shipped with the artifact bundle.

"MPI Benchmarking Revisited" argues benchmark results are only
reproducible when they travel with machine-readable provenance; this
module writes that record.  A manifest names everything needed to audit
— or exactly re-run — a study after the fact:

* the **config fingerprint**: the sha256 of the same canonical config
  text the cell cache keys on (:func:`repro.core.cellcache.cell_key`'s
  per-field walk, execution-only knobs excluded), so two manifests with
  equal fingerprints are guaranteed to describe byte-identical studies
  — whether they ran serial or parallel, cache-cold or cache-warm;
* the **seed root** and the stateless derivation rule (cells derive
  from ``(seed, cell path)``; DESIGN.md 5e);
* **versions**: code version and Python interpreter;
* **wall clock**: start/end timestamps and duration (host-dependent,
  advisory);
* **side files**: the event-log path plus its content digest and, when
  armed, the cache directory with its hit and store tallies — enough
  to cross-check which persisted state the run consumed.

The manifest is telemetry-adjacent: it lands in the artifact bundle
only when a live-telemetry session is active, so an un-flagged
``artifacts`` run stays byte-identical to pre-telemetry builds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import time
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .._version import __version__ as _CODE_VERSION

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.study import StudyConfig

#: bump on any manifest-layout change
MANIFEST_SCHEMA = "repro.manifest/v1"


def config_fingerprint(config: "StudyConfig") -> str:
    """sha256 over the canonical per-field config text.

    Walks every :class:`StudyConfig` field *except* the execution-only
    knobs the cell cache also drops (jobs, cache, timeouts — byte-neutral
    by the determinism contract), so the same study
    fingerprints identically at ``--jobs 1`` and ``--jobs 4``, cold or
    warm cache.  This is the cross-run identity the run ledger's
    ``runs diff`` keys on; *how* the run executed is documented by the
    manifest's explicit config fields instead.
    """
    from ..core.cellcache import _EXECUTION_FIELDS, _fingerprint

    parts = [
        f"{spec.name}={_fingerprint(getattr(config, spec.name))}"
        for spec in dataclasses.fields(config)
        if spec.name not in _EXECUTION_FIELDS
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _file_digest(path: str | Path) -> Optional[str]:
    """sha256 of a side file's bytes, or ``None`` when unreadable."""
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


def build_manifest(
    study,
    *,
    targets=(),
    events_path: Optional[str] = None,
    started: Optional[float] = None,
    finished: Optional[float] = None,
) -> dict:
    """Assemble the manifest dict for one study run (JSON-ready)."""
    config = study.config
    finished = finished if finished is not None else time.time()
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "versions": {
            "repro": _CODE_VERSION,
            "python": platform.python_version(),
        },
        "config": {
            "fingerprint": config_fingerprint(config),
            "runs": config.runs,
            "seed": config.seed,
            "exact": config.exact,
            "jobs": config.jobs,
            "faults": config.faults.name if config.faults else "none",
            "cache": config.cache,
        },
        "seed": {
            "root": config.seed,
            "derivation": "stateless per-cell: derive_seed(seed, *cell_path)",
        },
        "targets": list(targets),
        "wall_clock": {
            "started": started,
            "finished": finished,
            "seconds": (
                finished - started if started is not None else None
            ),
        },
        "degraded_cells": study.resilience.degraded_count,
    }
    side: dict = {}
    if events_path:
        side["events"] = {
            "path": str(events_path),
            "schema": "repro.events/v1",
            "digest": _file_digest(events_path),
        }
    cache = study.scheduler.cache
    if cache is not None:
        side["cache"] = {
            "directory": str(cache.directory),
            "hits": cache.hits,
            "stores": cache.stores,
        }
    manifest["side_files"] = side
    return manifest


def render_manifest(manifest: dict) -> str:
    """The manifest as stable, diff-friendly JSON text."""
    return json.dumps(manifest, indent=1, sort_keys=True) + "\n"


def write_manifest(path: str | Path, manifest: dict) -> None:
    Path(path).write_text(render_manifest(manifest))


__all__ = [
    "MANIFEST_SCHEMA",
    "config_fingerprint",
    "build_manifest",
    "render_manifest",
    "write_manifest",
]
