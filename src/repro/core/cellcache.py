"""Persistent content-addressed cache of completed benchmark cells.

Re-running an unchanged study is the dominant interactive workflow —
tweak a table renderer, regenerate, diff — yet every regeneration pays
for the full discrete-event protocol again.  This module short-circuits
that: a completed :class:`~repro.core.parallel.CellOutcome` (result,
resilience entries, tracer records, metric deltas — everything the
merge path replays) is pickled under a content-addressed key, and a
later study with the same inputs serves the outcome from disk instead
of simulating.  Because the *entire* outcome is replayed through the
same :meth:`Study._consume` merge the parallel scheduler uses, a warm
run is byte-identical to a cold one at any ``--jobs`` count.

The key covers everything a cell's bytes can depend on:

* the machine specification (full :class:`~repro.machines.base.Machine`
  record, recursively — any calibration or topology edit re-keys);
* the benchmark configuration (every :class:`StudyConfig` field except
  the execution-only knobs — ``jobs``/``cache``/``cache_dir`` and the
  supervision knobs ``cell_timeout``/``max_cell_retries`` — which are
  byte-neutral by the determinism contract of DESIGN.md 5e/5g);
* the seed derivation (the root seed is a config field; per-cell
  streams derive purely from ``(seed, cell path)``);
* the fault plan (recursively, spec by spec);
* the cell identity (registry key, study method, variant) and the
  observability flags (an instrumented outcome carries records a bare
  one does not);
* the code/schema version, checked *inside* the payload so a version
  bump invalidates stale entries loudly (counted and deleted) instead
  of silently missing them.

Every entry is written atomically and durably — a fsynced temp file
renamed into place, then the directory fsynced — as its cell completes,
so a cache directory is also the resume point of an interrupted study
(``--resume DIR`` is ``--cache-dir DIR``): a kill leaves only complete
entries plus, at worst, one orphaned ``*.pkl.tmp.<pid>`` file that no
load ever reads.  Corrupt entries (truncated pickle, bad header) are a
warning plus a recompute, never a crash; cache-directory write failures
degrade to an uncached run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional

from .._version import __version__ as _CODE_VERSION
from ..machines.registry import get_machine
from ..obs import live, runtime as obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .parallel import CellOutcome, CellTask
    from .study import StudyConfig

#: bump on any payload-layout or key-derivation change: every entry
#: written under another schema is hard-invalidated on first touch
CACHE_SCHEMA = 1

#: StudyConfig knobs that steer *how* cells execute, not what they
#: compute — byte-neutral by the determinism contract, so excluded
#: from the key
_EXECUTION_FIELDS = frozenset({
    "jobs", "cache", "cache_dir", "cell_timeout", "max_cell_retries",
})


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro`` when set, else ``~/.cache/repro``."""
    root = os.environ.get("XDG_CACHE_HOME")
    base = Path(root) if root else Path.home() / ".cache"
    return base / "repro"


def _fingerprint(value: Any) -> str:
    """A stable textual image of one key component.

    Dataclasses (machine specs, fault plans) are walked field by field
    — adding, removing or editing any nested spec field re-keys the
    cell.  The walk reads attributes in place (``dataclasses.asdict``
    would deep-copy, and a copy's default repr embeds a fresh object
    id); everything else renders through ``repr``, which the leaf types
    (numbers, strings, enums, :class:`Topology`) keep content-only.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        inner = ", ".join(
            f"{spec.name}={_fingerprint(getattr(value, spec.name))}"
            for spec in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({inner})"
    if isinstance(value, (list, tuple)):
        body = ", ".join(_fingerprint(item) for item in value)
        return f"({body})" if isinstance(value, tuple) else f"[{body}]"
    if isinstance(value, dict):
        body = ", ".join(
            f"{_fingerprint(k)}: {_fingerprint(v)}" for k, v in value.items()
        )
        return "{" + body + "}"
    return repr(value)


def cell_key(
    config: "StudyConfig",
    task: "CellTask",
    obs_enabled: bool,
    profile: bool,
) -> tuple[str, str]:
    """``(digest, canonical key text)`` for one cell.

    The digest names the cache file; the full text travels inside the
    payload and is re-checked on load, so a (vanishingly unlikely)
    digest collision degrades to a miss instead of a wrong result.
    """
    parts = [
        f"machine={_fingerprint(get_machine(task.machine))}",
        f"task={(task.machine, task.method, task.variant)!r}",
        f"obs={(bool(obs_enabled), bool(profile))!r}",
    ]
    for spec in dataclasses.fields(config):
        if spec.name in _EXECUTION_FIELDS:
            continue
        parts.append(f"{spec.name}={_fingerprint(getattr(config, spec.name))}")
    key = "\n".join(parts)
    return hashlib.sha256(key.encode()).hexdigest(), key


class CellCache:
    """Load/store completed cell outcomes under a cache directory.

    Hit/miss/store/invalidation tallies are kept locally (for
    :meth:`stats`) and mirrored into the active observability context's
    ``cache.cell.*`` counters (no-ops under the null context).
    """

    #: cache directories already warned about in this process — an
    #: unwritable directory fails identically for every one of the
    #: dozens of cells a study stores, and one notice covers them all
    #: (the rest are counted in ``store_failed`` / ``cache.cell.*``)
    _warned_unwritable: set = set()

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = (
            Path(directory).expanduser() if directory else default_cache_dir()
        )
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalidated = 0
        self.store_failed = 0

    # -- bookkeeping -------------------------------------------------------
    _TALLY = {"hit": "hits", "miss": "misses", "store": "stores",
              "invalidated": "invalidated", "store_failed": "store_failed"}

    def _count(self, what: str) -> None:
        attr = self._TALLY[what]
        setattr(self, attr, getattr(self, attr) + 1)
        obs.current().metrics.counter(f"cache.cell.{what}").inc()

    def stats(self) -> dict:
        return {
            "directory": str(self.directory),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidated": self.invalidated,
            "store_failed": self.store_failed,
        }

    def _path(self, digest: str) -> Path:
        return self.directory / f"{digest}.pkl"

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    # -- the cache protocol ------------------------------------------------
    def load(
        self,
        config: "StudyConfig",
        task: "CellTask",
        obs_enabled: bool,
        profile: bool,
    ) -> Optional["CellOutcome"]:
        """The cached outcome for one cell, or ``None`` (= recompute)."""
        digest, key = cell_key(config, task, obs_enabled, profile)
        path = self._path(digest)
        try:
            raw = path.read_bytes()
        except OSError:
            self._count("miss")
            return None
        try:
            payload = pickle.loads(raw)
            schema = payload["schema"]
            version = payload["version"]
            stored_key = payload["key"]
            outcome = payload["outcome"]
        except Exception as exc:
            warnings.warn(
                f"discarding corrupt cell-cache entry {path}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            self._discard(path)
            self._count("miss")
            return None
        if schema != CACHE_SCHEMA or version != _CODE_VERSION \
                or stored_key != key:
            # hard invalidation: a code/schema change must never serve
            # results computed by older code
            self._discard(path)
            self._count("invalidated")
            self._count("miss")
            return None
        self._count("hit")
        live.current().cache_hit("/".join(task.label()))
        return outcome

    def store(
        self,
        config: "StudyConfig",
        task: "CellTask",
        obs_enabled: bool,
        profile: bool,
        outcome: "CellOutcome",
    ) -> None:
        """Persist one outcome (atomic, fsynced write; failures warn,
        never raise)."""
        digest, key = cell_key(config, task, obs_enabled, profile)
        path = self._path(digest)
        payload = {
            "schema": CACHE_SCHEMA,
            "version": _CODE_VERSION,
            "key": key,
            "outcome": outcome,
        }
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            # fsync the directory too, or a crash can lose the rename
            directory = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(directory)
            finally:
                os.close(directory)
        except OSError as exc:
            self._count("store_failed")
            marker = str(self.directory)
            if marker not in CellCache._warned_unwritable:
                CellCache._warned_unwritable.add(marker)
                warnings.warn(
                    f"cannot write cell-cache entry {path}: {exc} "
                    f"(suppressing further warnings for {marker}; see "
                    f"cache.cell.store_failed)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            self._discard(tmp)
            return
        self._count("store")
