"""Structured run events: a crash-safe JSONL log of what a study did.

A long study (``--jobs``, cache resume) is opaque while it runs:
traces, metrics and attribution all render *after* exit.  This module
is the machine-readable counterpart of the stderr reports — every state
transition the scheduler and cell cache go through is appended to an
event log **as it happens**, one JSON object per line, flushed per
line, so the log is valid after a kill at any byte offset (the worst
case is one torn final line, which :func:`read_events` skips and counts
— the :mod:`repro.obs.jsonl` discipline the run ledger's index shares).

Event kinds (:data:`EVENT_KINDS`) form a small closed vocabulary with a
stable schema tag (``repro.events/v1``):

* ``run_start`` / ``run_end`` — one pair per CLI invocation, carrying
  the targets, jobs count and seed (start) and the final cell tallies
  plus an ``outcome`` attr (``ok`` / ``error`` / ``interrupted``) on
  the end event, which the CLI emits from a ``finally`` block so even a
  raising or Ctrl-C'd run closes its event stream;
* ``cell_start`` / ``cell_done`` / ``cell_degraded`` — one ``start``
  per cell computation (its ``attempt`` attr is always 1) and exactly
  one terminal event per finished cell; a run that a dead worker ended
  leaves its unfinished cells started without a terminal event;
* ``cache_hit`` — a cell served from the persistent cell cache (a
  ``--resume`` directory included) instead of computed.

Events are *telemetry*, not results: timestamps are host wall-clock,
sequence numbers are per-log, and nothing downstream of the determinism
contract reads them.  With no event log armed the module-level helpers
in :mod:`repro.obs.live` degrade to shared no-ops, which is what keeps
an un-flagged run byte-identical.
"""

from __future__ import annotations

import threading
import time
import warnings
from pathlib import Path
from typing import Any

from .jsonl import append_line, open_append, read_jsonl

#: schema tag stamped on every line; bump on any layout change so
#: consumers can reject lines written under another vocabulary
EVENT_SCHEMA = "repro.events/v1"

#: the closed event vocabulary — :meth:`EventLog.emit` rejects anything
#: else, so a typo'd kind fails loudly at the call site instead of
#: silently fragmenting the log
EVENT_KINDS = frozenset({
    "run_start",
    "cell_start",
    "cell_done",
    "cell_degraded",
    "cache_hit",
    "run_end",
})

#: event kinds that terminate one cell (each cell produces exactly one)
TERMINAL_CELL_KINDS = frozenset({"cell_done", "cell_degraded"})


class EventLog:
    """Append-only JSONL event sink (one line per event, flush + fsync).

    Opens lazily on first emit; an unwritable path warns once and
    degrades to a dropped-event counter instead of raising — telemetry
    must never take a run down.  Appends are serialized under a lock:
    the run's notifiers emit from its main thread, and the lock keeps
    an emit from any other thread from interleaving lines.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path).expanduser()
        self.emitted = 0
        #: emits lost to an unwritable log file
        self.dropped = 0
        self._seq = 0
        self._lock = threading.Lock()
        self._fh = None
        self._warned = False
        self._opened = False

    # -- plumbing ----------------------------------------------------------
    def _open(self):
        if self._opened:
            return self._fh
        self._opened = True
        try:
            # a torn final line from a killed run is sealed here
            self._fh = open_append(self.path)
        except OSError as exc:
            self._fh = None
            if not self._warned:
                self._warned = True
                warnings.warn(
                    f"cannot open event log {self.path}: {exc} "
                    f"(continuing without run events)",
                    RuntimeWarning,
                    stacklevel=4,
                )
        return self._fh

    # -- the one write path ------------------------------------------------
    def emit(self, kind: str, **attrs: Any) -> None:
        """Append one event (never raises; malformed kinds do raise,
        since they are bugs at the call site, not runtime conditions)."""
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; "
                f"known: {sorted(EVENT_KINDS)}"
            )
        with self._lock:
            fh = self._open()
            if fh is None:
                self.dropped += 1
                return
            try:
                append_line(fh, {
                    "schema": EVENT_SCHEMA,
                    "seq": self._seq,
                    "ts": time.time(),
                    "kind": kind,
                    "attrs": attrs,
                })
            except (OSError, ValueError):
                self.dropped += 1
                return
            self._seq += 1
            self.emitted += 1

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError:  # pragma: no cover - already broken
                    pass
                self._fh = None

    def stats(self) -> dict:
        return {
            "path": str(self.path),
            "emitted": self.emitted,
            "dropped": self.dropped,
        }


def read_events(path: str | Path) -> tuple[list[dict], int]:
    """Parse an event log back: ``(events, skipped_lines)``.

    Unparseable lines (a torn final write) and lines carrying another
    schema tag or an unknown kind are skipped and counted, never raised
    on.
    """
    return read_jsonl(
        path,
        lambda doc: doc["schema"] == EVENT_SCHEMA
        and doc["kind"] in EVENT_KINDS,
    )


def check_invariants(events: list[dict]) -> list[str]:
    """Structural invariants over one run's events (empty = healthy).

    * every cell that started reaches exactly one terminal event;
    * starts never undercount terminals (a terminal without any start
      can only come from a replayed/cached cell, which emits no
      ``cell_start`` — those are excluded via their ``source`` attr);
    * sequence numbers are strictly increasing;
    * every ``run_start`` is paired with a ``run_end`` — since the CLI
      emits ``run_end`` from a ``finally`` block (with ``outcome:
      error|interrupted`` on abnormal exits), an unpaired start means a
      truncated stream (the run was SIGKILLed or the log torn).
    """
    findings: list[str] = []
    seqs = [e["seq"] for e in events]
    if any(b <= a for a, b in zip(seqs, seqs[1:])):
        findings.append("sequence numbers are not strictly increasing")
    run_starts = sum(1 for e in events if e["kind"] == "run_start")
    run_ends = sum(1 for e in events if e["kind"] == "run_end")
    if run_starts != run_ends:
        findings.append(
            f"{run_starts} run_start event(s) but {run_ends} "
            f"run_end event(s)"
        )
    starts: dict[str, int] = {}
    terminals: dict[str, int] = {}
    for event in events:
        cell = event.get("attrs", {}).get("cell")
        if cell is None:
            continue
        if event["kind"] == "cell_start":
            starts[cell] = starts.get(cell, 0) + 1
        elif event["kind"] in TERMINAL_CELL_KINDS:
            if event["attrs"].get("source", "computed") != "computed":
                continue  # cache-served cells never started
            terminals[cell] = terminals.get(cell, 0) + 1
    for cell, n in sorted(starts.items()):
        ended = terminals.get(cell, 0)
        if ended != 1:
            findings.append(
                f"cell {cell}: {n} start(s) but {ended} terminal event(s)"
            )
    for cell in sorted(set(terminals) - set(starts)):
        findings.append(f"cell {cell}: terminal event without a start")
    return findings


__all__ = [
    "EVENT_SCHEMA",
    "EVENT_KINDS",
    "TERMINAL_CELL_KINDS",
    "EventLog",
    "read_events",
    "check_invariants",
]
