"""Append-only JSONL files that stay readable after a kill.

The run event log (:mod:`repro.obs.events`) and the run ledger's
``index.jsonl`` (:mod:`repro.obs.ledger`) share one discipline:

* **append** — one JSON object per line, flushed and fsynced before the
  call returns, so a kill at any byte offset tears at most the final
  line;
* **seal** — a writer that finds the file ending in a torn (newline-less)
  fragment terminates it before its first line, so new data can never
  merge with the fragment;
* **read** — unparseable lines (the torn fragment) and lines the caller
  rejects are skipped and counted, never raised on.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, TextIO


def open_append(path: Path) -> TextIO:
    """Open ``path`` for appending (parents created), sealing a torn
    tail; raises :class:`OSError` like :func:`open`."""
    try:
        torn = path.read_bytes()[-1:] not in (b"", b"\n")
    except OSError:
        torn = False  # no file yet
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "a")
    if torn:
        fh.write("\n")
    return fh


def append_line(fh: TextIO, record: dict) -> None:
    """Append ``record`` as one sorted-key JSON line, durably."""
    fh.write(json.dumps(record, sort_keys=True) + "\n")
    fh.flush()
    os.fsync(fh.fileno())


def read_jsonl(
    path: str | Path, accept: Callable[[dict], bool]
) -> tuple[list[dict], int]:
    """The records of ``path`` that ``accept`` passes, in file order,
    and the number of lines skipped; a missing file reads as empty."""
    records: list[dict] = []
    skipped = 0
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return records, skipped
    for line in raw.splitlines():
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            ok = bool(accept(doc))
        except Exception:
            ok = False
        if ok:
            records.append(doc)
        else:
            skipped += 1
    return records, skipped
