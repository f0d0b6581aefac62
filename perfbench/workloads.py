"""The benchmark's workloads and how one ``python -m repro`` invocation
is launched, timed and checked.

Every invocation is a fresh interpreter at ``--jobs 1``, started one at
a time, in an empty working directory of its own that also holds its
run ledger (``REPRO_LEDGER_DIR``), XDG cache and temporary files, so
nothing is written to the checkout's ``.repro`` or to ``~/.cache``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: stdout digests are recorded for program seeds 1..SEED_SLOTS; the
#: benchmark seed picks one of them (see :func:`program_seed`)
SEED_SLOTS = 32

#: ``python -m repro check`` must pass every paper reference
CHECKS_EXPECTED = 108

#: stands for the iteration's shared cell-cache directory in argv
CACHE_DIR = "{cache}"

#: an invocation still running after this long is killed (and fails)
TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Invocation:
    """One ``python -m repro`` command of a workload.

    ``key`` names its stdout digest in ``digests.json``; ``outputs`` are
    files the command writes into its working directory that must parse
    as JSON (``.json``) or JSON lines (``.jsonl``).
    """

    key: str
    args: tuple[str, ...]
    outputs: tuple[str, ...] = ()
    min_passed: int | None = None

    def argv(self, seed: int, cache_dir: Path) -> list[str]:
        args = [str(cache_dir) if a == CACHE_DIR else a for a in self.args]
        return [*args, "--seed", str(seed), "--jobs", "1"]


@dataclass(frozen=True)
class Workload:
    why: str
    invocations: tuple[Invocation, ...]


_EXACT_ALL = ("all", "--exact", "--runs", "20")
_OBSERVED_FILES = ("trace.json", "metrics.json", "events.jsonl")

WORKLOADS: dict[str, Workload] = {
    "cold-session": Workload(
        why="table2, all and check in fresh interpreters, fast mode: the "
            "commonest user path, dominated by import",
        invocations=(
            Invocation("table2", ("table2",)),
            Invocation("all", ("all",)),
            Invocation("check", ("check",), min_passed=CHECKS_EXPECTED),
        ),
    ),
    "exact-serial": Workload(
        why="--exact all at --runs 20: the event loop, model construction "
            "and serial cell recomputation, with obs and the cache off",
        invocations=(Invocation("exact-all", _EXACT_ALL),),
    ),
    "observed": Workload(
        why="table7 compare report with trace, metrics, profile and events "
            "armed: the only workload where obs does real work",
        invocations=(Invocation(
            "observed",
            ("table7", "compare", "report",
             "--trace-out", "trace.json", "--metrics-out", "metrics.json",
             "--profile", "--events-out", "events.jsonl"),
            outputs=_OBSERVED_FILES,
        ),),
    ),
    "exact-cached": Workload(
        why="the exact-serial command twice on one empty cache directory: "
            "cell-cache stores, then cell-cache hits",
        invocations=(
            Invocation("cold-cache", (*_EXACT_ALL, "--cache-dir", CACHE_DIR)),
            Invocation("warm-cache", (*_EXACT_ALL, "--cache-dir", CACHE_DIR)),
        ),
    ),
}


def program_seed(seed: int) -> int:
    """The ``--seed`` every command of a run receives: one of the
    ``SEED_SLOTS`` seeds whose stdout digests are recorded."""
    return 1 + seed % SEED_SLOTS


def load_digests(path: Path = DIGESTS) -> dict:
    """``{workload: {invocation key: {program seed: sha256}}}``."""
    with open(path) as fh:
        return json.load(fh)["digests"]


def child_env(workdir: Path) -> dict[str, str]:
    """The environment of one invocation: the user's, minus interpreter
    and ``repro`` switches, with every default write location moved into
    ``workdir``."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith(("PYTHON", "REPRO_"))
    }
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONIOENCODING="utf-8",
        REPRO_LEDGER_DIR=str(workdir / "ledger"),
        XDG_CACHE_HOME=str(workdir / "xdg-cache"),
        TMPDIR=str(workdir),
    )
    return env


@dataclass
class Launch:
    """One finished child process, timed from spawn to exit."""

    workdir: Path
    wall_s: float
    peak_rss_mb: float
    returncode: int

    @property
    def stdout(self) -> bytes:
        return (self.workdir / "stdout").read_bytes()

    @property
    def stderr(self) -> bytes:
        return (self.workdir / "stderr").read_bytes()


def launch(argv: list[str], workdir: Path) -> Launch:
    """Run ``argv`` in a new, empty ``workdir`` and wait for it; stdout
    and stderr go to files there, so no pipe reader runs while timed."""
    workdir.mkdir(parents=True)
    with open(workdir / "stdout", "wb") as out, \
            open(workdir / "stderr", "wb") as err:
        began = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=workdir, env=child_env(workdir),
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        killer = threading.Timer(TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - began
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return Launch(workdir, wall, usage.ru_maxrss / 1024, proc.returncode)


def problems(
    launch: Launch,
    invocation: Invocation,
    expected_digest: str | None,
) -> list[str]:
    """Why one invocation counts as failed; empty when it is correct."""
    found = []
    if launch.returncode != 0:
        found.append(f"exit status {launch.returncode}")
    stdout = launch.stdout
    digest = hashlib.sha256(stdout).hexdigest()
    if expected_digest is None:
        found.append("no recorded stdout digest")
    elif digest != expected_digest:
        found.append(f"stdout sha256 {digest[:12]} != {expected_digest[:12]}")
    if invocation.min_passed is not None:
        match = re.search(rb"(\d+) passed", stdout)
        passed = int(match.group(1)) if match else 0
        if passed < invocation.min_passed:
            found.append(f"{passed} checks passed < {invocation.min_passed}")
    for name in invocation.outputs:
        try:
            parse_output(launch.workdir / name)
        except (OSError, ValueError) as exc:
            found.append(f"{name} does not parse: {exc}")
    return found


def parse_output(path: Path) -> object:
    """A JSON document, or the list of records of a JSON-lines file."""
    text = path.read_text()
    if path.suffix == ".jsonl":
        records = [json.loads(line) for line in text.splitlines()]
        if not records:
            raise ValueError("no records")
        return records
    return json.loads(text)


def trace_span_count(trace: dict) -> int:
    """Spans in a Chrome trace_event document (complete or begin events)."""
    return sum(1 for e in trace["traceEvents"] if e.get("ph") in ("X", "B"))
