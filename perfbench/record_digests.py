"""Record the stdout digests every benchmark run checks against.

Usage::

    python3 perfbench/record_digests.py

Runs each workload's commands once for every program seed
1..``SEED_SLOTS``, two workloads at a time, and writes the sha256 of
their stdout to ``perfbench/digests.json``.  Record from a commit whose
output is known to be right: the benchmark counts any other stdout as a
failure.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from workloads import DIGESTS, SEED_SLOTS, WORKLOADS, launch, problems

WORK = Path(__file__).resolve().parent / ".work" / f"record-{os.getpid()}"


def record(name: str, seed: int) -> dict[str, str]:
    """Run one workload's commands at one program seed; key -> digest."""
    workdir = WORK / f"{name}-{seed}"
    digests = {}
    for k, inv in enumerate(WORKLOADS[name].invocations):
        argv = [sys.executable, "-m", "repro",
                *inv.argv(seed, workdir / "cache")]
        done = launch(argv, workdir / f"{k}-{inv.key}")
        digest = hashlib.sha256(done.stdout).hexdigest()
        found = problems(done, inv, digest)
        if found:
            raise SystemExit(f"{name} {inv.key} seed {seed}: {found}\n"
                             + done.stderr.decode(errors="replace"))
        digests[inv.key] = digest
    shutil.rmtree(workdir)
    return digests


def main() -> int:
    jobs = [(name, seed) for name in WORKLOADS
            for seed in range(1, SEED_SLOTS + 1)]
    try:
        with ThreadPoolExecutor(2) as pool:
            results = list(pool.map(lambda job: record(*job), jobs))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    table: dict[str, dict[str, dict[str, str]]] = {}
    for (name, seed), digests in zip(jobs, results):
        for key, digest in digests.items():
            table.setdefault(name, {}).setdefault(key, {})[str(seed)] = digest
    with open(DIGESTS, "w") as fh:
        json.dump({"seed_slots": SEED_SLOTS, "digests": table}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {DIGESTS}: {len(jobs)} workload runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
