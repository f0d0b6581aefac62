"""``--jobs 4`` against ``--jobs 1``: every output byte, fresh processes.

Each side is a full ``python -m repro`` run in its own interpreter, so
the parallel side forks its process pool from a clean parent, as a
user's run does.  Table stdout, the metrics JSON and the artifact
bundle must match byte for byte.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.parallel

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


#: the CLI inputs both sides run: the fast-mode artifact bundle, and
#: exact-mode Table 6, where every binary execution drives the GPU
#: runtime's streams through the engine
INPUTS = (
    ["table4", "artifacts", "--runs", "3", "--output", "bundle"],
    ["table6", "--exact", "--runs", "2"],
)


def _run(
    tmp_path: Path, targets: list[str], jobs: int
) -> tuple[str, dict, dict]:
    """One full CLI pass over ``targets``; returns (stdout, metrics doc,
    bundle bytes, empty without an ``artifacts`` target)."""
    workdir = tmp_path / f"{targets[0]}-j{jobs}"
    workdir.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *targets, "--jobs", str(jobs),
         "--metrics-out", "metrics.json", "--quiet"],
        capture_output=True, text=True, env=env, cwd=workdir,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads((workdir / "metrics.json").read_text())
    bundle = {
        path.relative_to(workdir / "bundle").as_posix(): path.read_bytes()
        for path in sorted((workdir / "bundle").rglob("*"))
        if path.is_file()
    }
    assert bundle or "artifacts" not in targets, "artifact bundle is empty"
    return proc.stdout, metrics, bundle


class TestJobsByteIdentity:
    def test_jobs_4_matches_jobs_1(self, tmp_path):
        for targets in INPUTS:
            serial = _run(tmp_path, targets, jobs=1)
            stdout, metrics, bundle = _run(tmp_path, targets, jobs=4)
            label = " ".join(targets)
            assert stdout == serial[0], f"stdout drifted ({label})"
            assert metrics == serial[1], f"metrics drifted ({label})"
            assert bundle == serial[2], f"artifacts drifted ({label})"
