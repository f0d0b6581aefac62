"""Byte-identity of the engine fast paths (the hot-path contract).

The engine optimizations — ``__slots__``, the fast lane, timeout
pooling, the immediate-callback path — must be pure execution details:
``REPRO_DISABLE_FASTPATH=1`` runs the same study through the
unoptimized scheduling path, and every observable byte (table stdout,
the artifact bundle, the metrics JSON) must match.  The switch is read
at engine import, so each side runs in its own subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.fastpath

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


#: the CLI inputs both sides run: the fast-mode artifact bundle, and
#: exact-mode Table 6, where every binary execution drives the GPU
#: runtime's streams through the engine
INPUTS = (
    ["table4", "artifacts", "--runs", "3", "--output", "bundle"],
    ["table6", "--exact", "--runs", "2"],
)


def _run(
    tmp_path: Path, targets: list[str], fastpath: bool, jobs: int
) -> tuple[str, dict, dict]:
    """One full CLI pass over ``targets``; returns (stdout, metrics doc,
    bundle bytes, empty without an ``artifacts`` target)."""
    workdir = tmp_path / f"{targets[0]}-fp{int(fastpath)}-j{jobs}"
    workdir.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_DISABLE_FASTPATH", None)
    if not fastpath:
        env["REPRO_DISABLE_FASTPATH"] = "1"
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


class TestFastpathByteIdentity:
    def test_disable_fastpath_is_byte_identical_serial_and_parallel(
        self, tmp_path
    ):
        for targets in INPUTS:
            reference = _run(tmp_path, targets, fastpath=True, jobs=1)
            for fastpath, jobs in ((False, 1), (True, 4), (False, 4)):
                stdout, metrics, bundle = _run(tmp_path, targets, fastpath, jobs)
                label = f"{' '.join(targets)}: fastpath={fastpath} jobs={jobs}"
                assert stdout == reference[0], f"stdout drifted ({label})"
                assert metrics == reference[1], f"metrics drifted ({label})"
                assert bundle == reference[2], f"artifacts drifted ({label})"
