"""Tests of the benchmark itself (not part of the repo's tier-1 suite).

Run with ``python3 -m pytest perfbench/selftest.py``; a few minutes,
because every test launches real ``python -m repro`` commands.  The
file name matches no pytest discovery pattern on purpose, so that no
repo-wide ``pytest`` run picks these slow tests up.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import layer_metrics, run_iteration
from workloads import ROOT, WORKLOADS, load_digests

HERE = Path(__file__).resolve().parent
SEED = 7

ALL = tuple(WORKLOADS)
EXACT = ("exact-serial", "exact-cached")

#: per-layer metric -> the workloads on which it must be non-zero
NONZERO = {
    "import.s": ("cold-session",),
    "import.modules": ("cold-session",),
    "import.networkx_s": ("cold-session",),
    "harness.render_s": ("cold-session",),
    "checks.evaluate_s": ("cold-session",),
    "core.cells_computed": ("exact-serial",),
    "core.cells_distinct": ("exact-serial",),
    "core.cell_yield": ("exact-serial",),
    "core.cell_s": ("exact-serial",),
    "cellcache.hits": ("exact-cached",),
    "cellcache.stores": ("exact-cached",),
    "cellcache.load_s": ("exact-cached",),
    "cellcache.store_s": ("exact-cached",),
    "benchmarks.babelstream_s": EXACT,
    "benchmarks.osu_s": EXACT,
    "benchmarks.commscope_s": EXACT,
    "sim.events": ("exact-serial",),
    "sim.run_s": ("exact-serial",),
    "gpurt.runtimes": EXACT,
    "gpurt.runtime_init_s": EXACT,
    "openmp.teams": EXACT,
    "openmp.team_s": EXACT,
    "hardware.pair_classifications": EXACT,
    "memsys.model_s": EXACT,
    "obs.spans": ("observed",),
    "obs.attribution_windows": ("observed",),
    "obs.attribution_s": ("observed",),
    "obs.export_s": ("observed",),
    "obs.events_s": ("observed",),
    "obs.ledger_s": ALL,
    "trace.coverage": ALL,
}

#: layers that only one workload exercises
ZERO_ELSEWHERE = ("cellcache.", "obs.spans", "obs.attribution", "obs.export",
                  "obs.events")


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_tampered_digest_counts_as_failure(tmp_path):
    digests = load_digests()
    clean = run_iteration("cold-session", SEED, digests, tmp_path / "a", False)
    assert (clean.attempted, clean.failed) == (3, 0), clean.failures

    tampered = json.loads(json.dumps(digests))
    for seed in tampered["cold-session"]["table2"]:
        tampered["cold-session"]["table2"][seed] = "0" * 64
    it = run_iteration("cold-session", SEED, tampered, tmp_path / "b", False)
    assert (it.attempted, it.failed) == (3, 1)
    assert "table2: stdout sha256" in it.failures[0]


@pytest.mark.parametrize("workload", ALL)
def test_traced_run_reaches_every_layer(workload, tmp_path):
    digests = load_digests()
    passes = []
    for k in range(2):
        it = run_iteration(workload, SEED, digests, tmp_path / str(k), True)
        assert it.failed == 0, it.failures
        passes.append(layer_metrics(it))
    first, second = passes
    for key, workloads in NONZERO.items():
        if workload in workloads:
            assert first[key] > 0, key
        elif key.startswith(ZERO_ELSEWHERE):
            assert first[key] == 0, key
    for key, value in first.items():
        if isinstance(value, int):
            assert second[key] == value, key
    assert first["trace.coverage"] >= 0.95


def test_benchmark_json_names_every_measured_metric():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert per_layer == set(NONZERO) | {"trace.overhead_s"}


def work_entries() -> set[str]:
    work = HERE / ".work"
    return {p.name for p in work.iterdir()} if work.is_dir() else set()


@pytest.mark.parametrize("trace", (0, 1))
def test_run_prints_the_declared_metrics(trace):
    before = work_entries()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cold-session",
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = last_json_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert work_entries() == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-session",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
