"""Tests for the experiment-spec registry."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.spec import (
    all_experiments,
    coverage_report,
    get_experiment,
    paper_artifacts,
)
from repro.core.study import Study, StudyConfig
from repro.errors import BenchmarkConfigError


class TestRegistry:
    def test_every_paper_table_and_figure_registered(self):
        ids = {s.experiment_id for s in paper_artifacts()}
        for n in range(1, 10):
            assert f"table{n}" in ids
        for n in range(1, 4):
            assert f"figure{n}" in ids

    def test_extensions_flagged(self):
        ext = {s.experiment_id for s in all_experiments() if s.is_extension}
        assert "ext-internode" in ext
        assert "table4" not in ext

    def test_paper_artifacts_come_first(self):
        specs = all_experiments()
        first_ext = next(
            i for i, s in enumerate(specs) if s.is_extension
        )
        assert all(s.is_extension for s in specs[first_ext:])

    def test_unknown_experiment(self):
        with pytest.raises(BenchmarkConfigError):
            get_experiment("table99")

    def test_coverage_report_lists_everything(self):
        text = coverage_report()
        for spec in all_experiments():
            assert spec.experiment_id in text


class TestRunners:
    def test_table_runner_produces_rows(self):
        study = Study(StudyConfig(runs=2, seed=1))
        out = get_experiment("table4").run(study)
        assert "29. Trinity" in out

    def test_figure_runner(self):
        study = Study(StudyConfig(runs=2, seed=1))
        out = get_experiment("figure2").run(study)
        assert "Summit node" in out

    def test_every_paper_artifact_regenerates(self):
        study = Study(StudyConfig(runs=2, seed=1))
        for spec in paper_artifacts():
            assert get_experiment(spec.experiment_id).run(study)

    def test_static_specs_build_no_study(self, tmp_path):
        # with numpy blocked, the static paper specs and the inter-node
        # extension run without a study argument and never load one
        static = ["table1", "table2", "table3", "table8", "table9",
                  "figure1", "figure2", "figure3", "ext-internode"]
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from repro.core.spec import get_experiment\n"
            f"for spec_id in {static!r}:\n"
            "    assert get_experiment(spec_id).run(), spec_id\n"
            "assert 'repro.core.study' not in sys.modules\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr


class TestPerlmutter80GB:
    def test_variant_builds_and_differs(self):
        from repro.machines.doe_gpu import build_perlmutter_80gb
        from repro.machines.registry import get_machine

        variant = build_perlmutter_80gb()
        measured = get_machine("perlmutter")
        assert variant.node.gpus[0].memory.capacity == 80 * 2**30
        assert variant.node.gpus[0].peak_bandwidth > \
            measured.node.gpus[0].peak_bandwidth
        assert "unmeasured" in variant.notes
        variant.node.validate()

    def test_variant_not_in_registry(self):
        from repro.machines.registry import machine_names

        assert "perlmutter-80gb" not in machine_names()

    def test_variant_measures_faster(self):
        from repro.benchmarks.babelstream.sweep import best_gpu_bandwidth
        from repro.machines.doe_gpu import build_perlmutter_80gb
        from repro.machines.registry import get_machine

        variant = best_gpu_bandwidth(build_perlmutter_80gb(), runs=2)
        measured = best_gpu_bandwidth(get_machine("perlmutter"), runs=2)
        assert variant.mean > 1.2 * measured.mean
