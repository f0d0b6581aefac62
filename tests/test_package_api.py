"""Public API surface tests: the imports the README promises."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_readme_quickstart_imports(self):
        from repro import Study, get_machine
        from repro.core import build_table6, render_table6

        assert callable(get_machine) and callable(build_table6)

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_import_loads_only_the_version(self):
        # the public names resolve on first use, so a bare import (and
        # ``python -m repro table2``) loads neither numpy nor the model
        code = (
            "import sys, repro; print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] in ('repro', 'numpy')))"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, check=True,
        )
        assert proc.stdout.strip() == "['repro', 'repro._version']"

    def test_suite_versions_recorded(self):
        from repro._version import (
            BABELSTREAM_VERSION,
            COMMSCOPE_VERSION,
            OSU_MICROBENCHMARKS_VERSION,
            TOP500_EDITION,
        )

        assert BABELSTREAM_VERSION == "4.0"
        assert OSU_MICROBENCHMARKS_VERSION == "7.1.1"
        assert COMMSCOPE_VERSION == "0.12.0"
        assert TOP500_EDITION == "June 2023"


SUBPACKAGES = [
    "repro.sim",
    "repro.hardware",
    "repro.machines",
    "repro.memsys",
    "repro.openmp",
    "repro.gpurt",
    "repro.mpisim",
    "repro.netsim",
    "repro.benchmarks.babelstream",
    "repro.benchmarks.osu",
    "repro.benchmarks.commscope",
    "repro.core",
    "repro.harness",
    "repro.analysis",
]


class TestSubpackages:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_importable(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_exports_resolve(self, name):
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", []):
            assert hasattr(module, export), f"{name}.{export}"


class TestEveryModuleDocumented:
    def test_module_docstrings(self):
        import pkgutil

        undocumented = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            if not (module.__doc__ or "").strip():
                undocumented.append(info.name)
        assert not undocumented, undocumented
