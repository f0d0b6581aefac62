"""Shared fixtures: machines and a fast study configuration."""

from __future__ import annotations

import os

import pytest

from repro.core.study import Study, StudyConfig
from repro.machines.registry import (
    all_machines,
    cpu_machines,
    get_machine,
    gpu_machines,
)


@pytest.fixture(scope="session", autouse=True)
def _isolated_run_ledger(tmp_path_factory):
    """Point default-on run recording at a tmpdir for the whole session,
    so CLI tests never grow a ``.repro/`` directory in the checkout."""
    prev = os.environ.get("REPRO_LEDGER_DIR")
    os.environ["REPRO_LEDGER_DIR"] = str(tmp_path_factory.mktemp("ledger"))
    yield
    if prev is None:
        os.environ.pop("REPRO_LEDGER_DIR", None)
    else:
        os.environ["REPRO_LEDGER_DIR"] = prev


@pytest.fixture(scope="session")
def frontier():
    return get_machine("frontier")


@pytest.fixture(scope="session")
def summit():
    return get_machine("summit")


@pytest.fixture(scope="session")
def perlmutter():
    return get_machine("perlmutter")


@pytest.fixture(scope="session")
def sawtooth():
    return get_machine("sawtooth")


@pytest.fixture(scope="session")
def trinity():
    return get_machine("trinity")


@pytest.fixture(scope="session")
def eagle():
    return get_machine("eagle")


@pytest.fixture(scope="session")
def all_machines_list():
    return all_machines()


@pytest.fixture(scope="session")
def cpu_machines_list():
    return cpu_machines()


@pytest.fixture(scope="session")
def gpu_machines_list():
    return gpu_machines()


@pytest.fixture(scope="session")
def fast_study():
    """A study with few runs — statistics converge enough for tests."""
    return Study(StudyConfig(runs=10, seed=7))


@pytest.fixture(scope="session")
def paper_study():
    """The paper's full 100-run protocol (vectorised noise path)."""
    return Study(StudyConfig(runs=100))


@pytest.fixture(scope="session")
def fast_check_source(fast_study):
    """A checks extractor source over the fast study: every table cell
    plus the flattened ``metrics:sim.*`` rows (shared so the checks
    suite builds the tables once per session)."""
    from repro.checks.extract import study_source

    return study_source(fast_study, cpu_machines(), gpu_machines())
