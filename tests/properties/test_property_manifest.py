"""Property: the config fingerprint is an execution-independent identity.

``runs diff`` keys cross-run comparison on the manifest's config
fingerprint; for that to be sound, the fingerprint must be byte-stable
across every execution-only knob (jobs, cache, cache directory,
timeouts — the same set the cell cache drops from its keys) and must *change*
whenever a result-relevant field (runs, seed, exact, faults) does.
"""

import pytest

from repro.core.study import Study, StudyConfig
from repro.core.tables import build_table4
from repro.machines.registry import get_machine
from repro.obs.manifest import build_manifest, config_fingerprint

pytestmark = pytest.mark.ledger

BASE = dict(runs=2, seed=77)


class TestFingerprintExecutionIndependence:
    def test_identical_across_jobs(self):
        assert config_fingerprint(StudyConfig(**BASE, jobs=1)) == \
            config_fingerprint(StudyConfig(**BASE, jobs=4))

    def test_identical_across_cache_and_checkpoint(self, tmp_path):
        cold = StudyConfig(**BASE)
        warm = StudyConfig(**BASE, cache=True, cache_dir=str(tmp_path))
        # --resume DIR is --cache-dir DIR: the resume point of a study
        resumed = StudyConfig(**BASE, cache=True,
                              cache_dir=str(tmp_path / "resume"))
        timed = StudyConfig(**BASE, cell_timeout=5.0, max_cell_retries=9)
        fingerprints = {
            config_fingerprint(c) for c in (cold, warm, resumed, timed)
        }
        assert len(fingerprints) == 1

    def test_differs_on_result_relevant_fields(self):
        base = config_fingerprint(StudyConfig(**BASE))
        assert config_fingerprint(StudyConfig(runs=3, seed=77)) != base
        assert config_fingerprint(StudyConfig(runs=2, seed=78)) != base
        assert config_fingerprint(
            StudyConfig(**BASE, exact=True)
        ) != base

    def test_ran_studies_fingerprint_identically(self, tmp_path):
        """End-to-end: serial/parallel and cold/warm-cache runs of the
        same study produce byte-identical manifest fingerprints."""
        machines = [get_machine("sawtooth")]
        fingerprints = set()
        for config in (
            StudyConfig(**BASE, jobs=1),
            StudyConfig(**BASE, jobs=4),
            StudyConfig(**BASE, cache=True, cache_dir=str(tmp_path)),
            StudyConfig(**BASE, cache=True, cache_dir=str(tmp_path)),
        ):
            study = Study(config)
            build_table4(study, machines=machines)
            manifest = build_manifest(study, targets=["table4"])
            fingerprints.add(manifest["config"]["fingerprint"])
        assert len(fingerprints) == 1

    def test_manifest_still_documents_execution_knobs(self):
        """Excluded from the identity, but the manifest's explicit
        config fields still record how the run executed."""
        study = Study(StudyConfig(**BASE, jobs=4))
        manifest = build_manifest(study, targets=[])
        assert manifest["config"]["jobs"] == 4
