"""The persistent cell-result cache: keys, hits, corruption, faults.

The cache's one non-negotiable property is byte-identity: a warm study
must render exactly what a cold (or uncached) study renders, because a
hit replays the complete :class:`CellOutcome` through the same merge
path every computed cell takes.  Everything else here guards the
failure modes: corrupt entries recompute with a warning, a code-version
bump hard-invalidates, fault plans key separately from clean runs, and
entries are durable enough to resume an interrupted study from.
"""

import os
import pickle
import stat
import warnings
from dataclasses import replace
from unittest import mock

import pytest

from repro.core import cellcache
from repro.core.cellcache import CACHE_SCHEMA, CellCache, cell_key
from repro.core.parallel import CellOutcome, CellTask
from repro.core.study import Study, StudyConfig
from repro.core.tables import build_table4, render_table4
from repro.errors import BenchmarkConfigError
from repro.faults import get_profile
from repro.machines.registry import get_machine

MACHINE = "sawtooth"


def _study(tmp_path, **overrides) -> Study:
    config = dict(runs=2, seed=77, cache=True, cache_dir=str(tmp_path))
    config.update(overrides)
    return Study(StudyConfig(**config))


def _render(study: Study) -> str:
    return render_table4(build_table4(study, machines=[get_machine(MACHINE)]))


class TestKey:
    def test_key_is_stable_across_calls(self):
        config = StudyConfig(runs=2, seed=77)
        task = CellTask(MACHINE, "cpu_bandwidth", "single")
        assert cell_key(config, task, False, False) == \
            cell_key(config, task, False, False)

    def test_key_covers_config_task_and_obs_flags(self):
        config = StudyConfig(runs=2, seed=77)
        task = CellTask(MACHINE, "cpu_bandwidth", "single")
        digest, _ = cell_key(config, task, False, False)
        variants = [
            cell_key(replace(config, seed=78), task, False, False),
            cell_key(replace(config, runs=3), task, False, False),
            cell_key(replace(config, faults=get_profile("lossy")),
                     task, False, False),
            cell_key(config, CellTask(MACHINE, "cpu_bandwidth", "all"),
                     False, False),
            cell_key(config, task, True, False),
            cell_key(config, task, True, True),
        ]
        assert len({digest} | {d for d, _ in variants}) == len(variants) + 1

    def test_execution_knobs_do_not_key(self):
        config = StudyConfig(runs=2, seed=77)
        task = CellTask(MACHINE, "host_latency", "on-socket")
        digest, _ = cell_key(config, task, False, False)
        assert cell_key(replace(config, jobs=4), task, False, False)[0] \
            == digest
        assert cell_key(
            replace(config, cache=True, cache_dir="/elsewhere"),
            task, False, False,
        )[0] == digest

    def test_machine_text_is_memoized_per_machine(self):
        machine = get_machine(MACHINE)
        text = cellcache._fingerprint(machine)
        config = StudyConfig(runs=2, seed=77)
        task = CellTask(MACHINE, "host_latency", "on-socket")
        digest, key = cell_key(config, task, False, False)
        assert key.startswith(f"machine={text}\n")
        # a second key for the machine does not walk its spec again
        with mock.patch.object(
            cellcache, "_fingerprint", wraps=cellcache._fingerprint
        ) as walk:
            assert cell_key(config, task, False, False) == (digest, key)
        assert all(call.args[0] is not machine for call in walk.call_args_list)
        # an edited copy is another object: walked afresh, keyed anew
        edited = replace(machine, rank=machine.rank + 1)
        with mock.patch.object(cellcache, "get_machine", lambda _: edited):
            other, other_key = cell_key(config, task, False, False)
        assert other != digest
        assert other_key.startswith(
            f"machine={cellcache._fingerprint(edited)}\n"
        )


class TestHitMiss:
    def test_cold_stores_warm_hits_same_bytes(self, tmp_path):
        cold = _study(tmp_path)
        cold_text = _render(cold)
        stats = cold.scheduler.cache.stats()
        assert stats["hits"] == 0
        assert stats["misses"] == stats["stores"] > 0

        warm = _study(tmp_path)
        warm_text = _render(warm)
        stats = warm.scheduler.cache.stats()
        assert stats["misses"] == stats["stores"] == 0
        assert stats["hits"] > 0
        assert warm_text == cold_text

    def test_cached_run_matches_uncached_run(self, tmp_path):
        cached_text = _render(_study(tmp_path))
        uncached_text = _render(Study(StudyConfig(runs=2, seed=77)))
        assert cached_text == uncached_text

    def test_warm_jobs4_matches_serial(self, tmp_path):
        serial = _render(_study(tmp_path))
        parallel = _render(_study(tmp_path, jobs=4))
        stats_text = _render(_study(tmp_path, jobs=4))
        assert parallel == serial == stats_text

    def test_config_change_misses(self, tmp_path):
        _render(_study(tmp_path))
        other = _study(tmp_path, seed=78)
        _render(other)
        assert other.scheduler.cache.stats()["hits"] == 0


class TestCorruption:
    def test_truncated_pickle_warns_and_recomputes(self, tmp_path):
        cold_text = _render(_study(tmp_path))
        victim = sorted(tmp_path.glob("*.pkl"))[0]
        victim.write_bytes(victim.read_bytes()[:16])
        with pytest.warns(RuntimeWarning, match="corrupt cell-cache entry"):
            study = _study(tmp_path)
            text = _render(study)
        stats = study.scheduler.cache.stats()
        assert stats["misses"] == stats["stores"] == 1
        assert text == cold_text

    def test_garbage_payload_structure_is_a_miss(self, tmp_path):
        study = _study(tmp_path)
        _render(study)
        victim = sorted(tmp_path.glob("*.pkl"))[0]
        victim.write_bytes(pickle.dumps(["not", "a", "payload"]))
        with pytest.warns(RuntimeWarning):
            again = _study(tmp_path)
            _render(again)
        assert again.scheduler.cache.stats()["misses"] == 1

    def test_unwritable_directory_degrades_to_uncached(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            study = _study(blocked)
            text = _render(study)
        assert study.scheduler.cache.stats()["stores"] == 0
        assert text == _render(Study(StudyConfig(runs=2, seed=77)))

    def test_unwritable_directory_warns_once_and_counts_the_rest(
            self, tmp_path):
        # a study stores dozens of cells; an unwritable directory must
        # produce ONE warning, with the rest tallied in store_failed
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            study = _study(blocked)
            _render(study)
        cache_warnings = [
            w for w in caught
            if "cannot write cell-cache entry" in str(w.message)
        ]
        assert len(cache_warnings) == 1
        stats = study.scheduler.cache.stats()
        assert stats["store_failed"] == stats["misses"] > 1
        assert stats["stores"] == 0

        # a second study against the same directory stays silent
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            again = _study(blocked)
            _render(again)
        assert not [
            w for w in caught
            if "cannot write cell-cache entry" in str(w.message)
        ]
        assert again.scheduler.cache.stats()["store_failed"] > 1


class TestVersionInvalidation:
    def test_version_bump_invalidates_every_entry(self, tmp_path):
        cold = _study(tmp_path)
        _render(cold)
        stored = cold.scheduler.cache.stats()["stores"]
        with mock.patch.object(cellcache, "_CODE_VERSION", "0.0.0-test"):
            stale = _study(tmp_path)
            _render(stale)
        stats = stale.scheduler.cache.stats()
        assert stats["invalidated"] == stored
        assert stats["hits"] == 0

    def test_schema_bump_invalidates(self, tmp_path):
        cold = _study(tmp_path)
        cold_text = _render(cold)
        with mock.patch.object(cellcache, "CACHE_SCHEMA", CACHE_SCHEMA + 1):
            stale = _study(tmp_path)
            text = _render(stale)
        stats = stale.scheduler.cache.stats()
        assert stats["invalidated"] == stats["stores"] > 0
        assert text == cold_text


class TestFaultsCompose:
    def test_faulted_study_keys_apart_from_clean(self, tmp_path):
        _render(_study(tmp_path))
        faulted = _study(tmp_path, faults=get_profile("lossy"))
        faulted_text = _render(faulted)
        stats = faulted.scheduler.cache.stats()
        assert stats["hits"] == 0 and stats["stores"] > 0

        warm = _study(tmp_path, faults=get_profile("lossy"))
        assert _render(warm) == faulted_text
        assert warm.scheduler.cache.stats()["misses"] == 0

    def test_faulted_warm_run_matches_uncached_faulted_run(self, tmp_path):
        plan = get_profile("chaos")
        _render(_study(tmp_path, faults=plan))
        warm = _study(tmp_path, faults=plan)
        warm_text = _render(warm)
        reference = Study(StudyConfig(runs=2, seed=77, faults=plan))
        assert warm_text == _render(reference)
        assert warm.resilience.summary() == reference.resilience.summary()


class TestConfigValidation:
    def test_cache_knob_type_checked(self):
        with pytest.raises(BenchmarkConfigError):
            StudyConfig(cache="yes")
        with pytest.raises(BenchmarkConfigError):
            StudyConfig(cache=True, cache_dir=123)

    def test_serial_cache_study_arms_scheduler(self, tmp_path):
        study = _study(tmp_path)
        assert study.scheduler is not None
        assert study.scheduler.cache is not None
        assert Study(StudyConfig(runs=2)).scheduler.cache is None


class TestDurability:
    """A cache directory is the resume point of an interrupted study
    (``--resume DIR``), so entries must survive a kill at any moment.
    Outcomes here are lightweight stand-ins: the cache never looks
    inside them."""

    CONFIG = StudyConfig(runs=2, seed=77)
    TASKS = tuple(
        CellTask(MACHINE, "cpu_bandwidth", variant)
        for variant in ("single", "all")
    )

    def _fill(self, directory) -> CellCache:
        cache = CellCache(directory)
        for i, task in enumerate(self.TASKS):
            cache.store(self.CONFIG, task, False, False,
                        CellOutcome(task=task, result=float(i)))
        return cache

    def test_store_fsyncs_the_entry_then_the_directory(self, tmp_path,
                                                       monkeypatch):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            mode = os.fstat(fd).st_mode
            calls.append("dir" if stat.S_ISDIR(mode) else "file")
            real_fsync(fd)

        def replace_(src, dst):
            calls.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(cellcache.os, "fsync", fsync)
        monkeypatch.setattr(cellcache.os, "replace", replace_)
        cache = self._fill(tmp_path)
        assert calls == ["file", "replace", "dir"] * len(self.TASKS)
        assert cache.stores == len(self.TASKS)

    def test_stored_outcomes_load_in_a_fresh_cache(self, tmp_path):
        self._fill(tmp_path)
        reader = CellCache(tmp_path)
        for i, task in enumerate(self.TASKS):
            outcome = reader.load(self.CONFIG, task, False, False)
            assert outcome is not None and outcome.result == float(i)
        assert reader.hits == len(self.TASKS)
        assert reader.misses == reader.invalidated == 0

    def test_missing_directory_is_a_fresh_run(self, tmp_path):
        cache = CellCache(tmp_path / "absent")
        assert cache.load(self.CONFIG, self.TASKS[0], False, False) is None
        assert cache.stats()["hits"] == 0
        assert cache.stats()["misses"] == 1

    def test_store_is_idempotent_per_cell(self, tmp_path):
        cache = CellCache(tmp_path)
        task = self.TASKS[0]
        for _ in range(3):
            cache.store(self.CONFIG, task, False, False,
                        CellOutcome(task=task, result=1.0))
        assert [p.suffix for p in tmp_path.iterdir()] == [".pkl"]

    def test_orphaned_temp_file_is_never_read(self, tmp_path):
        # a store killed before its rename leaves a partial temp file;
        # the cell it belongs to is simply a miss, with no warning
        self._fill(tmp_path)
        digest, _ = cell_key(self.CONFIG, self.TASKS[0], False, False)
        entry = tmp_path / f"{digest}.pkl"
        raw = entry.read_bytes()
        entry.unlink()
        (tmp_path / f"{digest}.pkl.tmp.99999").write_bytes(
            raw[: len(raw) // 2]
        )
        reader = CellCache(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reader.load(self.CONFIG, self.TASKS[0], False,
                               False) is None
            assert reader.load(self.CONFIG, self.TASKS[1], False,
                               False) is not None
        assert (reader.hits, reader.misses, reader.invalidated) == (1, 1, 0)

    def test_key_text_mismatch_is_a_miss(self, tmp_path):
        # a digest collision must degrade to a miss, never a wrong result
        self._fill(tmp_path)
        digest, _ = cell_key(self.CONFIG, self.TASKS[0], False, False)
        entry = tmp_path / f"{digest}.pkl"
        payload = pickle.loads(entry.read_bytes())
        payload["key"] += "\nsomething=else"
        entry.write_bytes(pickle.dumps(payload))
        reader = CellCache(tmp_path)
        assert reader.load(self.CONFIG, self.TASKS[0], False, False) is None
        assert reader.invalidated == reader.misses == 1
        assert not entry.exists()
