"""Tests for deterministic RNG streams and the noise model."""

import numpy as np
import pytest

from repro.sim.random import NoiseModel, RandomStreams


class TestRandomStreams:
    def test_same_path_same_stream(self):
        streams = RandomStreams(42)
        a = streams.get("frontier", "osu").standard_normal(8)
        b = streams.get("frontier", "osu").standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_different_paths_differ(self):
        streams = RandomStreams(42)
        a = streams.get("frontier", "osu").standard_normal(8)
        b = streams.get("summit", "osu").standard_normal(8)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).get("x").standard_normal(8)
        b = RandomStreams(2).get("x").standard_normal(8)
        assert not np.array_equal(a, b)

    def test_path_separator_is_unambiguous(self):
        streams = RandomStreams(0)
        # ("ab", "c") must not collide with ("a", "bc")
        assert streams.seed_for("ab", "c") != streams.seed_for("a", "bc")

    def test_seed_is_64bit_int(self):
        seed = RandomStreams(7).seed_for("anything")
        assert 0 <= seed < 2**64


class TestHierarchicalSeeds:
    """The stateless derivation contract the parallel scheduler rests
    on, over the flat ``(machine, metric, ...)`` paths a study's cells
    draw from."""

    def test_distinct_cells_distinct_streams(self):
        streams = RandomStreams(9)
        a = streams.get("Frontier", "osu", "on-socket").random(4)
        b = streams.get("Frontier", "cs", "launch").random(4)
        c = streams.get("Summit", "osu", "on-socket").random(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_same_cell_is_schedule_invariant(self):
        # a worker deriving a cell's path from scratch must land on the
        # same generator regardless of what was derived before
        parent = RandomStreams(9)
        parent.get("some", "other", "cell")  # unrelated prior derivation
        a = parent.get("Eagle", "osu", "on-socket").random(8)
        b = RandomStreams(9).get("Eagle", "osu", "on-socket").random(8)
        np.testing.assert_array_equal(a, b)

    def test_no_collisions_across_full_roster(self):
        # every cell the scheduler can ever plan, both machine classes,
        # must draw from a unique stream
        from repro.core.parallel import plan_tasks

        labels = [t.label() for t in plan_tasks("cpu") + plan_tasks("gpu")]
        streams = RandomStreams(20230612)
        seeds = {streams.seed_for(*label) for label in labels}
        assert len(seeds) == len(labels) == 52


class TestNoiseModel:
    def test_zero_sigma_is_identity(self):
        noise = NoiseModel(sigma=0.0)
        rng = np.random.default_rng(0)
        assert noise.sample(rng, 5.0) == 5.0

    def test_sample_positive(self):
        noise = NoiseModel(sigma=0.05)
        rng = np.random.default_rng(0)
        samples = [noise.sample(rng, 1.0) for _ in range(200)]
        assert all(s > 0 for s in samples)

    def test_sample_mean_near_value(self):
        noise = NoiseModel(sigma=0.01)
        rng = np.random.default_rng(0)
        samples = np.asarray(noise.sample_many(rng, 10.0, 5000))
        assert samples.mean() == pytest.approx(10.0, rel=0.01)

    def test_sample_cov_matches_sigma(self):
        noise = NoiseModel(sigma=0.02)
        rng = np.random.default_rng(1)
        samples = np.asarray(noise.sample_many(rng, 100.0, 20000))
        cov = samples.std() / samples.mean()
        assert cov == pytest.approx(0.02, rel=0.15)

    def test_floor_adds_spread_near_zero(self):
        noise = NoiseModel(sigma=0.0, floor=1e-9)
        rng = np.random.default_rng(0)
        samples = np.asarray(noise.sample_many(rng, 0.0, 100))
        assert samples.std() > 0

    def test_negative_value_rejected(self):
        noise = NoiseModel()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            noise.sample(rng, -1.0)
        with pytest.raises(ValueError):
            noise.sample_many(rng, -1.0, 4)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel().sample_many(np.random.default_rng(0), 1.0, -1)

    def test_sample_many_shape(self):
        out = np.asarray(
            NoiseModel(sigma=0.1).sample_many(np.random.default_rng(0), 2.0, 17)
        )
        assert out.shape == (17,)
