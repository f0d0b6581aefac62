"""The pure-Python generator and reductions against numpy, draw for draw.

:class:`repro.sim.random.Generator` stands in for
``numpy.random.default_rng`` and :func:`~repro.sim.random.sample_mean` /
:func:`~repro.sim.random.sample_std` for numpy's float64 ``mean()`` /
``std(ddof=1)``.  Every figure the study prints rests on their bits
equalling numpy's, so each comparison here is on ``float.hex``.
"""

import numpy as np
import pytest

from repro.sim import random as streams_module
from repro.sim.random import (
    Generator,
    NoiseModel,
    derive_seed,
    sample_mean,
    sample_std,
)

SEEDS = [
    0, 1, 2**32 - 1,
    2**32,            # a second entropy word
    2**64 - 1,
    2**160 + 12345,   # more entropy words than the pool holds
    derive_seed(20230612, "Frontier", "osu", "on-socket"),
    derive_seed(1, "faults", "", "drop", "0->1"),
    derive_seed(7, "Summit", "cs", "launch"),
]


def _bits(values) -> list[str]:
    return [float.hex(float(v)) for v in values]


def _pair(seed):
    return Generator(seed), np.random.default_rng(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_scalar_draws_match_numpy(seed):
    ours, ref = _pair(seed)
    draws = [
        lambda g: g.random(),
        lambda g: g.standard_normal(),
        lambda g: g.normal(0.0, 1e-9),
        lambda g: g.normal(loc=2.5, scale=3.0),
        lambda g: g.lognormal(mean=0.0, sigma=0.008),
        lambda g: g.lognormal(1.0, 0.5),
    ]
    for k in range(300):
        draw = draws[k % len(draws)]
        mine, theirs = draw(ours), draw(ref)
        assert type(mine) is float
        assert float.hex(mine) == float.hex(theirs), (seed, k)


@pytest.mark.parametrize("seed", SEEDS)
def test_sized_draws_match_numpy(seed):
    ours, ref = _pair(seed)
    for call in (
        lambda g: g.random(64),
        lambda g: g.standard_normal(size=64),
        lambda g: g.normal(0.0, 2.0, size=64),
        lambda g: g.lognormal(mean=0.0, sigma=0.012, size=100),
        lambda g: g.random(0),
    ):
        mine, theirs = call(ours), call(ref)
        assert isinstance(mine, list)
        assert _bits(mine) == _bits(theirs)


def test_ziggurat_tail_and_wedge_both_run(monkeypatch):
    # log1p runs only in the tail beyond the base strip (index 0) and
    # exp only in a wedge test, so counting their calls shows both
    # rejection branches ran, and matched numpy
    calls = {"log1p": 0, "exp": 0}

    def counted(name, fn):
        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    for name in calls:
        monkeypatch.setattr(
            streams_module, name, counted(name, getattr(streams_module, name))
        )
    ours, ref = _pair(20230612)
    assert _bits(ours.standard_normal(40_000)) == \
        _bits(ref.standard_normal(40_000))
    assert calls["log1p"] > 0
    assert calls["exp"] > 0


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_noise_model_matches_numpy(seed):
    noise = NoiseModel(sigma=0.01, floor=1e-9)
    ours, ref = _pair(seed)
    assert _bits(noise.sample_many(ours, 5.0, 100)) == \
        _bits(noise.sample_many(ref, 5.0, 100))
    assert float.hex(noise.sample(ours, 5.0)) == \
        float.hex(noise.sample(ref, 5.0))


def test_negative_seed_rejected_like_numpy():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        Generator(-1)


@pytest.mark.parametrize("lengths", [
    range(1, 9),            # a plain loop
    range(9, 129),          # eight strided accumulators
    range(129, 1001, 3),    # split and recurse
], ids=["1-8", "9-128", "129-1000"])
def test_mean_and_std_match_numpy(lengths):
    rng = np.random.default_rng(5)
    for n in lengths:
        # spread over 18 decades, so the order of the additions shows
        arr = rng.lognormal(0.0, 1.0, n) * 10.0 ** rng.integers(-9, 9, n)
        values = arr.tolist()
        assert float.hex(sample_mean(values)) == float.hex(arr.mean()), n
        std = arr.std(ddof=1) if n > 1 else 0.0
        assert float.hex(sample_std(values)) == float.hex(std), n


@pytest.mark.parametrize("n", [1, 9, 200])
def test_negative_zeros_sum_like_numpy(n):
    # add.reduce starts from its identity +0.0
    values = [-0.0] * n
    assert float.hex(sample_mean(values)) == \
        float.hex(np.asarray(values).mean())
