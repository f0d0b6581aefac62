"""Deterministic random-number streams and measurement-noise models.

The paper reports mean ± standard deviation over 100 executions of each
benchmark binary.  We reproduce that by drawing per-execution jitter from
a :class:`NoiseModel`.  Reproducibility matters (the whole suite must be
bit-stable across runs), so streams are keyed by arbitrary string paths:
``streams.get("frontier", "babelstream", "run17")`` always yields the same
generator for the same root seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


def derive_seed(root_seed: int, *path: str) -> int:
    """Hash (root_seed, path components) into a 64-bit child seed.

    This is the one seed-derivation primitive in the codebase: every
    stream — measurement noise, a cell's simulations, fault draws — is
    a pure function of the root seed and a string path, never of *when*
    it was requested.  That statelessness is what makes the parallel
    study scheduler trivially deterministic: a worker process deriving
    the same path from the same root reproduces the exact generator the
    serial loop would have used, independent of jobs count or schedule
    order.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(root_seed)).encode())
    for part in path:
        h.update(b"\x00")
        h.update(str(part).encode())
    return int.from_bytes(h.digest(), "little")


class RandomStreams:
    """A factory of independent, reproducible numpy generators."""

    def __init__(self, root_seed: int = 20230612) -> None:
        #: the date of the June 2023 Top500 announcement, as a default seed
        self.root_seed = int(root_seed)

    def seed_for(self, *path: str) -> int:
        return derive_seed(self.root_seed, *path)

    def get(self, *path: str) -> np.random.Generator:
        """Return a generator unique to ``path`` (stable across calls)."""
        return np.random.default_rng(self.seed_for(*path))


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative lognormal run-to-run jitter.

    ``sigma`` is the coefficient of variation of the multiplicative factor;
    the paper's tables show CoVs between roughly 0.05 % (device bandwidth)
    and ~3 % (some launch latencies), so metric classes choose sigma
    accordingly.  ``floor`` optionally adds a small absolute jitter so that
    quantities near zero still show spread.
    """

    sigma: float = 0.005
    floor: float = 0.0

    def sample(self, rng: np.random.Generator, value: float) -> float:
        """Draw one noisy observation of ``value`` (always positive)."""
        if value < 0:
            raise ValueError(f"noise model requires non-negative values: {value}")
        if self.sigma <= 0:
            jittered = value
        else:
            # lognormal with unit median; sigma ~ CoV for small sigma
            jittered = value * float(rng.lognormal(mean=0.0, sigma=self.sigma))
        if self.floor > 0:
            jittered += float(abs(rng.normal(0.0, self.floor)))
        return jittered

    def sample_many(
        self, rng: np.random.Generator, value: float, n: int
    ) -> np.ndarray:
        """Vectorised version of :meth:`sample`."""
        if n < 0:
            raise ValueError(f"negative sample count: {n}")
        if value < 0:
            raise ValueError(f"noise model requires non-negative values: {value}")
        if self.sigma <= 0:
            out = np.full(n, float(value))
        else:
            out = value * rng.lognormal(mean=0.0, sigma=self.sigma, size=n)
        if self.floor > 0:
            out = out + np.abs(rng.normal(0.0, self.floor, size=n))
        return out


#: Default noise classes used by the study harness.  CoVs are chosen to be of
#: the same order as the paper's reported standard deviations.
NOISE_BANDWIDTH = NoiseModel(sigma=0.002)
NOISE_CPU_BANDWIDTH = NoiseModel(sigma=0.012)
NOISE_LATENCY = NoiseModel(sigma=0.008)
NOISE_LAUNCH = NoiseModel(sigma=0.004)
