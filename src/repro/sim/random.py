"""Deterministic random-number streams and measurement-noise models.

The paper reports mean ± standard deviation over 100 executions of each
benchmark binary.  We reproduce that by drawing per-execution jitter from
a :class:`NoiseModel`.  Reproducibility matters (the whole suite must be
bit-stable across runs), so streams are keyed by arbitrary string paths:
``streams.get("frontier", "babelstream", "run17")`` always yields the same
generator for the same root seed.

:class:`Generator` is numpy's ``default_rng(seed)`` in pure Python, and
:func:`sample_mean` / :func:`sample_std` are numpy's float64 ``mean()``
and ``std(ddof=1)``: each gives numpy's bits, so the run path needs no
numpy and every figure is the one numpy would produce.
"""

from __future__ import annotations

import hashlib
from functools import reduce
from math import exp, log1p, sqrt
from operator import add

from .._dataclass import dataclass
from ._ziggurat import FI, KI, WI


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


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

#: numpy's ``SeedSequence`` hash constants (``bit_generator.pyx``)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4

#: the 128-bit LCG multiplier of PCG64
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

_TWO_M53 = 1.0 / 9007199254740992.0
#: where the ziggurat's base strip ends and the tail begins, and 1/r
_NOR_R = 3.6541528853610087963519472518
_NOR_INV_R = 0.27366123732975827203338247596


def _seed_state(seed: int) -> tuple[int, int, int, int]:
    """``SeedSequence(seed).generate_state(4, uint64)``.

    The entropy is the seed's 32-bit words, least significant first, run
    into a pool of four words and mixed; eight output words are then
    hashed out of the pool and paired little-endian.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative: {seed}")
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    pool = [
        hashmix(entropy[i] if i < len(entropy) else 0)
        for i in range(_POOL_SIZE)
    ]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> _XSHIFT)
    return tuple(out[k] | out[k + 1] << 32 for k in range(0, 8, 2))


class Generator:
    """numpy's ``default_rng(seed)`` for a non-negative int ``seed``.

    PCG64 (a 128-bit LCG with XSL-RR output) seeded through numpy's
    ``SeedSequence``, and the draws the study makes, each numpy's
    algorithm on the same words: every method takes numpy's ``size``
    and returns a float for ``None``, else a list of ``size`` floats,
    equal bit for bit to what ``numpy.random.default_rng(seed)``
    returns for the same calls.
    """

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int) -> None:
        w0, w1, w2, w3 = _seed_state(int(seed))
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        self._inc = inc
        # step from 0, add the seed state, step again
        self._state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128

    def _next64(self) -> int:
        """Step the LCG, then output XSL-RR of the new state."""
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        word = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((word >> rot) | (word << (64 - rot))) & _MASK64

    def _gauss(self) -> float:
        """One standard normal: the 256-level ziggurat of numpy's
        ``distributions.c``."""
        while True:
            r = self._next64()
            idx = r & 0xFF
            r >>= 8
            rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
            x = rabs * WI[idx]
            if r & 1:
                x = -x
            if rabs < KI[idx]:
                return x  # 99.3 % of draws
            if idx == 0:
                while True:  # the tail beyond _NOR_R
                    xx = -_NOR_INV_R * log1p(-self.random())
                    yy = -log1p(-self.random())
                    if yy + yy > xx * xx:
                        if (rabs >> 8) & 1:
                            return -(_NOR_R + xx)
                        return _NOR_R + xx
            elif ((FI[idx - 1] - FI[idx]) * self.random() + FI[idx]
                  < exp(-0.5 * x * x)):
                return x

    def random(self, size: int | None = None):
        """Uniform doubles on [0, 1): the top 53 bits of each draw."""
        if size is None:
            return (self._next64() >> 11) * _TWO_M53
        return [(self._next64() >> 11) * _TWO_M53 for _ in range(size)]

    def standard_normal(self, size: int | None = None):
        if size is None:
            return self._gauss()
        return [self._gauss() for _ in range(size)]

    def normal(self, loc: float = 0.0, scale: float = 1.0,
               size: int | None = None):
        if size is None:
            return loc + scale * self._gauss()
        return [loc + scale * self._gauss() for _ in range(size)]

    def lognormal(self, mean: float = 0.0, sigma: float = 1.0,
                  size: int | None = None):
        if size is None:
            return exp(mean + sigma * self._gauss())
        return [exp(mean + sigma * self._gauss()) for _ in range(size)]


def _pairwise_sum(values: list[float], lo: int, n: int) -> float:
    """numpy's float64 pairwise sum of ``values[lo:lo + n]``: a plain
    loop below 8 elements, eight strided accumulators up to 128, and a
    split at a multiple of 8 above."""
    if n < 8:
        return reduce(add, values[lo:lo + n], 0.0)
    if n <= 128:
        stop = lo + n - n % 8
        r = [reduce(add, values[k:stop:8]) for k in range(lo, lo + 8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[stop:lo + n], total)
    half = n // 2
    half -= half % 8
    return (_pairwise_sum(values, lo, half)
            + _pairwise_sum(values, lo + half, n - half))


def _add_reduce(values: list[float]) -> float:
    """numpy's float64 ``add.reduce``: its identity plus the pairwise sum."""
    return 0.0 + _pairwise_sum(values, 0, len(values))


def sample_mean(values: list[float]) -> float:
    """numpy's ``mean()`` of a non-empty list of floats, bit for bit."""
    return _add_reduce(values) / len(values)


def sample_std(values: list[float]) -> float:
    """numpy's ``std(ddof=1)`` of a non-empty list of floats, bit for
    bit; 0.0 for one value."""
    n = len(values)
    if n < 2:
        return 0.0
    mean = sample_mean(values)
    return sqrt(_add_reduce([(v - mean) * (v - mean) for v in values]) / (n - 1))


class RandomStreams:
    """A factory of independent, reproducible :class:`Generator` streams."""

    def __init__(self, root_seed: int = 20230612) -> None:
        #: the date of the June 2023 Top500 announcement, as a default seed
        self.root_seed = int(root_seed)

    def seed_for(self, *path: str) -> int:
        return derive_seed(self.root_seed, *path)

    def get(self, *path: str) -> Generator:
        """Return a generator unique to ``path`` (stable across calls)."""
        return Generator(self.seed_for(*path))


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

    def sample(self, rng: Generator, value: float) -> float:
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
        self, rng: Generator, value: float, n: int
    ) -> list[float]:
        """The batch form of :meth:`sample`: ``n`` jittered values."""
        if n < 0:
            raise ValueError(f"negative sample count: {n}")
        if value < 0:
            raise ValueError(f"noise model requires non-negative values: {value}")
        if self.sigma <= 0:
            out = [float(value)] * n
        else:
            out = [
                value * x
                for x in rng.lognormal(mean=0.0, sigma=self.sigma, size=n)
            ]
        if self.floor > 0:
            out = [
                v + abs(d)
                for v, d in zip(out, rng.normal(0.0, self.floor, size=n))
            ]
        return out


#: Default noise classes used by the study harness.  CoVs are chosen to be of
#: the same order as the paper's reported standard deviations.
NOISE_BANDWIDTH = NoiseModel(sigma=0.002)
NOISE_CPU_BANDWIDTH = NoiseModel(sigma=0.012)
NOISE_LATENCY = NoiseModel(sigma=0.008)
NOISE_LAUNCH = NoiseModel(sigma=0.004)
