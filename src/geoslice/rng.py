"""Reproducible random number streams.

Every stochastic routine in this package takes a ``numpy.random.Generator``.
Parallel work (replicate chains, Monte-Carlo probes) derives one stream per
work item from a single master seed, so results do not depend on scheduling
or thread count.

Splitting rule: ``stream_seed(master, i) = splitmix64(master XOR i)``.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64(z: int) -> int:
    """One application of the splitmix64 finalizer (a 64-bit avalanche mixer)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def stream_seed(master_seed: int, stream_index: int) -> int:
    """Seed of the independent stream ``stream_index`` under ``master_seed``."""
    return splitmix64((int(master_seed) ^ int(stream_index)) & _MASK64)


def make_stream(master_seed: int, stream_index: int = 0) -> np.random.Generator:
    """PCG64 generator for one derived stream."""
    return np.random.Generator(np.random.PCG64(stream_seed(master_seed, stream_index)))


def open_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """Uniform draw from the open interval (lo, hi); endpoint hits are resampled."""
    u = lo + (hi - lo) * rng.random()  # rng.uniform(lo, hi) bit for bit, 3x cheaper
    if lo < u < hi:
        return u
    for _ in range(63):
        u = lo + (hi - lo) * rng.random()
        if lo < u < hi:
            return u
    raise RuntimeError("random stream returned 64 interval endpoints in a row")


def fresh_seed() -> int:
    """Non-deterministic 63-bit seed (used when the caller supplies none)."""
    return int(np.random.SeedSequence().entropy) & ((1 << 63) - 1)
