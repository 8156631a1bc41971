"""Reproducible random number streams.

Every stochastic routine in this package takes a ``numpy.random.Generator``.
Parallel work (replicate chains, Monte-Carlo probes) derives one stream per
work item from a single master seed, so results do not depend on scheduling
or thread count.

Splitting rule: ``stream_seed(master, i) = splitmix64(master XOR i)``.
``make_stream`` defines stream i; ``stream_states`` sets a block of them in
bulk, for ensembles that run many replicates through one reused generator.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# numpy's SeedSequence hash constants and PCG64's LCG multiplier; NEP 19 keeps
# the streams they define stable across numpy versions.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def splitmix64(z):
    """One application of the splitmix64 finalizer (a 64-bit avalanche mixer).

    Takes an int, or a uint64 array, where the arithmetic wraps by itself."""
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


def stream_states(master_seed: int, start: int, stop: int) -> list:
    """``make_stream(master_seed, i).bit_generator.state`` for i in [start, stop)."""
    idx = np.arange(start, stop, dtype=np.uint64)
    return pcg64_states(splitmix64(np.uint64(int(master_seed) & _MASK64) ^ idx))


def pcg64_states(seeds: np.ndarray) -> list:
    """``np.random.PCG64(s).state`` for each s of a uint64 array.

    PCG64(s) hashes the words of s through a 4-word ``SeedSequence`` pool, reads
    8 words of ``generate_state`` as a 128-bit seed and a 128-bit increment, and
    runs the LCG's ``srandom`` step.  The hash runs vectorised in wrapping uint32.
    """
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v = v ^ np.uint32(h)
        h = h * _MULT_A & 0xFFFFFFFF
        v = v * np.uint32(h)
        return v ^ (v >> 16)

    # the pool takes s's low and high words, then zeros; a seed below 2^32 has one
    # word, and the pool pads it with the same hash of 0 that its high word gives
    zero = np.zeros(len(seeds), np.uint32)
    pool = [hashmix(w) for w in ((seeds & 0xFFFFFFFF).astype(np.uint32),
                                 (seeds >> 32).astype(np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> 16)
    h, words = _INIT_B, []
    for k in range(8):
        v = pool[k % 4] ^ np.uint32(h)
        h = h * _MULT_B & 0xFFFFFFFF
        v = v * np.uint32(h)
        words.append((v ^ (v >> 16)).astype(np.uint64))
    # generate_state(4, uint64) pairs the words low-high: seed = (w0|w1, w2|w3), inc = (w4|w5, w6|w7)
    halves = [(words[2 * j] | words[2 * j + 1] << 32).tolist() for j in range(4)]
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*halves):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


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
