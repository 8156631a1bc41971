"""Geodesic slice sampler: single transitions, chains, and endpoint ensembles.

One transition from x draws a level T uniformly below the density at x, a
uniform unit tangent direction v, runs the stepping-out procedure along the
geodesic through (x, v) on the superlevel oracle, then the reeled shrinkage
on the resulting interval, and moves to the accepted geodesic point.

Chains are reproducible: all randomness flows from a 64-bit seed, and
replicate chains use independent derived streams (seed XOR replicate index
through a 64-bit mixer), so ensembles are bit-identical for any thread count.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import IO, NamedTuple, Optional

import numpy as np

from . import slice1d
from .manifolds import Point
from .rng import make_stream, open_uniform
from .targets import Target


class ConfigError(ValueError):
    """Hyperparameters inconsistent with the target."""


@dataclass(frozen=True)
class GssConfig:
    """Sampler configuration: target, interval width w, expansion budget m, seed."""

    target: Target
    w: float
    m: float  # integer >= 1 or math.inf
    seed: int

    def __post_init__(self):
        params = slice1d.StepOutParams(self.w, self.m)  # validates w, m
        object.__setattr__(self, "_step_out_params", params)
        if math.isinf(self.m) and not math.isfinite(self.target.lambda_value):
            raise ConfigError(
                "m = inf requires every geodesic to meet the support in a bounded "
                f"parameter set, which fails for target {self.target.spec_string!r} "
                "(unbounded geodesic sections); choose a finite m"
            )

    @property
    def step_out_params(self) -> slice1d.StepOutParams:
        return self._step_out_params

    def describe(self) -> dict:
        return {
            "target": self.target.spec_string,
            "w": self.w,
            "m": "inf" if math.isinf(self.m) else int(self.m),
            "seed": self.seed,
            "max_expansions": slice1d.MAX_EXPANSIONS,
            "max_shrink_iters": slice1d.MAX_SHRINK_ITERS,
        }


class StepDiagnostics(NamedTuple):
    level: float
    interval_width: float
    shrink_iterations: int
    expansions: int
    density: float  # at the new state; pass it on as the next step's px


@dataclass
class ChainRecord:
    """Persisted trajectory with its configuration, seed, and diagnostics."""

    config: dict
    seed: int
    burn_in: int
    thin: int
    states: list = field(default_factory=list)       # list[Point]
    diagnostics: list = field(default_factory=list)  # list[StepDiagnostics]


def _slice(xa: np.ndarray, config: GssConfig, rng: np.random.Generator, px: Optional[float] = None):
    """Level below the density at xa, uniform unit direction, and the superlevel oracle.

    Returns (level, direction, oracle) where oracle(theta) tells whether the
    geodesic point at time theta along the direction lies above the level;
    ``oracle.last[0]`` is the (theta, point, density) of its latest query.
    """
    target, man = config.target, config.target.manifold
    if px is None:
        px = float(target.density(xa))
    if not px > 0.0:
        raise ValueError("current state has zero density")
    level = open_uniform(rng, 0.0, 1.0) * px
    va = man.sample_tangent_array(xa, rng)

    last = [None]  # a list, not an attribute set inside oracle: no reference cycle

    def oracle(theta: float) -> bool:
        ya = man.exp_array(xa, va, theta)
        py = float(target.density(ya))
        last[0] = (theta, ya, py)
        return py > level

    oracle.last = last
    return level, va, oracle


def _step_array(
    xa: np.ndarray, config: GssConfig, rng: np.random.Generator, px: Optional[float] = None
):
    """One transition on raw coordinates with density px at xa (None: evaluate it).

    Returns (new coords, diagnostics); ``diag.density`` is the next step's px.
    """
    level, va, oracle = _slice(xa, config, rng, px)
    try:
        itv = slice1d.stepping_out(oracle, config.step_out_params, rng)
        res = slice1d.reeled_shrinkage(oracle, itv.lo, itv.hi, rng)
    except (slice1d.ExpansionCapError, slice1d.ShrinkageCapError) as e:
        raise type(e)(
            f"{e} [state={np.array2string(xa, precision=6)}, "
            f"direction={np.array2string(va, precision=6)}, level={level}]"
        ) from e
    # shrinkage accepts right after querying the oracle, so this is the accepted point
    theta, ya, py = oracle.last[0]
    if theta != res.theta:
        ya = config.target.manifold.exp_array(xa, va, res.theta)
        py = float(config.target.density(ya))
    diag = StepDiagnostics(
        level, itv.width, res.iterations, itv.expansions_left + itv.expansions_right, py
    )
    return ya, diag


def run_chain(
    x0: Point,
    n: int,
    config: GssConfig,
    burn_in: int = 0,
    thin: int = 1,
    sink: Optional[IO[str]] = None,
    header_extra: Optional[dict] = None,
) -> ChainRecord:
    """Run a chain and record n states after burn-in, keeping every thin-th step.

    All randomness comes from stream 0 of the config seed, so identical seeds
    reproduce identical trajectories.  When ``sink`` is given, a JSON header
    line with the full configuration is written first and each retained state
    is streamed as one JSON line::

        {"i": <step index>, "x": [...], "t": <level>, "w_int": <interval width>,
         "k_shrink": <shrinkage iterations>}
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    if thin < 1:
        raise ValueError("thin must be >= 1")
    px = float(config.target.density(x0.coords))
    if not px > 0:
        raise ValueError("initial state has zero density")
    rng = make_stream(config.seed, 0)
    record = ChainRecord(config=config.describe(), seed=config.seed, burn_in=burn_in, thin=thin)
    if sink is not None:
        header = {"geoslice_chain": dict(record.config)}
        if header_extra:
            header.update(header_extra)
        sink.write(json.dumps(header) + "\n")
    xa = np.array(x0.coords, dtype=float)
    for i in range(1, burn_in + n * thin + 1):
        xa, diag = _step_array(xa, config, rng, px)
        px = diag.density
        if i <= burn_in or (i - burn_in) % thin:
            continue
        record.states.append(Point(xa))
        record.diagnostics.append(diag)
        if sink is not None:
            sink.write(_record_line(i, xa, diag))
    return record


def _record_line(i: int, xa: np.ndarray, diag: StepDiagnostics) -> str:
    """The JSONL record of state xa at step i: ``json.dumps`` of it plus a newline, byte for byte.

    ``json`` writes a finite float as ``float.__repr__``.  A NaN or an infinity (or, harmlessly,
    a sum of xs that overflows) takes ``json.dumps``, which spells NaN and Infinity.
    """
    xs, t, w, k = xa.tolist(), diag.level, diag.interval_width, diag.shrink_iterations
    if not (math.isfinite(t) and math.isfinite(w) and math.isfinite(sum(xs))):
        return json.dumps({"i": i, "x": xs, "t": t, "w_int": w, "k_shrink": k}) + "\n"
    return '{"i": %d, "x": [%s], "t": %s, "w_int": %s, "k_shrink": %d}\n' % (
        i, ", ".join(map(float.__repr__, xs)), float.__repr__(t), float.__repr__(w), k)


def endpoint_ensemble(
    x0: Point,
    n_steps: int,
    replicates: int,
    config: GssConfig,
    seed: Optional[int] = None,
    threads: int = 1,
) -> np.ndarray:
    """Final states of independent replicate chains started at x0.

    Returns a (replicates, embedding_dim) coordinate array.  Replicate i
    consumes the derived stream (base seed, i), so the result is a
    deterministic function of (x0, n_steps, replicates, seed) no matter how
    many worker threads are used.
    """
    base = config.seed if seed is None else seed
    x0a = np.array(x0.coords, dtype=float)
    p0 = float(config.target.density(x0a))

    def one(i: int) -> np.ndarray:
        rng = make_stream(base, i)
        xa, px = x0a, p0
        for _ in range(n_steps):
            xa, diag = _step_array(xa, config, rng, px)
            px = diag.density
        return xa

    if threads <= 1:
        finals = [one(i) for i in range(replicates)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            finals = list(pool.map(one, range(replicates)))
    return np.array(finals).reshape(replicates, len(x0a))
