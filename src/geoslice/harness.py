"""Statistical verification of the sampler against its certificate.

* total-variation estimation by binning with the exact bin masses of the
  target presets (never two empirical histograms), with bootstrap standard
  errors and an explicit estimate of the positive null bias;
* endpoint-ensemble TV decay checked against the certified rho^n envelope;
* one-step invariance tests (energy-distance permutation test between
  evolved and fresh exact samples), including a deliberately broken
  shrinkage used as a mutation oracle;
* a replayable battery of distributional checks for the stepping-out and
  shrinkage procedures (covering bounds, reflection equivariance, the
  start-point interchange identity, the large-budget limit, and the
  shrinkage mass bound).

Every routine is deterministic given its seed; reports record the seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import bounds, kernel, slice1d, targets
from .manifolds import Euclidean, Point, Sphere, Torus
from .rng import make_stream, stream_seed
from .slice1d import StepOutParams
from .targets import Target, _orthonormal_frame

TWO_PI = 2.0 * math.pi

N_BOOTSTRAP = 200  # multinomial resamples behind a TV estimate's standard error
MIN_TV_POINTS = 1000  # fewest sample points a TV estimate accepts
ENERGY_BLOCK = 64  # rows of the energy test's distance triangle built at a time
ENERGY_SUBSAMPLE = 1500  # points per side the energy test reads by default


# ---------------------------------------------------------------------------
# binning with analytic masses
# ---------------------------------------------------------------------------

@dataclass
class Binning:
    """Partition of the support with exact target mass per bin.

    ``assign`` maps a coordinate matrix to bin indices; -1 is the overflow
    bin (zero target mass).  Bins of zero mass are excluded up front.
    """

    bin_count: int
    masses: np.ndarray
    assign: object
    embedding_dim: int


def _azimuth(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.mod(np.arctan2(y, x), TWO_PI)


def make_binning(target: Target, bins: Optional[int] = None) -> Binning:
    """Product grid of equal-step axes with analytic bin masses.

    Each axis is (a coordinate of the points, lo, hi, cell count).  Circle:
    the angle over [0, 2 pi) (default 64 cells).  Sphere S^2: the height
    along the target's symmetry axis over [-1, 1] times the azimuth about it,
    equal-area cells (default 16 x 32).  Euclidean (d <= 2): each coordinate
    over [-h, h], h from the target's ``grid_half``; torus: each coordinate
    over [0, P) (default 32 per axis).  An explicit ``bins`` gives every axis
    at least 2 cells.  Cells are numbered row-major; points off a Euclidean
    grid land in the overflow bin.  Masses are the target's ``bin_masses``
    (on S^2 of the height bands, split evenly over the sectors); a target
    without them is refused.
    """
    man = target.manifold
    circle, sphere2 = (isinstance(man, Sphere) and man.dim == d for d in (1, 2))
    bounded = isinstance(man, Euclidean)
    if target.bin_masses is None or (bounded and target.grid_half is None):
        raise ValueError(f"no analytic bin masses for target {target.spec_string!r} on {man.spec}")
    per_axis = 32 if bins is None else max(2, int(round(bins ** (1.0 / man.dim))))
    if circle:
        axes = [(lambda c: _azimuth(c[:, 0], c[:, 1]), 0.0, TWO_PI, 64 if bins is None else per_axis)]
    elif sphere2:
        n_bands = max(int(round(math.sqrt((bins or 512) / 2.0))), 2)
        pole = target.params.get("pole", target.params.get("mean", np.eye(3)[2]))
        frame = _orthonormal_frame(pole, 2)
        axes = [
            (lambda c: c @ pole, -1.0, 1.0, n_bands),
            (lambda c: _azimuth(c @ frame[0], c @ frame[1]), 0.0, TWO_PI, 2 * n_bands),
        ]
    elif bounded and man.dim <= 2:
        axes = [(lambda c, i=i: c[:, i], -h, h, per_axis) for i, h in enumerate(target.grid_half)]
    elif isinstance(man, Torus):
        axes = [(lambda c, i=i: c[:, i], 0.0, man.period, per_axis) for i in range(man.dim)]
    else:
        raise ValueError(f"no binning scheme for manifold {man.spec} (circle, S^2, flat d <= 2, torus)")

    def cell_of(coords: np.ndarray) -> np.ndarray:
        flat = np.zeros(len(coords), dtype=int)
        inside = np.ones(len(coords), dtype=bool)
        for coord, lo, hi, n in axes:
            cell = np.floor((coord(coords) - lo) / (hi - lo) * n).astype(int)
            inside &= (cell >= 0) & (cell < n)
            flat = flat * n + np.clip(cell, 0, n - 1)
        return np.where(inside, flat, -1) if bounded else flat

    edges = [np.linspace(lo, hi, n + 1) for _, lo, hi, n in axes]
    if sphere2:  # the presets state the height bands' masses, which the sectors share evenly
        masses = np.repeat(target.bin_masses(edges[:1]) / axes[1][3], axes[1][3])
    else:
        masses = target.bin_masses(edges)

    keep = masses > (1e-15 if bounded else 0.0)
    lookup = np.full(len(masses) + 1, -1)  # the last slot serves cell index -1
    lookup[:-1][keep] = np.arange(int(np.sum(keep)))
    kept = masses[keep]
    s = float(np.sum(kept))
    if abs(s - 1.0) > 1e-8:
        raise AssertionError(f"bin masses sum to {s}, not 1; mass computation wrong")
    return Binning(len(kept), kept / s, lambda coords: lookup[cell_of(coords)], man.embedding_dim)


# ---------------------------------------------------------------------------
# total-variation estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TvEstimate:
    """Half-L1 distance between empirical bin frequencies and analytic masses.

    ``bias`` is the analytic estimate of the estimator's positive null bias,
    of order sqrt(bins / samples); one-sided envelope checks should allow
    ``3 * se + bias``.
    """

    tv: float
    se: float
    bias: float
    n: int


def estimate_tv(
    coords: np.ndarray,
    binning: Binning,
    rng: Optional[np.random.Generator] = None,
) -> TvEstimate:
    """Estimate the TV distance of a sample (one coordinate row per point) to the target masses."""
    n = len(coords)
    if n < MIN_TV_POINTS:
        raise ValueError(f"need at least {MIN_TV_POINTS} points for a TV estimate, got {n}")
    if coords.shape[1] != binning.embedding_dim:
        raise ValueError(
            f"points have embedding dimension {coords.shape[1]}, "
            f"binning expects {binning.embedding_dim}"
        )
    if rng is None:
        rng = make_stream(0xB007, 0)
    idx = binning.assign(coords)
    counts = np.bincount(idx + 1, minlength=binning.bin_count + 1).astype(float)
    # row 0 is the sample, rows 1.. its bootstrap resamples; column 0 is the overflow bin.
    # In place, so one (N_BOOTSTRAP + 1) x bins array of frequencies is all that stays live.
    freq = np.empty((N_BOOTSTRAP + 1, len(counts)))
    freq[0], freq[1:] = counts, rng.multinomial(n, counts / n, size=N_BOOTSTRAP)
    freq /= freq.sum(axis=1, keepdims=True)
    dev = freq[:, 1:]
    np.abs(np.subtract(dev, binning.masses, out=dev), out=dev)
    tvs = 0.5 * (dev.sum(axis=1) + freq[:, 0])
    tv, se = float(tvs[0]), float(np.std(tvs[1:], ddof=1))
    return TvEstimate(tv=tv, se=se, bias=_null_bias(binning.masses, n), n=n)


def _null_bias(masses: np.ndarray, n: int) -> float:
    return 0.5 * float(np.sum(np.sqrt(2.0 * masses * (1.0 - masses) / (math.pi * n))))


# ---------------------------------------------------------------------------
# energy-distance two-sample test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyTestResult:
    statistic: float
    p_value: float
    p_permutation: float
    n_a: int
    n_b: int
    permutations: int


def energy_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample energy statistic 2 E|A-B| - E|A-A'| - E|B-B'|, one matrix live at a time."""
    from scipy.spatial.distance import cdist

    return 2.0 * float(cdist(a, b).mean()) - float(cdist(a, a).mean()) - float(cdist(b, b).mean())


def energy_permutation_test(
    a: np.ndarray,
    b: np.ndarray,
    rng: np.random.Generator,
    permutations: int = 500,
    subsample: int = ENERGY_SUBSAMPLE,
) -> EnergyTestResult:
    """Permutation test of distributional equality via the energy statistic.

    Samples are cut to ``subsample`` seeded points.  The p-value has
    resolution 1/(permutations+1); a normal tail fitted to the null refines
    it when no permutation reaches the observed statistic.

    ``statistic`` is ``energy_distance`` of the (sub)sampled data, read as
    -(1/na + 1/nb)^2 z^T A z for the indicator z of the first sample and the
    double-centred distances A (Szekely & Rizzo 2013).  Distances are whole
    multiples of q = diag n^2 / 2^53, diag the pooled bounding box's
    diagonal, so every sum of them is an integer below 2^53 and exact in any
    order: results are the same bits at any BLAS thread count.  Each distance
    is computed once, in ``ENERGY_BLOCK``-row blocks of the upper triangle;
    the (permutations + 1) x n float64 indicators Z and one block are live.
    The pooled points are first scaled by the power of two 2^-k that brings
    max|x| below 1 and the statistic back by 2^k.  That is exact, so on
    normal-range data nothing moves, and samples at any float scale are
    tested: no squared distance overflows near 1e160 or underflows near 1e-160.
    """
    from scipy.spatial.distance import cdist

    if permutations < 2 or subsample < 1:
        raise ValueError(f"energy test needs permutations >= 2 and subsample >= 1, "
                         f"got {permutations} and {subsample}")
    if len(a) == 0 or len(b) == 0 or np.shape(a)[1:] != np.shape(b)[1:]:
        raise ValueError(f"energy test needs two non-empty samples of one dimension, "
                         f"got shapes {np.shape(a)} and {np.shape(b)}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("energy test needs finite samples, got a NaN or infinite coordinate")
    if len(a) > subsample:
        a = a[rng.choice(len(a), subsample, replace=False)]
    if len(b) > subsample:
        b = b[rng.choice(len(b), subsample, replace=False)]
    na, nb = len(a), len(b)
    pool, n = np.vstack([a, b]), na + nb
    shift = int(np.frexp(np.abs(pool).max())[1])
    pool = np.ldexp(pool, -shift)
    # the grid step; 1 when every point coincides and every distance is 0
    q = float(np.hypot.reduce(np.ptp(pool, axis=0))) * n * n / 2.0**53 or 1.0
    z = np.zeros((permutations + 1, n))  # row 0 is the observed split
    z[0, :na] = 1.0
    for k in range(1, permutations + 1):
        z[k, rng.permutation(n)[:na]] = 1.0
    half = np.zeros(permutations + 1)  # z^T D z / 2, over the upper triangle
    rsum = np.zeros(n)
    for i in range(0, n, ENERGY_BLOCK):
        e = min(i + ENERGY_BLOCK, n)
        blk = cdist(pool[i:e], pool[i:])
        np.rint(np.divide(blk, q, out=blk), out=blk)
        blk[:, : e - i] = np.triu(blk[:, : e - i])
        rsum[i:e] += blk.sum(axis=1)
        rsum[i:] += blk.sum(axis=0)
        half += np.einsum("kb,bk->k", z[:, i:e], blk @ z[:, i:].T)
    zaz = 2.0 * half - 2.0 * na * (z @ rsum) / n + na * na * rsum.sum() / (n * n)
    stats = -((1.0 / na + 1.0 / nb) ** 2) * q * zaz
    obs, null = float(stats[0]), stats[1:]
    exceed = int(np.sum(null >= obs))
    p = p_perm = (1 + exceed) / (permutations + 1)
    if exceed == 0:
        mu, sd = float(np.mean(null)), float(np.std(null, ddof=1))
        if sd > 0:
            from scipy import special

            # normal upper tail; ndtr(-z) is what scipy.stats.norm.sf(z) computes
            p = min(p_perm, float(special.ndtr(-(obs - mu) / sd)))
    return EnergyTestResult(math.ldexp(obs, shift), p, p_perm, na, nb, permutations)


# ---------------------------------------------------------------------------
# uniform-ergodicity verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TvCurvePoint:
    n: int
    tv: float
    se: float
    envelope: float
    passed: bool  # tv <= envelope + 3 SE + bias; the curve adds whether rho is certified
    vacuous: bool  # envelope + bias >= 1: a TV estimate never exceeds 1, so this check cannot fail


@dataclass
class TvCurve:
    points: list
    bias: float
    report: bounds.BoundsReport
    replicates: int
    seed: int

    rho = property(lambda self: self.report.rho)
    certified = property(lambda self: self.report.certified)
    passed = property(lambda self: self.report.certified and all(p.passed for p in self.points))

    def csv_rows(self):
        for p in self.points:
            yield p.n, p.tv, p.se, p.envelope, p.passed


def verify_uniform_ergodicity(
    target: Target,
    config: kernel.GssConfig,
    x0: Point,
    n_list: Sequence[int],
    replicates: int,
    threads: int = 1,
    bins: Optional[int] = None,
    epsilon_mode: str = "auto",
) -> TvCurve:
    """Check the TV decay of endpoint ensembles against the rho^n envelope.

    For each n an independent ensemble of ``replicates`` chains is run from
    x0 and its TV distance to the target estimated; the check passes when
    every estimate stays below rho^n + 3 SE + bias.  Only a certified
    covering probability can produce a PASS; with a Monte-Carlo epsilon the
    whole curve is advisory and its ``passed`` is always False, while each
    point's ``passed`` still says whether its estimate is within the envelope.
    An inapplicable certificate or binning, fewer than MIN_TV_POINTS
    replicates, or a bias >= 1 (no check could fail) raises ApplicabilityError
    before any chain runs.
    """
    if not n_list or min(n_list) < 1:
        raise ValueError(f"n_list needs at least one step count, each >= 1, got {list(n_list)}")
    if replicates < MIN_TV_POINTS:
        raise slice1d.ApplicabilityError(
            f"a TV estimate needs at least {MIN_TV_POINTS} replicates, got {replicates}")
    try:
        rng = make_stream(config.seed, bounds.EPSILON_STREAM) if epsilon_mode == "monte-carlo" else None
        report = bounds.full_report(target, config.m, config.w, epsilon_mode, rng=rng)
        binning = make_binning(target, bins)
    except ValueError as e:
        raise slice1d.ApplicabilityError(str(e)) from e
    bias = _null_bias(binning.masses, replicates)
    if bias >= 1.0:  # a TV estimate never exceeds 1, so no check could fail
        raise slice1d.ApplicabilityError(f"TV bias {bias:.3g} >= 1 with {binning.bin_count} bins and "
                                         f"{replicates} replicates; lower --bins or raise --replicates")
    pts = []
    for n in n_list:
        ens = kernel.endpoint_ensemble(
            x0, n, replicates, config, seed=stream_seed(config.seed, 70_000 + n), threads=threads
        )
        est = estimate_tv(ens, binning, rng=make_stream(config.seed, 90_000 + n))
        env = report.rho**n
        pts.append(TvCurvePoint(n=int(n), tv=est.tv, se=est.se, envelope=env,
                                passed=est.tv <= env + 3.0 * est.se + est.bias,
                                vacuous=env + bias >= 1.0))
    return TvCurve(points=pts, bias=bias, report=report, replicates=replicates, seed=config.seed)


def worst_start(target: Target) -> Point:
    """Adversarial start candidate: near the support boundary or density minimum.

    The certificate's sup over starts cannot be probed exhaustively; each
    preset records its analytic worst candidate as ``target.worst_start``,
    which this reads.
    """
    if target.worst_start is None:
        raise ValueError(f"no worst-start candidate for target {target.spec_string!r}")
    return target.manifold.point(target.worst_start)


# ---------------------------------------------------------------------------
# invariance testing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvarianceReport:
    statistic: float
    p_value: float
    passed: bool
    samples: int
    seed: int
    broken_kernel: bool


def _accept_first(oracle, lo, hi, rng) -> slice1d.ShrinkageResult:
    """Sabotaged shrinkage (mutation oracle): its first draw, queried but accepted unchecked."""
    theta = slice1d.unwrap_angle(TWO_PI * rng.random(), lo, hi)
    oracle(theta)  # the transition reads its new state from the last query
    return slice1d.ShrinkageResult(theta, 1)


def invariance_test(
    target: Target,
    config: kernel.GssConfig,
    samples: int,
    seed: Optional[int] = None,
    broken: bool = False,
) -> InvarianceReport:
    """One-step invariance check: evolved exact samples vs fresh exact samples.

    Starts from exact target draws, applies one transition to each, and runs
    the energy permutation test against an independent batch of exact draws.
    PASS means p > 0.001.  With ``broken=True`` each transition is
    ``kernel._step_array`` with its shrinkage swapped for ``_accept_first``,
    which skips the acceptance check; a correct test must fail loudly on it.

    The energy test reads only a random ``ENERGY_SUBSAMPLE`` points of each
    side, so beyond that many the ``samples`` transitions and fresh draws are
    computed and never read; the CLI default is ``ENERGY_SUBSAMPLE``.
    """
    if samples < 1:
        raise ValueError(f"invariance test needs samples >= 1, got {samples}")
    base = config.seed if seed is None else seed
    start = targets.reference_samples(target, samples, make_stream(base, 1))
    rng = make_stream(base, 2)
    shrink = _accept_first if broken else None
    evolved = np.empty_like(start)
    for i in range(samples):
        evolved[i] = kernel._step_array(start[i], config, rng, shrink=shrink)[0]
    fresh = targets.reference_samples(target, samples, make_stream(base, 3))
    res = energy_permutation_test(evolved, fresh, make_stream(base, 4))
    return InvarianceReport(
        statistic=res.statistic,
        p_value=res.p_value,
        passed=res.p_value > 0.001,
        samples=samples,
        seed=base,
        broken_kernel=broken,
    )


# ---------------------------------------------------------------------------
# distributional battery for the 1-D procedures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatteryCheck:
    name: str
    config: str
    passed: bool
    observed: float
    reference: float
    criterion: str
    seed: int
    details: dict = field(default_factory=dict)


@dataclass
class BatteryReport:
    seed: int
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary_lines(self):
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            yield (
                f"{status} {c.name} [{c.config}] observed={c.observed:.6g} "
                f"ref={c.reference:.6g} ({c.criterion}; seed={c.seed})"
            )


def _random_interval_set(rng):
    """2-4 disjoint open intervals around 0, one of them covering it."""
    k = int(rng.integers(2, 5))
    edges = np.sort(rng.uniform(-3.0, 3.0, size=2 * k))
    ivs = [(float(edges[2 * i]), float(edges[2 * i + 1])) for i in range(k)]
    if not slice1d.set_contains(ivs, 0.0):
        # stretch the nearest interval over 0
        j = int(np.argmin([min(abs(a), abs(b)) for a, b in ivs]))
        a, b = ivs[j]
        ivs[j] = (min(a, -0.05), max(b, 0.05))
        ivs = sorted(ivs)
        merged = [ivs[0]]
        for a, b in ivs[1:]:
            la, lb = merged[-1]
            if a <= lb:
                merged[-1] = (la, max(lb, b))
            else:
                merged.append((a, b))
        ivs = merged
    return ivs


def _covering_bound_from_zero(ivs, m, w) -> float:
    """Closed-form covering bound for the stepping-out started at 0 in ivs."""
    pieces = [(max(a, 0.0), b) for a, b in ivs if b > 0.0]
    b_sup = max(hi for _, hi in pieces)
    gap = b_sup - sum(hi - lo for lo, hi in pieces)
    return slice1d.covering_bound(b_sup, gap, m, w)


def _draw_covering(rng):
    ivs = _random_interval_set(rng)
    m = [1, 2, 3, 5, math.inf][int(rng.integers(0, 5))]
    w = float(rng.uniform(0.5, 2.5))
    try:
        _covering_bound_from_zero(ivs, m, w)
    except slice1d.ApplicabilityError:
        return None
    return f" m={m} w={w:.3g}", (ivs, m, w, 50_000)


def _check_covering(cfg, rng, sub, quick):
    ivs, m, w, n = cfg
    n = min(n, 5_000) if quick else n
    bound = _covering_bound_from_zero(ivs, m, w)
    est, se = slice1d.estimate_covering_probability(ivs, 0.0, math.inf, StepOutParams(w, m), n, rng)
    return est >= bound - 3.0 * se, est, bound, {"se": se, "set": ivs, "m": m, "w": w, "n": n}


def _draw_shrinkage(rng):
    lo = float(rng.uniform(-1.5, -0.1))
    hi = float(rng.uniform(0.1, 1.5))
    ivs = _random_interval_set(rng)
    cand = [(max(a, lo), min(b, hi)) for a, b in ivs if min(b, hi) - max(a, lo) > 0.02] or [(lo, hi)]
    a0, b0 = cand[int(rng.integers(0, len(cand)))]
    mid = 0.5 * (a0 + b0)
    width = min((b0 - a0) * 0.8, float(rng.uniform(min(0.05, b0 - a0), b0 - a0)))
    return "", (ivs, (lo, hi), (mid - width / 2.0, mid + width / 2.0))


def _check_shrinkage(cfg, rng, sub, quick):
    ivs, (lo, hi), a_set = cfg
    n = 20_000 if quick else 100_000
    oracle = lambda t: slice1d.set_contains(ivs, t)
    hits = sum(a_set[0] < slice1d.reeled_shrinkage(oracle, lo, hi, rng).theta < a_set[1] for _ in range(n))
    p = hits / n
    se = math.sqrt(max(p * (1 - p), 1e-300) / n)
    mass = sum(max(0.0, min(b, a_set[1], hi) - max(a, a_set[0], lo)) for a, b in ivs)
    diam_s = max(b for _, b in ivs) - min(a for a, _ in ivs)
    bound = slice1d.shrinkage_mass_bound(mass, hi - lo, diam_s)
    return p >= bound - 3.0 * se, p, bound, {"se": se, "set": ivs, "interval": (lo, hi), "A": a_set, "n": n}


def _stepout_config(rng, ivs, alpha, *rest):
    """Finish a reflection or interchange config: draw the budget m and the width w."""
    m = [1, 2, 4, math.inf][int(rng.integers(0, 4))]
    w = float(rng.uniform(0.5, 2.0))
    return f" alpha={alpha:.3g} m={m} w={w:.3g}", (ivs, alpha, m, w, *rest)


def _draw_reflection(rng):
    ivs = _random_interval_set(rng)
    return _stepout_config(rng, ivs, float(rng.uniform(-1.0, 1.0)))


def _check_reflection(cfg, rng, sub, quick):
    ivs, alpha, m, w = cfg
    n = 20_000 if quick else 100_000
    params = StepOutParams(w, m)
    reflected = sorted((alpha - b, alpha - a) for a, b in ivs)
    sample_a = slice1d.sample_intervals(reflected, 0.0, params, n, rng)
    sample_b = slice1d.sample_intervals(ivs, alpha, params, n, rng)
    # reflect the second sample: (lo, hi) -> (alpha - hi, alpha - lo)
    sample_b = np.column_stack([alpha - sample_b[:, 1], alpha - sample_b[:, 0]])
    res = energy_permutation_test(sample_a, sample_b, make_stream(sub, 1))
    return res.p_value > 0.001, res.p_value, 0.001, {"stat": res.statistic, "n": n}


def _draw_interchange(rng):
    ivs = _random_interval_set(rng)
    inside = [iv for iv in ivs if iv[1] - iv[0] > 0.05]
    a0, b0 = inside[int(rng.integers(0, len(inside)))]
    return _stepout_config(rng, ivs, float(rng.uniform(a0, b0)), 100_000)


def _check_interchange(cfg, rng, sub, quick):
    ivs, alpha, m, w, n = cfg
    n = n // 5 if quick else n
    params = StepOutParams(w, m)
    s1 = slice1d.sample_intervals(ivs, 0.0, params, n, rng)
    s2 = slice1d.sample_intervals(ivs, alpha, params, n, rng)
    p1 = float(np.mean((s1[:, 0] < alpha) & (alpha < s1[:, 1])))
    p2 = float(np.mean((s2[:, 0] < 0.0) & (0.0 < s2[:, 1])))
    se = math.sqrt((p1 * (1 - p1) + p2 * (1 - p2)) / n + 1e-300)
    return abs(p1 - p2) <= 3.0 * se, p1 - p2, 0.0, {"p1": p1, "p2": p2, "se": se, "n": n}


def _limit_samples(cfg, rng, quick):
    """Stepping-out rows at m = inf, then at each finite budget, all from one stream."""
    ivs, w, budgets = cfg
    n = 1_000 if quick else 2_000
    ref = slice1d.sample_intervals(ivs, 0.0, StepOutParams(w, math.inf), n, rng)
    return ref, {m: slice1d.sample_intervals(ivs, 0.0, StepOutParams(w, m), n, rng) for m in budgets}


def _check_limit_monotone(cfg, rng, sub, quick):
    ref, rows = _limit_samples(cfg, rng, quick)
    dists = {m: energy_distance(sm, ref) for m, sm in rows.items()}
    d = list(dists.values())
    slack = max(abs(d[-1]), 1e-4)  # the distance at the largest budget is pure sampling noise
    return all(a >= b - slack for a, b in zip(d, d[1:])), d[-1], d[0], dists


def _check_limit_floor(cfg, rng, sub, quick):
    ref, rows = _limit_samples(cfg, rng, quick)
    res = energy_permutation_test(rows[max(rows)], ref, make_stream(sub, 1))
    return res.p_value > 0.001, res.p_value, 0.001, {"stat": res.statistic}


class _Family(NamedTuple):
    """A lemma check family: fixed configs, then five drawn ones, each sampled and held to a bound."""

    name: str
    criterion: str
    stream: int  # configs are drawn from make_stream(seed, stream)
    sub_base: int  # config i samples from the sub-seed stream_seed(seed, sub_base + i)
    fixed: tuple  # (label, config) pairs
    draw: Optional[Callable]  # draw(rng) -> (label tail, config) or None to draw again; None draws no configs
    check: Callable  # check(config, rng, sub_seed, quick) -> (passed, observed, reference, details)


_TWO_GAP = [(-1.0, 0.3), (0.5, 1.0)]
_LIMIT = ([(-0.7, 0.2), (0.4, 1.1)], 0.5, (10, 100, 1000))  # (set, w, finite budgets)
_FAMILIES = (
    _Family("stepout-covering", "estimate >= bound - 3*SE", 100, 200, (
        ("S=(-1,0.3)u(0.5,1) m=3 w=1", (_TWO_GAP, 3, 1.0, 200_000)),
        ("S=(-0.1,0.1) m=1 w=2", ([(-0.1, 0.1)], 1, 2.0, 200_000)),
        ("S=(-1,1) m=inf w=0.7", ([(-1.0, 1.0)], math.inf, 0.7, 20_000)),
    ), _draw_covering, _check_covering),
    _Family("shrinkage-mass", "P(A) >= mass bound - 3*SE", 300, 400, (
        ("S=(-0.1,0.1)u(0.7,0.9) itv=(-0.1,0.9) A=(0.7,0.9)",
         ([(-0.1, 0.1), (0.7, 0.9)], (-0.1, 0.9), (0.7, 0.9))),
    ), _draw_shrinkage, _check_shrinkage),
    _Family("stepout-reflection", "energy permutation p > 0.001", 500, 600, (
        ("fixed alpha=0.4 m=3 w=1", (_TWO_GAP, 0.4, 3, 1.0)),
    ), _draw_reflection, _check_reflection),
    _Family("stepout-interchange", "|P(theta covers alpha) - P(alpha covers theta)| <= 3*SE", 700, 800, (
        ("fixed alpha=0.7 m=3 w=1", (_TWO_GAP, 0.7, 3, 1.0, 1_000_000)),
    ), _draw_interchange, _check_interchange),
    # the interval law with a large finite budget approaches the unlimited law
    _Family("stepout-limit-monotone", "energy distance decreases along the budget sequence", 0, 900, (
        (f"S={_LIMIT[0]} w={_LIMIT[1]} m in (10,100,1000) vs inf", _LIMIT),
    ), None, _check_limit_monotone),
    _Family("stepout-limit-floor", "m=1000 indistinguishable from unlimited (p > 0.001)", 0, 900, (
        (f"S={_LIMIT[0]} w={_LIMIT[1]} m=1000 vs inf", _LIMIT),
    ), None, _check_limit_floor),
)


def _family_configs(family: _Family, seed: int) -> list:
    """The family's fixed (label, config) pairs, then five drawn from its config stream if it has a draw."""
    rng = make_stream(seed, family.stream)
    configs = list(family.fixed)
    while family.draw and len(configs) < len(family.fixed) + 5:
        drawn = family.draw(rng)
        if drawn is not None:
            configs.append((f"random#{len(configs) - len(family.fixed)}{drawn[0]}", drawn[1]))
    return configs


def lemma_suite(seed: int, quick: bool = False) -> BatteryReport:
    """Run the full distributional battery with replayable sub-seeds.

    ``quick`` shrinks the sample sizes (used by smoke tests); the acceptance
    configuration runs with the full sizes.
    """
    checks = []
    for fam in _FAMILIES:
        for i, (label, cfg) in enumerate(_family_configs(fam, seed)):
            sub = stream_seed(seed, fam.sub_base + i)
            passed, observed, reference, details = fam.check(cfg, make_stream(sub, 0), sub, quick)
            checks.append(BatteryCheck(fam.name, label, passed, observed, reference, fam.criterion, sub, details))
    return BatteryReport(seed=seed, checks=checks)
