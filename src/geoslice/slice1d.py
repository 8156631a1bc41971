"""One-dimensional slice machinery run along a geodesic.

Two randomised procedures operate on a level set S of the geodesic parameter
line, queried only through a membership oracle, with the current point pinned
at parameter 0 (callers shift their sets accordingly):

* :func:`stepping_out` grows a random interval around 0 in steps of width w,
  with the total number of expansions capped by m (m may be infinite when S
  is bounded).
* :func:`reeled_shrinkage` draws a point of S inside a given interval by
  wrapping the interval onto a circle and shrinking a circular arc around
  the image of the current point after each rejected draw.

:func:`covering_share` is the one Monte-Carlo counter of the covering event;
:func:`estimate_covering_probability` and ``bounds.estimate_epsilon`` call it.

Both consume a ``numpy.random.Generator``; endpoint draws of the underlying
uniforms are resampled so that probability-zero boundary cases cannot occur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Tuple

import numpy as np

from .rng import open_uniform

TWO_PI = 2.0 * math.pi
# safety caps: expansions per side of a stepping-out with m = inf, draws per shrinkage
MAX_EXPANSIONS = 1_000_000
MAX_SHRINK_ITERS = 100_000

Oracle = Callable[[float], bool]
"""Membership test of the current superlevel set; must hold at 0.0."""


class ExpansionCapError(RuntimeError):
    """Interval expansion hit the safety cap with m unbounded.

    This signals an unbounded level set along the geodesic: infinite m is
    only admissible when every geodesic meets the support in a bounded set.
    """


class ShrinkageCapError(RuntimeError):
    """Shrinkage failed to land in the level set within the iteration cap."""


@dataclass(frozen=True)
class StepOutParams:
    """Finite interval width w > 0 and expansion budget m (integer >= 1 or math.inf)."""

    w: float
    m: float

    def __post_init__(self):
        if not 0 < self.w < math.inf:
            raise ValueError(f"w must be positive and finite, got {self.w}")
        if math.isinf(self.m):
            return
        if self.m < 1 or int(self.m) != self.m:
            raise ValueError(f"m must be a positive integer or inf, got {self.m}")


class Interval(NamedTuple):
    """Stepping-out output (lo, hi) with the per-side expansion counts."""

    lo: float
    hi: float
    expansions_left: int
    expansions_right: int

    @property
    def width(self) -> float:
        return self.hi - self.lo


def stepping_out(oracle: Oracle, params: StepOutParams, rng: np.random.Generator) -> Interval:
    """Randomised interval around 0 whose endpoints left S or hit the budget.

    Draw an offset U uniform on (0, w).  Candidate endpoints are
    lo_i = -U - (i-1) w going left and hi_i = -U + i w going right.  Each side
    expands while its current endpoint still lies in S.  For finite m a split
    J uniform on {1..m} caps the left side at J expansions and the right side
    at m + 1 - J, so the total interval width never exceeds m * w.  With
    m = inf a side that reaches MAX_EXPANSIONS raises ExpansionCapError.
    """
    w, m = params.w, params.m
    unbounded = math.isinf(m)
    ups = open_uniform(rng, 0.0, w)
    if unbounded:
        left_limit = right_limit = MAX_EXPANSIONS + 1
    else:
        # integers(1, 2) consumes no state, so m = 1 skips the call
        j = 1 if m == 1 else int(rng.integers(1, int(m) + 1))
        left_limit, right_limit = j, int(m) + 1 - j
    # a side stops at its budget without asking the oracle about that endpoint
    tau = 1
    while tau < left_limit and oracle(-ups - (tau - 1) * w):
        tau += 1
    tee = 1
    while tee < right_limit and oracle(-ups + tee * w):
        tee += 1
    if unbounded and max(tau, tee) > MAX_EXPANSIONS:
        raise ExpansionCapError(
            f"interval expansion exceeded {MAX_EXPANSIONS} steps with unbounded budget; "
            "the level set along this geodesic appears unbounded"
        )
    lo, hi = -ups - (tau - 1) * w, -ups + tee * w
    if __debug__:
        width = hi - lo
        assert lo < 0.0 < hi
        assert abs(width - (tau + tee - 1) * w) < 1e-9 * max(1.0, width)
        assert unbounded or width <= m * w * (1.0 + 1e-12)
    return Interval(lo, hi, tau - 1, tee - 1)


def covering_bound(b: float, delta: float, m: float, w: float) -> float:
    """Guaranteed probability that the stepping-out interval from 0 swallows S up to b.

    For a level set S with sup S cap [0, C) = b and gap mass delta = Leb([0, b) \\ S),
    the interval contains [0, C) cap S with probability at least

        1 - b/(m w) * [m finite] - delta / w * [m >= 2],

    so delta matters only at m >= 2.  Raises ApplicabilityError when the arguments
    violate the bound's premise b/m * [m finite] < w - delta * [m >= 2].
    """
    if not b > 0.0:
        raise ApplicabilityError(f"need b > 0, got b={b}")
    if delta < 0:
        raise ApplicabilityError(f"gap mass must be nonnegative, got {delta}")
    m_fin = not math.isinf(m)
    lhs = b / m if m_fin else 0.0
    rhs = w - (delta if m >= 2 else 0.0)
    if not lhs < rhs:
        raise ApplicabilityError(
            f"covering bound inapplicable: b/m = {lhs} must be < w - delta*[m>=2] = {rhs}"
        )
    val = 1.0
    if m_fin:
        val -= b / (m * w)
    if m >= 2:
        val -= delta / w
    return val


class ApplicabilityError(ValueError):
    """A closed-form bound was requested outside its premises."""


# ---------------------------------------------------------------------------
# interval-set utilities (test surface for the stepping-out law)
# ---------------------------------------------------------------------------

IntervalSet = Sequence[Tuple[float, float]]
"""Finite union of open intervals, given as (a, b) pairs with a < b."""


def _normalize_set(set_spec: IntervalSet):
    ivs = sorted((float(a), float(b)) for a, b in set_spec)
    for a, b in ivs:
        if not a < b:
            raise ValueError(f"degenerate interval ({a}, {b}) in set spec")
    return ivs


def set_contains(set_spec: IntervalSet, x: float) -> bool:
    for a, b in set_spec:
        if a < x < b:
            return True
    return False


def covering_share(
    oracle: Oracle, top: float, params: StepOutParams, n: int, rng: np.random.Generator, period: float
) -> Tuple[float, float]:
    """Share of n stepping-outs from 0 that cover a section, with its binomial SE.

    A draw covers when its interval reaches ``top``, the section's sup, or when its
    window wraps a closed geodesic of length ``period``; the width is read from the
    expansion counts, not from hi - lo, so rounding cannot drop a wrapping draw.
    """
    covered = 0
    for _ in range(n):
        itv = stepping_out(oracle, params, rng)
        if itv.hi >= top or (itv.expansions_left + itv.expansions_right + 1) * params.w >= period:
            covered += 1
    p = covered / n
    return p, math.sqrt(max(p * (1.0 - p), 1e-300) / n)


def estimate_covering_probability(
    set_spec: IntervalSet,
    theta: float,
    C: float,
    params: StepOutParams,
    n: int,
    rng: np.random.Generator,
) -> Tuple[float, float]:
    """Monte-Carlo probability that the interval from theta covers S cap [theta, C).

    Runs ``n`` independent stepping-out draws on the set shifted so the start
    sits at 0, and counts the draws whose interval contains every component of
    S cap [theta, C).  Returns (estimate, binomial standard error).
    """
    ivs = _normalize_set(set_spec)
    if not set_contains(ivs, theta):
        raise ValueError(f"start {theta} must lie inside the set")
    top = max((min(b, C) for a, b in ivs if max(a, theta) < min(b, C)), default=None)
    if top is None:
        raise ValueError("S cap [theta, C) is empty")
    if not math.isfinite(top):
        raise ValueError("sup of S cap [theta, C) must be finite")
    if math.isinf(params.m) and not math.isfinite(max(b for _, b in ivs)):
        raise ValueError("m = inf needs a bounded set")
    # an interval starts at or below theta, so it covers S cap [theta, C) iff it reaches top
    return covering_share(lambda s: set_contains(ivs, theta + s), top - theta, params, n, rng, math.inf)


def sample_intervals(
    set_spec: IntervalSet, theta: float, params: StepOutParams, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n stepping-out draws started at theta, as rows (lo, hi) in absolute coords."""
    pairs = _normalize_set(set_spec)
    oracle = lambda s: set_contains(pairs, theta + s)
    out = np.empty((n, 2))
    for i in range(n):
        itv = stepping_out(oracle, params, rng)
        out[i, 0] = theta + itv.lo
        out[i, 1] = theta + itv.hi
    return out


# ---------------------------------------------------------------------------
# wrapped-interval shrinkage
# ---------------------------------------------------------------------------

def unwrap_angle(alpha: float, lo: float, hi: float) -> float:
    """Unique theta in [lo, hi) at angle alpha when [lo, hi) is wrapped once round the circle."""
    if not hi > lo:
        raise ValueError(f"degenerate interval ({lo}, {hi})")
    if not 0.0 <= alpha < TWO_PI:
        raise ValueError(f"angle {alpha} outside [0, 2 pi)")
    return _unwrap(alpha, lo, hi, hi - lo)


def _unwrap(alpha: float, lo: float, hi: float, span: float) -> float:
    out = lo + (span * alpha / TWO_PI - lo) % span
    return lo if out >= hi else out


def _arc_contains(a: float, b: float, x: float) -> bool:
    """Membership of the circular arc running counterclockwise from a to b.

    The arc includes a and excludes b; coinciding endpoints mean the full
    circle.
    """
    if a < b:
        return a <= x < b
    if a > b:
        return x >= a or x < b
    return True


def _draw_arc(rng: np.random.Generator, a: float, b: float) -> float:
    length = TWO_PI if a == b else (b - a) % TWO_PI
    u = open_uniform(rng, 0.0, length)
    g = (a + u) % TWO_PI
    return 0.0 if g >= TWO_PI else g


class ShrinkageResult(NamedTuple):
    theta: float
    iterations: int


def reeled_shrinkage(
    oracle: Oracle,
    lo: float,
    hi: float,
    rng: np.random.Generator,
) -> ShrinkageResult:
    """Draw a level-set point from (lo, hi) by shrinking a wrapped arc.

    The interval is wrapped onto [0, 2 pi); the current point (parameter 0,
    which must lie in (lo, hi) with oracle(0) true) has image angle 0.  The
    first candidate is uniform on the circle and simultaneously anchors the
    arc bounds.  Each candidate is unwrapped and accepted when it lies in the
    open interval and satisfies the oracle; otherwise the arc is cut at the
    rejected angle, keeping the side that contains angle 0, and the
    next candidate is drawn uniformly from the remaining arc.

    Returns the accepted parameter together with the number of candidate
    draws used.
    """
    if not (lo < 0.0 < hi):
        raise ValueError(f"current point 0 must lie inside ({lo}, {hi})")
    gamma = TWO_PI * rng.random()  # rng.uniform(0.0, TWO_PI), bit for bit
    arc_min = arc_max = gamma
    span = hi - lo
    for it in range(1, MAX_SHRINK_ITERS + 1):
        cand = _unwrap(gamma, lo, hi, span)
        if lo < cand < hi and oracle(cand):
            return ShrinkageResult(cand, it)
        if _arc_contains(gamma, arc_max, 0.0):
            arc_min = gamma
        else:
            arc_max = gamma
        gamma = _draw_arc(rng, arc_min, arc_max)
    raise ShrinkageCapError(
        f"no accepted point in {MAX_SHRINK_ITERS} shrinkage iterations; "
        "the level set inside the interval has negligible measure"
    )


def shrinkage_mass_bound(a_mass: float, width: float, diam_s: float) -> float:
    """Guaranteed mass the shrinkage draw puts on a subset of measure a_mass.

    The shrinkage output dominates Lebesgue measure on S cap (lo, hi) scaled
    by 1 / min(interval width, diam S).
    """
    if a_mass < 0:
        raise ValueError("subset mass must be nonnegative")
    if not width > 0 or not diam_s > 0:
        raise ValueError("width and diameter must be positive")
    return a_mass / min(width, diam_s)
