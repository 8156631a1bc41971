"""Explicit uniform-ergodicity constants for the geodesic slice sampler.

The n-step total-variation distance to the target is bounded by rho^n with

    rho = 1 - epsilon / min(m w, lambda) * 1 / (kappa * omega_{d-1})
            * sup_t t * vol({p > t}) / sup p

where epsilon lower-bounds the stepping-out covering probability, lambda
bounds the geodesic section diameters of the support, kappa is the
Bishop-Gromov volume-comparison constant of the support, and omega_{d-1} is
the area of the unit sphere of the tangent spaces.  This module computes all
of these from target metadata, with an auditable provenance tag on every
input constant, and analyses the hyperparameter dependence of the bound.
The gap 1 - rho is carried as one sum of logs, ``log_gap``, in any dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import slice1d, targets
from .manifolds import log_unit_sphere_area
from .slice1d import ApplicabilityError
from .targets import Target

_TWO_PI = 2.0 * math.pi


def _check_geometry(zeta: float, diam: float, dim: int) -> None:
    """The premise of the comparison bounds: dim >= 1 and, for positive zeta, the diameter
    cap sqrt(zeta) * diam <= pi of Ricci >= (d-1) * zeta (to a relative 1e-12)."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if zeta > 0 and math.sqrt(zeta) * diam > math.pi * (1.0 + 1e-12):
        raise ApplicabilityError(
            f"sqrt(zeta) * diam = {math.sqrt(zeta) * diam} exceeds pi; no manifold realises these inputs"
        )


def log_volume_comparison_factor(ricci_lower: float, diam_w: float, dim: int) -> float:
    """Log of the Bishop-Gromov comparison constant of a support of the given diameter.

    With (d-1) * zeta a global Ricci lower bound, radial volume densities up
    to the cut time are dominated by the model-space profile, whose maximum
    over the support is returned in logs:

        zeta > 0:  zeta^((1-d)/2) * sin^(d-1)(min(sqrt(zeta) diam, pi/2))
        zeta = 0:  diam^(d-1)
        zeta < 0:  |zeta|^((1-d)/2) * sinh^(d-1)(sqrt(|zeta|) diam)

    Positive zeta caps the diameter at pi / sqrt(zeta); in dimension 1 the
    factor is identically 1.  log sinh x is x + log(1 - e^(-2x)) - log 2.
    """
    if not diam_w > 0:
        raise ValueError("support diameter must be positive")
    if dim == 1:
        return 0.0
    z = float(ricci_lower)
    _check_geometry(z, diam_w, dim)
    if z > 0:
        ang = min(math.sqrt(z) * diam_w, math.pi / 2.0)
        return (1 - dim) / 2.0 * math.log(z) + (dim - 1) * math.log(math.sin(ang))
    if z == 0:
        return (dim - 1) * math.log(diam_w)
    x = math.sqrt(-z) * diam_w
    return (1 - dim) / 2.0 * math.log(-z) + (dim - 1) * (x + math.log(-math.expm1(-2.0 * x)) - math.log(2.0))


def _lambda_eff(m: float, w: float, lam: float) -> float:
    """min(m w, lambda), which divides epsilon in rho; ApplicabilityError unless positive and finite."""
    lam_eff = min(m * w, lam)
    if not (lam_eff > 0 and math.isfinite(lam_eff)):
        raise ApplicabilityError(
            f"min(m w, lambda) must be positive and finite, got {lam_eff}; "
            "infinite m needs finite lambda"
        )
    return lam_eff


def log_gap(
    epsilon: float,
    m: float,
    w: float,
    lam: float,
    log_kappa: float,
    log_omega_dm1: float,
    log_sup_tl: float,
    p_max: float,
) -> float:
    """log(1 - rho) for the rho of the module docstring, as one sum of logs; its one check
    is -inf < log_gap <= 0, where rho = -expm1(log_gap) lies in [0, 1)."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    lam_eff = _lambda_eff(m, w, lam)
    gap = ((math.log(epsilon) - math.log(lam_eff)) - (log_kappa + log_omega_dm1)
           + (log_sup_tl - math.log(p_max)))
    if not -math.inf < gap <= 0.0:
        raise ValueError(f"log(1 - rho) = {gap!r} outside (-inf, 0]; inputs are inconsistent")
    return gap


def hit_and_run_rate(vol_c: float, diam_c: float, dim: int) -> float:
    """Contraction rate for the uniform distribution on a convex body.

    With unlimited expansions the sampler on flat space targeting a convex
    body C is the hit-and-run algorithm, and the rate reduces to

        rho = 1 - vol(C) / (omega_{d-1} diam(C)^d),

    the general rate under the convex substitution (epsilon = 1, m = inf,
    lambda = diam, kappa = diam^(d-1)); acceptance criterion 2 checks that
    identity on random bodies.  The gap is computed in logs, as in ``log_gap``.
    """
    if not (vol_c > 0 and diam_c > 0 and dim >= 1):
        raise ValueError("volume, diameter and dimension must be positive")
    gap = math.log(vol_c) - log_unit_sphere_area(dim) - dim * math.log(diam_c)
    if not -math.inf < gap <= 0.0:
        raise ValueError(f"log(1 - rho) = {gap!r} outside (-inf, 0]")
    return -math.expm1(gap)


def hyperparameter_gain(m: float, w: float, diam_w: float, max_gap: float, lam: float) -> float:
    """The hyperparameter-dependent factor q(m, w) = epsilon(m, w) / min(m w, lambda).

    rho decreases linearly in q, so maximising q gives the fastest certified
    convergence for fixed target geometry.
    """
    return slice1d.covering_bound(diam_w, max_gap, m, w) / _lambda_eff(m, w, lam)


@dataclass(frozen=True)
class OptimalHyperparameters:
    """argmax of q with the landscape regime.

    ``w`` is None when any width attains the optimum (reported as "any");
    ``attained`` is False when the optimum is only approached as w -> inf.
    Regimes: a: lambda = inf; b: 2 diam < lambda <= 4 diam;
    c: lambda > 4 diam; d: lambda <= 2 diam.
    """

    m: float
    w: Optional[float]
    q: float
    regime: str
    attained: bool
    note: str = ""

    @property
    def w_label(self) -> str:
        if self.w is None:
            return "any"
        if math.isinf(self.w):
            return "inf (limit)"
        return repr(self.w)


def optimal_hyperparameters(diam_w: float, max_gap: float, lam: float,
                            period: float = math.inf) -> OptimalHyperparameters:
    """Best certified hyperparameters (m*, w*, q*) for the given geometry.

    The landscape has two analytic candidates: the interior peak of q(1, .)
    at w = 2 diam(W) and, for finite lambda, the large-w plateau with value
    1/lambda (exactly attained at m = inf for any w when the gap vanishes).
    Full winding (m = 1, w = ``period``, the manifold's ``geodesic_period``)
    has epsilon = 1 and wins when its q = 1/min(period, lambda) is larger.
    """
    if not diam_w > 0:
        raise ValueError("support diameter must be positive")
    if max_gap < 0:
        raise ValueError("gap must be nonnegative")
    peak_q = 0.5 / min(2.0 * diam_w, lam)
    if math.isinf(lam):
        regime = "a"
    elif lam > 4.0 * diam_w:
        regime = "c"
    elif lam > 2.0 * diam_w:
        regime = "b"
    else:
        regime = "d"
    plateau_q = 1.0 / lam  # 0 when lambda is infinite, so the peak wins
    winding_q = 1.0 / min(period, lam)  # 0 when both are infinite
    if winding_q > max(peak_q, plateau_q):
        return OptimalHyperparameters(1, period, winding_q, regime, True, "full winding: epsilon = 1")
    if peak_q > plateau_q:
        note = "ties: every m, w with m*w = 2*diam(W)" if max_gap == 0.0 else ""
        return OptimalHyperparameters(1, 2.0 * diam_w, peak_q, regime, True, note)
    if peak_q == plateau_q:
        return OptimalHyperparameters(
            1, 2.0 * diam_w, peak_q, regime, True, "ties: large-w plateau reaches the same value"
        )
    if max_gap == 0.0:
        return OptimalHyperparameters(
            math.inf, None, plateau_q, regime, True, "m = inf attains 1/lambda for every w"
        )
    return OptimalHyperparameters(
        math.inf, math.inf, plateau_q, regime, False, "supremum 1/lambda approached as w -> inf"
    )


def isoembolic_lower_bound(inj: float, diam: float, zeta: float, dim: int) -> float:
    """Lower bound on vol(M) / (diam * kappa * omega_{d-1}) when the support is all of M.

    Combines the Berger isoembolic inequality vol(M) >= (inj/pi)^d * omega_d
    with omega_d / omega_{d-1} >= sqrt(2 pi / d):

        zeta > 0:  sqrt(2/pi)  / sqrt(d) * (inj sqrt(zeta) / pi)^d
        zeta = 0:  sqrt(2 pi) / sqrt(d) * (inj / (pi diam))^d
        zeta < 0:  sqrt(2 pi) / sqrt(d) * (inj sqrt(|zeta|) / (pi sinh(sqrt(|zeta|) diam)))^d

    (positive zeta uses the diameter cap sqrt(zeta) diam <= pi).
    """
    if not (0 < inj <= diam * (1.0 + 1e-12)):
        raise ApplicabilityError("need 0 < injectivity radius <= diameter")
    z = float(zeta)
    _check_geometry(z, diam, dim)
    if z > 0:
        return math.sqrt(2.0 / math.pi) / math.sqrt(dim) * (inj * math.sqrt(z) / math.pi) ** dim
    if z == 0:
        return math.sqrt(_TWO_PI) / math.sqrt(dim) * (inj / (math.pi * diam)) ** dim
    a = math.sqrt(-z)
    return math.sqrt(_TWO_PI) / math.sqrt(dim) * (inj * a / (math.pi * math.sinh(a * diam))) ** dim


# ---------------------------------------------------------------------------
# Monte-Carlo covering probability
# ---------------------------------------------------------------------------

def estimate_epsilon(
    target: Target,
    m: float,
    w: float,
    n_probes: int,
    runs_per_probe: int,
    rng: np.random.Generator,
):
    """Statistical lower envelope of the covering probability over random probes.

    Each probe scans a random geodesic section at ``targets.SCAN_GRID`` steps
    (``targets.scan_section``), draws a level, locates the supremum of the superlevel
    section within the scan, and counts the covering draws with ``slice1d.covering_share``
    (on a sphere, a window at least 2 pi wide covers).  Returns (min over probes of the
    per-probe estimate, standard error at the argmin).  An infimum over an uncountable
    family cannot be certified this way: treat the result as optimistic.
    """
    man = target.manifold
    params = slice1d.StepOutParams(w, m)
    period = man.geodesic_period
    best = (math.inf, 0.0)
    for _ in range(n_probes):
        xa, va, thetas, dens = targets.scan_section(target, rng, targets.SCAN_GRID)
        level = rng.random() * float(target.density(xa))
        hits = np.nonzero(dens > level)[0]
        if len(hits) == 0:
            continue
        oracle = lambda s: float(target.density(man.exp_array(xa, va, s))) > level
        share = slice1d.covering_share(oracle, float(thetas[hits[-1]]), params, runs_per_probe, rng, period)
        best = min(best, share, key=lambda ps: ps[0])
    if not math.isfinite(best[0]):
        raise RuntimeError("all probes produced empty sections; target metadata wrong?")
    return best


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

EPSILON_MODES = ("auto", "analytic", "corollary", "monte-carlo")
EPSILON_STREAM = 41  # stream index of a Monte-Carlo epsilon in both `bounds` and `verify`


def _fmt(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    return repr(v)


@dataclass(frozen=True)
class BoundsReport:
    """The certificate: one (name, value, source) row per input constant, then q, log(1 - rho) and rho."""

    target_spec: str
    dim: int
    m: float
    w: float
    inputs: tuple  # (name, value, source) rows in print order
    epsilon_se: Optional[float]
    log_gap: float  # log(1 - rho)
    certified: bool  # epsilon is proved and the level-set function is analytic

    def row(self, name: str) -> tuple:
        """(value, source) of one input constant."""
        return next((v, s) for n, v, s in self.inputs if n == name)

    epsilon = property(lambda self: self.row("epsilon")[0])
    log_sup_t_level = property(lambda self: self.row("log_sup_t_level")[0])
    q = property(lambda self: self.epsilon / self.row("lambda_eff")[0])  # the only covering probability held
    rho = property(lambda self: -math.expm1(self.log_gap))

    def lines(self) -> list:
        """Flat key-value rendering, one constant per line with provenance."""
        se = [] if self.epsilon_se is None else [f"epsilon_se = {_fmt(self.epsilon_se)} [monte-carlo]"]
        cert = "certified" if self.certified else "advisory (not certified)"
        return [
            f"target = {self.target_spec}",
            f"dim = {self.dim}",
            f"m = {'inf' if math.isinf(self.m) else int(self.m)}",
            f"w = {_fmt(self.w)}",
            *(f"{name} = {_fmt(value)} [{source}]" for name, value, source in self.inputs),
            *se,
            f"q = {_fmt(self.q)} [epsilon / lambda_eff]",
            f"log_gap = {_fmt(self.log_gap)} [log(1 - rho)]",
            f"rho = {_fmt(self.rho)} [{cert}]",
        ]

    def to_dict(self) -> dict:
        d = {"target": self.target_spec, "dim": self.dim,
             "m": "inf" if math.isinf(self.m) else int(self.m), "w": self.w}
        d.update((name.lower(), value) for name, value, _ in self.inputs)
        d.update(
            {"lambda": None if math.isinf(d["lambda"]) else d["lambda"],
             "log_sup_t_level_provenance": self.row("log_sup_t_level")[1],
             "epsilon_provenance": self.row("epsilon")[1],
             "epsilon_se": self.epsilon_se, "q": self.q, "log_gap": self.log_gap, "rho": self.rho,
             "certified": self.certified}
        )
        return d


def _epsilon(target: Target, m: float, w: float, mode: str, rng: Optional[np.random.Generator],
             probes: int, runs: int):
    """The covering probability of one epsilon mode: (epsilon, SE or None, provenance, proved).

    The corollary is the covering bound with the support diameter as the section
    length and the worst section gap as the gap mass; the gap term vanishes at m = 1,
    so only m >= 2 needs the target's max_gap."""
    if mode in ("auto", "analytic"):
        if w >= target.manifold.geodesic_period:
            # Stepping-out only widens its first window (-U, -U + w), which wraps a
            # closed geodesic at w >= its length: the section is swallowed at any m.
            return 1.0, None, "analytic: full-winding interval on the sphere", True
        if math.isinf(m) and target.max_gap == 0.0 and math.isfinite(target.lambda_value):
            # The corollary formula at gap 0 and m = inf, which is exactly 1; kept
            # here so that analytic mode accepts it.
            return 1.0, None, "analytic: gap-free bounded sections, m = inf", True
        if mode == "analytic":
            raise ApplicabilityError(
                "no analytic covering probability for this configuration; "
                "use corollary or monte-carlo mode"
            )
    if mode == "monte-carlo":
        if rng is None:
            raise ValueError("monte-carlo epsilon mode needs an rng")
        _lambda_eff(m, w, target.lambda_value)  # else stepping-out may expand to its cap
        eps, se = estimate_epsilon(target, m, w, probes, runs, rng)
        if eps <= 0.0:
            raise ValueError("estimated covering probability is zero; bound vacuous")
        return eps, se, "monte-carlo infimum over probes (statistical, optimistic)", False
    if target.max_gap is None and m >= 2:
        raise ApplicabilityError("corollary epsilon needs the section-gap constant; supply the target's "
                                 "max_gap, use m = 1, or use monte-carlo mode")
    return slice1d.covering_bound(target.diam_w, target.max_gap or 0.0, m, w), None, "corollary formula", True


def full_report(
    target: Target,
    m: float,
    w: float,
    epsilon_mode: str = "auto",
    rng: Optional[np.random.Generator] = None,
    mc_probes: int = 64,
    mc_runs: int = 2000,
) -> BoundsReport:
    """Assemble every constant of the certificate for one configuration.

    ``epsilon_mode``: "analytic" uses the exact epsilon = 1 special cases;
    "corollary" derives epsilon from (diam W, gap, m, w); "monte-carlo"
    estimates the covering probability empirically (never proved);
    "auto" picks analytic when applicable, else corollary.  The report is
    certified exactly when epsilon is proved and the level-set function is
    analytic: a Monte-Carlo level set makes sup t * vol({p > t}) an estimate.
    """
    if epsilon_mode not in EPSILON_MODES:
        raise ValueError(f"epsilon_mode must be one of {EPSILON_MODES}")
    slice1d.StepOutParams(w, m)  # the budgets the sampler accepts, and only those
    zeta, dim = target.manifold.ricci_lower, target.manifold.dim
    log_kappa = log_volume_comparison_factor(zeta, target.diam_w, dim)
    log_omega = log_unit_sphere_area(dim)
    log_sup_tl = targets.log_sup_t_level(target)
    eps, eps_se, eps_source, proved = _epsilon(target, m, w, epsilon_mode, rng, mc_probes, mc_runs)
    gap = log_gap(eps, m, w, target.lambda_value, log_kappa, log_omega, log_sup_tl, target.p_max)
    delta = target.max_gap
    level = target.level_set_analytic
    inputs = (
        ("diam_W", target.diam_w, "target metadata"),
        ("delta", delta, "not supplied" if delta is None else "target metadata"),
        ("lambda", target.lambda_value, "target metadata"),
        ("lambda_eff", _lambda_eff(m, w, target.lambda_value), "min(m*w, lambda)"),
        ("zeta", zeta, "manifold metadata"),
        ("log_kappa", log_kappa, "volume comparison"),
        ("log_omega_dm1", log_omega, "unit sphere area"),
        ("p_max", target.p_max, "target metadata"),
        ("log_sup_t_level", log_sup_tl, "level-set optimiser" if level else "monte-carlo level set"),
        ("epsilon", eps, eps_source),
    )
    return BoundsReport(target.spec_string, dim, m, w, inputs, eps_se, gap,
                        certified=proved and level)
