"""Unnormalised target densities with level-set structure and exact samplers.

A :class:`Target` bundles a density p >= 0 on one of the built-in manifolds
with the metadata the bound calculator needs: the sup norm of p, the diameter
of the support W = {p > 0}, the worst gap inside geodesic sections of the
superlevel sets (``max_gap``), the longest chord of the support along a
geodesic (``lambda_value``, inf when unbounded), and the level-set function
in logs, s -> log volume({p > e^s}), whose value at s = -inf is the only record
of the support's volume.  No dimension or radius over- or underflows a log.

Superlevel sets are strict throughout ({p > t}, not {p >= t}), matching the
lower semi-continuity convention of the densities.

Presets (all with exact metadata and exact reference samplers):

* ``uniform``        - constant density on a finite-volume manifold
* ``cap``            - uniform on an open spherical cap of given colatitude
* ``vmf``            - von Mises-Fisher density exp(kappa <x, mu>) on a sphere
* ``convex-uniform`` - uniform on an open ball or box in Euclidean space
* ``ball-gauss``     - isotropic Gaussian truncated to an open ball

Spec aliases: ``uniform-manifold``, ``spherical-cap-uniform``,
``von-mises-fisher``, ``ball-truncated-gaussian`` (see :func:`from_spec`).

Presets also carry the harness's facts, which rescaled copies keep:
``worst_start`` (an adversarial start), ``bin_masses`` (exact masses of the
harness's bin grid) and, on Euclidean space, ``grid_half`` (its half-extent).

Connectedness of the support is assumed, not checked; custom densities must
come with correct metadata.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Callable, Optional

import numpy as np

from . import manifolds
from .manifolds import Manifold, Sphere, Euclidean, Torus, _finite_positive


# ---------------------------------------------------------------------------
# geometry helpers
# ---------------------------------------------------------------------------

def _cap_share(d: int, s: float) -> float:
    """Share of S^d inside a cap of squared half-chord s = sin^2(psi / 2): I_s(d/2, d/2),
    since sin^2(theta / 2) of a uniform point's angle theta to the pole is Beta(d/2, d/2).

    On S^2 that law is uniform (Archimedes' hat-box theorem: the height of a uniform
    point is uniform on [-1, 1]), so I_s(1, 1) = s, the same bits as scipy's."""
    if d == 2:
        return s
    from scipy import special

    return float(special.betainc(d / 2.0, d / 2.0, s))


def _cap_share_inv(d: int, u):
    """The s with ``_cap_share(d, s) = u``, elementwise on an array: the inverse of
    I_s(d/2, d/2).  On S^2 it is the identity (the hat-box theorem again), the same bits
    as scipy's betaincinv(1, 1, u)."""
    if d == 2:
        return u
    from scipy import special

    return special.betaincinv(d / 2.0, d / 2.0, u)


def log_ball_volume(d: int, log_radius: float) -> float:
    """Log volume of the d-ball of radius e^log_radius."""
    return manifolds.log_unit_sphere_area(d) - math.log(d) + d * log_radius


def _log(v: float) -> float:  # -inf at 0
    return math.log(v) if v > 0.0 else -math.inf


def _normal(name: str, v: float) -> float:
    """``v``, which a density or sampler reads: a ValueError naming ``name`` unless it is a positive normal float."""
    if not sys.float_info.min <= v <= sys.float_info.max:
        raise ValueError(f"{name} = {v!r} is not a positive normal float")
    return v


def _one_hot(dim: int, i: int) -> np.ndarray:
    """The i-th standard basis vector of R^dim."""
    return np.eye(1, dim, i)[0]


def _orthonormal_frame(pole: np.ndarray, k: int) -> np.ndarray:
    """The first k vectors of a deterministic orthonormal basis of the hyperplane
    orthogonal to pole (Gram-Schmidt over the standard basis, k <= dim - 1)."""
    dim = pole.shape[0]
    vecs = []
    for i in range(dim):
        e = _one_hot(dim, i)
        e = e - (e @ pole) * pole
        for v in vecs:
            e = e - (e @ v) * v
        n = np.linalg.norm(e)
        if n > 1e-9:
            vecs.append(e / n)
        if len(vecs) == k:
            break
    return np.array(vecs)


def _unit_axis(manifold: Sphere, vec) -> np.ndarray:
    """``vec`` normalised, checked against the sphere's embedding (default: last axis).
    It is first scaled by the power of two that brings its largest component into
    [0.5, 1), which is exact, so the norm neither overflows nor underflows."""
    if vec is None:
        return _one_hot(manifold.embedding_dim, manifold.embedding_dim - 1)
    a = np.asarray(vec, dtype=float)
    if a.shape != (manifold.embedding_dim,) or not (np.isfinite(a).all() and a.any()):
        raise ValueError(f"axis {a.tolist()} is not a finite nonzero vector of length "
                         f"{manifold.embedding_dim} for {manifold.spec}")
    a = np.ldexp(a, -int(np.frexp(np.abs(a).max())[1]))
    return a / np.linalg.norm(a)


def _unit_orthogonal(pole: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform unit vectors orthogonal to pole.  A second projection removes what the
    first leaves along a pole off the axes (up to 1e-14 after normalising; an axis pole's
    component is exactly 0 after the first)."""
    g = rng.standard_normal((n, pole.shape[0]))
    g -= np.outer(g @ pole, pole)
    g -= np.outer(g @ pole, pole)
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _radial_points(k: int, dim: int, radius, rng: np.random.Generator) -> np.ndarray:
    """k draws of a Gaussian direction times ``radius(U)``, U uniform on [0, 1) per draw."""
    g = rng.standard_normal((k, dim))
    return g * (radius(rng.random(k)) / np.linalg.norm(g, axis=1))[:, None]


def _ball_points(k: int, dim: int, r: float, rng: np.random.Generator) -> np.ndarray:
    """k uniform draws from the ball of radius r: a Gaussian direction times r U^(1/dim)."""
    return _radial_points(k, dim, lambda u: r * u ** (1.0 / dim), rng)


def _accepted(n: int, batch, shape: tuple = ()) -> np.ndarray:
    """n draws, each of shape ``shape``, from a rejection sampler whose ``batch(k)``
    proposes for k more draws and returns the accepted ones (n = 0 calls it never)."""
    out = np.empty((n, *shape))
    filled = 0
    while filled < n:
        good = batch(n - filled)[: n - filled]
        out[filled : filled + len(good)] = good
        filled += len(good)
    return out


# ---------------------------------------------------------------------------
# exact bin masses
# ---------------------------------------------------------------------------

def _equal_masses(edges) -> np.ndarray:
    """Masses of a grid whose cells all have the same volume."""
    n = int(np.prod([len(e) - 1 for e in edges]))
    return np.full(n, 1.0 / n)


def _normalised(raw: np.ndarray) -> np.ndarray:
    return raw / float(np.sum(raw))


def _disk_cell_masses(r: float, edges, strip) -> np.ndarray:
    """Unnormalised mass in each cell of a 2-D grid (row-major) inside the open disk.

    ``strip(x, lo, hi)`` is the mass of the vertical segments {x} x (lo, hi),
    elementwise over arrays, and 0 where lo == hi.  Each cell is cut in x at
    its edges, where its edges meet the circle and at +-r, so the clipped
    segment has one closed form on each piece.  Each piece inside the disk is
    integrated in phi, x = r sin(phi), which keeps the integrand smooth up to
    x = +-r, by one 24-node Gauss-Legendre rule; all pieces and nodes are
    evaluated at once.  The uniform disk's masses agree with the exact
    antiderivative to about 1e-16.
    """
    ex, ey = (np.asarray(e, dtype=float) for e in edges)
    x0, x1 = np.repeat(ex[:-1], len(ey) - 1), np.repeat(ex[1:], len(ey) - 1)
    y0, y1 = np.tile(ey[:-1], len(ex) - 1), np.tile(ey[1:], len(ex) - 1)
    # where the cell's rows meet the circle; a cut outside (x0, x1) becomes x0, an empty piece
    xc = np.sqrt(np.clip(r * r - np.stack([y0, y1]) ** 2, 0.0, None))
    inner = np.column_stack([xc[0], -xc[0], xc[1], -xc[1]])
    inner = np.where((inner > x0[:, None]) & (inner < x1[:, None]), inner, x0[:, None])
    cuts = np.sort(np.column_stack([x0, inner, x1]), axis=1)
    # clipping at +-r cuts there too: the part of a piece outside the disk has zero length
    phi = np.arcsin(np.clip(cuts / r, -1.0, 1.0))
    a, b = phi[:, :-1].ravel(), phi[:, 1:].ravel()
    live = b > a
    cell = np.repeat(np.arange(len(x0)), cuts.shape[1] - 1)[live]

    def integrand(p):
        x, h = r * np.sin(p), r * np.cos(p)
        lo = np.maximum(y0[cell, None], -h)
        hi = np.maximum(np.minimum(y1[cell, None], h), lo)
        return strip(x, lo, hi) * h  # dx = h dphi

    return np.bincount(cell, _gauss_legendre(a[live], b[live], integrand), len(x0))


def _gauss_legendre(a: np.ndarray, b: np.ndarray, integrand) -> np.ndarray:
    """Integral over each [a_i, b_i] by a 24-node Gauss-Legendre rule; ``integrand`` maps nodes to values."""
    half = 0.5 * (b - a)
    nodes, weights = np.polynomial.legendre.leggauss(24)
    p = (0.5 * (a + b))[:, None] + half[:, None] * nodes
    return (integrand(p) * weights).sum(axis=1) * half


# ---------------------------------------------------------------------------
# level-set functions
# ---------------------------------------------------------------------------

def _monte_carlo_level_fn(
    manifold: Manifold, density_batch, n_samples: int
) -> Callable[[float], float]:
    """s -> log volume({p > e^s}) from one uniform sample, drawn from stream (0, 0) and
    shared by all s, which keeps it monotone in s; it compares log densities with s."""
    log_total = manifold.info.log_total_measure
    if not math.isfinite(log_total):
        raise ValueError(
            "Monte-Carlo level-set evaluation needs a finite-volume manifold; "
            "supply an analytic level-set function instead"
        )
    from .rng import make_stream

    with np.errstate(divide="ignore"):  # density 0 has log -inf
        logs = np.log(density_batch(manifold.uniform_points(n_samples, make_stream(0, 0))))
    return lambda s: log_total + _log(float(np.mean(logs > s)))


# ---------------------------------------------------------------------------
# the target bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """Unnormalised density with the metadata used by bounds and harness."""

    manifold: Manifold
    spec_string: str
    density: Callable[[np.ndarray], float]
    density_batch: Callable[[np.ndarray], np.ndarray]
    p_max: float
    diam_w: float
    max_gap: Optional[float]          # sup gap inside geodesic superlevel sections
    lambda_value: float               # inf when geodesic chords of W are unbounded
    log_level_set: Callable[[float], float]  # s -> log volume({p > e^s}); -inf where empty
    sampler: Optional[Callable[[int, np.random.Generator], np.ndarray]]
    level_set_analytic: bool = True      # False: a Monte-Carlo estimate
    params: dict = field(default_factory=dict)
    # Harness facts (see the module docstring).  bin_masses maps one edge
    # array per grid axis (S^1: angles, S^2: heights on the symmetry axis,
    # flat: coordinates) to normalised masses.
    worst_start: Optional[np.ndarray] = None
    bin_masses: Optional[Callable[[list], np.ndarray]] = None
    grid_half: Optional[np.ndarray] = None

    def rescaled(self, c: float) -> "Target":
        """Same distribution with density multiplied by c > 0."""
        if not c > 0:
            raise ValueError("scale factor must be positive")
        base_d, base_b, base_level, log_c = self.density, self.density_batch, self.log_level_set, math.log(c)
        return replace(
            self,
            density=lambda x: c * base_d(x),
            density_batch=lambda x: c * base_b(x),
            p_max=c * self.p_max,
            log_level_set=lambda s: base_level(s - log_c),
        )


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def uniform_target(manifold: Manifold) -> Target:
    """Constant density 1 on a finite-volume manifold."""
    log_total = manifold.info.log_total_measure
    if not math.isfinite(log_total):
        raise ValueError(f"uniform target needs finite volume; {manifold.spec} has infinite measure")
    dim = manifold.embedding_dim

    def density(x):
        return 1.0

    def density_batch(x):
        return np.ones(x.shape[0])

    return Target(
        manifold=manifold,
        spec_string=f"uniform:{manifold.spec}",
        density=density,
        density_batch=density_batch,
        p_max=1.0,
        diam_w=manifold.info.diameter,
        max_gap=0.0,
        lambda_value=math.inf,  # geodesics on compact manifolds wrap through W forever
        log_level_set=lambda s: log_total if s < 0.0 else -math.inf,
        sampler=lambda n, rng: manifold.uniform_points(n, rng),
        worst_start=np.zeros(manifold.dim) if isinstance(manifold, Torus) else _one_hot(dim, 0),
        bin_masses=_equal_masses,
    )


def cap_target(manifold: Sphere, colatitude: float, pole=None) -> Target:
    """Uniform density on the open cap {|x - pole| < 2 sin(colatitude / 2)} of S^d."""
    if not isinstance(manifold, Sphere):
        raise ValueError("cap target is defined on spheres")
    # below 1e-9, coordinates near a generic pole cannot place the worst start inside the cap
    if not 1e-9 <= colatitude <= math.pi:
        raise ValueError(f"cap colatitude must lie in [1e-9, pi], got {colatitude}")
    d = manifold.dim
    pole_arr = _unit_axis(manifold, pole)
    pole_list = pole_arr.tolist()
    # density, sampler, area and bands all read the chord: cos(colatitude) cannot resolve a small cap's rim
    chord = 2.0 * math.sin(colatitude / 2.0)
    s = (chord / 2.0) ** 2  # the squared half-chord
    # where the sampler cuts the Beta(d/2, d/2) law of sin^2(theta / 2); at 0 every draw is the pole
    s_max = _normal(f"cap share I_s(d/2, d/2) at psi={colatitude!r} on S^{d}", _cap_share(d, s))
    log_area = manifold.info.log_total_measure + math.log(s_max)

    def density(x):
        return 1.0 if math.dist(x.tolist(), pole_list) < chord else 0.0

    def density_batch(x):
        return (np.linalg.norm(x - pole_arr, axis=1) < chord).astype(float)

    def sampler(n, rng):
        def batch(k):
            s_draw = _cap_share_inv(d, rng.random(k) * s_max)
            cos_t, sin_t = 1.0 - 2.0 * s_draw, 2.0 * np.sqrt(s_draw * (1.0 - s_draw))
            x = cos_t[:, None] * pole_arr + sin_t[:, None] * _unit_orthogonal(pole_arr, k, rng)
            return x[density_batch(x) > 0]  # a draw can round onto the rim

        return _accepted(n, batch, (d + 1,))

    def band_masses(edges):  # each band's overlap with the cap in depth 1 - h below the pole
        depth = np.clip(1.0 - edges[0], 0.0, 2.0 * s)
        return (depth[:-1] - depth[1:]) / (2.0 * s)

    def arc_masses(edges):  # each angle bin's overlap with the arc about c and its copies a turn either side
        lo, hi, c = edges[0][:-1], edges[0][1:], math.atan2(pole_arr[1], pole_arr[0])
        return sum(np.clip(np.minimum(hi, c + turn + colatitude) - np.maximum(lo, c + turn - colatitude), 0.0, None)
                   for turn in (-2.0 * math.pi, 0.0, 2.0 * math.pi)) / (2.0 * colatitude)

    start_psi = colatitude * (1.0 - 1e-6)
    perp = _orthonormal_frame(pole_arr, 1)[0]
    # Hemispheres and smaller intersect great circles in single arcs inside the
    # cut window -> no gaps.  Larger caps admit a gap of length 2(pi - psi)
    # from sections tangent to the boundary circle.
    gap = 0.0 if colatitude <= math.pi / 2.0 else 2.0 * (math.pi - colatitude)
    spec = f"cap:{manifold.spec}:psi={colatitude!r}"
    if pole is not None:
        spec += ":pole=" + ",".join(repr(float(c)) for c in pole_arr)
    return Target(
        manifold=manifold,
        spec_string=spec,
        density=density,
        density_batch=density_batch,
        p_max=1.0,
        diam_w=min(2.0 * colatitude, math.pi),
        max_gap=gap,
        lambda_value=math.inf,
        log_level_set=lambda level: log_area if level < 0.0 else -math.inf,
        sampler=sampler,
        params={"colatitude": colatitude, "pole": pole_arr},
        worst_start=math.cos(start_psi) * pole_arr + math.sin(start_psi) * perp,
        bin_masses={1: arc_masses, 2: band_masses}.get(d),
    )


def vmf_target(manifold: Sphere, concentration: float, mean=None) -> Target:
    """von Mises-Fisher density exp(concentration * <x, mean>) on S^d."""
    if not isinstance(manifold, Sphere):
        raise ValueError("vMF target is defined on spheres")
    if not concentration > 0:
        raise ValueError("concentration must be positive")
    kap_max = math.log(sys.float_info.max)  # exp of a larger concentration overflows a float
    if concentration > kap_max:
        raise ValueError(f"concentration must be at most {kap_max}, got {concentration}")
    d = manifold.dim
    mu = _unit_axis(manifold, mean)
    kap = float(concentration)
    log_total = manifold.info.log_total_measure

    def density(x):
        return math.exp(kap * float(x.dot(mu)))

    def density_batch(x):
        return np.exp(kap * (x @ mu))

    def log_level_set(s: float) -> float:  # {p > e^s} is the cap {x . mu > s / kap}, empty at c = 1
        return log_total + _log(_cap_share(d, (1.0 - min(max(s / kap, -1.0), 1.0)) / 2.0))

    def sampler(n, rng):
        if d == 2:
            u = rng.random(n)
            w = 1.0 + np.log(u + (1.0 - u) * math.exp(-2.0 * kap)) / kap
        else:
            w = _vmf_cosines(d + 1, kap, n, rng)
        sin_t = np.sqrt(np.clip(1.0 - w**2, 0.0, None))
        perp = _unit_orthogonal(mu, n, rng)
        return w[:, None] * mu + sin_t[:, None] * perp

    def band_masses(edges):  # e^(kap h) = e^kap e^(-kap depth) in depth 1 - h below the mean
        e = np.expm1(-kap * (1.0 - edges[0]))
        return (e[1:] - e[:-1]) / -math.expm1(-2.0 * kap)

    def arc_masses(edges):
        # e^(kap (cos(phi - c) - 1)) on k equal pieces per bin, none wider than 1 / sqrt(kap) (whole: 7e-9 off)
        lo, hi, c = edges[0][:-1], edges[0][1:], math.atan2(mu[1], mu[0])
        k = max(1, math.ceil(float(np.max(hi - lo)) * math.sqrt(kap)))
        cuts = lo[:, None] + (hi - lo)[:, None] * (np.arange(k + 1) / k)
        piece = _gauss_legendre(cuts[:, :-1].ravel(), cuts[:, 1:].ravel(),
                                lambda p: np.exp(kap * (np.cos(p - c) - 1.0)))
        return _normalised(piece.reshape(len(lo), k).sum(axis=1))

    mu_str = ",".join(repr(float(c)) for c in mu)
    return Target(
        manifold=manifold,
        spec_string=f"vmf:{manifold.spec}:kappa={kap!r}:mu={mu_str}",
        density=density,
        density_batch=density_batch,
        p_max=math.exp(kap),
        diam_w=math.pi,
        # Superlevel caps larger than a hemisphere leave gaps approaching pi.
        max_gap=math.pi,
        lambda_value=math.inf,
        log_level_set=log_level_set,
        sampler=sampler,
        params={"concentration": kap, "mean": mu},
        worst_start=-mu,
        bin_masses={1: arc_masses, 2: band_masses}.get(d),
    )


def _vmf_cosines(embed_dim: int, kap: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Cosine component of vMF draws on S^(embed_dim-1), rejection scheme."""
    m = embed_dim - 1
    b = m / (math.sqrt(4.0 * kap**2 + m**2) + 2.0 * kap)
    x0 = (1.0 - b) / (1.0 + b)
    c = kap * x0 + m * math.log(1.0 - x0**2)

    def batch(k):
        z = rng.beta(m / 2.0, m / 2.0, size=k)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        return w[kap * w + m * np.log(1.0 - x0 * w) - c >= np.log(rng.random(k))]

    return _accepted(n, batch)


def ball_target(dim: int, radius: float) -> Target:
    """Uniform density on the open Euclidean ball of the given radius."""
    r = _finite_positive("radius", radius)
    r2 = _normal(f"r^2 at r={r!r}", r * r)  # 0 would make the density 0 everywhere
    man = Euclidean(dim)
    log_vol = log_ball_volume(dim, math.log(r))

    def density(x):
        return 1.0 if float(x.dot(x)) < r2 else 0.0

    def density_batch(x):
        return (np.einsum("ij,ij->i", x, x) < r2).astype(float)

    def sampler(n, rng):
        def batch(k):
            # a draw can round onto the sphere: keep what the density accepts
            x = _ball_points(k, dim, r, rng)
            return x[density_batch(x) > 0]

        return _accepted(n, batch, (dim,))

    def cell_masses(edges):
        if dim == 1:
            return _normalised(np.diff(edges[0]))
        return _normalised(_disk_cell_masses(r, edges, lambda x, lo, hi: hi - lo))

    return Target(
        manifold=man,
        spec_string=f"convex-uniform:ball:{dim}:r={r!r}",
        density=density,
        density_batch=density_batch,
        p_max=1.0,
        diam_w=2.0 * r,
        max_gap=0.0,
        lambda_value=2.0 * r,
        log_level_set=lambda s: log_vol if s < 0.0 else -math.inf,
        sampler=sampler,
        params={"radius": r},
        worst_start=_one_hot(dim, 0) * (r * (1.0 - 1e-6)),
        bin_masses=cell_masses,
        grid_half=np.full(dim, r),
    )


def box_target(extents) -> Target:
    """Uniform density on an open axis-aligned box centred at the origin."""
    ext = np.array([_finite_positive("box extent", e) for e in extents])
    dim = ext.shape[0]
    man = Euclidean(dim)
    half = ext / 2.0
    ext_str = ",".join(repr(float(e)) for e in ext)
    _normal(f"least half-extent at extents={ext_str}", float(np.min(half)))  # 0: the density is 0 everywhere
    log_vol = float(np.sum(np.log(ext)))
    diam = _finite_positive(f"box diameter at extents={ext_str}", math.hypot(*ext))

    def density(x):
        return 1.0 if bool(np.all(np.abs(x) < half)) else 0.0

    def density_batch(x):
        return np.all(np.abs(x) < half, axis=1).astype(float)

    def sampler(n, rng):
        return rng.uniform(-half, half, size=(n, dim))

    return Target(
        manifold=man,
        spec_string=f"convex-uniform:box:{dim}:extents={ext_str}",
        density=density,
        density_batch=density_batch,
        p_max=1.0,
        diam_w=diam,
        max_gap=0.0,
        lambda_value=diam,
        log_level_set=lambda s: log_vol if s < 0.0 else -math.inf,
        sampler=sampler,
        params={"extents": ext},
        worst_start=half * (1.0 - 1e-6),
        bin_masses=lambda edges: _normalised(reduce(np.multiply.outer, map(np.diff, edges)).ravel()),
        grid_half=half,
    )


def ball_gaussian_target(dim: int, sigma: float, radius: float) -> Target:
    """exp(-|x|^2 / (2 sigma^2)) truncated to the open ball of given radius."""
    sigma, r = _finite_positive("sigma", sigma), _finite_positive("radius", radius)
    s2 = _finite_positive(f"sigma^2 at sigma={sigma!r}", sigma * sigma)
    r2 = _normal(f"r^2 at r={r!r}", r * r)
    from scipy import special

    man = Euclidean(dim)

    def density(x):
        q = float(x.dot(x))
        return math.exp(-q / (2.0 * s2)) if q < r2 else 0.0

    def density_batch(x):
        q = np.einsum("ij,ij->i", x, x)
        return np.where(q < r2, np.exp(-q / (2.0 * s2)), 0.0)

    def log_level_set(s: float) -> float:  # {p > e^s} is the ball of radius sqrt(-2 s2 s), cut at r
        return log_ball_volume(dim, min(math.log(r), 0.5 * (math.log(2.0 * s2) + _log(-s))))

    # P(|N(0, s2 I)| < r), the chi-square cdf: scipy.stats.chi2.cdf calls chdtr
    top = float(special.chdtr(dim, r2 / s2))
    if r2 / s2 >= 8.5:  # inverse-cdf draws need P; thinning keeps >= e^-4.25 of its draws only below 8.5
        _normal(f"P(|N(0, sigma^2 I)| < r) at d={dim}, r^2/sigma^2={r2 / s2!r}", top)

    def sampler(n, rng):
        def batch(k):
            if top < sys.float_info.min:  # only where r^2 / s2 < 8.5
                x = _ball_points(4 * k + 8, dim, r, rng)
                return x[rng.random(len(x)) < density_batch(x)]
            # inverse cdf: |x|^2 / (2 s2) is Gamma(dim / 2) cut where its cdf reaches top
            x = _radial_points(k, dim, lambda u: np.sqrt(2.0 * s2 * special.gammaincinv(dim / 2.0, u * top)), rng)
            return x[density_batch(x) > 0]  # a draw can round onto the sphere

        return _accepted(n, batch, (dim,))

    c = math.sqrt(2.0 * s2)
    g = math.sqrt(math.pi * s2 / 2.0)

    def cell_masses(edges):
        if dim == 1:
            vals = special.erf(edges[0] / c)
            return _normalised(vals[1:] - vals[:-1])

        def strip(x, lo, hi):
            return np.exp(-x * x / (2.0 * s2)) * g * (special.erf(hi / c) - special.erf(lo / c))

        return _normalised(_disk_cell_masses(r, edges, strip))

    return Target(
        manifold=man,
        spec_string=f"ball-gauss:{dim}:sigma={sigma!r}:r={r!r}",
        density=density,
        density_batch=density_batch,
        p_max=1.0,
        diam_w=2.0 * r,
        max_gap=0.0,  # superlevel sets are balls, so geodesic sections are intervals
        lambda_value=2.0 * r,
        log_level_set=log_level_set,
        sampler=sampler,
        params={"sigma": sigma, "radius": r},
        worst_start=_one_hot(dim, 0) * (r * (1.0 - 1e-6)),
        bin_masses=cell_masses,
        grid_half=np.full(dim, r),
    )


def custom_target(
    manifold: Manifold,
    density: Callable[[np.ndarray], float],
    p_max: float,
    diam_w: float,
    *,
    name: str = "custom",
    density_batch=None,
    max_gap: Optional[float] = None,
    lambda_value: float = math.inf,
    sampler=None,
    level_set: Optional[Callable[[float], float]] = None,
    level_samples: int = 200_000,
) -> Target:
    """Wrap a user density; metadata not supplied is estimated or left open.

    ``level_set`` is an exact t -> volume({p > t}) for t >= 0, held in log form.
    Without one, the level-set measure falls back to Monte-Carlo integration over
    the manifold (finite volume required), and only then is it flagged as not analytic.
    """
    if density_batch is None:
        density_batch = lambda x: np.array([density(row) for row in x])
    analytic = level_set is not None
    log_level_set = ((lambda s: _log(level_set(math.exp(s)))) if analytic
                     else _monte_carlo_level_fn(manifold, density_batch, level_samples))
    return Target(
        manifold=manifold,
        spec_string=f"custom:{name}",
        density=density,
        density_batch=density_batch,
        p_max=float(p_max),
        diam_w=float(diam_w),
        max_gap=max_gap,
        lambda_value=float(lambda_value),
        log_level_set=log_level_set,
        sampler=sampler,
        level_set_analytic=analytic,
    )


# ---------------------------------------------------------------------------
# preset dispatch and parsing
# ---------------------------------------------------------------------------

def _floats(text: Optional[str], n: Optional[int] = None) -> Optional[np.ndarray]:
    out = None if text is None else np.array([float(c) for c in text.split(",")])
    if n is not None and len(out) != n:
        raise ValueError(f"{text!r} gives {len(out)} values for dimension {n}")
    return out


# name -> (positional fields after the name or None for all; allowed keys; builder)
_PRESETS = {
    "uniform": (None, (), lambda pos, kv: uniform_target(manifolds.from_spec(":".join(pos)))),
    "cap": (2, ("psi", "pole"), lambda pos, kv: cap_target(
        manifolds.from_spec(":".join(pos)), float(kv["psi"]), _floats(kv.get("pole")))),
    "vmf": (2, ("kappa", "mu"), lambda pos, kv: vmf_target(
        manifolds.from_spec(":".join(pos)), float(kv["kappa"]), _floats(kv.get("mu")))),
    "convex-uniform:ball": (1, ("r",), lambda pos, kv: ball_target(int(pos[0]), float(kv["r"]))),
    "convex-uniform:box": (1, ("extents",), lambda pos, kv: box_target(
        _floats(kv["extents"], int(pos[0])))),
    "ball-gauss": (1, ("sigma", "r"), lambda pos, kv: ball_gaussian_target(
        int(pos[0]), float(kv["sigma"]), float(kv["r"]))),
}
_PRESETS.update({
    "uniform-manifold": _PRESETS["uniform"],
    "spherical-cap-uniform": _PRESETS["cap"],
    "von-mises-fisher": _PRESETS["vmf"],
    "ball-truncated-gaussian": _PRESETS["ball-gauss"],
})


def from_spec(spec: str) -> Target:
    """Build a target from a specification string.

    Formats (aliases as in the module docstring; unknown fields raise)::

        uniform:<manifold-spec>                e.g. uniform:sphere:2
        cap:sphere:<d>:psi=<colatitude>[:pole=c0,c1,...]
        vmf:sphere:<d>:kappa=<conc>[:mu=c0,c1,...]
        convex-uniform:ball:<d>:r=<radius>
        convex-uniform:box:<d>:extents=a,b,...
        ball-gauss:<d>:sigma=<s>:r=<radius>
    """
    parts = spec.strip().split(":")
    name = parts[0].lower()
    if name not in _PRESETS:
        name = ":".join(parts[:2]).lower()
    if name not in _PRESETS:
        raise ValueError(
            f"unknown target preset {parts[0]!r} in {spec!r}; known: {', '.join(sorted(_PRESETS))}"
        )
    n_pos, keys, build = _PRESETS[name]
    rest = parts[name.count(":") + 1 :]
    n_pos = len(rest) if n_pos is None else n_pos
    bad = [tok for tok in rest[n_pos:] if "=" not in tok]
    if bad:
        raise ValueError(f"expected key=value, got {bad[0]!r}")
    kv = {}
    for key, value in (tok.split("=", 1) for tok in rest[n_pos:]):
        if key in kv:
            raise ValueError(f"field {key!r} given twice in {spec!r}")
        kv[key] = value
    unknown = sorted(set(kv) - set(keys))
    if unknown:
        raise ValueError(f"unknown field(s) {unknown} for target preset {name!r} in {spec!r}")
    try:
        return build(rest[:n_pos], kv)
    except (KeyError, IndexError) as e:
        raise ValueError(f"bad target spec {spec!r}: missing field {e}") from None


# ---------------------------------------------------------------------------
# level-set operations
# ---------------------------------------------------------------------------

def log_sup_t_level(target: Target) -> float:
    """log sup over t of t * volume({p > t}): the max of f(s) = s + LV(s), LV = ``log_level_set``.

    f(s) <= s + LV(-inf), so the maximiser lies in [F - LV(-inf), log p_max] for any
    value F of f: here the best of the left limit at p_max (exact for a step level set)
    and of probes at log p_max - 2^k, k < 14.  1024 grid points over that bracket
    locate the peak and golden section refines it to about 1e-15 relative in s.
    """
    lv, top = target.log_level_set, math.log(target.p_max)
    f = lambda s: s + lv(s)
    below = min(math.log(math.nextafter(target.p_max, 0.0)), math.nextafter(top, -math.inf))  # < p_max as t and as s
    best = max(top + lv(below), *(f(top - 2.0**k) for k in range(14)))
    lo = best - lv(-math.inf)
    if not math.isfinite(lo):
        raise ValueError(f"no finite bracket: support log volume {lv(-math.inf)!r}, best probe {best!r}")
    grid = np.linspace(lo, top, 1024)
    vals = [f(float(s)) for s in grid]
    i = int(np.argmax(vals))
    return max(best, vals[i], _golden_max(f, float(grid[max(i - 1, 0)]), float(grid[min(i + 1, 1023)])))


def _golden_max(fn, a: float, b: float) -> float:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > 1e-15 * max(1.0, abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return max(fc, fd)


# ---------------------------------------------------------------------------
# reference sampling
# ---------------------------------------------------------------------------

def reference_samples(target: Target, n: int, rng: np.random.Generator) -> np.ndarray:
    """n exact draws from the normalised target, as a coordinate matrix."""
    if target.sampler is None:
        raise ValueError(f"target {target.spec_string!r} has no reference sampler")
    return target.sampler(n, rng)


# ---------------------------------------------------------------------------
# support-gap estimation
# ---------------------------------------------------------------------------

SCAN_GRID = 4096  # equal steps per geodesic section in the gap and epsilon scans


def scan_section(target: Target, rng: np.random.Generator, grid: int):
    """Density on a random geodesic section of the support (gap and epsilon probes).

    Draws a support point x and a unit direction v; returns (x, v, thetas,
    densities) at ``grid`` equal steps over [0, min(inj, diam W)), where the
    injectivity radius inj is a lower bound of every cut time.
    """
    man = target.manifold
    x = _support_draw(target, rng)
    v = man.sample_tangent_array(x, rng)
    horizon = min(man.info.injectivity_radius, target.diam_w * (1.0 + 1e-9))
    thetas = np.linspace(0.0, horizon, grid, endpoint=False)
    return x, v, thetas, target.density_batch(man.exp_batch(x, v, thetas))


def estimate_max_gap(
    target: Target,
    n_geodesics: int,
    n_levels: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo estimate of the worst gap inside geodesic superlevel sections.

    For random (point, direction, level) probes the geodesic parameter is
    scanned at SCAN_GRID steps by ``scan_section``; the returned value is the
    largest observed measure of (convex hull of the section) minus the section.
    A supremum over an uncountable family cannot be certified by sampling, so
    this is a statistical lower bound of the true constant.  A supplied
    ``max_gap`` is target metadata: passing this estimate as ``max_gap`` makes
    the certificate rest on an estimate.
    """
    best = 0.0
    for _ in range(n_geodesics):
        x, _, thetas, dens = scan_section(target, rng, SCAN_GRID)
        px = float(target.density(x))
        for _ in range(n_levels):
            t = rng.random() * px
            hits = dens > t
            if not hits[0]:
                continue  # grid artefact at the start point; skip probe
            last = int(np.max(np.nonzero(hits)[0]))
            best = max(best, float(np.sum(~hits[: last + 1])) * float(thetas[1]))
    return best


def _support_draw(target: Target, rng: np.random.Generator) -> np.ndarray:
    if target.sampler is not None:
        return target.sampler(1, rng)[0]
    man = target.manifold
    if math.isfinite(man.info.log_total_measure):
        for _ in range(100_000):
            x = man.uniform_points(1, rng)[0]
            if target.density(x) > 0:
                return x
        raise RuntimeError("rejection sampling from the support failed (support too small?)")
    raise ValueError("target has no reference sampler and the manifold has infinite volume")
