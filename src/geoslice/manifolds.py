"""Built-in state spaces: Euclidean space, the round sphere, and flat tori.

Each manifold provides geodesics through the exponential map, uniform unit
tangent directions, and the geometry read by the convergence-bound calculator
as plain attributes: ``diameter``, ``ricci_lower``, ``injectivity_radius``,
``log_total_measure`` and ``geodesic_period``.  The injectivity radius is a lower
bound of every cut time, so it is what a scan along a geodesic reads.

All operations work on coordinate arrays in the embedding: length d+1 unit
vectors for the sphere S^d, plain length-d vectors for Euclidean space and
the torus (torus coordinates live in [0, P) per axis, period P).  Tangent
directions are arrays of the same length.  :class:`Point` is the validated
state that the chain API hands out.

A user manifold can be plugged in by subclassing :class:`Manifold`; it must
supply the same operations and set those five attributes correctly (there is no
machinery here to derive curvature or diameters automatically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_NORM_TOL = 1e-12
_INPUT_TOL = 1e-6


def _dimension(d: int) -> int:
    """``d`` unless it is below 1, which raises a ValueError."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return d


def log_unit_sphere_area(d: int) -> float:
    """Log surface area of the unit (d-1)-sphere in R^d: log(2 pi^(d/2) / Gamma(d/2)), the log of
    the gamma form while Gamma(d/2) is finite (d <= 343), which keeps small d's bits, else lgamma's."""
    _dimension(d)
    try:
        return math.log(2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0))
    except OverflowError:
        return math.log(2.0) + d / 2.0 * math.log(math.pi) - math.lgamma(d / 2.0)


def _finite_positive(name: str, value) -> float:
    """``value`` as a float: a ValueError naming ``name`` unless it is finite and positive."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return value


@dataclass(frozen=True)
class Point:
    """Manifold element in embedded coordinates."""

    coords: np.ndarray

    def __repr__(self) -> str:  # keep chain dumps readable
        return f"Point({np.array2string(self.coords, precision=6)})"


class Manifold:
    """Common interface of the built-in geometries."""

    dim: int
    embedding_dim: int
    # ricci_lower is a number zeta with (d-1)*zeta <= Ric everywhere; the diameter, the
    # injectivity radius and the log total measure may be infinite
    diameter: float
    ricci_lower: float
    injectivity_radius: float
    log_total_measure: float
    geodesic_period: float = math.inf  # length of every geodesic, where all close: a window this wide wraps

    # -- construction / validation -------------------------------------------------
    def point(self, coords) -> Point:
        """Validate raw coordinates and return a Point (normalised / wrapped)."""
        raise NotImplementedError

    def _coords(self, coords) -> np.ndarray:
        c = np.asarray(coords, dtype=float)
        if c.shape != (self.embedding_dim,):
            raise ValueError(f"point has shape {c.shape}, not ({self.embedding_dim},), on {self.spec}")
        if not np.isfinite(c).all():
            raise ValueError(f"point has non-finite coordinates {c.tolist()} on {self.spec}")
        return c

    # -- core operations on coordinate arrays ---------------------------------------
    @property
    def spec(self) -> str:
        raise NotImplementedError

    def exp_array(self, x: np.ndarray, v: np.ndarray, theta: float) -> np.ndarray:
        """Point reached from x after unit-speed geodesic time theta along v."""
        raise NotImplementedError

    def exp_batch(self, x: np.ndarray, v: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """``exp_array`` at each of ``thetas``, one row per time."""
        return np.array([self.exp_array(x, v, float(t)) for t in thetas])

    def project_tangent(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample_tangent_array(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Uniform unit tangent direction at x.

        A standard Gaussian vector in the embedding is projected onto the tangent
        space and normalised in place, so ``project_tangent`` must return an array
        the caller owns; a vanishing projection (probability zero) is resampled.
        """
        for _ in range(64):
            g = rng.standard_normal(self.embedding_dim)
            t = self.project_tangent(x, g)
            n = math.sqrt(t.dot(t))
            if n > _NORM_TOL:
                t /= n
                return t
        raise RuntimeError("64 consecutive zero tangent projections; generator broken")

    def uniform_points(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n draws from the normalised volume measure; only for finite-volume spaces."""
        raise ValueError(f"{self.spec} has infinite measure; no uniform distribution")


class Euclidean(Manifold):
    """Flat R^d with straight-line geodesics."""

    diameter = injectivity_radius = log_total_measure = math.inf
    ricci_lower = 0.0

    def __init__(self, dim: int):
        self.dim = self.embedding_dim = _dimension(dim)

    @property
    def spec(self) -> str:
        return f"euclidean:{self.dim}"

    def point(self, coords) -> Point:
        return Point(self._coords(coords).copy())

    def exp_array(self, x, v, theta):
        return x + theta * v

    def exp_batch(self, x, v, thetas):
        return x + np.outer(thetas, v)

    def project_tangent(self, x, g):
        return g


class Sphere(Manifold):
    """Round unit sphere S^d embedded in R^(d+1); geodesics are great circles.

    Points are renormalised after every exponential-map evaluation so that
    long chains cannot drift off the sphere (tolerance 1e-12).
    """

    diameter = injectivity_radius = math.pi
    geodesic_period = 2.0 * math.pi

    def __init__(self, dim: int):
        self.dim = _dimension(dim)
        self.embedding_dim = dim + 1
        self.ricci_lower = 1.0 if dim >= 2 else 0.0
        self.log_total_measure = log_unit_sphere_area(dim + 1)

    @property
    def spec(self) -> str:
        return f"sphere:{self.dim}"

    def point(self, coords) -> Point:
        c = self._coords(coords)
        n = float(np.linalg.norm(c))
        if abs(n - 1.0) > _INPUT_TOL:
            raise ValueError(f"coordinates have norm {n}, not on {self.spec}")
        return Point(c / n)

    def exp_array(self, x, v, theta):
        p = x * math.cos(theta)
        p += v * math.sin(theta)
        p /= math.sqrt(p.dot(p))
        return p

    def exp_batch(self, x, v, thetas):
        p = np.outer(np.cos(thetas), x) + np.outer(np.sin(thetas), v)
        return p / np.linalg.norm(p, axis=1, keepdims=True)

    def project_tangent(self, x, g):
        return g - float(g.dot(x)) * x

    def uniform_points(self, n, rng):
        g = rng.standard_normal((n, self.embedding_dim))
        return g / np.linalg.norm(g, axis=1, keepdims=True)


class Torus(Manifold):
    """Flat torus (R/PZ)^d with common period P per axis; as geodesics of irrational slope
    never close, ``geodesic_period`` stays inf, which never claims a full winding."""

    ricci_lower = 0.0

    def __init__(self, dim: int, period: float):
        self.dim = self.embedding_dim = _dimension(dim)
        self.period = _finite_positive("torus period", period)
        self.diameter = self.period * math.sqrt(dim) / 2.0
        # P/2 is the exact cut time along an axis and a lower bound in other directions
        self.injectivity_radius = self.period / 2.0
        self.log_total_measure = dim * math.log(self.period)

    @property
    def spec(self) -> str:
        return f"torus:{self.dim}:{self.period!r}"

    def point(self, coords) -> Point:
        return Point(np.mod(self._coords(coords), self.period))

    def exp_array(self, x, v, theta):
        return np.mod(x + theta * v, self.period)

    def exp_batch(self, x, v, thetas):
        return np.mod(x + np.outer(thetas, v), self.period)

    def project_tangent(self, x, g):
        return g

    def uniform_points(self, n, rng):
        return rng.uniform(0.0, self.period, size=(n, self.dim))


def from_spec(spec: str) -> Manifold:
    """Build a manifold from a specification string.

    Formats: ``euclidean:<d>``, ``sphere:<d>``, ``torus:<d>:<period>``.
    """
    parts = spec.strip().lower().split(":")
    kind = parts[0]
    try:
        if kind == "euclidean" and len(parts) == 2:
            return Euclidean(int(parts[1]))
        if kind == "sphere" and len(parts) == 2:
            return Sphere(int(parts[1]))
        if kind == "torus" and len(parts) == 3:
            return Torus(int(parts[1]), float(parts[2]))
    except ValueError as e:
        raise ValueError(f"bad manifold spec {spec!r}: {e}") from None
    raise ValueError(
        f"bad manifold spec {spec!r}; expected euclidean:<d>, sphere:<d> or torus:<d>:<period>"
    )
