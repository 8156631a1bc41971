"""Independent oracles used by the test suite.

Everything here recomputes expected values by brute force (ODE integration,
quadrature over the randomness, dense grids, lattice enumeration) without
touching the code paths under test.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp


def sphere_geodesic_ode(x, v, theta: float) -> np.ndarray:
    """Great-circle point by numerically integrating the geodesic equation.

    Unit-speed curves on the unit sphere satisfy gamma'' = -gamma.
    """
    x = np.asarray(x, float)
    v = np.asarray(v, float)
    d = len(x)

    def rhs(_, y):
        return np.concatenate([y[d:], -y[:d]])

    sol = solve_ivp(
        rhs, (0.0, theta), np.concatenate([x, v]), rtol=1e-12, atol=1e-12, dense_output=True
    )
    out = sol.y[:d, -1]
    return out / np.linalg.norm(out)


def wrap_angle(theta: float, lo: float, hi: float) -> float:
    """Map the interval parameter onto the circle: (2 pi / (hi-lo)) * theta mod 2 pi.

    The inverse of ``slice1d.unwrap_angle``, which the round-trip tests check.
    """
    if not hi > lo:
        raise ValueError(f"degenerate interval ({lo}, {hi})")
    a = (2.0 * math.pi / (hi - lo) * theta) % (2.0 * math.pi)
    return 0.0 if a >= 2.0 * math.pi else a


def torus_lattice_distance(x, y, period: float, k_range: int = 3) -> float:
    """Distance on the flat torus by direct minimisation over lattice shifts."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    best = math.inf
    grids = np.meshgrid(*[np.arange(-k_range, k_range + 1)] * len(x), indexing="ij")
    shifts = np.stack([g.ravel() for g in grids], axis=1) * period
    for s in shifts:
        best = min(best, float(np.linalg.norm(x - y + s)))
    return best


def geodesic_distance(spec: str, x, y) -> float:
    """Closed-form distance on a built-in manifold given by its spec string.

    Sphere: the angle between the unit vectors; torus: the shortest lattice
    translate; Euclidean space: the straight-line norm.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    kind = spec.split(":")[0]
    if kind == "sphere":
        return math.acos(min(1.0, max(-1.0, float(x @ y))))
    if kind == "torus":
        return torus_lattice_distance(x, y, float(spec.split(":")[2]))
    return float(np.linalg.norm(x - y))


def cap_max_distance(colatitude: float, n_grid: int = 400) -> float:
    """Diameter of a spherical cap on S^2 by brute-force pair maximisation."""
    thetas = np.linspace(0.0, colatitude, n_grid, endpoint=False)
    phis = np.linspace(0.0, 2.0 * math.pi, n_grid, endpoint=False)
    # rotational symmetry: fix one point's azimuth at 0
    t2, dphi = np.meshgrid(thetas, phis, indexing="ij")
    cos2, sin2, cos_dphi = np.cos(t2), np.sin(t2), np.cos(dphi)
    best = 0.0
    for cos1, sin1 in zip(np.cos(thetas), np.sin(thetas)):  # n_grid^2 memory, not n_grid^3
        cosd = cos1 * cos2 + sin1 * sin2 * cos_dphi
        best = max(best, float(np.max(np.arccos(np.clip(cosd, -1.0, 1.0)))))
    return best


def _in_set(ivs, x) -> np.ndarray:
    x = np.asarray(x)
    res = np.zeros(x.shape, dtype=bool)
    for a, b in ivs:
        res |= (x > a) & (x < b)
    return res


def exact_covering_probability(ivs, theta, C, m, w, n_grid: int = 100_000) -> float:
    """Covering probability of the stepping-out interval by direct quadrature.

    Averages the (deterministic given offset and split) covering indicator
    over a midpoint grid of the uniform offset and, for finite m, all splits.
    """
    ivs = sorted((float(a), float(b)) for a, b in ivs)
    pieces = [(max(a, theta), min(b, C)) for a, b in ivs if min(b, C) > max(a, theta)]
    assert pieces, "empty section"
    lo_bound = min(a for a, _ in ivs)
    hi_bound = max(b for _, b in ivs)
    max_left = int(math.ceil((theta - lo_bound) / w)) + 2
    max_right = int(math.ceil((hi_bound - theta) / w)) + 2
    ups = (np.arange(n_grid) + 0.5) * (w / n_grid)

    def stop_index(side: int, cap_steps) -> np.ndarray:
        """side=-1 for the left endpoints, +1 for the right ones."""
        stop = np.zeros(n_grid, dtype=np.int64)
        undecided = np.ones(n_grid, dtype=bool)
        i = 1
        hard = (max_left if side < 0 else max_right) + 3
        while undecided.any():
            if cap_steps is not None and i == cap_steps:
                stop[undecided] = i
                break
            pos = theta - ups - (i - 1) * w if side < 0 else theta - ups + i * w
            exits = undecided & ~_in_set(ivs, pos)
            stop[exits] = i
            undecided &= ~exits
            i += 1
            assert i <= hard, "expansion did not terminate; set unbounded?"
        return stop

    splits = [None] if math.isinf(m) else list(range(1, int(m) + 1))
    covered_total = 0.0
    for j in splits:
        tau = stop_index(-1, j)
        tee = stop_index(+1, (int(m) + 1 - j) if j is not None else None)
        lo = theta - ups - (tau - 1) * w
        hi = theta - ups + tee * w
        ok = np.ones(n_grid, dtype=bool)
        for a, b in pieces:
            ok &= (lo <= a) & (b <= hi)
        covered_total += float(np.mean(ok))
    return covered_total / len(splits)


def q_formula(m, w, diam, delta, lam):
    """Direct evaluation of the hyperparameter gain; -inf when inapplicable."""
    w = np.asarray(w, dtype=float)
    finite = not math.isinf(m)
    eps = np.ones_like(w)
    lhs = np.zeros_like(w)
    if finite:
        eps = eps - diam / (m * w)
        lhs = lhs + diam / m
    if m >= 2:
        eps = eps - delta / w
        applicable = lhs < w - delta
    else:
        applicable = lhs < w
    lam_eff = np.minimum(m * w, lam) if finite else np.full_like(w, lam)
    good = applicable & np.isfinite(lam_eff) & (lam_eff > 0)
    return np.where(good, eps / np.where(good, lam_eff, 1.0), -np.inf)


def q_grid_search(diam, delta, lam, m_values, w_grid):
    """argmax of the gain over an explicit (m, w) grid."""
    best = (-math.inf, None, None)
    for m in m_values:
        q = q_formula(m, w_grid, diam, delta, lam)
        i = int(np.argmax(q))
        if q[i] > best[0]:
            best = (float(q[i]), m, float(w_grid[i]))
    return best


def classify_regime_grid(diam, delta, lam, n_w: int = 4000) -> str:
    """Landscape regime from the grid structure of the gain function."""
    if math.isinf(lam):
        return "a"
    if 1.0 / (4.0 * diam) > 1.0 / lam:
        return "c"
    # b vs d: an interior decrease of q(1, .) marks the two-peak landscape
    w = np.geomspace(diam * 1.01, max(lam, diam) * 50.0, n_w)
    q1 = q_formula(1, w, diam, delta, lam)
    finite = q1 > -math.inf
    qs = q1[finite]
    has_decrease = bool(np.any(np.diff(qs) < -1e-15 * np.abs(qs[:-1])))
    return "b" if has_decrease else "d"


def energy_permutation_test_one_shot(a, b, rng, permutations: int = 500, subsample: int = 1500):
    """The energy permutation test on the full n x n distance matrix, on one grid.

    Every distance is rounded to a whole number of steps q = diag n^2 / 2^53
    (diag: the pooled bounding box's diagonal), so every sum of entries is an
    exact integer.  ``harness.energy_permutation_test`` adds up only the upper
    triangle, one row block at a time, and must reproduce this bit for bit.
    Returns (statistic, p_value, p_permutation, n_a, n_b, permutations).
    """
    from scipy.spatial.distance import cdist

    if len(a) > subsample:
        a = a[rng.choice(len(a), subsample, replace=False)]
    if len(b) > subsample:
        b = b[rng.choice(len(b), subsample, replace=False)]
    na, nb = len(a), len(b)
    pool = np.vstack([a, b])
    n = na + nb
    diag = float(np.hypot.reduce(np.ptp(pool, axis=0)))
    q = diag * n * n / 2.0**53 if diag > 0 else 1.0
    dmat = np.rint(cdist(pool, pool) / q)
    rsum = dmat.sum(axis=1)
    z = np.zeros((permutations + 1, n))
    z[0, :na] = 1.0
    for k in range(1, permutations + 1):
        z[k, rng.permutation(n)[:na]] = 1.0
    zdz = np.einsum("kb,bk->k", z, dmat @ z.T)
    zaz = zdz - 2.0 * na * (z @ rsum) / n + na * na * rsum.sum() / (n * n)
    stats = -((1.0 / na + 1.0 / nb) ** 2) * q * zaz
    obs, null = float(stats[0]), stats[1:]
    exceed = int(np.sum(null >= obs))
    p_perm = (1 + exceed) / (permutations + 1)
    p = p_perm
    if exceed == 0:
        mu, sd = float(np.mean(null)), float(np.std(null, ddof=1))
        if sd > 0:
            from scipy import special

            # normal upper tail; ndtr(-z) is what scipy.stats.norm.sf(z) computes
            p = min(p_perm, float(special.ndtr(-(obs - mu) / sd)))
    return obs, p, p_perm, na, nb, permutations


def estimate_tv_loop(coords, binning, rng, n_bootstrap: int = 200):
    """(tv, se) of ``harness.estimate_tv`` as it was before the bootstrap TVs
    became one array expression: one ``tv_of`` call per resample."""
    n = len(coords)
    counts = np.bincount(binning.assign(coords) + 1, minlength=binning.bin_count + 1).astype(float)

    def tv_of(cnt):
        freq = cnt / np.sum(cnt)
        return 0.5 * float(np.sum(np.abs(freq[1:] - binning.masses)) + freq[0])

    boots = rng.multinomial(n, counts / n, size=n_bootstrap).astype(float)
    return tv_of(counts), float(np.std(np.array([tv_of(b) for b in boots]), ddof=1))


def endpoint_ensemble_loop(x0, n_steps, replicates, config, seed=None):
    """``kernel.endpoint_ensemble`` as it was before its streams were set in bulk:
    a fresh ``make_stream(base, i)`` generator for each replicate i."""
    from geoslice import kernel
    from geoslice.rng import make_stream

    base = config.seed if seed is None else seed
    x0a = np.array(x0.coords, dtype=float)
    p0 = float(config.target.density(x0a))
    finals = []
    for i in range(replicates):
        rng = make_stream(base, i)
        xa, px = x0a, p0
        for _ in range(n_steps):
            xa, diag = kernel._step_array(xa, config, rng, px)
            px = diag.density
        finals.append(xa)
    return np.array(finals).reshape(replicates, len(x0a))


def _disk_cell_pieces(r, x0, x1, y0, y1):
    """The cell's x-cuts: its edges, where its edges meet the circle, and +-r."""
    cuts = {x0, x1}
    for y in (y0, y1):
        if abs(y) < r:
            xc = math.sqrt(r * r - y * y)
            cuts |= {s for s in (xc, -xc) if x0 < s < x1}
    cuts |= {s for s in (-r, r) if x0 < s < x1}
    xs = sorted(cuts)
    return list(zip(xs, xs[1:]))


def disk_cell_area_exact(r, x0, x1, y0, y1) -> float:
    """Area of the cell (x0, x1) x (y0, y1) inside the disk of radius r, in closed form.

    On each piece between the cuts the clipped segment (max(y0, -h), min(y1, h)),
    h = sqrt(r^2 - x^2), keeps one form; its integral is linear in x or uses
    F(x) = (x sqrt(r^2 - x^2) + r^2 asin(x / r)) / 2, the antiderivative of h.
    """
    def F(x):
        return 0.5 * (x * math.sqrt(max(r * r - x * x, 0.0)) + r * r * math.asin(max(-1.0, min(1.0, x / r))))

    total = 0.0
    for a, b in _disk_cell_pieces(r, x0, x1, y0, y1):
        m = a + 0.37 * (b - a)  # off the centre, where h == y1 can hold at one point
        if abs(m) >= r:
            continue
        h = math.sqrt(r * r - m * m)
        if min(y1, h) <= max(y0, -h):
            continue
        arc = F(b) - F(a)
        total += (arc if h < y1 else y1 * (b - a)) + (arc if -h > y0 else -y0 * (b - a))
    return total


def disk_cell_gauss_quad(r, sigma, x0, x1, y0, y1) -> float:
    """Mass of exp(-|x|^2 / (2 sigma^2)) in the cell inside the disk, by adaptive
    quad over each piece at epsabs=1e-14, epsrel=1e-13 (erf in y, quad in x)."""
    from scipy import integrate

    s2 = sigma * sigma
    c, g = math.sqrt(2.0 * s2), math.sqrt(math.pi * s2 / 2.0)

    def integrand(x):
        h = math.sqrt(max(r * r - x * x, 0.0))
        lo, hi = max(y0, -h), min(y1, h)
        return math.exp(-x * x / (2.0 * s2)) * g * (math.erf(hi / c) - math.erf(lo / c)) if hi > lo else 0.0

    return sum(integrate.quad(integrand, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
               for a, b in _disk_cell_pieces(r, x0, x1, y0, y1))


def circle_cap_masses(colatitude, pole, edges) -> np.ndarray:
    """Mass of each angle bin [edges[i], edges[i+1]] under the uniform law on the
    arc {angle to pole < colatitude} of the circle, in mpmath at 40 digits.

    Each bin is cut where the arc's ends fall (mod 2 pi); a piece counts whole
    when its midpoint lies within the colatitude of the pole.
    """
    import mpmath

    with mpmath.workdps(40):
        c, psi = mpmath.atan2(pole[1], pole[0]), mpmath.mpf(colatitude)
        ends = [(c + s) % (2 * mpmath.pi) for s in (-psi, psi)]
        out = []
        for a, b in zip(map(mpmath.mpf, edges), map(mpmath.mpf, edges[1:])):
            xs = sorted({a, b} | {e for e in ends if a < e < b})
            inside = sum((hi - lo for lo, hi in zip(xs, xs[1:])
                          if mpmath.cos((lo + hi) / 2 - c) > mpmath.cos(psi)), mpmath.mpf(0))
            out.append(float(inside / (2 * psi)))
    return np.array(out)


def circle_vmf_masses(kappa, mean, edges) -> np.ndarray:
    """Mass of each angle bin under the density exp(kappa cos(phi - c)) on the
    circle, c the angle of ``mean``, in mpmath at 40 digits.

    Termwise integration of the Fourier series exp(kappa cos t) = I_0(kappa) +
    2 sum_n I_n(kappa) cos(n t) gives each bin's share of the total
    2 pi I_0(kappa); the series stops once I_n / I_0 falls below 1e-30.
    """
    import mpmath

    with mpmath.workdps(40):
        kap, c = mpmath.mpf(kappa), mpmath.atan2(mean[1], mean[0])
        i0 = mpmath.besseli(0, kap)
        ratios = []
        while not ratios or ratios[-1] > mpmath.mpf("1e-30"):
            ratios.append(mpmath.besseli(len(ratios) + 1, kap) / i0)
        out = []
        for a, b in zip(map(mpmath.mpf, edges), map(mpmath.mpf, edges[1:])):
            series = sum(r * (mpmath.sin(n * (b - c)) - mpmath.sin(n * (a - c))) / n
                         for n, r in enumerate(ratios, start=1))
            out.append(float((b - a) / (2 * mpmath.pi) + series / mpmath.pi))
    return np.array(out)


def sphere_vmf_band_masses(kappa, edges) -> np.ndarray:
    """Mass of each height band [edges[i], edges[i+1]] under the density
    exp(kappa h) on S^2, in mpmath at 40 digits: on S^2 the height h is uniform
    under the area, so a band's share is the difference of exp(kappa h) over the
    difference across [-1, 1]."""
    import mpmath

    with mpmath.workdps(40):
        kap = mpmath.mpf(kappa)
        e = [mpmath.exp(kap * mpmath.mpf(h)) for h in edges]
        total = mpmath.exp(kap) - mpmath.exp(-kap)
        return np.array([float((b - a) / total) for a, b in zip(e, e[1:])])


def log_sphere_area(d: int):
    """mpmath log area of the unit (d-1)-sphere in R^d, log(2 pi^(d/2) / Gamma(d/2))."""
    import mpmath

    a = mpmath.mpf(d) / 2
    return mpmath.log(2) + a * mpmath.log(mpmath.pi) - mpmath.loggamma(a)


# -- exact one-step Doeblin constants D = inf_{x, y} p(x, y) / pi(y) --------------------

def log_doeblin_uniform_sphere(d: int):
    """mpmath log D of uniform S^d at m = 1, w = 2 pi: log(area(S^d) / (pi area(S^(d-1)))).

    The step lands uniformly on a uniform great circle through x, so the distance r is
    uniform on [0, pi] and p / pi = area(S^d) / (pi area(S^(d-1)) sin^(d-1) r).
    """
    import mpmath

    with mpmath.workdps(40):
        return log_sphere_area(d + 1) - mpmath.log(mpmath.pi) - log_sphere_area(d)


def log_doeblin_ball(d: int):
    """mpmath log D of the uniform d-ball at m = inf (hit-and-run): log(2 / (d 2^d)).

    p(x, y) = 2 / (area(S^(d-1)) |x - y|^(d-1) l(x, y)) with l the chord through x and y,
    least at opposite boundary points.
    """
    import mpmath

    with mpmath.workdps(40):
        return mpmath.log(2) - mpmath.log(d) - d * mpmath.log(2)


def log_doeblin_hemisphere():
    """mpmath log D of the hemisphere cap on S^2 at m = 1, w = 2 pi: log(2 / pi).

    The step is uniform on a half great circle, so p / pi = 2 / (pi sin r).
    """
    import mpmath

    with mpmath.workdps(40):
        return mpmath.log(2) - mpmath.log(mpmath.pi)


def vmf_log_sup_t_level(d: int, kappa: float, n_scan: int = 2000):
    """mpmath log sup_t t * area({p > t}) of exp(kappa x.mu) on S^d.

    {p > e^(kappa c)} is the cap {x.mu > c}, whose share of S^d is I_((1-c)/2)(d/2, d/2).
    A dense scan of c over [-1, 1] brackets the peak, which golden section refines at 30 digits.
    """
    import mpmath

    with mpmath.workdps(30):
        a, kap = mpmath.mpf(d) / 2, mpmath.mpf(kappa)
        log_total = log_sphere_area(d + 1)

        def f(c):
            share = mpmath.betainc(a, a, 0, (1 - c) / 2, regularized=True)
            return kap * c + log_total + mpmath.log(share) if share > 0 else -mpmath.inf

        grid = [-1 + 2 * mpmath.mpf(i) / n_scan for i in range(n_scan)]
        i = max(range(n_scan), key=lambda j: f(grid[j]))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, n_scan - 1)]
        phi = (mpmath.sqrt(5) - 1) / 2
        for _ in range(120):
            c, e = hi - phi * (hi - lo), lo + phi * (hi - lo)
            if f(c) >= f(e):
                hi = e
            else:
                lo = c
        return max(f(grid[i]), f((lo + hi) / 2))
