import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

import oracles
from geoslice import targets
from geoslice.manifolds import Euclidean, Sphere, log_unit_sphere_area
from geoslice.rng import make_stream
from geoslice.targets import (
    ball_gaussian_target,
    ball_target,
    box_target,
    cap_target,
    custom_target,
    estimate_max_gap,
    log_ball_volume,
    log_sup_t_level,
    reference_samples,
    uniform_target,
    vmf_target,
)

ROOT = Path(__file__).resolve().parent.parent


def _volume(t, lev: float) -> float:
    """volume({p > lev}) from the target's log level set."""
    return math.exp(t.log_level_set(math.log(lev)))


def test_uniform_sphere_metadata():
    t = uniform_target(Sphere(2))
    assert t.p_max == 1.0
    assert t.diam_w == pytest.approx(math.pi)
    assert math.isinf(t.lambda_value)
    assert t.max_gap == 0.0
    assert _volume(t, 0.5) == pytest.approx(4 * math.pi)


def test_ball_metadata():
    t = ball_target(2, 1.0)
    assert t.diam_w == 2.0
    assert t.max_gap == 0.0
    assert t.lambda_value == 2.0
    assert _volume(t, 0.5) == pytest.approx(math.pi)


def test_cap_diameter_matches_pairwise_oracle():
    t = cap_target(Sphere(2), math.pi / 2)
    assert t.diam_w == pytest.approx(math.pi)
    assert t.max_gap == 0.0
    # brute-force pair maximisation approaches the analytic diameter from below
    assert oracles.cap_max_distance(math.pi / 2) <= t.diam_w + 1e-9
    assert oracles.cap_max_distance(math.pi / 2) > t.diam_w - 0.02
    t3 = cap_target(Sphere(2), math.pi / 3)
    assert t3.diam_w == pytest.approx(2 * math.pi / 3)
    assert oracles.cap_max_distance(math.pi / 3) > t3.diam_w - 0.02


def test_cap_parameter_validation():
    with pytest.raises(ValueError):
        cap_target(Sphere(2), 0.0)
    with pytest.raises(ValueError):
        cap_target(Sphere(2), 3.5)
    with pytest.raises(ValueError):
        vmf_target(Sphere(2), -1.0)
    with pytest.raises(ValueError):
        uniform_target(Euclidean(2))


def test_level_set_measure_uniform_sphere():
    t = uniform_target(Sphere(2))
    assert t.log_level_set(math.log(0.5)) == pytest.approx(math.log(4 * math.pi), rel=1e-15)
    assert t.log_level_set(math.log(1.5)) == -math.inf


def test_level_set_measure_vmf_hemisphere_and_monte_carlo():
    t = vmf_target(Sphere(2), 2.0)
    analytic = _volume(t, 1.0)
    assert analytic == pytest.approx(2 * math.pi, rel=1e-12)
    # cross-check by Monte-Carlo integration over the sphere
    rng = make_stream(5150, 0)
    pts = Sphere(2).uniform_points(1_000_000, rng)
    frac = float(np.mean(t.density_batch(pts) > 1.0))
    se = 4 * math.pi * math.sqrt(frac * (1 - frac) / len(pts))
    assert abs(analytic - 4 * math.pi * frac) <= 3 * se


def test_sup_t_level_uniform_exact():
    # every level below p_max has all of W as its superlevel set, so the sup is the left limit
    for t, log_volume in [
        (uniform_target(Sphere(1)), math.log(2 * math.pi)),
        (uniform_target(Sphere(2)), log_unit_sphere_area(3)),  # area of S^2 in R^3
        (cap_target(Sphere(2), math.pi / 2), math.log(4 * math.pi * math.sin(math.pi / 4) ** 2)),  # 4 pi sin^2(psi / 2)
        (ball_target(2, 1.0), log_ball_volume(2, 0.0)),
        (box_target([1.0, 2.0]), math.log(1.0 * 2.0)),
    ]:
        for target in (t, t.rescaled(3.0)):
            support = target.log_level_set(-math.inf)
            assert support == pytest.approx(log_volume, rel=1e-15), target.spec_string
            assert log_sup_t_level(target) == math.log(target.p_max) + support, target.spec_string


@pytest.mark.parametrize("spec,volume", [
    ("uniform:sphere:1", 2 * math.pi),
    ("uniform:sphere:2", 4 * math.pi),
    ("uniform:torus:2:6.0", 36.0),
    ("cap:sphere:1:psi=1.0", 2.0),
    ("cap:sphere:2:psi=1.5707963267948966", 2 * math.pi),
    ("vmf:sphere:1:kappa=2.0", 2 * math.pi),
    ("vmf:sphere:2:kappa=2.0", 4 * math.pi),
    ("convex-uniform:ball:2:r=1.0", math.pi),
    ("convex-uniform:box:2:extents=1.0,2.0", 2.0),
    ("ball-gauss:2:sigma=0.5:r=1.0", math.pi),
    ("ball-gauss:3:sigma=0.5:r=1.0", 4 * math.pi / 3),
])
def test_level_set_at_or_below_zero_is_the_support_volume(spec, volume):
    # every point of the support has density > 0 = e^-inf, as it has at every lower log level
    for t in (targets.from_spec(spec), targets.from_spec(spec).rescaled(3.0)):
        top = math.log(t.p_max)
        assert t.log_level_set(-math.inf) == t.log_level_set(-1e300) == pytest.approx(math.log(volume), rel=1e-12)
        vals = [t.log_level_set(float(s)) for s in [-math.inf, *np.linspace(top - 50.0, top + 1.0, 401)]]
        assert all(a >= b for a, b in zip(vals, vals[1:])), spec
        assert vals[-1] == -math.inf


def test_sup_t_level_vmf_matches_dense_grid_oracle():
    t = vmf_target(Sphere(2), 2.0)
    val = math.exp(log_sup_t_level(t))
    # dense grid oracle
    ts = np.geomspace(t.p_max * 1e-7, t.p_max, 100_000)
    grid = max(float(s * _volume(t, float(s))) for s in ts)
    assert val == pytest.approx(grid, rel=1e-4)
    # closed form: the peak of t * area(cap(log(t)/kappa)) sits at t = e
    assert val == pytest.approx(math.pi * math.e, rel=1e-14)


def test_sup_t_level_ball_gauss_matches_grid():
    t = ball_gaussian_target(2, 0.5, 1.0)
    val = math.exp(log_sup_t_level(t))
    ts = np.geomspace(1e-7, 1.0, 100_000)
    grid = max(float(s * _volume(t, float(s))) for s in ts)
    assert val == pytest.approx(grid, rel=1e-4)


def test_rescaling_invariance_of_normalised_peak():
    base = vmf_target(Sphere(2), 2.0)
    ref = log_sup_t_level(base) - math.log(base.p_max)
    for c in (0.1, 7.3, 1e-300, 1e300):
        t = base.rescaled(c)
        assert log_sup_t_level(t) - math.log(t.p_max) == pytest.approx(ref, abs=1e-12)


def test_level_function_nonincreasing():
    for t in [vmf_target(Sphere(2), 2.0), ball_gaussian_target(2, 0.7, 1.5)]:
        ss = np.linspace(math.log(t.p_max) - 14.0, math.log(t.p_max), 200)
        vals = [t.log_level_set(float(s)) for s in ss]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_level_function_monte_carlo_path():
    man = Sphere(2)
    t = custom_target(
        man,
        density=lambda x: float(np.exp(2.0 * x[2])),
        density_batch=lambda x: np.exp(2.0 * x[:, 2]),
        p_max=math.exp(2.0),
        diam_w=math.pi,
        level_samples=100_000,
    )
    ref = vmf_target(man, 2.0)
    for lev in (0.5, 1.0, 3.0):
        est = _volume(t, float(lev))
        f = est / (4 * math.pi)
        se = 4 * math.pi * math.sqrt(f * (1 - f) / 100_000)  # binomial SE of the shared sample
        assert abs(est - _volume(ref, float(lev))) <= 4 * se
    # shared sample across levels keeps the estimate monotone exactly
    ss = np.linspace(math.log(0.2), math.log(7.0), 100)
    vals = [t.log_level_set(float(s)) for s in ss]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_reference_sampler_uniform_sphere_moments():
    t = uniform_target(Sphere(2))
    pts = reference_samples(t, 100_000, make_stream(61, 0))
    assert np.all(np.abs(pts.mean(axis=0)) < 0.02)


@pytest.mark.parametrize("d, psi", [(1, 2.0), (2, math.pi / 2), (3, 1.0)], ids=["S1", "S2", "S3"])
def test_reference_sampler_cap_support_and_gof(d, psi):
    from scipy.integrate import quad

    t = cap_target(Sphere(d), psi)
    pts = reference_samples(t, 100_000, make_stream(62, d))
    cos_t = pts @ t.params["pole"]
    assert np.all(cos_t > math.cos(psi))
    # goodness of fit of the colatitude against its law, density prop to sin^(d-1),
    # integrated by quadrature per bin
    edges = np.linspace(0.0, psi, 21)
    counts, _ = np.histogram(np.arccos(np.clip(cos_t, -1.0, 1.0)), bins=edges)
    masses = np.array([quad(lambda th: math.sin(th) ** (d - 1), a, b)[0] for a, b in zip(edges, edges[1:])])
    assert stats.chisquare(counts, f_exp=masses / masses.sum() * len(pts)).pvalue > 0.001


@pytest.mark.parametrize("d", [2, 3], ids=["S2", "S3"])
def test_cap_sampler_resolves_the_colatitude_near_the_pole(d):
    # cos and sin of the colatitude come from s = sin^2(theta / 2), not from
    # 1 - cos^2, which took 3 distinct values over 2,000 draws at this psi
    psi = 2e-8
    t = cap_target(Sphere(d), psi)
    pts = reference_samples(t, 2000, make_stream(68, d))
    sin_col = np.linalg.norm(pts[:, :-1], axis=1)  # the pole is the last axis
    assert len(np.unique(sin_col / psi)) >= 1900
    assert np.all(sin_col < psi)


@pytest.mark.parametrize("d", [2, 3, 10], ids=["S2", "S3", "S10"])
@pytest.mark.parametrize("psi", [1e-9, 2e-8, 1e-7, 1e-6, math.pi / 2, 2.5, math.pi],
                         ids=["1e-9", "2e-8", "1e-7", "1e-6", "half-pi", "2.5", "pi"])
def test_cap_sampler_draws_lie_in_the_cap(d, psi, monkeypatch):
    # the density |x - pole| < 2 sin(psi / 2) resolves a small cap's rim, so the
    # sampler keeps every exact draw, and I_s(d/2, d/2) / s_max of the squared
    # half-chord s = |x - pole|^2 / 4 of each draw is uniform
    proposals = []
    accepted = targets._accepted

    def tallied(n, batch, shape=()):
        def counted(k):
            good = batch(k)
            proposals.append((k, len(good)))
            return good
        return accepted(n, counted, shape)

    monkeypatch.setattr(targets, "_accepted", tallied)
    generic = make_stream(71, d).standard_normal(d + 1)
    for k, pole in enumerate([None, generic / np.linalg.norm(generic)]):
        t = cap_target(Sphere(d), psi, pole)
        assert t.density(t.worst_start) > 0
        proposals.clear()
        pts = reference_samples(t, 100_000, make_stream(69, 2 * d + k))
        assert proposals == [(100_000, 100_000)]
        assert np.all(t.density_batch(pts) > 0)
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-15
        s = np.sum((pts - t.params["pole"]) ** 2, axis=1) / 4.0
        s_max = special.betainc(d / 2.0, d / 2.0, math.sin(psi / 2.0) ** 2)
        assert stats.kstest(special.betainc(d / 2.0, d / 2.0, s) / s_max, "uniform").pvalue > 0.001


# 0, the share at psi = 1e-9, 1/2, 1, and shares spread over (0, 1) and over its decades
_SHARES = np.concatenate([[0.0, math.sin(0.5e-9) ** 2, 2.5e-19, 0.5, 1.0],
                          make_stream(77, 0).random(10_000), 10.0 ** np.linspace(-320.0, 0.0, 3201)])


def test_s2_cap_share_and_its_inverse_are_scipys_bit_for_bit():
    # Archimedes' hat-box theorem: I_s(1, 1) = s, which scipy rounds to s itself
    assert [targets._cap_share(2, s) for s in _SHARES.tolist()] == special.betainc(1.0, 1.0, _SHARES).tolist()
    assert targets._cap_share_inv(2, _SHARES).tobytes() == special.betaincinv(1.0, 1.0, _SHARES).tobytes()


@pytest.mark.parametrize("psi", [1e-9, math.pi / 2, 2.5], ids=["1e-9", "half-pi", "2.5"])
def test_s2_cap_draws_equal_the_scipy_path_draws(psi, monkeypatch):
    generic = make_stream(71, 2).standard_normal(3)
    pole = generic / np.linalg.norm(generic)

    def draws():
        return reference_samples(cap_target(Sphere(2), psi, pole), 10_000, make_stream(78, 0)).tobytes()

    closed_form = draws()
    monkeypatch.setattr(targets, "_cap_share", lambda d, s: float(special.betainc(d / 2.0, d / 2.0, s)))
    monkeypatch.setattr(targets, "_cap_share_inv", lambda d, u: special.betaincinv(d / 2.0, d / 2.0, u))
    assert draws() == closed_form


@pytest.mark.parametrize("spec,axis", [
    # the norm of (1e308, 1e308, 0) overflowed, and mu became 0: a uniform density
    ("vmf:sphere:2:kappa=1:mu=1e308,1e308,0", [math.sqrt(0.5), math.sqrt(0.5), 0.0]),
    # the norm of a subnormal axis underflowed to 0, and the axis was refused
    ("cap:sphere:2:psi=1.0:pole=1e-320,0,0", [1.0, 0.0, 0.0]),
], ids=["mu-1e308", "pole-1e-320"])
def test_axes_are_normalised_at_any_float_scale(spec, axis):
    t = targets.from_spec(spec)
    got = t.params["mean" if spec.startswith("vmf") else "pole"]
    assert np.allclose(got, axis, rtol=0.0, atol=2e-16)


def test_normal_range_axes_keep_their_bits():
    # the power-of-two scaling before the norm is exact
    for k, scale in enumerate([1e-150, 1e-3, 1.0, 7.0, 1e150]):
        a = make_stream(79, k).standard_normal(4) * scale
        assert targets._unit_axis(Sphere(3), a).tobytes() == (a / np.linalg.norm(a)).tobytes()


@pytest.mark.parametrize("pole", ["inf,0,1", "nan,0,1", "0,0,0", "1,0"])
def test_non_finite_zero_or_misshapen_axes_are_refused(pole):
    with pytest.raises(ValueError, match=r"axis \[.*\] is not a finite nonzero vector of length 3"):
        targets.from_spec(f"cap:sphere:2:psi=1.0:pole={pole}")


@pytest.mark.parametrize("d", [1, 2, 3, 10], ids=["S1", "S2", "S3", "S10"])
@pytest.mark.parametrize("kappa", [1e-3, 2.0, 50.0], ids=["1e-3", "2", "50"])
def test_vmf_sampler_draws_lie_on_the_sphere(d, kappa):
    # the tangent part is projected off the mean twice, so a mean off the axes
    # leaves the draws on the unit sphere as the axis mean does
    generic = make_stream(73, d).standard_normal(d + 1)
    for k, mean in enumerate([None, generic / np.linalg.norm(generic)]):
        t = vmf_target(Sphere(d), kappa, mean)
        pts = reference_samples(t, 100_000, make_stream(74, 2 * d + k))
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-15


@pytest.mark.parametrize("d,psi", [(10, 1e-10), (30, 9e-10)])
def test_cap_below_the_colatitude_floor_is_refused(d, psi):
    # below 1e-9 the coordinates near a generic pole cannot place the worst start inside the cap
    with pytest.raises(ValueError, match=r"must lie in \[1e-9, pi\]"):
        cap_target(Sphere(d), psi)


@pytest.mark.parametrize("d,psi", [(40, 1e-9), (300, 1e-3)])
def test_cap_whose_share_underflows_is_refused(d, psi):
    # I_s(d/2, d/2) of s = sin^2(psi / 2) underflows to 0, where every exact draw would be the pole
    assert special.betainc(d / 2.0, d / 2.0, math.sin(psi / 2.0) ** 2) < sys.float_info.min
    with pytest.raises(ValueError, match=f"psi={psi!r} on S\\^{d} = .* is not a positive normal float"):
        cap_target(Sphere(d), psi)


def test_tiny_cap_with_a_normal_share_draws_off_the_pole():
    t = cap_target(Sphere(30), 1e-9)
    assert math.exp(t.log_level_set(-math.inf)) == pytest.approx(2.2e-275, rel=0.01)
    pts = reference_samples(t, 2000, make_stream(75, 30))
    sin_col = np.linalg.norm(pts[:, :-1], axis=1)  # the pole is the last axis
    assert np.all((sin_col > 0) & (sin_col < 1e-9)) and len(np.unique(sin_col)) >= 1900


def test_tiny_s2_cap_puts_all_its_mass_in_the_top_band():
    masses = cap_target(Sphere(2), 1e-9).bin_masses([np.linspace(-1.0, 1.0, 17)])
    assert masses.tolist() == [0.0] * 15 + [1.0]


@pytest.mark.parametrize("n", [2, 3, 16, 64])
@pytest.mark.parametrize("kappa", [1e-12, 1e-3, 2.0, 50.0, 709.7])
def test_sphere_vmf_band_masses_match_mpmath(kappa, n):
    e = np.linspace(-1.0, 1.0, n + 1)
    got = vmf_target(Sphere(2), kappa).bin_masses([e])
    assert np.max(np.abs(got - oracles.sphere_vmf_band_masses(kappa, e))) <= 2e-16


@pytest.mark.parametrize("span", [1.0, 1.3], ids=["grid-on-disk", "grid-past-disk"])
@pytest.mark.parametrize("n", [7, 16, 32])
@pytest.mark.parametrize("r", [0.3, 1.0, 2.5])
def test_disk_cell_masses_match_closed_form(r, n, span):
    e = np.linspace(-span * r, span * r, n + 1)
    got = targets._disk_cell_masses(r, [e, e], lambda x, lo, hi: hi - lo)
    exact = np.array([oracles.disk_cell_area_exact(r, e[i], e[i + 1], e[j], e[j + 1])
                      for i in range(n) for j in range(n)])
    assert np.max(np.abs(got - exact)) <= 1e-14
    # make_binning keeps a cell whose normalised mass exceeds 1e-15
    assert np.array_equal(got > 1e-15 * got.sum(), exact > 1e-15 * exact.sum())


@pytest.mark.parametrize("n", [7, 16, 32])
def test_ball_gauss_cell_masses_match_quad(n):
    sigma, r = 0.5, 1.0
    e = np.linspace(-r, r, n + 1)
    got = ball_gaussian_target(2, sigma, r).bin_masses([e, e])
    ref = np.array([oracles.disk_cell_gauss_quad(r, sigma, e[i], e[i + 1], e[j], e[j + 1])
                    for i in range(n) for j in range(n)])
    ref /= ref.sum()
    assert np.max(np.abs(got - ref)) <= 1e-13
    assert np.array_equal(got > 1e-15, ref > 1e-15)


@pytest.mark.parametrize("n", [2, 3, 7, 64])
@pytest.mark.parametrize("psi", [0.3, 2.0, 3.0, math.pi])
@pytest.mark.parametrize("centre", [0.1, -0.2])
def test_circle_cap_masses_match_mpmath(centre, psi, n):
    # both arcs wrap through angle 0, where the bin grid starts
    t = cap_target(Sphere(1), psi, [math.cos(centre), math.sin(centre)])
    e = np.linspace(0.0, 2.0 * math.pi, n + 1)
    ref = oracles.circle_cap_masses(psi, t.params["pole"], e)
    assert np.max(np.abs(t.bin_masses([e]) - ref)) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 7, 64])
@pytest.mark.parametrize("kappa", [0.1, 2.0, 50.0, 700.0])
@pytest.mark.parametrize("mode", [1.5, -0.9])
def test_circle_vmf_masses_match_mpmath(mode, kappa, n):
    t = vmf_target(Sphere(1), kappa, [math.cos(mode), math.sin(mode)])
    e = np.linspace(0.0, 2.0 * math.pi, n + 1)
    ref = oracles.circle_vmf_masses(kappa, t.params["mean"], e)
    assert np.max(np.abs(t.bin_masses([e]) - ref)) <= 1e-14


def test_reference_sampler_vmf_resultant_length():
    t = vmf_target(Sphere(2), 2.0)
    pts = reference_samples(t, 100_000, make_stream(63, 0))
    r = float(np.linalg.norm(pts.mean(axis=0)))
    expect = 1.0 / math.tanh(2.0) - 0.5
    assert expect == pytest.approx(0.5373, abs=1e-4)
    assert abs(r - expect) < 0.01


def test_reference_sampler_vmf_general_dim_cosine_moment():
    t = vmf_target(Sphere(3), 2.0)
    pts = reference_samples(t, 50_000, make_stream(64, 0))
    mean_cos = float(np.mean(pts @ t.params["mean"]))
    # oracle 1: E[cos] by quadrature of the cosine marginal on S^3 in R^4,
    # density prop to exp(kappa c) (1 - c^2)^((4-3)/2)
    from scipy.integrate import quad
    from scipy.special import iv

    num, _ = quad(lambda c: c * math.exp(2 * c) * math.sqrt(1 - c * c), -1, 1)
    den, _ = quad(lambda c: math.exp(2 * c) * math.sqrt(1 - c * c), -1, 1)
    expect = num / den
    # oracle 2: Bessel-function ratio for the mean resultant length
    assert expect == pytest.approx(float(iv(2.0, 2.0) / iv(1.0, 2.0)), rel=1e-9)
    assert abs(mean_cos - expect) < 0.01


def test_reference_sampler_ball_and_gauss():
    tb = ball_target(2, 1.0)
    pts = reference_samples(tb, 50_000, make_stream(65, 0))
    assert np.all(np.einsum("ij,ij->i", pts, pts) < 1.0)
    assert np.all(np.abs(pts.mean(axis=0)) < 0.02)
    tg = ball_gaussian_target(2, 0.5, 1.0)
    pts = reference_samples(tg, 50_000, make_stream(66, 0))
    q = np.einsum("ij,ij->i", pts, pts)
    assert np.all(q < 1.0)
    # radial CDF oracle: P(|X| <= r) prop to 1 - exp(-r^2 / (2 s^2)) truncated
    s2 = 0.25
    z = 1 - math.exp(-1.0 / (2 * s2))
    for r in (0.3, 0.6, 0.9):
        expect = (1 - math.exp(-r * r / (2 * s2))) / z
        assert abs(float(np.mean(q < r * r)) - expect) < 0.01


@pytest.mark.parametrize("d", [2, 5, 30])
def test_ball_sampler_radius_law(d):
    # uniform on the ball of radius r: (|x| / r)^d is U(0, 1)
    t = ball_target(d, 2.0)
    pts = reference_samples(t, 2000, make_stream(67, d))
    assert np.all(t.density_batch(pts) > 0)
    assert stats.kstest((np.linalg.norm(pts, axis=1) / 2.0) ** d, "uniform").pvalue > 0.001


def test_ball_samplers_are_fast_in_high_dimension():
    # a proposal from the cube [-r, r]^d kept a fraction vol(ball) / 2^d of its
    # draws: 1,000 draws took 3 s at d = 14 and one outran 10 s at d = 30
    import time

    for t in (ball_target(30, 1.0), ball_gaussian_target(30, 1.0, 1.0)):
        start = time.perf_counter()
        pts = reference_samples(t, 1000, make_stream(70, 30))
        assert time.perf_counter() - start < 1.0, t.spec_string
        assert pts.shape == (1000, 30) and np.all(t.density_batch(pts) > 0)


@pytest.mark.parametrize("d,sigma,r", [(1, 0.5, 1.0), (2, 0.5, 1.0), (5, 2.0, 1.0), (100, 1.0, 9.0)])
def test_ball_gauss_sampler_radius_law(d, sigma, r):
    # |x|^2 / sigma^2 is chi-square with d degrees of freedom truncated at r^2 / sigma^2
    from scipy import special

    t = ball_gaussian_target(d, sigma, r)
    pts = reference_samples(t, 2000, make_stream(71, d))
    top = special.chdtr(d, r * r / sigma**2)
    cdf = lambda q: special.chdtr(d, q / sigma**2) / top
    assert stats.kstest(np.einsum("ij,ij->i", pts, pts), cdf).pvalue > 0.001


def test_narrow_ball_gauss_sampler_radius_law():
    # where the truncated chi-square cdf underflows, the sampler thins exact
    # uniform-ball draws by the density; the radius law is the same truncated
    # chi-square, whose cdf mpmath evaluates past the float range
    import mpmath
    from scipy import special

    d, sigma, r = 400, 1.0, 2.0
    t = ball_gaussian_target(d, sigma, r)
    pts = reference_samples(t, 2000, make_stream(71, d))
    assert special.chdtr(d, r * r / sigma**2) == 0.0  # the branch under test
    a = d / 2.0
    top = mpmath.gammainc(a, 0, r * r / (2 * sigma**2))
    cdf = np.vectorize(lambda q: float(mpmath.gammainc(a, 0, q / (2 * sigma**2)) / top))
    assert stats.kstest(np.einsum("ij,ij->i", pts, pts), cdf).pvalue > 0.001


def test_ball_gauss_thins_only_with_a_bounded_acceptance_loss():
    # The sampler thins uniform-ball draws only where P = chdtr(d, r^2 / sigma^2) is not a
    # positive normal float, and such a target is refused unless r^2 / sigma^2 < 8.5, so
    # thinning keeps at least e^-4.25 = 1.4% of its draws in every dimension.
    from scipy import special

    dims = np.arange(1, 1000)
    normal = special.chdtr(dims, 8.5) >= sys.float_info.min
    top = int(dims[normal][-1])
    assert np.all(normal[:top]) and not np.any(normal[top:]) and 460 < top < 470
    for d in dims:
        if normal[d - 1]:
            ball_gaussian_target(int(d), 1.0, math.sqrt(8.5))
        else:
            with pytest.raises(ValueError, match=f"at d={d}, r\\^2/sigma\\^2=8.5.* not a positive normal float"):
                ball_gaussian_target(int(d), 1.0, math.sqrt(8.5))
    # below 8.5 every dimension builds, and the thinned draws come back
    for d in (top + 1, 2000):
        t = ball_gaussian_target(d, 1.0, 2.0)
        pts = reference_samples(t, 200, make_stream(72, d))
        assert pts.shape == (200, d) and np.all(t.density_batch(pts) > 0)


def test_ball_gauss_sampler_returns_where_gaussian_proposals_rarely_land():
    # Gaussian proposals land in this ball with probability 0.0019 and thinned
    # uniform-ball draws keep about 3e-14 of theirs; inverse-cdf draws need neither.
    # In a subprocess with a timeout, so that a sampler that never returns fails.
    code = (
        "import time\n"
        "from scipy import special, stats\n"
        "from geoslice import targets\n"
        "from geoslice.rng import make_stream\n"
        "t = targets.from_spec('ball-gauss:100:sigma=0.1:r=0.8')\n"
        "start = time.perf_counter()\n"
        "pts = targets.reference_samples(t, 1000, make_stream(1, 0))\n"
        "elapsed = time.perf_counter() - start\n"
        "assert pts.shape == (1000, 100) and (t.density_batch(pts) > 0).all()\n"
        "cdf = lambda q: special.chdtr(100, q / 0.01) / special.chdtr(100, 64.0)\n"
        "print(elapsed, stats.kstest((pts * pts).sum(axis=1), cdf).pvalue)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    elapsed, pvalue = map(float, out.stdout.split())
    assert elapsed < 1.0 and pvalue > 0.001


def test_reference_sampler_chisquare_against_analytic_masses():
    from geoslice import harness

    for seed, spec in enumerate([
        "cap:sphere:2:psi=1.5707963267948966",
        "vmf:sphere:2:kappa=2.0",
        "convex-uniform:ball:2:r=1.0",
        "uniform:sphere:1",
        "cap:sphere:1:psi=2.0",
    ]):
        t = targets.from_spec(spec)
        b = harness.make_binning(t)
        pts = reference_samples(t, 100_000, make_stream(0xC41, seed))
        counts = np.bincount(b.assign(pts), minlength=b.bin_count).astype(float)
        expected = b.masses * len(pts)
        # pool bins with tiny expectation so the chi-square approximation holds
        big = expected >= 10.0
        obs, exp = counts[big], expected[big]
        if not np.all(big):
            obs = np.append(obs, counts[~big].sum())
            exp = np.append(exp, expected[~big].sum())
        res = stats.chisquare(obs, f_exp=exp * obs.sum() / exp.sum())
        assert res.pvalue > 0.001, spec


def test_density_range_invariant():
    rng = make_stream(67, 0)
    for t in [
        uniform_target(Sphere(2)),
        cap_target(Sphere(2), 1.0),
        vmf_target(Sphere(2), 2.0),
        ball_gaussian_target(2, 0.5, 1.0),
    ]:
        if isinstance(t.manifold, Sphere):
            pts = t.manifold.uniform_points(2000, rng)
        else:
            pts = rng.uniform(-1.2, 1.2, size=(2000, t.manifold.dim))
        vals = t.density_batch(pts)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= t.p_max * (1 + 1e-9))


def test_sup_t_level_bounded_by_support_mass():
    for t in [uniform_target(Sphere(2)), vmf_target(Sphere(2), 2.0), ball_target(2, 1.0)]:
        support = t.log_level_set(-math.inf)  # log volume of W = {p > 0}
        assert log_sup_t_level(t) - math.log(t.p_max) <= support + 1e-12
        total = t.manifold.info.log_total_measure
        if math.isfinite(total):
            assert support <= total + 1e-12


def test_estimate_max_gap_ball_is_zero():
    t = ball_target(2, 1.0)
    gap = estimate_max_gap(t, 20, 4, make_stream(68, 0))
    assert gap <= 2.0 * 2.0 / 4096 + 1e-12  # within grid resolution


def test_estimate_max_gap_two_interval_line():
    man = Euclidean(1)
    ivs = [(-1.0, -0.15), (0.15, 1.0)]

    def dens(x):
        v = float(x[0])
        return 1.0 if any(a < v < b for a, b in ivs) else 0.0

    def sampler(n, rng):
        picks = rng.integers(0, 2, size=n)
        lo = np.where(picks == 0, -1.0, 0.15)
        hi = np.where(picks == 0, -0.15, 1.0)
        return (lo + rng.random(n) * (hi - lo))[:, None]

    total_len = sum(b - a for a, b in ivs)
    t = custom_target(
        man, dens, p_max=1.0, diam_w=2.0,
        density_batch=lambda x: np.array([dens(r) for r in x]),
        sampler=sampler,
        level_set=lambda lev: total_len if lev < 1.0 else 0.0,
    )
    gap = estimate_max_gap(t, 60, 4, make_stream(69, 0))
    assert gap == pytest.approx(0.3, abs=0.005)


def test_estimate_max_gap_cap_is_zero():
    t = cap_target(Sphere(2), math.pi / 3)
    gap = estimate_max_gap(t, 20, 4, make_stream(70, 0))
    assert gap <= math.pi / 4096 * 2 + 1e-12


def test_spec_strings_round_trip():
    for spec in [
        "uniform:sphere:2",
        "uniform:torus:2:6.0",
        "cap:sphere:2:psi=1.0471975511965976",
        "cap:sphere:2:psi=1.0:pole=1,0,0",
        "vmf:sphere:2:kappa=2.0",
        "convex-uniform:ball:2:r=1.0",
        "convex-uniform:box:2:extents=1.0,2.0",
        "ball-gauss:2:sigma=0.5:r=1.0",
    ]:
        t = targets.from_spec(spec)
        t2 = targets.from_spec(t.spec_string)
        assert t2.spec_string == t.spec_string
        assert t2.diam_w == pytest.approx(t.diam_w)
        assert np.allclose(t2.worst_start, t.worst_start, rtol=0.0, atol=1e-12), spec
    with pytest.raises(ValueError):
        targets.from_spec("nonsense:sphere:2")
    with pytest.raises(ValueError):
        targets.from_spec("vmf:sphere:2")  # missing kappa
    with pytest.raises(ValueError):
        targets.from_spec("cap:sphere:2:psi=1.0:pol=1,0,0")  # misspelt pole
    with pytest.raises(ValueError):
        targets.from_spec("vmf:sphere:2:kappa=2.0:kapa=3")  # unknown field


def test_box_target_metadata():
    t = box_target([1.0, 2.0])
    assert t.diam_w == pytest.approx(math.sqrt(5.0))
    assert _volume(t, 0.5) == pytest.approx(2.0)
    assert t.lambda_value == pytest.approx(math.sqrt(5.0))


def test_volumes_past_the_float_range_are_held_as_logs():
    # both targets were refused as volume overflows (test_cli covers the refusals that stay)
    assert box_target([1e200, 1e200]).log_level_set(-math.inf) == pytest.approx(2 * math.log(1e200), rel=1e-15)
    big = ball_target(800, 10.0)
    assert big.log_level_set(-math.inf) == pytest.approx(float(oracles.log_sphere_area(800) - math.log(800)
                                                                 + 800 * math.log(10.0)), rel=1e-15)
    assert big.density(reference_samples(big, 1, make_stream(76, 0))[0]) == 1.0


def test_preset_aliases():
    for alias, canonical in [
        ("uniform-manifold:sphere:2", "uniform:sphere:2"),
        ("spherical-cap-uniform:sphere:2:psi=1.0", "cap:sphere:2:psi=1.0"),
        ("von-mises-fisher:sphere:2:kappa=2.0", "vmf:sphere:2:kappa=2.0"),
        ("ball-truncated-gaussian:2:sigma=0.5:r=1.0", "ball-gauss:2:sigma=0.5:r=1.0"),
    ]:
        t, ref = targets.from_spec(alias), targets.from_spec(canonical)
        assert t.spec_string == ref.spec_string
