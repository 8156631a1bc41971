import hashlib
import itertools
import json
import math

import mpmath
import numpy as np
import pytest

import oracles
from geoslice import cli, targets
from geoslice.bounds import (
    EPSILON_MODES,
    ApplicabilityError,
    full_report,
    hit_and_run_rate,
    hyperparameter_gain,
    isoembolic_lower_bound,
    log_gap,
    log_volume_comparison_factor,
    optimal_hyperparameters,
)
from geoslice.manifolds import Sphere, log_unit_sphere_area
from geoslice.rng import make_stream

TWO_PI = 2 * math.pi


# -- volume comparison factor ------------------------------------------------

def test_comparison_factor_flat():
    assert log_volume_comparison_factor(0.0, 1.0, 5) == 0.0
    assert log_volume_comparison_factor(0.0, 2.0, 3) == pytest.approx(math.log(4.0), rel=1e-15)
    # diam^(d-1) overflows a float here; its log does not
    assert log_volume_comparison_factor(0.0, 20.0, 800) == pytest.approx(799 * math.log(20.0), rel=1e-15)


def test_comparison_factor_positive_curvature_caps_angle():
    assert log_volume_comparison_factor(1.0, math.pi, 3) == 0.0
    # below the cap the profile is the plain sine power
    assert log_volume_comparison_factor(1.0, 1.0, 3) == pytest.approx(2 * math.log(math.sin(1.0)), rel=1e-15)
    with pytest.raises(ApplicabilityError):
        log_volume_comparison_factor(1.0, math.pi * 1.01, 3)


def test_comparison_factor_negative_curvature():
    v = math.exp(log_volume_comparison_factor(-1.0, 1.0, 2))
    assert v == pytest.approx(math.sinh(1.0), rel=1e-12)
    # independent series evaluation of sinh
    series = sum(1.0 ** (2 * k + 1) / math.factorial(2 * k + 1) for k in range(12))
    assert v == pytest.approx(series, rel=1e-12)
    assert v == pytest.approx(1.17520, abs=1e-5)
    # log sinh x = x - log 2 + log(1 - e^(-2x)), finite where sinh overflows and accurate near 0
    assert log_volume_comparison_factor(-1.0, 1000.0, 3) == pytest.approx(2 * (1000.0 - math.log(2.0)), rel=1e-15)
    assert log_volume_comparison_factor(-1.0, 1e-9, 2) == pytest.approx(math.log(1e-9), rel=1e-15)
    assert log_volume_comparison_factor(-4.0, 0.5, 4) == pytest.approx(3 * math.log(math.sinh(1.0) / 2.0), rel=1e-14)


def test_comparison_factor_dimension_one_is_unity():
    for z in (-3.0, 0.0, 2.5):
        assert log_volume_comparison_factor(z, 1.3, 1) == 0.0


# -- convergence rate ----------------------------------------------------------

def _rho(*args) -> float:
    return -math.expm1(log_gap(*args))


def test_rate_circle_uniform():
    rho = _rho(1.0, 1, TWO_PI, math.inf, 0.0, math.log(2.0), math.log(TWO_PI), 1.0)
    assert rho == pytest.approx(0.5, abs=1e-15)


def test_rate_sphere_uniform():
    rho = _rho(1.0, 1, TWO_PI, math.inf, 0.0, math.log(TWO_PI), math.log(4 * math.pi), 1.0)
    assert rho == pytest.approx(1 - 1 / math.pi, abs=1e-12)


def test_rate_tiny_epsilon_approaches_one():
    gap = log_gap(1e-12, 1, TWO_PI, math.inf, 0.0, math.log(2.0), math.log(TWO_PI), 1.0)
    assert gap == pytest.approx(math.log(0.5e-12), rel=1e-15)
    assert -math.expm1(gap) < 1.0
    # below float resolution rho rounds to 1, and log(1 - rho) still states the gap
    assert -math.expm1(log_gap(1e-12, 1, TWO_PI, math.inf, 0.0, math.log(2.0), math.log(1e-10), 1.0)) == 1.0


def test_rate_input_validation():
    with pytest.raises(ValueError):
        log_gap(0.0, 1, 1.0, math.inf, 0.0, math.log(2.0), 0.0, 1.0)
    with pytest.raises(ValueError):
        log_gap(1.0, math.inf, 1.0, math.inf, 0.0, math.log(2.0), 0.0, 1.0)
    with pytest.raises(ValueError, match="outside"):
        # inconsistent inputs push the gain above one
        log_gap(1.0, 1, 1.0, math.inf, math.log(0.01), math.log(0.1), math.log(100.0), 1.0)
    with pytest.raises(ValueError, match="outside"):  # an empty support
        log_gap(1.0, 1, 1.0, math.inf, 0.0, math.log(2.0), -math.inf, 1.0)


@pytest.mark.parametrize("log_kappa,log_omega,log_sup_tl", [
    (0.0, -744.0, -760.0),  # omega_dm1 = e^-744 is subnormal as a float
    (0.0, math.log(2.0), -712.0),  # so is sup_tl
    (math.log(1e-200), math.log(1e-120), -800.0),  # and kappa * omega_dm1
    (0.0, math.log(2.0), math.log(1e-300)),  # and sup_tl / p_max at p_max = 1e10
], ids=["subnormal-omega", "subnormal-sup_tl", "subnormal-product", "subnormal-ratio"])
def test_log_gap_takes_terms_past_the_float_range(log_kappa, log_omega, log_sup_tl):
    gap = log_gap(1.0, 1, TWO_PI, math.inf, log_kappa, log_omega, log_sup_tl, 1e10)
    exact = -mpmath.log(2 * mpmath.pi) - log_kappa - log_omega + log_sup_tl - mpmath.log(10**10)
    assert gap == pytest.approx(float(exact), rel=1e-15)
    assert -math.expm1(gap) == pytest.approx(float(1 - mpmath.exp(exact)), abs=1e-16)


def test_rate_monotone_in_epsilon_and_level_mass():
    base = dict(m=1, w=TWO_PI, lam=math.inf, log_kappa=0.0, log_omega_dm1=math.log(TWO_PI),
                log_sup_tl=math.log(4 * math.pi), p_max=1.0)
    rhos = [-math.expm1(log_gap(e, **base)) for e in np.linspace(0.05, 1.0, 12)]
    assert all(a > b for a, b in zip(rhos, rhos[1:]))
    rhos2 = [
        _rho(0.5, 1, TWO_PI, math.inf, 0.0, math.log(TWO_PI), math.log(s), 1.0)
        for s in np.linspace(0.5, 4 * math.pi, 12)
    ]
    assert all(a > b for a, b in zip(rhos2, rhos2[1:]))


# -- hit-and-run ----------------------------------------------------------------

def test_hit_and_run_disk():
    assert hit_and_run_rate(math.pi, 2.0, 2) == pytest.approx(0.875, abs=1e-15)


def test_hit_and_run_unit_ball_3d():
    rho = hit_and_run_rate(4 * math.pi / 3, 2.0, 3)
    assert rho == pytest.approx(1 - 1 / 24, abs=1e-12)


def test_hit_and_run_matches_general_rate_identity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        diam = float(rng.uniform(0.3, 4.0))
        vol = float(rng.uniform(0.05, 0.9)) * math.exp(log_unit_sphere_area(d)) * diam**d
        direct = hit_and_run_rate(vol, diam, d)
        general = _rho(1.0, math.inf, 1.0, diam, (d - 1) * math.log(diam), log_unit_sphere_area(d), math.log(vol), 1.0)
        assert abs(direct - general) <= 1e-14


# -- hyperparameter gain ---------------------------------------------------------

def test_gain_peak_value():
    diam = 1.7
    assert hyperparameter_gain(1, 2 * diam, diam, 0.9, math.inf) == pytest.approx(1 / (4 * diam))


def test_gain_limit_is_inverse_lambda():
    for m in (1, 2, 5, math.inf):
        q = hyperparameter_gain(m, 1e9, 1.0, 0.2, 2.5)
        assert q == pytest.approx(1 / 2.5, rel=1e-8)


def test_gain_rejects_double_infinity():
    with pytest.raises(ApplicabilityError):
        hyperparameter_gain(math.inf, 1.0, 1.0, 0.0, math.inf)


def test_gain_peak_is_max_over_width_grid():
    diam, gap = 1.0, 0.15
    for m in range(1, 9):
        w_star = 2 * diam / m + 2 * gap * (m >= 2)
        q_star = hyperparameter_gain(m, w_star, diam, gap, math.inf)
        for w in np.linspace(0.5 * w_star, 3 * w_star, 1000):
            try:
                q = hyperparameter_gain(m, float(w), diam, gap, math.inf)
            except ApplicabilityError:
                continue
            assert q <= q_star + 1e-12


# -- optimal hyperparameters -----------------------------------------------------

def test_optimal_unbounded_lambda():
    opt = optimal_hyperparameters(1.7, 0.3, math.inf)
    assert opt.regime == "a" and opt.attained
    assert opt.m == 1 and opt.w == pytest.approx(3.4)
    assert opt.q == pytest.approx(1 / (4 * 1.7))


def test_optimal_small_lambda_no_gap():
    opt = optimal_hyperparameters(1.0, 0.0, 1.5)
    assert opt.regime == "d" and opt.attained
    assert math.isinf(opt.m) and opt.w is None and opt.w_label == "any"
    assert opt.q == pytest.approx(1 / 1.5)


def test_optimal_regime_b_with_gap_not_attained():
    opt = optimal_hyperparameters(1.0, 0.1, 3.0)
    assert opt.regime == "b" and not opt.attained
    assert math.isinf(opt.m) and math.isinf(opt.w)
    assert opt.q == pytest.approx(1 / 3.0)


def test_optimal_matches_grid_search():
    rng = np.random.default_rng(42)
    w_grid = np.geomspace(0.01, 1000.0, 20_000)
    for _ in range(25):
        diam = float(rng.uniform(0.3, 3.0))
        gap = float(rng.choice([0.0, rng.uniform(0.01, 0.3 * diam)]))
        lam = float(rng.choice([math.inf, diam * rng.uniform(1.0, 6.0)]))
        if math.isfinite(lam) and min(abs(lam - 2 * diam), abs(lam - 4 * diam)) < 0.02 * diam:
            continue  # stay away from regime boundaries
        opt = optimal_hyperparameters(diam, gap, lam)
        ms = list(range(1, 65)) + ([math.inf] if math.isfinite(lam) else [])
        q_best, _, _ = oracles.q_grid_search(diam, gap, lam, ms, w_grid * diam)
        assert q_best <= opt.q + 1e-12
        assert opt.q - q_best <= 3e-3 * opt.q


def test_hyperopt_q_is_the_q_its_certificate_proves():
    # each hyperopt row's q* is the q of the report at its (m*, w*), w = 1 where any w
    # attains it, and no (m, w) of a coarse grid certifies a smaller rho: on a sphere
    # full winding at w = 2 pi beats the corollary peak, except on a narrow cap
    specs = cli._HYPEROPT_PRESETS + ["cap:sphere:2:psi=0.5", "cap:sphere:2:psi=1.2"]
    w_grid = np.append(np.geomspace(0.25, 8 * math.pi, 24), TWO_PI)
    for spec in specs:
        t = targets.from_spec(spec)
        opt = optimal_hyperparameters(t.diam_w, t.max_gap or 0.0, t.lambda_value, t.manifold.geodesic_period)
        best = full_report(t, opt.m, 1.0 if opt.w is None else opt.w)
        assert opt.q == best.q, spec
        ms = [1, 2, 4] + ([math.inf] if math.isfinite(t.lambda_value) else [])
        for m, w in itertools.product(ms, w_grid):
            try:
                rho = full_report(t, m, float(w)).rho
            except ApplicabilityError:
                continue
            assert rho >= best.rho - 1e-12, (spec, m, w)


# -- isoembolic bound -------------------------------------------------------------

def test_isoembolic_round_sphere():
    for d in (1, 2, 3, 5):
        val = isoembolic_lower_bound(math.pi, math.pi, 1.0, d)
        assert val == pytest.approx(math.sqrt(2 / math.pi) / math.sqrt(d), rel=1e-12)


def test_isoembolic_flat_case_value():
    val = isoembolic_lower_bound(1.0, 1.0, 0.0, 2)
    # sqrt(2 pi)/sqrt(2) * (1/pi)^2 computed two independent ways
    assert val == pytest.approx(math.sqrt(math.pi) / math.pi**2, rel=1e-12)
    assert val == pytest.approx(0.179587, abs=1e-6)


def test_isoembolic_is_a_lower_bound_on_spheres():
    for d in (1, 2):
        info = Sphere(d)
        log_kappa = log_volume_comparison_factor(info.ricci_lower, info.diameter, d)
        actual = math.exp(info.log_total_measure - math.log(info.diameter) - log_kappa - log_unit_sphere_area(d))
        bound = isoembolic_lower_bound(
            info.injectivity_radius, info.diameter, info.ricci_lower, d
        )
        assert bound <= actual + 1e-12


def test_isoembolic_validation():
    with pytest.raises(ApplicabilityError):
        isoembolic_lower_bound(2.0, 1.0, 0.0, 2)


# -- full report -------------------------------------------------------------------

def test_full_report_circle_uniform_analytic():
    t = targets.from_spec("uniform:sphere:1")
    rep = full_report(t, 1, TWO_PI, "analytic")
    assert rep.epsilon == 1.0 and rep.certified
    assert rep.rho == pytest.approx(0.5, abs=1e-12)
    assert "rho = 0.5" in "\n".join(rep.lines())


def test_full_report_corollary_mode_circle():
    t = targets.from_spec("uniform:sphere:1")
    rep = full_report(t, 1, TWO_PI, "corollary")
    assert rep.epsilon == pytest.approx(0.5)
    assert rep.certified


def test_full_report_disk_hit_and_run():
    t = targets.from_spec("convex-uniform:ball:2:r=1.0")
    rep = full_report(t, math.inf, 1.0, "analytic")
    assert rep.epsilon == 1.0
    assert rep.rho == pytest.approx(0.875, abs=1e-14)
    assert rep.rho == pytest.approx(hit_and_run_rate(math.pi, 2.0, 2), abs=1e-14)


def test_full_report_cap_corollary():
    t = targets.from_spec("cap:sphere:2:psi=1.5707963267948966")
    rep = full_report(t, 1, TWO_PI, "corollary")
    assert rep.epsilon == pytest.approx(0.5, abs=1e-12)
    assert rep.rho == pytest.approx(1 - 1 / (4 * math.pi), abs=1e-9)
    assert rep.rho == pytest.approx(0.92042, abs=5e-6)
    assert rep.certified


def test_full_report_auto_prefers_analytic():
    t = targets.from_spec("uniform:sphere:2")
    rep = full_report(t, 1, TWO_PI, "auto")
    assert rep.epsilon == 1.0
    assert rep.rho == pytest.approx(1 - 1 / math.pi, abs=1e-12)


def test_full_report_analytic_mode_refuses_generic_config():
    t = targets.from_spec("uniform:sphere:2")
    with pytest.raises(ApplicabilityError):
        full_report(t, 2, 1.0, "analytic")


@pytest.mark.parametrize("spec, m, w, message", [
    ("cap:sphere:2:psi=1.5707963267948966", 1.5, 4.0, "m must be a positive integer or inf"),
    ("cap:sphere:2:psi=1.5707963267948966", 0.5, 8.0, "m must be a positive integer or inf"),
    ("convex-uniform:ball:2:r=1.0", math.inf, -1.0, "w must be positive and finite"),
])
def test_full_report_refuses_budgets_the_sampler_refuses(spec, m, w, message):
    with pytest.raises(ValueError, match=message):
        full_report(targets.from_spec(spec), m, w)


def test_full_report_monte_carlo_not_certified():
    t = targets.from_spec("convex-uniform:ball:2:r=1.0")
    rep = full_report(
        t, math.inf, 0.8, "monte-carlo", rng=make_stream(3, 0), mc_probes=8, mc_runs=400
    )
    assert not rep.certified
    assert rep.epsilon_se is not None
    # convex sections are always covered, so the estimate must sit at 1
    assert rep.epsilon == pytest.approx(1.0)


def test_monte_carlo_level_set_is_never_certified():
    vmf = targets.from_spec("vmf:sphere:2:kappa=2.0")
    mc = targets.custom_target(
        Sphere(2), vmf.density, p_max=math.exp(2.0), diam_w=math.pi,
        density_batch=vmf.density_batch, max_gap=0.0,
    )
    for mode in ("auto", "corollary"):
        assert full_report(vmf, 1, TWO_PI, mode).certified, mode
        rep = full_report(mc, 1, TWO_PI, mode)
        assert not rep.certified, mode
        assert "[monte-carlo level set]" in "\n".join(rep.lines())
    # the Monte-Carlo sup overshoots the analytic one: a faster rate than proven
    assert rep.log_sup_t_level > full_report(vmf, 1, TWO_PI, "auto").log_sup_t_level


def test_full_report_rescaling_leaves_rho_unchanged():
    base = targets.from_spec("vmf:sphere:2:kappa=2.0")
    rho0 = full_report(base, 1, TWO_PI, "corollary").rho
    for c in (0.1, 7.3):
        rep = full_report(base.rescaled(c), 1, TWO_PI, "corollary")
        assert rep.rho == pytest.approx(rho0, abs=1e-12)


def test_report_lines_carry_provenance():
    t = targets.from_spec("uniform:sphere:1")
    lines = full_report(t, 1, TWO_PI, "auto").lines()
    text = "\n".join(lines)
    assert "[manifold metadata]" in text
    assert "[target metadata]" in text
    assert "epsilon = 1.0 [analytic" in text
    d = full_report(t, 1, TWO_PI, "auto").to_dict()
    assert d["rho"] == pytest.approx(0.5)


# The certificate table of the bundled presets at standard hyperparameters;
# rho is given where it has a closed form.
_CERTIFICATE_TABLE = [
    ("uniform:sphere:1", 1, TWO_PI, "auto", 0.5),
    ("uniform:sphere:2", 1, TWO_PI, "auto", None),
    ("uniform:sphere:3", 1, TWO_PI, "auto", None),
    ("cap:sphere:2:psi=1.5707963267948966", 1, TWO_PI, "corollary", None),
    ("vmf:sphere:2:kappa=2.0", 1, TWO_PI, "corollary", None),
    ("convex-uniform:ball:2:r=1.0", math.inf, 1.0, "auto", 0.875),
    ("convex-uniform:box:2:extents=1.0,1.0", math.inf, 1.0, "auto", None),
    ("ball-gauss:2:sigma=0.5:r=1.0", math.inf, 1.0, "auto", None),
]


@pytest.mark.parametrize("spec,m,w,mode,rho", _CERTIFICATE_TABLE, ids=lambda v: str(v))
def test_certificate_table(spec, m, w, mode, rho):
    rep = full_report(targets.from_spec(spec), m, w, mode)
    assert rep.certified
    assert 0.0 <= rep.rho < 1.0
    if rho is not None:
        assert rep.rho == pytest.approx(rho, abs=1e-12)


# -- the certificate as a whole ----------------------------------------------------

def _linear_level_set(t):
    """t -> volume({p > t}) of a target, the form ``custom_target`` takes."""
    return lambda lev: math.exp(t.log_level_set(math.log(lev) if lev > 0.0 else -math.inf))


def _without_gap(spec: str, **kw):
    """A preset rewrapped as a custom target whose section gap is not supplied."""
    t = targets.from_spec(spec)
    return targets.custom_target(
        t.manifold, t.density, t.p_max, t.diam_w, name=spec, density_batch=t.density_batch,
        sampler=t.sampler, level_set=_linear_level_set(t), **kw,
    )


def _golden_reports():
    """(report or its ValueError) over preset x (m, w) x mode, the grid of the report golden."""
    cases = [targets.from_spec(spec) for spec, *_ in _CERTIFICATE_TABLE]
    cases.append(_without_gap("convex-uniform:ball:2:r=1.0", lambda_value=2.0))
    grid = itertools.product(cases, ((1, TWO_PI), (math.inf, 1.0), (4, 1.0)), EPSILON_MODES)
    for k, (t, (m, w), mode) in enumerate(grid):
        if mode == "monte-carlo" and math.isinf(m) and math.isinf(t.lambda_value):
            continue  # not in the recorded digest; rejected before any draw (test_cli)
        try:
            yield full_report(t, m, w, mode, rng=make_stream(k, 0), mc_probes=2, mc_runs=50)
        except ValueError as e:
            yield e


def _grid_digest() -> str:
    """SHA-256 of lines() and to_dict(), error text included, over the golden grid."""
    h = hashlib.sha256()
    for rep in _golden_reports():
        if isinstance(rep, ValueError):
            h.update(f"{type(rep).__name__}: {rep}\n".encode())
        else:
            h.update(("\n".join(rep.lines()) + "\n" + json.dumps(rep.to_dict(), sort_keys=True) + "\n").encode())
    return h.hexdigest()


def test_report_bytes_golden():
    # Moved five times since it was first recorded, by declared output changes: first the
    # sup_t_level_provenance key, and a custom disk without a gap (no corollary
    # epsilon demand at m = 1, no q at m >= 2, delta tagged [not supplied]); then
    # supplied gaps tagged [target metadata] with no delta_analytic key, the m = inf
    # epsilon retagged "gap-free bounded sections", the custom disk's exact sup = pi,
    # and the reworded missing-gap error. Then the four Monte-Carlo epsilons of the
    # disk and its gap-free twin moved (0.7/0.8/0.78/0.6 -> 0.76/0.76/0.68/0.78),
    # since their probe points are exact ball draws rather than accepted cube draws.
    # Then the ball-Gaussian's two Monte-Carlo epsilons (0.9/0.88 -> 0.78/0.58), since
    # its probe points are inverse-cdf draws rather than accepted Gaussian draws.
    # Then the hemisphere's and the vMF's sup_t_level by an ulp or two
    # (6.283185307179585 -> 6.2831853071795845, 8.539734222673562 -> ...564), since
    # both areas read I_s(d/2, d/2) of the squared half-chord s; four rhos moved in
    # the last digit.  Then the certificate went to logs: kappa, omega_dm1 and
    # sup_t_level became log_kappa, log_omega_dm1 and log_sup_t_level (rows, JSON keys
    # and the provenance key), a log_gap line and key came in, and rho moved by at most
    # one ulp (S^1 at m = 4, w = 1 and the hemisphere at w = 2 pi); the vMF's and ball-Gaussian's rhos kept
    # their bits, and every error text is unchanged.  Then 14 lines of text moved when the
    # covering bound lost its theta and the missing-gap rule was stated once, every number
    # keeping its bits: the 8 refusals of an infinite min(m w, lambda) became
    # ApplicabilityError (was ValueError), 4 covering refusals read "b/m" (was "(b-theta)/m"),
    # and the 2 q notes of the gapless custom disk's Monte-Carlo reports (m = inf and m = 4)
    # give the corollary's missing-gap message (was "section gap unknown").  Then a
    # Monte-Carlo epsilon counted a window that wraps the great circle: exactly the 5
    # monte-carlo reports at m = 1, w = 2 pi on S^1, S^2, S^3, the hemisphere and the vMF
    # moved, 5 lines each (epsilon 0.42/0.4/0.44/0.6/0.48 -> 1.0, epsilon_se -> the
    # 1e-300 floor, log_gap, rho -> the analytic rho, and the JSON line).  Then q became
    # the report's own epsilon / lambda_eff: exactly the q lines moved, 67 of them, and
    # the JSON "q" of the 28 whose value moved.  39 changed only their tag ([corollary
    # formula] -> [epsilon / lambda_eff]); 28 changed value: the full-winding analytic
    # reports at w = 2 pi (0.0796 -> 0.159), every Monte-Carlo report, and the gapless
    # custom disk's two former "n/a [inapplicable: ...]".
    assert _grid_digest() == "a42f5642b51a369cdf005d96c4c0577229bcfc1a33d72e05a1e79a79e9380644"


def test_every_report_q_is_its_epsilon_over_lambda_eff():
    reports = [rep for rep in _golden_reports() if not isinstance(rep, ValueError)]
    assert len(reports) > 50
    for rep in reports:
        assert rep.q == rep.epsilon / rep.row("lambda_eff")[0] == rep.to_dict()["q"], rep.lines()
        assert f"q = {rep.q!r} [epsilon / lambda_eff]" in rep.lines()


def test_certified_iff_epsilon_proved_and_level_set_analytic():
    cap = targets.from_spec("cap:sphere:2:psi=1.0")
    supplied_gap = targets.custom_target(
        cap.manifold, cap.density, cap.p_max, cap.diam_w, name="cap-gap",
        density_batch=cap.density_batch, sampler=cap.sampler, level_set=_linear_level_set(cap), max_gap=0.1,
    )
    vmf = targets.from_spec("vmf:sphere:2:kappa=2.0")
    mc_level = targets.custom_target(
        Sphere(2), vmf.density, p_max=math.exp(2.0), diam_w=math.pi,
        density_batch=vmf.density_batch, max_gap=0.0, level_samples=20_000,
    )
    # (target, m, w, mode, epsilon proved, level set analytic)
    rows = [(targets.from_spec(s), m, w, mode, True, True) for s, m, w, mode, _ in _CERTIFICATE_TABLE]
    rows += [
        (supplied_gap, 1, TWO_PI, "corollary", True, True),  # the gap term vanishes at m = 1
        (supplied_gap, 4, 1.0, "corollary", True, True),  # a supplied gap is target metadata
        (supplied_gap, 4, 1.0, "auto", True, True),
        (cap, 4, 1.0, "monte-carlo", False, True),
        (mc_level, 1, TWO_PI, "auto", True, False),
        (mc_level, 4, 1.0, "corollary", True, False),
        (mc_level, 4, 1.0, "monte-carlo", False, False),
        (_without_gap("convex-uniform:ball:2:r=1.0", lambda_value=2.0), 1, 4.0, "auto", True, True),
    ]
    for k, (t, m, w, mode, proved, analytic) in enumerate(rows):
        rep = full_report(t, m, w, mode, rng=make_stream(60, k), mc_probes=2, mc_runs=50)
        d = rep.to_dict()
        assert ("optimistic" not in d["epsilon_provenance"]) == proved, (t.spec_string, m, w, mode)
        assert (d["log_sup_t_level_provenance"] == "level-set optimiser") == analytic, (t.spec_string, m, w, mode)
        assert rep.certified == d["certified"] == (proved and analytic), (t.spec_string, m, w, mode)
        if t is supplied_gap:
            assert "delta = 0.1 [target metadata]" in rep.lines()


def test_unknown_gap_is_needed_only_at_m_at_least_2():
    t = _without_gap("uniform:sphere:2")
    for mode in ("auto", "corollary"):  # w < 2 pi, so auto takes the corollary too
        rep = full_report(t, 1, 5.0, mode)
        assert rep.epsilon == pytest.approx(1.0 - math.pi / 5.0) and rep.certified
        assert "delta = n/a [not supplied]" in rep.lines()
    missing = ("corollary epsilon needs the section-gap constant; supply the target's max_gap, "
               "use m = 1, or use monte-carlo mode")
    with pytest.raises(ApplicabilityError, match=f"^{missing}$"):
        full_report(t, 3, 2.0, "corollary")
    rep = full_report(t, 3, 2.0, "monte-carlo", rng=make_stream(61, 0), mc_probes=2, mc_runs=50)
    assert rep.q == rep.epsilon / rep.row("lambda_eff")[0]


def test_full_winding_means_w_at_least_2_pi_at_any_m():
    # stepping-out only widens its first window (-U, -U + w), so every w >= 2 pi wraps
    # the great circle at any m, and no w below 2 pi does
    hemisphere = targets.from_spec("cap:sphere:2:psi=1.5707963267948966")
    for m, w, rho, source in [
        (1, 6.283185307, 0.9204225284540524, "corollary formula"),
        (1, 7.0, 0.8571428571428572, "analytic: full-winding interval on the sphere"),
        (2, TWO_PI, 0.9204225284540524, "analytic: full-winding interval on the sphere"),
        (1, TWO_PI, 0.8408450569081046, "analytic: full-winding interval on the sphere"),
    ]:
        rep = full_report(hemisphere, m, w, "auto")
        assert (rep.rho, rep.row("epsilon")[1], rep.certified) == (rho, source, True), (m, w)
    with pytest.raises(ApplicabilityError, match="no analytic covering probability"):
        full_report(hemisphere, 1, 6.283185307, "analytic")


def test_monte_carlo_epsilon_counts_a_window_that_wraps_the_great_circle():
    # at w >= 2 pi every first window wraps the great circle, so every draw covers and
    # the Monte-Carlo epsilon is the analytic 1, with the analytic rho; below 2 pi a draw
    # must reach the section's top, and the hemisphere's m = 4, w = 1 report (windows at
    # most 4 wide) keeps the bytes it had when only the top counted, except its q line,
    # which reads its own epsilon / lambda_eff (0.0537 [corollary formula] -> 0.08)
    for spec in ("uniform:sphere:1", "uniform:sphere:2", "cap:sphere:2:psi=1.5707963267948966",
                 "vmf:sphere:2:kappa=2.0"):
        t = targets.from_spec(spec)
        rep = full_report(t, 1, TWO_PI, "monte-carlo", rng=make_stream(62, 0), mc_probes=4, mc_runs=200)
        assert (rep.epsilon, rep.rho) == (1.0, full_report(t, 1, TWO_PI, "auto").rho), spec
    hemisphere = targets.from_spec("cap:sphere:2:psi=1.5707963267948966")
    rep = full_report(hemisphere, 4, 1.0, "monte-carlo", rng=make_stream(62, 0), mc_probes=4, mc_runs=200)
    assert (rep.epsilon, rep.epsilon_se) == (0.32, 0.03298484500494128)
    digest = hashlib.sha256("\n".join(rep.lines()).encode()).hexdigest()
    assert digest == "2d2ffc044cf1c747cf307db096b7d12c6e81f1abd5e5a4c6126d74e2c78dde28"


def test_custom_step_level_set_gets_the_exact_sup():
    # the left limit at p_max makes a step level set exact, as for the preset: its level
    # just below p_max is below it both in t, which a level set in t reads, and in log t
    preset = targets.from_spec("convex-uniform:ball:2:r=1.0")
    custom = _without_gap("convex-uniform:ball:2:r=1.0", lambda_value=2.0)
    step = targets.custom_target(preset.manifold, preset.density, 1.0, 2.0, lambda_value=2.0,
                                 level_set=lambda lev: math.pi if lev < 1.0 else 0.0)
    assert targets.log_sup_t_level(step) == math.log(math.pi)
    for t in (step, step.rescaled(1e300), custom):
        assert targets.log_sup_t_level(t) - math.log(t.p_max) == pytest.approx(math.log(math.pi), rel=1e-15)
    assert full_report(custom, 1, 4.0, "auto").rho == full_report(preset, 1, 4.0, "auto").rho


def test_gap_free_bounded_sections_give_analytic_epsilon_at_m_inf():
    gap_free = _without_gap("convex-uniform:ball:2:r=1.0", max_gap=0.0, lambda_value=2.0)
    rep = full_report(gap_free, math.inf, 1.0, "analytic")
    assert rep.row("epsilon") == (1.0, "analytic: gap-free bounded sections, m = inf") and rep.certified
    gapped = _without_gap("convex-uniform:ball:2:r=1.0", max_gap=0.1, lambda_value=2.0)
    with pytest.raises(ApplicabilityError, match="no analytic covering probability"):
        full_report(gapped, math.inf, 1.0, "analytic")


# -- exact references in any dimension ----------------------------------------------
# Each is computed past the float range of the linear terms, or below the level scan
# that once stopped at 1e-6 p_max.

@pytest.mark.parametrize("d", [1, 2, 3, 300, 343, 344, 437])
def test_uniform_sphere_gap_is_the_area_ratio(d):
    # at m = 1, w = 2 pi: 1 - rho = area(S^d) / (2 pi area(S^(d-1))), about (2 pi d)^(-1/2);
    # both sides of d = 343, the last gamma-form area, and past 437 through the CLI (test_cli)
    rep = full_report(targets.from_spec(f"uniform:sphere:{d}"), 1, TWO_PI, "auto")
    exact = mpmath.exp(oracles.log_sphere_area(d + 1) - oracles.log_sphere_area(d)) / (2 * mpmath.pi)
    assert math.exp(rep.log_gap) == pytest.approx(float(exact), rel=1e-11)
    assert rep.certified and rep.rho == -math.expm1(rep.log_gap)


@pytest.mark.parametrize("d,r", [(300, 1.0), (800, 10.0)])
def test_ball_gap_at_unlimited_expansions(d, r):
    # hit-and-run: 1 - rho = vol / (omega_(d-1) (2 r)^d) = 1 / (d 2^d) at every radius
    rep = full_report(targets.from_spec(f"convex-uniform:ball:{d}:r={r}"), math.inf, 1.0, "auto")
    assert rep.log_gap == pytest.approx(-math.log(d) - d * math.log(2.0), rel=1e-15)


@pytest.mark.parametrize("kappa", [0.1, 0.5, 2.0, 50.0, 709.0])
def test_vmf_gap_on_the_sphere(kappa):
    # t * area({p > t}) peaks on the cap x.mu > 1 - 1/kappa, or on all of S^2 below kappa = 1/2,
    # so 1 - rho = 1 / (2 pi e kappa), or e^(-2 kappa) / pi
    rep = full_report(targets.from_spec(f"vmf:sphere:2:kappa={kappa}"), 1, TWO_PI, "auto")
    k = mpmath.mpf(kappa)
    exact = 1 / (2 * mpmath.pi * mpmath.e * k) if kappa >= 0.5 else mpmath.exp(-2 * k) / mpmath.pi
    assert math.exp(rep.log_gap) == pytest.approx(float(exact), rel=1e-13)


@pytest.mark.parametrize("d", [2, 20, 40, 60, 400, 1000])
@pytest.mark.parametrize("r", [30.0, 2.0])
def test_ball_gauss_sup_at_its_closed_form(d, r):
    # with p = e^(-|x|^2 / 2) on the ball of radius r, t * vol({p > t}) peaks at t = e^(-d/2)
    # while d < r^2, else at the rim, t = e^(-r^2 / 2); past d = 28 both lie below 1e-6
    t = targets.ball_gaussian_target(d, 1.0, r)
    a = mpmath.mpf(d) / 2
    level = -a if d < r * r else -mpmath.mpf(r) ** 2 / 2
    log_vol = oracles.log_sphere_area(d) - mpmath.log(d) + a * mpmath.log(-2 * level)
    assert targets.log_sup_t_level(t) == pytest.approx(float(level + log_vol), rel=1e-15, abs=1e-14)


@pytest.mark.parametrize("d", [40, 60])
def test_vmf_sup_in_high_dimension(d):
    # the peak sits near t = e^(-d/2) p_max, far below the old scan's 1e-6 p_max
    t = targets.from_spec(f"vmf:sphere:{d}:kappa=500.0")
    exact = oracles.vmf_log_sup_t_level(d, 500.0)
    assert targets.log_sup_t_level(t) == pytest.approx(float(exact), rel=1e-15)


# -- the certificate against the exact one-step Doeblin constant D -------------------
# A minorisation P(x, .) >= (1 - rho) pi can never exceed D = inf p(x, y) / pi(y).  Where D
# has a closed form, the certificate's 1 - rho sits a fixed factor below it.

@pytest.mark.parametrize("spec,m,w,log_d,factor", [
    *[(f"uniform:sphere:{d}", 1, TWO_PI, oracles.log_doeblin_uniform_sphere(d), 2)
      for d in (1, 2, 3, 5, 100, 300, 344, 10_000)],
    *[(f"convex-uniform:ball:{d}:r=1.0", math.inf, 1.0, oracles.log_doeblin_ball(d), 2)
      for d in (1, 2, 10, 800)],
    ("cap:sphere:2:psi=1.5707963267948966", 1, TWO_PI, oracles.log_doeblin_hemisphere(), 4),
])
def test_gap_sits_a_fixed_factor_below_the_doeblin_constant(spec, m, w, log_d, factor):
    t = targets.from_spec(spec)
    gap = full_report(t, m, w).log_gap
    assert gap <= float(log_d)
    tol = 1e-12 if t.manifold.dim <= 300 else 1e-10
    assert float(log_d) - gap == pytest.approx(math.log(factor), rel=0, abs=tol)
