"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  All randomness is pinned
to fixed seeds; the statistical tolerances are 3 standard errors plus the
documented positive bias of the TV estimator on one-sided envelope checks.
"""

import json
import math

import numpy as np
import pytest

import oracles
from geoslice import bounds, cli, harness, kernel, targets

TWO_PI = 2 * math.pi
SEED = 20260810


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_sphere_constants():
    """Full-winding sphere configuration: epsilon and rho reproduce exactly."""
    checks = []
    for d in (1, 2, 3):
        t = targets.from_spec(f"uniform:sphere:{d}")
        rep = bounds.full_report(t, 1, TWO_PI, "analytic")
        checks.append(rep.epsilon == 1.0)
        rep_c = bounds.full_report(t, 1, TWO_PI, "corollary")
        checks.append(abs(rep_c.epsilon - 0.5) <= 1e-12)
    rho1 = bounds.full_report(targets.from_spec("uniform:sphere:1"), 1, TWO_PI, "analytic").rho
    rho2 = bounds.full_report(targets.from_spec("uniform:sphere:2"), 1, TWO_PI, "analytic").rho
    checks.append(abs(rho1 - 0.5) <= 1e-12)
    checks.append(abs(rho2 - (1.0 - 1.0 / math.pi)) <= 1e-12)
    _verdict(
        "1 sphere constants",
        all(checks),
        f"eps analytic=1, eps corollary=1/2, rho(S1)={rho1!r}, rho(S2)={rho2!r}",
    )


def test_criterion_2_hit_and_run_constants():
    disk = bounds.hit_and_run_rate(math.pi, 2.0, 2)
    ok = abs(disk - 0.875) <= 1e-14
    # algebraic identity against the general rate on random convex bodies
    from geoslice.manifolds import log_unit_sphere_area

    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 6))
        diam = float(rng.uniform(0.2, 5.0))
        vol = float(rng.uniform(0.02, 0.95)) * math.exp(log_unit_sphere_area(d)) * diam**d
        direct = bounds.hit_and_run_rate(vol, diam, d)
        general = -math.expm1(bounds.log_gap(
            1.0, math.inf, 1.0, diam, (d - 1) * math.log(diam), log_unit_sphere_area(d), math.log(vol), 1.0
        ))
        worst = max(worst, abs(direct - general))
    ok = ok and worst <= 1e-14
    _verdict("2 hit-and-run constants", ok, f"rho(disk)={disk!r}, worst identity gap={worst:.2e}")


def test_criterion_3_hyperparameter_optimum():
    diam, gap = 1.7, 0.2
    opt = bounds.optimal_hyperparameters(diam, gap, math.inf)
    w_grid = np.geomspace(0.01 * diam, 100.0 * diam, 10_000)
    q_best, m_best, w_best = oracles.q_grid_search(diam, gap, math.inf, range(1, 65), w_grid)
    grid_step = w_best * (math.log(1e4) / 10_000)  # local spacing of the log grid
    ok = (
        opt.m == 1
        and abs(opt.w - 2 * diam) <= 1e-12
        and abs(opt.q - 1 / (4 * diam)) <= 1e-15
        and m_best == 1
        and abs(w_best - 2 * diam) <= 5 * grid_step
        and q_best <= opt.q + 1e-12
        and opt.q - q_best <= 1e-5
    )
    # regime classification against the grid-structure oracle
    rng = np.random.default_rng(SEED + 3)
    agree = 0
    trials = 0
    while trials < 100:
        dm = float(rng.uniform(0.3, 3.0))
        gp = float(rng.choice([0.0, rng.uniform(0.005, 0.3) * dm]))
        lam = math.inf if rng.random() < 0.25 else dm * float(rng.uniform(1.0, 6.0))
        if math.isfinite(lam) and min(abs(lam - 2 * dm), abs(lam - 4 * dm)) < 0.02 * dm:
            continue  # regime boundaries are ill-posed for a grid oracle
        trials += 1
        got = bounds.optimal_hyperparameters(dm, gp, lam).regime
        agree += got == oracles.classify_regime_grid(dm, gp, lam)
    ok = ok and agree == 100
    _verdict(
        "3 hyperparameter optimum",
        ok,
        f"grid argmax m={m_best} w={w_best:.5f} q={q_best:.7f} vs (1, {2*diam}, {1/(4*diam):.7f}); "
        f"regimes {agree}/100",
    )


def test_criterion_4_tv_exact_case_circle():
    t = targets.from_spec("uniform:sphere:1")
    cfg = kernel.GssConfig(target=t, w=TWO_PI, m=1, seed=SEED + 4)
    x0 = t.manifold.point([1.0, 0.0])
    curve = harness.verify_uniform_ergodicity(t, cfg, x0, [1], 100_000)
    p = curve.points[0]
    ok = (
        curve.certified
        and curve.rho == pytest.approx(0.5, abs=1e-12)
        and p.tv <= p.se * 3 + curve.bias  # one-step exact mixing: pure estimator noise
        and p.tv <= 0.5
        and curve.passed
    )
    _verdict(
        "4 tv exact case (circle)",
        ok,
        f"tv={p.tv:.5f} <= bias={curve.bias:.5f} + 3*se={3*p.se:.5f}, envelope=0.5",
    )


def test_criterion_5_tv_cap_hemisphere():
    t = targets.from_spec("cap:sphere:2:psi=1.5707963267948966")
    cfg = kernel.GssConfig(target=t, w=TWO_PI, m=1, seed=SEED + 5)
    x0 = harness.worst_start(t)
    n_list = [1, 5, 10, 20]
    curve = harness.verify_uniform_ergodicity(
        t, cfg, x0, n_list, 100_000, epsilon_mode="corollary"
    )
    ok = curve.certified and curve.passed
    ok = ok and curve.rho == pytest.approx(1 - 1 / (4 * math.pi), abs=1e-12)
    details = []
    for p in curve.points:
        lit = 0.92042**p.n + 3 * p.se + curve.bias  # literal rounded envelope
        ok = ok and p.tv <= lit
        details.append(f"n={p.n}: tv={p.tv:.4f} env={p.envelope:.4f}")
    _verdict("5 tv cap hemisphere", ok, f"rho={curve.rho:.6f}; " + "; ".join(details))


def test_criterion_6_tv_disk_hit_and_run():
    t = targets.from_spec("convex-uniform:ball:2:r=1.0")
    cfg = kernel.GssConfig(target=t, w=1.0, m=math.inf, seed=SEED + 6)
    x0 = harness.worst_start(t)
    curve = harness.verify_uniform_ergodicity(t, cfg, x0, [1, 3, 5], 100_000)
    ok = curve.certified and curve.passed and curve.rho == pytest.approx(0.875, abs=1e-14)
    details = "; ".join(f"n={p.n}: tv={p.tv:.4f} env={p.envelope:.4f}" for p in curve.points)
    _verdict("6 tv disk hit-and-run", ok, f"rho={curve.rho}; {details}")


def test_criterion_7_distributional_battery():
    report = harness.lemma_suite(SEED + 7)
    ok = report.passed
    # the fixed two-gap configuration must also match its brute-force oracle
    fixed = [c for c in report.checks if c.config.startswith("S=(-1,0.3)u(0.5,1)")][0]
    exact = oracles.exact_covering_probability([(-1.0, 0.3), (0.5, 1.0)], 0.0, math.inf, 3, 1.0)
    se = fixed.details["se"]
    ok = ok and abs(fixed.observed - exact) <= 4 * se
    ok = ok and fixed.observed >= fixed.reference - 3 * se
    small = [c for c in report.checks if c.config.startswith("S=(-0.1,0.1)")][0]
    exact_small = oracles.exact_covering_probability([(-0.1, 0.1)], 0.0, math.inf, 1, 2.0)
    ok = ok and abs(exact_small - 0.95) <= 1e-6
    ok = ok and abs(small.observed - exact_small) <= 4 * small.details["se"]
    n_pass = sum(c.passed for c in report.checks)
    _verdict(
        "7 distributional battery",
        ok,
        f"{n_pass}/{len(report.checks)} checks; two-gap estimate {fixed.observed:.4f} "
        f"vs exact {exact:.4f} (bound {fixed.reference:.4f})",
    )


def test_criterion_8_invariance_and_mutation():
    configs = [
        ("uniform:sphere:2", 1, TWO_PI),
        ("vmf:sphere:2:kappa=2.0", 1, TWO_PI),
        ("cap:sphere:2:psi=1.5707963267948966", 1, TWO_PI),
        ("convex-uniform:ball:2:r=1.0", math.inf, 1.0),
    ]
    details = []
    ok = True
    for spec, m, w in configs:
        t = targets.from_spec(spec)
        cfg = kernel.GssConfig(target=t, w=w, m=m, seed=SEED + 8)
        rep = harness.invariance_test(t, cfg, 100_000, seed=SEED + 8)
        ok = ok and rep.passed
        details.append(f"{t.spec_string}: p={rep.p_value:.3f}")
    t = targets.from_spec("cap:sphere:2:psi=1.5707963267948966")
    cfg = kernel.GssConfig(target=t, w=TWO_PI, m=1, seed=SEED + 8)
    broken = harness.invariance_test(t, cfg, 100_000, seed=SEED + 8, broken=True)
    ok = ok and (not broken.passed) and broken.p_value < 1e-6
    details.append(f"mutation: p={broken.p_value:.2e}")
    _verdict("8 invariance + mutation", ok, "; ".join(details))


def _strip_volatile(text: str):
    """Drop header lines; parse JSON lines without their timestamp field."""
    kept = []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        if line.startswith("{"):
            obj = json.loads(line)
            obj.pop("timestamp", None)
            kept.append(json.dumps(obj, sort_keys=True))
        else:
            kept.append(line)
    return kept


def test_criterion_9_determinism(tmp_path, monkeypatch, capsys):
    ok = True
    details = []

    # (a) identical chain files across two identical invocations
    args = ["sample", "--target", "vmf:sphere:2:kappa=2.0", "--m", "1",
            "--w", str(TWO_PI), "--seed", str(SEED + 9), "--steps", "300",
            "--out", "chain.jsonl"]
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    d1.mkdir(), d2.mkdir()
    monkeypatch.chdir(d1)
    assert cli.main(args) == 0
    monkeypatch.chdir(d2)
    assert cli.main(args) == 0
    same_chain = _strip_volatile((d1 / "chain.jsonl").read_text()) == _strip_volatile(
        (d2 / "chain.jsonl").read_text()
    )
    ok = ok and same_chain
    details.append(f"chain files identical={same_chain}")

    # (b) identical verify reports across two runs, and identical curves from the
    # library across thread counts 1 and 8
    monkeypatch.chdir(tmp_path)
    outs = {}
    for tag in ("a", "b"):
        out = tmp_path / f"curve_{tag}.csv"
        code = cli.main(
            ["verify", "--target", "uniform:sphere:1", "--m", "1", "--w", str(TWO_PI),
             "--seed", str(SEED + 9), "--n-list", "1,3", "--replicates", "4000",
             "--out", str(out)]
        )
        assert code == 0
        outs[tag] = _strip_volatile(out.read_text())
    capsys.readouterr()
    same_rerun = outs["a"] == outs["b"]
    circle = targets.from_spec("uniform:sphere:1")
    cfg = kernel.GssConfig(target=circle, w=TWO_PI, m=1, seed=SEED + 9)
    rows = [
        list(harness.verify_uniform_ergodicity(
            circle, cfg, harness.worst_start(circle), [1, 3], 4000, threads=threads
        ).csv_rows())
        for threads in (1, 8)
    ]
    same_threads = rows[0] == rows[1]
    ok = ok and same_rerun and same_threads
    details.append(f"verify rerun identical={same_rerun}, threads 1 vs 8 identical={same_threads}")

    # (c) library-level chain determinism, bit for bit
    t = targets.from_spec("cap:sphere:2:psi=1.5707963267948966")
    cfg = kernel.GssConfig(target=t, w=TWO_PI, m=1, seed=SEED + 9)
    x0 = harness.worst_start(t)
    a = kernel.run_chain(x0, 100, cfg)
    b = kernel.run_chain(x0, 100, cfg)
    same_states = all(np.array_equal(p.coords, q.coords) for p, q in zip(a.states, b.states))
    ok = ok and same_states
    details.append(f"state sequences bit-identical={same_states}")

    _verdict("9 determinism", ok, "; ".join(details))
