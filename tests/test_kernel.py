import dataclasses
import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from geoslice import harness, targets
from geoslice.kernel import (
    ChainRecord, ConfigError, GssConfig, StepDiagnostics, _record_line, _step_array,
    endpoint_ensemble, run_chain,
)
from geoslice.manifolds import Sphere
from geoslice.rng import make_stream

TWO_PI = 2 * math.pi


def _circle_uniform_config(seed=100):
    t = targets.from_spec("uniform:sphere:1")
    return t, GssConfig(target=t, w=TWO_PI, m=1, seed=seed)


def test_config_rejects_unbounded_budget_on_compact_support():
    t = targets.from_spec("uniform:sphere:2")
    with pytest.raises(ConfigError):
        GssConfig(target=t, w=1.0, m=math.inf, seed=1)
    with pytest.raises(ValueError):
        GssConfig(target=t, w=-1.0, m=1, seed=1)
    with pytest.raises(ValueError):
        GssConfig(target=t, w=1.0, m=0, seed=1)


def test_one_step_circle_uniform_mixes_exactly():
    # one full winding plus symmetric direction: a single step is an exact draw
    t, cfg = _circle_uniform_config()
    x0 = np.array([1.0, 0.0])
    rng = make_stream(100, 0)
    angles = []
    for _ in range(30_000):
        y, _ = _step_array(x0, cfg, rng)
        angles.append(math.atan2(y[1], y[0]) % TWO_PI)
    counts, _ = np.histogram(angles, bins=64, range=(0.0, TWO_PI))
    assert stats.chisquare(counts).pvalue > 0.001


def test_step_output_always_in_support():
    for spec, m, w in [
        ("cap:sphere:2:psi=1.5707963267948966", 1, TWO_PI),
        ("vmf:sphere:2:kappa=2.0", 1, TWO_PI),
        ("convex-uniform:ball:2:r=1.0", math.inf, 0.5),
    ]:
        t = targets.from_spec(spec)
        cfg = GssConfig(target=t, w=w, m=m, seed=5)
        rng = make_stream(5, 0)
        x = harness.worst_start(t).coords
        for _ in range(300):
            x, _ = _step_array(x, cfg, rng)
            assert t.density(x) > 0.0


def test_ball_chain_stays_inside():
    t = targets.from_spec("convex-uniform:ball:2:r=1.0")
    cfg = GssConfig(target=t, w=0.5, m=math.inf, seed=6)
    rng = make_stream(6, 0)
    x = np.array([0.3, 0.3])
    for _ in range(500):
        x, _ = _step_array(x, cfg, rng)
        assert float(x @ x) < 1.0


def test_step_failure_carries_diagnostic_context(monkeypatch):
    from geoslice import slice1d
    from geoslice.slice1d import ShrinkageCapError

    monkeypatch.setattr(slice1d, "MAX_SHRINK_ITERS", 1)
    t = targets.from_spec("cap:sphere:2:psi=0.3")
    cfg = GssConfig(target=t, w=TWO_PI, m=1, seed=16)
    x0 = harness.worst_start(t).coords
    rng = make_stream(16, 0)
    with pytest.raises(ShrinkageCapError) as exc:
        for _ in range(200):  # a single allowed draw fails quickly on a slim cap
            _step_array(x0, cfg, rng)
    msg = str(exc.value)
    assert "state=" in msg and "direction=" in msg and "level=" in msg


def test_step_rejects_zero_density_start():
    t = targets.from_spec("cap:sphere:2:psi=1.0")
    cfg = GssConfig(target=t, w=TWO_PI, m=1, seed=7)
    x = np.array([0.0, 0.0, -1.0])
    with pytest.raises(ValueError):
        _step_array(x, cfg, make_stream(7, 0))
    with pytest.raises(ValueError):  # a carried density gets the same check
        _step_array(harness.worst_start(t).coords, cfg, make_stream(7, 0), px=0.0)


def test_run_chain_zero_length_is_valid():
    t, cfg = _circle_uniform_config()
    rec = run_chain(t.manifold.point([1.0, 0.0]), 0, cfg, burn_in=5)
    assert isinstance(rec, ChainRecord)
    assert rec.states == [] and rec.diagnostics == []
    assert rec.config["target"] == "uniform:sphere:1"


def test_run_chain_rejects_negative_counts():
    t, cfg = _circle_uniform_config()
    x0 = t.manifold.point([1.0, 0.0])
    for kwargs in (dict(n=-1), dict(n=2, thin=0), dict(n=2, burn_in=-5)):
        with pytest.raises(ValueError):
            run_chain(x0, config=cfg, **kwargs)


def test_run_chain_deterministic_given_seed():
    t, cfg = _circle_uniform_config(seed=2024)
    x0 = t.manifold.point([0.0, 1.0])
    a = run_chain(x0, 50, cfg, burn_in=3, thin=2)
    b = run_chain(x0, 50, cfg, burn_in=3, thin=2)
    for pa, pb in zip(a.states, b.states):
        assert np.array_equal(pa.coords, pb.coords)


def test_run_chain_ball_mean_near_zero():
    t = targets.from_spec("convex-uniform:ball:2:r=1.0")
    cfg = GssConfig(target=t, w=1.0, m=math.inf, seed=8)
    rec = run_chain(t.manifold.point([0.9, 0.0]), 10_000, cfg, burn_in=50)
    xs = np.stack([p.coords for p in rec.states])
    # batch-means standard error absorbs the chain autocorrelation
    batches = xs[: 10_000 // 20 * 20].reshape(20, -1, 2).mean(axis=1)
    se = batches.std(axis=0, ddof=1) / math.sqrt(20)
    assert np.all(np.abs(xs.mean(axis=0)) <= 3 * se)


def test_run_chain_jsonl_sink_format():
    t, cfg = _circle_uniform_config(seed=77)
    buf = io.StringIO()
    run_chain(t.manifold.point([1.0, 0.0]), 5, cfg, burn_in=2, thin=3, sink=buf,
              header_extra={"note": "test"})
    lines = buf.getvalue().strip().split("\n")
    header = json.loads(lines[0])
    assert header["geoslice_chain"]["seed"] == 77
    assert header["note"] == "test"
    assert len(lines) == 6
    recs = [json.loads(line) for line in lines[1:]]
    assert [r["i"] for r in recs] == [5, 8, 11, 14, 17]
    for r in recs:
        assert set(r) == {"i", "x", "t", "w_int", "k_shrink"}
        assert len(r["x"]) == 2
        assert r["t"] > 0 and r["w_int"] > 0 and r["k_shrink"] >= 1


def _json_record(i, coords, diag):
    """A chain record as ``json.dumps`` writes it: the reference for the record writer."""
    return json.dumps({
        "i": i, "x": [float(c) for c in coords], "t": diag.level,
        "w_int": diag.interval_width, "k_shrink": diag.shrink_iterations,
    }) + "\n"


# 17 significant digits, the extremes of the double range, signed zeros and non-finite values
_EDGE_FLOATS = (-0.0, 5e-324, 1e308, -1e308, 0.1, 0.30000000000000004, 1.2345678901234567e-300,
                math.nan, math.inf, -math.inf)


@settings(max_examples=400, deadline=None)
@given(
    i=st.integers(min_value=1, max_value=2**80),
    xs=st.lists(st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS)), min_size=1, max_size=6),
    t=st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS)),
    w=st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS)),
    k=st.integers(min_value=0, max_value=10**6),
    numpy_scalars=st.booleans(),
)
@example(i=1, xs=[-0.0, 5e-324, 0.1], t=0.30000000000000004, w=1e308, k=1, numpy_scalars=True)
@example(i=10**15, xs=[1e308, 1e308], t=0.5, w=1.0, k=0, numpy_scalars=False)  # sum overflows
@example(i=2, xs=[0.5, math.nan], t=0.5, w=1.0, k=3, numpy_scalars=True)
@example(i=2, xs=[0.5], t=math.inf, w=1.0, k=3, numpy_scalars=False)
@example(i=2, xs=[0.5] * 6, t=0.25, w=-math.inf, k=3, numpy_scalars=True)
def test_record_line_matches_json_dumps(i, xs, t, w, k, numpy_scalars):
    if numpy_scalars:  # the transition may hand over numpy floats
        t, w = np.float64(t), np.float64(w)
    diag = StepDiagnostics(t, w, k, 0, 1.0)
    xa = np.array(xs, dtype=float)
    assert _record_line(i, xa, diag) == _json_record(i, xa, diag)


def test_diagnostics_interval_width_capped():
    t = targets.from_spec("vmf:sphere:2:kappa=2.0")
    cfg = GssConfig(target=t, w=2.0, m=3, seed=9)
    rec = run_chain(harness.worst_start(t), 400, cfg)
    for d in rec.diagnostics:
        assert d.interval_width <= 3 * 2.0 * (1 + 1e-12)
        assert d.shrink_iterations >= 1


def test_endpoint_ensemble_zero_steps_copies_start():
    t, cfg = _circle_uniform_config()
    x0 = t.manifold.point([0.0, 1.0])
    ens = endpoint_ensemble(x0, 0, 17, cfg)
    assert ens.shape == (17, 2)
    assert np.array_equal(ens, np.tile(x0.coords, (17, 1)))


def test_endpoint_ensemble_thread_count_invariance():
    t = targets.from_spec("cap:sphere:2:psi=1.5707963267948966")
    cfg = GssConfig(target=t, w=TWO_PI, m=1, seed=11)
    x0 = harness.worst_start(t)
    a = endpoint_ensemble(x0, 3, 64, cfg, threads=1)
    b = endpoint_ensemble(x0, 3, 64, cfg, threads=8)
    assert a.shape == (64, 3) and np.array_equal(a, b)


def test_one_step_circle_ensemble_uniform():
    t, cfg = _circle_uniform_config(seed=12)
    x0 = t.manifold.point([1.0, 0.0])
    coords = endpoint_ensemble(x0, 1, 30_000, cfg)
    ang = np.mod(np.arctan2(coords[:, 1], coords[:, 0]), TWO_PI)
    counts, _ = np.histogram(ang, bins=64, range=(0.0, TWO_PI))
    assert stats.chisquare(counts).pvalue > 0.001


def test_vmf_ensemble_matches_analytic_bins():
    t = targets.from_spec("vmf:sphere:2:kappa=2.0")
    cfg = GssConfig(target=t, w=TWO_PI, m=1, seed=13)
    coords = endpoint_ensemble(harness.worst_start(t), 20, 15_000, cfg)
    binning = harness.make_binning(t, bins=128)
    idx = binning.assign(coords)
    assert np.all(idx >= 0)
    counts = np.bincount(idx, minlength=binning.bin_count)
    res = stats.chisquare(counts, f_exp=binning.masses * len(coords))
    assert res.pvalue > 0.001


def test_torus_chain_end_to_end():
    t = targets.from_spec("uniform:torus:2:6.283185307179586")
    cfg = GssConfig(target=t, w=3.0, m=2, seed=15)
    x0 = t.manifold.point([0.1, 0.2])
    rec = run_chain(x0, 300, cfg)
    coords = np.stack([p.coords for p in rec.states])
    assert np.all((coords >= 0.0) & (coords < TWO_PI))
    ens = endpoint_ensemble(x0, 4, 20_000, cfg)
    est = harness.estimate_tv(ens, harness.make_binning(t, bins=64))
    assert est.tv <= est.bias + 5 * est.se  # a few steps mix the flat torus


def test_tv_decreases_along_the_chain():
    t = targets.from_spec("cap:sphere:2:psi=1.5707963267948966")
    cfg = GssConfig(target=t, w=TWO_PI, m=1, seed=14)
    x0 = harness.worst_start(t)
    binning = harness.make_binning(t)
    early = harness.estimate_tv(endpoint_ensemble(x0, 1, 20_000, cfg, seed=1), binning)
    late = harness.estimate_tv(endpoint_ensemble(x0, 6, 20_000, cfg, seed=2), binning)
    assert late.tv <= early.tv + 3 * math.hypot(early.se, late.se)


# -- bit identity ---------------------------------------------------------------------

HEMISPHERE = "cap:sphere:2:psi=1.5707963267948966"

# SHA-256 of _golden_outputs() as the transition computed them before it reused
# the accepted point and its density and drew uniforms through random(); any
# change to a random draw or to the arithmetic of a transition shows here.
# "broken" starts from 500 cap draws, recorded since the cap sampler takes
# cos and sin of the colatitude from s = sin^2(theta / 2) itself.
GOLDEN = {
    "ensemble": "8d3bf5b3c5784b9f2b69952b6cd1e521d365a8fcbe79e5f8adaa0dbd51fa179f",
    "chain": "c1fbe53ff2777c3a656d9ca25a9b745b1395ea7d0786fe84eb361f32f8160e96",
    "broken": "8723408611996e455d1fe2c70a5ff9e09e2a0258795e9e9145d0b7c5d5df3429",
}


def _golden_outputs():
    cap = targets.from_spec(HEMISPHERE)
    disk = targets.from_spec("convex-uniform:ball:2:r=1.0")
    vmf = targets.from_spec("vmf:sphere:2:kappa=2.0")
    ens_cap = endpoint_ensemble(
        harness.worst_start(cap), 3, 200, GssConfig(target=cap, w=TWO_PI, m=1, seed=31)
    )
    ens_disk = endpoint_ensemble(
        harness.worst_start(disk), 3, 200, GssConfig(target=disk, w=1.0, m=math.inf, seed=32)
    )
    sink = io.StringIO()
    run_chain(harness.worst_start(vmf), 500, GssConfig(target=vmf, w=TWO_PI, m=1, seed=33), sink=sink)
    cfg = GssConfig(target=cap, w=TWO_PI, m=1, seed=34)
    rng = make_stream(34, 2)
    broken = np.array([
        harness._broken_step_array(x, cfg, rng)
        for x in targets.reference_samples(cap, 500, make_stream(34, 1))
    ])
    return {
        "ensemble": hashlib.sha256(ens_cap.tobytes() + ens_disk.tobytes()).hexdigest(),
        "chain": hashlib.sha256(sink.getvalue().encode()).hexdigest(),
        "broken": hashlib.sha256(broken.tobytes()).hexdigest(),
    }


def test_outputs_match_golden_digests():
    assert _golden_outputs() == GOLDEN


_PRESET_SPECS = (
    "uniform:sphere:1",
    "uniform:sphere:2",
    "uniform:torus:2:6.283185307179586",
    HEMISPHERE,
    "vmf:sphere:2:kappa=2.0",
    "convex-uniform:ball:2:r=1.0",
    "convex-uniform:box:2:extents=1,2",
    "ball-gauss:2:sigma=0.5:r=1.0",
)


@pytest.mark.parametrize("spec", _PRESET_SPECS)
def test_chain_records_are_json_dumps_of_the_chain_record(spec):
    t = targets.from_spec(spec)
    sink = io.StringIO()
    rec = run_chain(harness.worst_start(t), 40, GssConfig(target=t, w=1.3, m=4, seed=40),
                    burn_in=3, thin=2, sink=sink)
    lines = sink.getvalue().splitlines(keepends=True)
    steps = range(3 + 2, 3 + 2 * 40 + 1, 2)
    assert len(lines) == 1 + len(rec.states) == 1 + len(steps)
    assert lines[1:] == [_json_record(i, x.coords, d) for i, x, d in zip(steps, rec.states, rec.diagnostics)]


@pytest.mark.parametrize("spec,m", [
    (spec, m)
    for spec in _PRESET_SPECS
    for m in (1, 4, math.inf)
    if not math.isinf(m) or math.isfinite(targets.from_spec(spec).lambda_value)
])
def test_carried_density_matches_recomputed(spec, m):
    t = targets.from_spec(spec)
    cfg = GssConfig(target=t, w=1.3, m=m, seed=35)
    rng_carry, rng_fresh = make_stream(35, 0), make_stream(35, 0)
    xc = xf = harness.worst_start(t).coords
    px = None
    for _ in range(60):
        xc, dc = _step_array(xc, cfg, rng_carry, px)
        xf, df = _step_array(xf, cfg, rng_fresh)
        assert np.array_equal(xc, xf)
        assert (dc.level, dc.interval_width, dc.shrink_iterations, dc.expansions, dc.density) == (
            df.level, df.interval_width, df.shrink_iterations, df.expansions, df.density
        )
        assert dc.density == float(t.density(xc))
        px = dc.density
    assert rng_carry.bit_generator.state == rng_fresh.bit_generator.state


def test_accepted_point_recomputed_when_the_oracle_moved_on(monkeypatch):
    # the transition reuses the oracle's latest query only when it is the accepted time
    from geoslice import slice1d

    t = targets.from_spec("vmf:sphere:2:kappa=2.0")
    cfg = GssConfig(target=t, w=TWO_PI, m=1, seed=36)
    x = harness.worst_start(t).coords
    expect = [_step_array(x, cfg, make_stream(36, k)) for k in range(20)]
    shrink = slice1d.reeled_shrinkage

    def shrink_then_query(oracle, lo, hi, rng):
        res = shrink(oracle, lo, hi, rng)
        oracle(0.5 * lo)
        return res

    monkeypatch.setattr(slice1d, "reeled_shrinkage", shrink_then_query)
    for k, (y, d) in enumerate(expect):
        y2, d2 = _step_array(x, cfg, make_stream(36, k))
        assert np.array_equal(y, y2) and d2.density == d.density == float(t.density(y))


# -- calls at each layer boundary -----------------------------------------------------

def _layer_calls(case, monkeypatch):
    """Calls of each traced layer made by one fixed-seed run of ``case``."""
    from geoslice import bounds, slice1d

    calls = dict.fromkeys(
        ("exp_array", "sample_tangent_array", "density", "stepping_out", "reeled_shrinkage"), 0
    )

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    base = targets.from_spec("vmf:sphere:2:kappa=2.0" if case == "vmf chain" else HEMISPHERE)
    man = base.manifold
    for name in ("exp_array", "sample_tangent_array"):
        setattr(man, name, counted(name, getattr(man, name)))
    t = dataclasses.replace(base, density=counted("density", base.density))
    for name in ("stepping_out", "reeled_shrinkage"):
        monkeypatch.setattr(slice1d, name, counted(name, getattr(slice1d, name)))
    x0 = harness.worst_start(t)
    if case == "cap ensemble":
        endpoint_ensemble(x0, 5, 200, GssConfig(target=t, w=TWO_PI, m=1, seed=37))
    elif case == "vmf chain":
        run_chain(x0, 500, GssConfig(target=t, w=TWO_PI, m=1, seed=38))
    else:
        bounds.estimate_epsilon(t, 4, 1.0, 2, 500, make_stream(39, 0))
    return calls


# Counts of the transition as it stood when the scalar hot path moved to ndarray.dot
# and an in-place exp map.  The benchmark's traced units are these calls, so a
# hot-path edit that adds or drops one shows here before it moves a benchmark figure.
LAYER_CALLS = {
    "cap ensemble": dict(exp_array=1925, sample_tangent_array=1000, density=1926,
                         stepping_out=1000, reeled_shrinkage=1000),
    "vmf chain": dict(exp_array=1064, sample_tangent_array=500, density=1065,
                      stepping_out=500, reeled_shrinkage=500),
    "estimate_epsilon": dict(exp_array=2572, sample_tangent_array=2, density=2574,
                             stepping_out=1000, reeled_shrinkage=0),
}


@pytest.mark.parametrize("case", sorted(LAYER_CALLS))
def test_layer_call_counts(case, monkeypatch):
    assert _layer_calls(case, monkeypatch) == LAYER_CALLS[case]


# -- exact moments of the transition ------------------------------------------------
# At m = inf on the uniform d-ball the interval covers the whole chord through x along
# v, and the move is uniform on it, so E[x' | x, v] = x - (x.v) v and E[x' | x] =
# (1 - 1/d) x.  At m = 1, w = 2 pi on uniform S^d the interval is the whole great
# circle, so E[x' | x] = 0.  Both hold exactly from every start.

def _moment_starts(t):
    """worst_start, a generic point, and the centre (on a sphere, the pole)."""
    dim = t.manifold.embedding_dim
    if isinstance(t.manifold, Sphere):
        generic = np.arange(1.0, dim + 1.0)
        return [harness.worst_start(t).coords, generic / np.linalg.norm(generic), np.eye(dim)[-1]]
    return [harness.worst_start(t).coords, np.linspace(0.3, -0.4, dim), np.zeros(dim)]


@pytest.mark.parametrize("spec,m,w,shrink", [
    ("convex-uniform:ball:2:r=1.0", math.inf, 1.0, 1 - 1 / 2),
    ("convex-uniform:ball:3:r=1.0", math.inf, 1.0, 1 - 1 / 3),
    ("uniform:sphere:2", 1, TWO_PI, 0.0),
    ("uniform:sphere:3", 1, TWO_PI, 0.0),
], ids=["ball:2", "ball:3", "sphere:2", "sphere:3"])
def test_one_step_conditional_mean_is_exact(spec, m, w, shrink):
    t = targets.from_spec(spec)
    cfg = GssConfig(target=t, w=w, m=m, seed=71)
    for k, x in enumerate(_moment_starts(t)):
        rng = make_stream(71, k)
        ys = np.array([_step_array(x, cfg, rng)[0] for _ in range(20_000)])
        z = (ys.mean(axis=0) - shrink * x) / (ys.std(axis=0) / math.sqrt(len(ys)))
        assert np.all(np.abs(z) <= 4.5), (x, z)


def test_run_chain_autocorrelation_matches_the_disk_eigenvalue():
    # by the conditional mean above, x1 and x2 are eigenfunctions with eigenvalue 1/2
    # on the uniform disk at m = inf: from stationarity, the lag-k autocorrelation is 2^-k
    t = targets.from_spec("convex-uniform:ball:2:r=1.0")
    x0 = t.manifold.point(targets.reference_samples(t, 1, make_stream(72, 1))[0])
    rec = run_chain(x0, 50_000, GssConfig(target=t, w=1.0, m=math.inf, seed=72))
    xs = np.array([p.coords for p in rec.states])
    xs -= xs.mean(axis=0)
    var = (xs * xs).sum(axis=0)
    for k in (1, 2, 3):
        acf = (xs[:-k] * xs[k:]).sum(axis=0) / var
        assert np.all(np.abs(acf - 0.5**k) <= 0.03), (k, acf)
