import dataclasses
import hashlib
import importlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import oracles
import pytest

from geoslice import harness, kernel, targets
from geoslice.harness import (
    energy_distance,
    energy_permutation_test,
    estimate_tv,
    invariance_test,
    lemma_suite,
    make_binning,
    verify_uniform_ergodicity,
    worst_start,
)
from geoslice.manifolds import Euclidean, Sphere
from geoslice.rng import make_stream
from geoslice.targets import reference_samples

TWO_PI = 2 * math.pi
ROOT = Path(__file__).resolve().parent.parent


# -- binning -------------------------------------------------------------------

@pytest.mark.parametrize(
    "spec,bins",
    [
        ("uniform:sphere:1", None),
        ("uniform:sphere:2", None),
        ("cap:sphere:2:psi=1.5707963267948966", None),
        ("vmf:sphere:2:kappa=2.0", None),
        ("convex-uniform:ball:2:r=1.0", None),
        ("convex-uniform:box:2:extents=1.0,2.0", 256),
        ("ball-gauss:2:sigma=0.5:r=1.0", 256),
        ("uniform:torus:2:6.283185307179586", None),
    ],
)
def test_binning_masses_sum_to_one(spec, bins):
    t = targets.from_spec(spec)
    b = make_binning(t, bins)
    assert abs(float(np.sum(b.masses)) - 1.0) < 1e-10
    assert np.all(b.masses > 0)


def test_binning_masses_match_reference_frequencies():
    # empirical sanity of the analytic masses themselves
    for spec in ["cap:sphere:2:psi=1.5707963267948966", "vmf:sphere:2:kappa=2.0",
                 "convex-uniform:ball:2:r=1.0"]:
        t = targets.from_spec(spec)
        b = make_binning(t)
        pts = reference_samples(t, 200_000, make_stream(1234, 0))
        idx = b.assign(pts)
        assert np.all(idx >= 0)
        freq = np.bincount(idx, minlength=b.bin_count) / len(pts)
        worst = np.max(np.abs(freq - b.masses) / np.sqrt(b.masses * (1 - b.masses) / len(pts) + 1e-300))
        assert worst < 5.0  # all bins within 5 binomial sigmas


def test_cap_binning_excludes_dead_hemisphere():
    t = targets.from_spec("cap:sphere:2:psi=1.5707963267948966")
    b = make_binning(t)
    assert b.bin_count == 256  # half of 16 x 32


def test_binning_rejects_unknown_schemes():
    no_masses = [targets.custom_target(man, lambda x: 1.0, p_max=1.0, diam_w=math.pi, level_samples=1000)
                 for man in (Sphere(1), Sphere(2))]
    for t in [targets.from_spec("vmf:sphere:3:kappa=1.0"),
              targets.from_spec("convex-uniform:ball:3:r=1"), *no_masses]:
        with pytest.raises(ValueError):
            make_binning(t)


# (spec, explicit bins) -> SHA-256 prefix of the masses and of the assignment of
# support and off-support draws, at the default bins and at the explicit ones,
# as the four hand-written binning schemes computed them; the two 2-D balls
# since their masses come from a Gauss-Legendre rule instead of quad, and the
# uniform balls since their support draws are exact ball draws rather than
# accepted cube draws (their masses, and the bins of fixed points, unchanged).
# Re-recorded since: the circle cap and vMF, whose masses are the presets'
# closed-form arcs and Gauss-Legendre sums instead of quad of the density
# (cap masses moved by up to 2.6e-10, to the closed form; the bins of fixed
# points unchanged), and the 1-D and 2-D ball-Gaussians, whose support draws
# are inverse-cdf radii instead of accepted Gaussian draws (masses unchanged).
# Then the four S^2 cap and vMF entries, whose band masses are stated in the
# depth 1 - h below the pole (masses moved by at most 8.7e-18; the assignment
# of every draw unchanged).
GOLDEN_BINNING = {
    ("uniform:sphere:1", 48): (
        "758c37e35bdccf0fb235ee99dd28645b",
        "00f732deb0c53f4bb7a69968b3ee02e4",
    ),
    ("cap:sphere:1:psi=2.0", 48): (
        "d8b726773d32bad1feadb285f7fe11c4",
        "4ac1c49d6154acdd7de6aee413426fcf",
    ),
    ("vmf:sphere:1:kappa=2.0", 48): (
        "5fc8083e2280723e85b1587907864acc",
        "355e8eb971a44ce587e9ad56c33ffab4",
    ),
    ("uniform:sphere:2", 200): (
        "866340aad736e09c44c7e281fbf3eee3",
        "6569670b76a71ca1188c304568a72f41",
    ),
    ("cap:sphere:2:psi=1.0", 200): (
        "451ce88f738f9f814fcdf8e4580fed9d",
        "9eb044c0dc3be3115d224b5bb390d01f",
    ),
    ("cap:sphere:2:psi=1.2:pole=0.6,0.0,0.8", 200): (
        "a6d18b1a8a964f2ed26ece19ffba3cc7",
        "c5091bc2a4723bc510e164818985a48d",
    ),
    ("vmf:sphere:2:kappa=2.0", 200): (
        "16db22624484c1eb10aa220e762f7a66",
        "3eb44bd63be92ef5971a74c43eb2b825",
    ),
    ("vmf:sphere:2:kappa=5.0:mu=0.0,0.6,-0.8", 200): (
        "c2fce7a83727bf3444d6ddac3bb79add",
        "f47091d1ab43fcf8220f1c300da51cb2",
    ),
    ("convex-uniform:ball:1:r=1.5", 50): (
        "88ef14e91ea6efdc363c67be00c4e16a",
        "51bb15050849af7fe0d2588e87dec63b",
    ),
    ("convex-uniform:ball:2:r=1.0", 256): (
        "0187692fa27b41d2b0c20857cce40ce9",
        "b935e0fe7e98477f0d11d5dc3ad14342",
    ),
    ("convex-uniform:box:1:extents=3.0", 50): (
        "9aba3b8da772e017de334406cd34947c",
        "f06100cd5b9c0f187db6bfc31e7ea921",
    ),
    ("convex-uniform:box:2:extents=1.0,2.0", 256): (
        "3bb6ed3f01790d01dcacb498d3a68006",
        "5099817556e8ac8bf20bed9bd41d9321",
    ),
    ("ball-gauss:1:sigma=0.5:r=1.0", 50): (
        "49dbe3ead751d399e953d889a9ef9b7e",
        "9791b0c24c8675bc0144a9d8924240c4",
    ),
    ("ball-gauss:2:sigma=0.5:r=1.0", 256): (
        "2c5ff97f29d0613e9e297afd1ad15ca5",
        "019437a89881819868a0790b69cff78b",
    ),
    ("uniform:torus:1:6.283185307179586", 50): (
        "cef98f6a10c74827ac71621daed8da2e",
        "08231b7c1ea30d803d8a57ee99e0bf59",
    ),
    ("uniform:torus:2:6.283185307179586", 256): (
        "33f306791400dd1eb784cdee9c9fadcb",
        "0d522813fcf7643ed2f41e427c93f690",
    ),
}


def _binning_digests(spec, bins):
    t = targets.from_spec(spec)
    man = t.manifold
    rng = make_stream(4321, 0)
    support = reference_samples(t, 4000, rng)
    if isinstance(man, Euclidean):
        off = 2.0 * float(np.max(t.grid_half)) * rng.standard_normal((4000, man.dim))
    else:
        off = man.uniform_points(4000, rng)
    pts = np.concatenate([support, off])
    out = []
    for b in (make_binning(t), make_binning(t, bins)):
        h = hashlib.sha256(b.masses.tobytes())
        h.update(b.assign(pts).astype(np.int64).tobytes())
        out.append(h.hexdigest()[:32])
    return tuple(out)


def test_binning_matches_golden_digests():
    assert {key: _binning_digests(*key) for key in GOLDEN_BINNING} == GOLDEN_BINNING


# -- tv estimation ----------------------------------------------------------------

def test_tv_null_case_within_bias():
    t = targets.from_spec("uniform:sphere:1")
    b = make_binning(t, bins=50)
    pts = reference_samples(t, 100_000, make_stream(2, 0))
    est = estimate_tv(pts, b, rng=make_stream(2, 1))
    assert est.tv <= 3 * est.se + est.bias


def test_tv_degenerate_sample():
    t = targets.from_spec("uniform:sphere:1")
    b = make_binning(t, bins=50)
    pts = np.tile([1.0, 0.0], (1500, 1))
    est = estimate_tv(pts, b, rng=make_stream(3, 0))
    assert est.tv == pytest.approx(0.98, abs=1e-12)


def test_tv_se_halves_with_quadrupled_sample():
    t = targets.from_spec("uniform:sphere:1")
    b = make_binning(t)
    ratios = []
    for trial in range(10):
        small = estimate_tv(reference_samples(t, 4000, make_stream(40 + trial, 0)), b,
                            rng=make_stream(40 + trial, 1))
        big = estimate_tv(reference_samples(t, 16000, make_stream(40 + trial, 2)), b,
                          rng=make_stream(40 + trial, 3))
        ratios.append(big.se / small.se)
    # a fourfold sample should halve the standard error
    assert 0.35 < float(np.mean(ratios)) < 0.65


def test_tv_input_validation():
    t = targets.from_spec("uniform:sphere:1")
    b = make_binning(t)
    with pytest.raises(ValueError):
        estimate_tv(np.tile([1.0, 0.0], (100, 1)), b)
    with pytest.raises(ValueError):
        estimate_tv(np.tile([1.0, 0.0, 0.0], (2000, 1)), b)


@pytest.mark.parametrize("spec", [
    "cap:sphere:2:psi=1.5707963267948966",
    "convex-uniform:ball:2:r=1.0",
    "uniform:torus:2:6.283185307179586",
    "vmf:sphere:1:kappa=2.0",
])
def test_tv_bootstrap_array_equals_loop(spec):
    # half target draws, half uniform (on the disk's grid and off it), so the
    # overflow bin and the TV are nonzero where the binning allows it
    t = targets.from_spec(spec)
    man = t.manifold
    b = make_binning(t)
    for seed in range(5):
        rng = make_stream(0x7B, seed)
        if isinstance(man, Euclidean):
            other = rng.uniform(-1.5, 1.5, (1500, man.dim))
        else:
            other = man.uniform_points(1500, rng)
        pts = np.concatenate([reference_samples(t, 1500, rng), other])
        est = estimate_tv(pts, b, rng=make_stream(0x7C, seed))
        assert (est.tv, est.se) == oracles.estimate_tv_loop(pts, b, make_stream(0x7C, seed))


def test_tv_null_calibration_across_seeds():
    t = targets.from_spec("uniform:sphere:1")
    b = make_binning(t)
    for seed in range(20):
        pts = reference_samples(t, 20_000, make_stream(900 + seed, 0))
        est = estimate_tv(pts, b, rng=make_stream(900 + seed, 1))
        assert est.tv <= est.bias + 3 * est.se


# -- energy test ---------------------------------------------------------------------

def test_energy_test_null():
    rng = make_stream(5, 0)
    a = rng.standard_normal((4000, 2))
    b = rng.standard_normal((4000, 2))
    res = energy_permutation_test(a, b, make_stream(5, 1))
    assert res.p_value > 0.001


def test_energy_test_detects_shift():
    rng = make_stream(6, 0)
    a = rng.standard_normal((3000, 2))
    b = rng.standard_normal((3000, 2)) + 0.25
    res = energy_permutation_test(a, b, make_stream(6, 1))
    assert res.p_value < 0.001


def test_energy_distance_direct_matches_matrix_path():
    # The second case, 1500 vs 1500 from one law, is the scale invariance_test uses.
    for n, shift in [(300, 0.1), (1500, 0.0)]:
        rng = make_stream(7, 0)
        a = rng.standard_normal((n, 2))
        b = rng.standard_normal((n, 2)) + shift
        res = energy_permutation_test(a, b, make_stream(7, 1), permutations=10, subsample=n)
        assert res.statistic == pytest.approx(energy_distance(a, b), rel=1e-8), n


@pytest.mark.parametrize(
    "na,nb,d,shift,subsample",
    [
        # pooled sizes on both sides of the 64-row block boundary
        (1, 1, 1, 0.0, 1500),
        (31, 32, 2, 0.0, 1500),
        (32, 32, 3, 0.8, 1500),
        (32, 33, 1, 0.0, 1500),
        # per-side sizes 63, 64, 65
        (63, 63, 2, 0.0, 1500),
        (64, 64, 3, 0.0, 1500),
        (65, 65, 1, 0.6, 1500),
        (700, 1300, 2, 0.3, 1500),
        (1500, 1500, 3, 0.0, 1500),
        # subsampling draws before the test
        (2000, 900, 2, 0.1, 800),
    ],
)
def test_energy_test_blocked_matrix_equals_one_shot(na, nb, d, shift, subsample):
    rng = make_stream(11, na + nb)
    a = rng.standard_normal((na, d))
    b = rng.standard_normal((nb, d)) + shift
    res = energy_permutation_test(a, b, make_stream(12, d), permutations=99, subsample=subsample)
    ref = oracles.energy_permutation_test_one_shot(
        a, b, make_stream(12, d), permutations=99, subsample=subsample
    )
    assert dataclasses.astuple(res) == ref


def test_energy_test_bits_do_not_depend_on_the_block_size(monkeypatch):
    rng = make_stream(11, 3)
    a = rng.standard_normal((150, 2))
    b = rng.standard_normal((140, 2)) + 0.3
    results = set()
    for block in (1, 7, 64, 290):
        monkeypatch.setattr(harness, "ENERGY_BLOCK", block)
        results.add(dataclasses.astuple(energy_permutation_test(a, b, make_stream(12, 2), permutations=99)))
    assert len(results) == 1, results


@pytest.mark.parametrize("scale,shift", [(1e160, 5e160), (1e-310, 1e-309)], ids=["1e160", "1e-310"])
def test_energy_test_sees_a_shift_at_any_float_scale(scale, shift):
    # cdist's squares overflowed (statistic nan, which passed) or underflowed (every distance 0, p = 1)
    rng = make_stream(15, 0)
    a = rng.standard_normal((200, 2)) * scale
    b = rng.standard_normal((200, 2)) * scale + shift
    res = energy_permutation_test(a, b, make_stream(15, 1))
    assert math.isfinite(res.statistic) and res.statistic > 0 and res.p_value < 0.01


def test_energy_test_is_equivariant_under_powers_of_two():
    rng = make_stream(16, 0)
    a = rng.uniform(1.0, 2.0, (150, 2))
    b = rng.uniform(1.0, 2.0, (140, 2)) + 0.1
    ref = energy_permutation_test(a, b, make_stream(16, 1), permutations=99)
    for j in (-1020, -1000, -37, 1, 500, 1000):
        res = energy_permutation_test(np.ldexp(a, j), np.ldexp(b, j), make_stream(16, 1), permutations=99)
        assert (res.p_value, res.p_permutation) == (ref.p_value, ref.p_permutation), j
        scaled = math.ldexp(ref.statistic, j)
        if sys.float_info.min <= scaled <= sys.float_info.max:
            assert res.statistic == scaled, j
        else:  # at j = -1020 the statistic is subnormal
            assert res.statistic == pytest.approx(scaled, rel=1e-6, abs=0.0), j


@pytest.mark.parametrize(
    "shapes,kwargs",
    [
        (((10, 2), (10, 2)), {"permutations": 1}),
        (((10, 2), (10, 2)), {"permutations": 0}),
        (((10, 2), (10, 2)), {"subsample": 0}),
        (((0, 2), (10, 2)), {}),
        (((10, 2), (0, 2)), {}),
        (((10, 2), (10, 3)), {}),
        (((10, 2), (10, 2)), {"bad": np.nan}),
        (((10, 2), (10, 2)), {"bad": np.inf}),
        (((10, 2), (10, 2)), {"bad": -np.inf}),
    ],
)
def test_energy_test_rejects_bad_input_before_any_draw(shapes, kwargs):
    a, b = (np.ones(s) for s in shapes)
    kwargs = dict(kwargs)
    if "bad" in kwargs:  # one non-finite coordinate in samples that plainly differ
        a[3, 1] = kwargs.pop("bad")
        b += 5.0
    rng = make_stream(13, 0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="energy test needs"):
        energy_permutation_test(a, b, rng, **kwargs)
    assert rng.bit_generator.state == state


_ONE_THREAD_CASE = """
import dataclasses, sys
import oracles
from geoslice.harness import energy_permutation_test
from geoslice.rng import make_stream

na, nb, d = map(int, sys.argv[1:4])
shift = float(sys.argv[4])
rng = make_stream(11, na + nb)
a = rng.standard_normal((na, d))
b = rng.standard_normal((nb, d)) + shift
res = energy_permutation_test(a, b, make_stream(12, d), permutations=99)
ref = oracles.energy_permutation_test_one_shot(a, b, make_stream(12, d), permutations=99)
print(dataclasses.astuple(res) == ref, dataclasses.astuple(res), ref)
"""


# pooled sizes 512 to 1,088, on both sides of multiples of 512 and of the 64-row block;
# the shifted cases end in the normal tail, whose p-value reads every permutation sum's bits
_BLAS_SHAPES = [(256, 256, 2, 0.3), (287, 288, 1, 0.3), (288, 288, 3, 0.3), (260, 260, 1, 0.3),
                (515, 515, 2, 0.3), (543, 544, 2, 0.3), (544, 544, 1, 0.0)]


def _run_at_blas_threads(threads: int, script: str, *args: str) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "tests"),
                                                        os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script, *args],
                         env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("na,nb,d,shift", _BLAS_SHAPES)
def test_energy_test_panels_equal_one_shot_at_one_blas_thread(na, nb, d, shift):
    # each shape, in a fresh process pinned to one BLAS thread, equals the one-shot oracle
    out = _run_at_blas_threads(1, _ONE_THREAD_CASE, str(na), str(nb), str(d), str(shift))
    assert out.startswith("True "), out


_DIGEST_CASES = """
import ast, dataclasses, hashlib, sys
from geoslice.harness import energy_permutation_test
from geoslice.rng import make_stream

results = []
for na, nb, d, shift in ast.literal_eval(sys.argv[1]):
    rng = make_stream(11, na + nb)
    a = rng.standard_normal((na, d))
    b = rng.standard_normal((nb, d)) + shift
    results.append(dataclasses.astuple(energy_permutation_test(a, b, make_stream(12, d), permutations=99)))
print(hashlib.sha256(repr(results).encode()).hexdigest())
"""


def test_energy_test_same_bits_at_one_and_two_blas_threads():
    # every sum is of whole grid steps below 2^53, so no BLAS summation order can round it
    shapes = repr(_BLAS_SHAPES + [(1500, 1500, 2, 0.05)])
    assert _run_at_blas_threads(1, _DIGEST_CASES, shapes) == _run_at_blas_threads(2, _DIGEST_CASES, shapes)


def _energy_test_peak(permutations: int) -> int:
    for mod in ("scipy.special", "scipy.spatial.distance"):  # imported outside the traced window
        importlib.import_module(mod)
    rng = make_stream(14, 0)
    a = rng.standard_normal((1500, 2))
    b = rng.standard_normal((1500, 2))
    tracemalloc.start()
    try:
        energy_permutation_test(a, b, make_stream(14, 1), permutations=permutations)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_energy_test_peak_memory():
    # the whole float64 matrix of 3,000 pooled points would be 72 MB; a 64-row block is 1.5 MB
    peak = _energy_test_peak(20)
    assert peak < 15e6, peak


def test_energy_test_peak_memory_at_500_permutations():
    # Z is 8 n (B + 1) bytes, 24 KB per permutation: 12 MB at 500, plus one 64-row block
    peak = _energy_test_peak(500)
    assert peak < 30e6, peak


# -- verify / invariance ----------------------------------------------------------------

def test_verify_circle_uniform_passes():
    t = targets.from_spec("uniform:sphere:1")
    cfg = kernel.GssConfig(target=t, w=TWO_PI, m=1, seed=21)
    curve = verify_uniform_ergodicity(t, cfg, t.manifold.point([1.0, 0.0]), [1, 3], 5000)
    assert curve.certified
    assert curve.passed
    assert curve.rho == pytest.approx(0.5)
    rows = list(curve.csv_rows())
    assert rows[0][0] == 1 and len(rows) == 2


def test_verify_rejects_empty_n_list():
    t = targets.from_spec("uniform:sphere:1")
    cfg = kernel.GssConfig(target=t, w=TWO_PI, m=1, seed=21)
    for n_list in ([], [0], [-3]):
        with pytest.raises(ValueError):
            verify_uniform_ergodicity(t, cfg, t.manifold.point([1.0, 0.0]), n_list, 5000)


def test_verify_rejects_a_bias_no_estimate_can_exceed(monkeypatch):
    # 100,000 circle bins over 1,000 replicates give a bias of 3.99: a TV estimate never
    # exceeds 1, so every check would pass; the refusal comes before any chain runs
    t = targets.from_spec("uniform:sphere:1")
    cfg = kernel.GssConfig(target=t, w=TWO_PI, m=1, seed=23)
    monkeypatch.setattr(kernel, "endpoint_ensemble", None)
    x0 = t.manifold.point([1.0, 0.0])
    with pytest.raises(harness.slice1d.ApplicabilityError, match=r"bias 3\.99 .*--bins.*--replicates"):
        verify_uniform_ergodicity(t, cfg, x0, [1], 1000, bins=100_000)
    # the bias the check uses is the one each TV estimate reports
    b = make_binning(t, bins=100_000)
    est = estimate_tv(reference_samples(t, 1000, make_stream(23, 0)), b, rng=make_stream(23, 1))
    assert est.bias == harness._null_bias(b.masses, 1000) > 1.0
    # the benchmark's ensembles stay far below: 1,000 replicates on the cap and on the disk
    for spec in ("cap:sphere:2:psi=1.5707963267948966", "convex-uniform:ball:2:r=1.0"):
        assert harness._null_bias(make_binning(targets.from_spec(spec)).masses, 1000) < 0.4


def test_verify_rejects_too_few_replicates_before_any_chain(monkeypatch):
    t = targets.from_spec("cap:sphere:2:psi=1.5707963267948966")
    cfg = kernel.GssConfig(target=t, w=TWO_PI, m=1, seed=23)
    monkeypatch.setattr(kernel, "endpoint_ensemble", None)
    with pytest.raises(harness.slice1d.ApplicabilityError, match="at least 1000 replicates, got 999"):
        verify_uniform_ergodicity(t, cfg, worst_start(t), [20], 999)


def test_vacuous_verdicts_are_marked():
    # with 1,000 replicates rho^n + bias reaches 1 at cap n = 1 and disk n = 1, 3; a TV
    # estimate never exceeds 1, so those checks cannot fail
    cap = targets.from_spec("cap:sphere:2:psi=1.5707963267948966")
    disk = targets.from_spec("convex-uniform:ball:2:r=1.0")
    cases = (
        (kernel.GssConfig(target=cap, w=TWO_PI, m=1, seed=26), "corollary", [1, 5], [1.122]),
        (kernel.GssConfig(target=disk, w=1.0, m=math.inf, seed=27), "auto", [1, 3, 5], [1.240, 1.035]),
    )
    for cfg, mode, n_list, vacuous_sums in cases:
        t = cfg.target
        curve = verify_uniform_ergodicity(t, cfg, worst_start(t), n_list, 1000, epsilon_mode=mode)
        assert curve.certified and curve.passed
        assert [p.vacuous for p in curve.points] == [True] * len(vacuous_sums) + [False]
        sums = [p.envelope + curve.bias for p in curve.points]
        assert sums[:-1] == pytest.approx(vacuous_sums, abs=5e-4) and sums[-1] < 0.9
        assert [row[4] for row in curve.csv_rows()] == [p.passed for p in curve.points]


def test_verify_monte_carlo_epsilon_is_advisory():
    t = targets.from_spec("convex-uniform:ball:2:r=1.0")
    cfg = kernel.GssConfig(target=t, w=1.0, m=math.inf, seed=22)
    curve = verify_uniform_ergodicity(
        t, cfg, worst_start(t), [1], 2000, epsilon_mode="monte-carlo"
    )
    assert not curve.certified
    assert not curve.passed  # advisory curves can never PASS


def test_worst_start_lies_in_support():
    for spec in [
        "cap:sphere:2:psi=1.0",
        "vmf:sphere:2:kappa=2.0",
        "convex-uniform:ball:2:r=1.0",
        "ball-gauss:2:sigma=0.5:r=1.0",
        "convex-uniform:box:2:extents=1.0,2.0",
        "uniform:sphere:2",
    ]:
        t = targets.from_spec(spec)
        assert t.density(worst_start(t).coords) > 0.0
        # a rescaled target is the same distribution: same start, same bin masses
        scaled = t.rescaled(3.0)
        assert scaled.density(worst_start(scaled).coords) > 0.0, spec
        assert np.array_equal(make_binning(scaled).masses, make_binning(t).masses), spec


def test_invariance_uniform_sphere_quick():
    t = targets.from_spec("uniform:sphere:2")
    cfg = kernel.GssConfig(target=t, w=TWO_PI, m=1, seed=23)
    rep = invariance_test(t, cfg, 4000, seed=23)
    assert rep.passed


def test_invariance_broken_kernel_detected_quick():
    t = targets.from_spec("cap:sphere:2:psi=1.5707963267948966")
    cfg = kernel.GssConfig(target=t, w=TWO_PI, m=1, seed=24)
    rep = invariance_test(t, cfg, 6000, seed=24, broken=True)
    assert not rep.passed
    assert rep.p_value < 1e-4


@pytest.mark.parametrize(
    "spec", ["uniform:sphere:1", "uniform:sphere:2", f"uniform:torus:2:{TWO_PI!r}"]
)
def test_broken_kernel_is_the_kernel_where_every_draw_is_accepted(spec):
    # On a uniform target with one full-winding window the acceptance check
    # never rejects, so skipping it must change nothing: same states, same stream.
    t = targets.from_spec(spec)
    cfg = kernel.GssConfig(target=t, w=TWO_PI, m=1, seed=25)
    starts = reference_samples(t, 2000, make_stream(25, 1))
    rng_broken, rng_kernel = make_stream(25, 2), make_stream(25, 2)
    for x in starts:
        broken = kernel._step_array(x, cfg, rng_broken, shrink=harness._accept_first)[0]
        assert np.array_equal(broken, kernel._step_array(x, cfg, rng_kernel)[0])
    assert rng_broken.bit_generator.state == rng_kernel.bit_generator.state


def test_invariance_needs_reference_sampler():
    from geoslice.manifolds import Sphere
    from geoslice.targets import custom_target

    t = custom_target(
        Sphere(2),
        density=lambda x: 1.0,
        p_max=1.0,
        diam_w=math.pi,
        level_set=lambda lev: 4 * math.pi if lev < 1 else 0.0,
    )
    cfg = kernel.GssConfig(target=t, w=TWO_PI, m=1, seed=1)
    with pytest.raises(ValueError):
        invariance_test(t, cfg, 2000, seed=1)


def test_invariance_needs_a_sample():
    t = targets.from_spec("uniform:sphere:1")
    cfg = kernel.GssConfig(target=t, w=TWO_PI, m=1, seed=1)
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples"):
            invariance_test(t, cfg, samples, seed=1)


# -- battery -------------------------------------------------------------------------

def test_battery_quick_all_pass():
    report = lemma_suite(20260810, quick=True)
    for line in report.summary_lines():
        print(line)
    assert report.passed
    names = {c.name for c in report.checks}
    assert names == {
        "stepout-covering",
        "shrinkage-mass",
        "stepout-reflection",
        "stepout-interchange",
        "stepout-limit-monotone",
        "stepout-limit-floor",
    }
    # 8 covering + 6 shrinkage + 6 reflection + 6 interchange + 2 limit
    assert len(report.checks) == 28
    assert all(c.seed != 0 for c in report.checks)
    # every check's config, figures and sub-seed, byte for byte
    fields = [(c.name, c.config, c.observed, c.reference, c.seed, c.details) for c in report.checks]
    digest = hashlib.sha256(repr(fields).encode()).hexdigest()
    assert digest == "013005063bacd2e31df3555ff34ce3e65e24d6b1d778855e7bef43e093909a6d"


def test_battery_configs_draw_on_every_seed():
    # Drawing configs samples nothing, so a thousand seeds take well under a second.
    # Seed 16 draws a shrinkage candidate piece narrower than 0.05, which once made
    # the generator call uniform(low, high) with high < low.  The limit families have no
    # draw and run their fixed config only.
    for family in harness._FAMILIES:
        if family.draw is None:
            assert harness._family_configs(family, 0) == list(family.fixed), family.name
            continue
        for seed in range(1000):
            configs = harness._family_configs(family, seed)
            assert len(configs) == len(family.fixed) + 5, (family.name, seed)
