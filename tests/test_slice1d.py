import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from geoslice import slice1d
from geoslice.rng import make_stream, open_uniform
from geoslice.slice1d import (
    ApplicabilityError,
    ExpansionCapError,
    ShrinkageCapError,
    StepOutParams,
    covering_bound,
    estimate_covering_probability,
    reeled_shrinkage,
    sample_intervals,
    set_contains,
    shrinkage_mass_bound,
    stepping_out,
    unwrap_angle,
)

TWO_PI = 2 * math.pi


def test_params_validation():
    with pytest.raises(ValueError):
        StepOutParams(0.0, 1)
    with pytest.raises(ValueError):
        StepOutParams(math.inf, 1)
    with pytest.raises(ValueError):
        StepOutParams(1.0, 0)
    with pytest.raises(ValueError):
        StepOutParams(1.0, 2.5)
    StepOutParams(1.0, math.inf)  # fine


def test_single_budget_interval_has_exact_width():
    rng = make_stream(1, 0)
    params = StepOutParams(w=1.3, m=1)
    for _ in range(500):
        itv = stepping_out(lambda t: True, params, rng)
        assert itv.lo < 0.0 < itv.hi
        assert itv.width == pytest.approx(1.3, abs=1e-12)
        assert itv.expansions_left == 0 and itv.expansions_right == 0


def test_expected_width_small_set_unbounded_budget():
    # S = (-0.25, 0.25), w = 1: each side expands exactly once more with
    # probability 0.25, so the mean width is 1.5.
    rng = make_stream(2, 0)
    params = StepOutParams(w=1.0, m=math.inf)
    oracle = lambda t: -0.25 < t < 0.25
    widths = np.array([stepping_out(oracle, params, rng).width for _ in range(200_000)])
    se = widths.std(ddof=1) / math.sqrt(len(widths))
    assert abs(widths.mean() - 1.5) <= 3 * se


def test_unbounded_budget_interval_always_covers_bounded_set():
    rng = make_stream(3, 0)
    params = StepOutParams(w=1.0, m=math.inf)
    oracle = lambda t: -0.25 < t < 0.25
    for _ in range(2000):
        itv = stepping_out(oracle, params, rng)
        assert itv.lo < -0.25 and itv.hi > 0.25


def test_expansion_cap_error(monkeypatch):
    monkeypatch.setattr(slice1d, "MAX_EXPANSIONS", 50)
    rng = make_stream(4, 0)
    params = StepOutParams(w=1.0, m=math.inf)
    with pytest.raises(ExpansionCapError):
        stepping_out(lambda t: True, params, rng)


def test_covering_bound_values():
    assert covering_bound(1.0, 0.0, math.inf, 0.7) == 1.0
    assert covering_bound(math.pi, 0.0, 1, TWO_PI) == pytest.approx(0.5)
    assert covering_bound(1.0, 0.2, 3, 1.0) == pytest.approx(1 - 1 / 3 - 0.2)
    assert covering_bound(0.5, 0.1, 2, 1.0) == pytest.approx(0.65)
    # m = 1 ignores the gap term entirely
    assert covering_bound(1.0, 0.9, 1, 1.5) == pytest.approx(1 - 1 / 1.5)


def test_covering_bound_applicability():
    with pytest.raises(ApplicabilityError, match=r"b/m = 2\.0 must be < w - delta\*\[m>=2\] = 1\.0$"):
        covering_bound(2.0, 0.0, 1, 1.0)  # needs b < m w
    with pytest.raises(ApplicabilityError):
        covering_bound(1.0, 0.8, 3, 1.0)  # gap eats the width
    with pytest.raises(ApplicabilityError):
        covering_bound(0.0, 0.0, 1, 1.0)  # b must be positive


def test_estimate_covering_connected_is_one():
    rng = make_stream(5, 0)
    est, se = estimate_covering_probability(
        [(-1.0, 1.0)], 0.0, math.inf, StepOutParams(1.0, math.inf), 2000, rng
    )
    assert est == 1.0


def test_estimate_covering_small_set_matches_oracle():
    rng = make_stream(6, 0)
    est, se = estimate_covering_probability(
        [(-0.1, 0.1)], 0.0, math.inf, StepOutParams(2.0, 1), 100_000, rng
    )
    exact = oracles.exact_covering_probability([(-0.1, 0.1)], 0.0, math.inf, 1, 2.0)
    assert exact == pytest.approx(0.95, abs=1e-6)
    assert abs(est - exact) <= 3 * se


def test_estimate_covering_two_gap_set_matches_oracle_and_bound():
    ivs = [(-1.0, 0.3), (0.5, 1.0)]
    rng = make_stream(7, 0)
    params = StepOutParams(1.0, 3)
    est, se = estimate_covering_probability(ivs, 0.0, math.inf, params, 200_000, rng)
    bound = covering_bound(1.0, 0.2, 3, 1.0)
    assert bound == pytest.approx(0.4666666666666667)
    assert est >= bound - 3 * se
    exact = oracles.exact_covering_probability(ivs, 0.0, math.inf, 3, 1.0)
    assert abs(est - exact) <= 4 * se


def test_estimate_covering_started_off_set_rejected():
    with pytest.raises(ValueError):
        estimate_covering_probability(
            [(1.0, 2.0)], 0.0, math.inf, StepOutParams(1.0, 1), 10, make_stream(8, 0)
        )


def test_wrap_angle_examples():
    assert oracles.wrap_angle(0.0, -1.0, 2.0) == 0.0
    assert oracles.wrap_angle(0.25, 0.0, 1.0) == pytest.approx(math.pi / 2)
    assert oracles.wrap_angle(-0.25, 0.0, 1.0) == pytest.approx(3 * math.pi / 2)
    with pytest.raises(ValueError):
        oracles.wrap_angle(0.0, 1.0, 1.0)


def test_unwrap_angle_examples():
    assert unwrap_angle(0.0, 0.0, 1.0) == 0.0
    assert unwrap_angle(math.pi / 2, 0.0, 1.0) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        unwrap_angle(-0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        unwrap_angle(0.0, 2.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    lo=st.floats(min_value=-5.0, max_value=-0.01),
    width=st.floats(min_value=0.02, max_value=9.0),
    frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_wrap_unwrap_round_trip_circular(lo, width, frac):
    # lo and hi are the same circle point, so measure the error around the seam
    hi = lo + width
    theta = lo + frac * width
    back = unwrap_angle(oracles.wrap_angle(theta, lo, hi), lo, hi)
    err = abs(back - theta)
    err = min(err, width - err)
    assert err < 1e-9 * max(1.0, abs(hi), abs(lo))


def test_wrap_unwrap_round_trip_interior_points():
    rng = make_stream(15, 0)
    lo, hi = -0.4, 1.1
    for theta in rng.uniform(lo, hi, size=10_000):
        back = unwrap_angle(oracles.wrap_angle(float(theta), lo, hi), lo, hi)
        assert abs(back - theta) < 1e-12


def test_shrinkage_uniform_when_oracle_never_rejects():
    # With the whole interval acceptable the first draw is returned, i.e. the
    # pushforward of the uniform circle draw: uniform on [lo, hi).
    rng = make_stream(9, 0)
    lo, hi = -0.7, 1.9
    vals = np.array([reeled_shrinkage(lambda t: True, lo, hi, rng).theta for _ in range(100_000)])
    counts, _ = np.histogram(vals, bins=50, range=(lo, hi))
    assert stats.chisquare(counts).pvalue > 0.001
    assert np.all((vals > lo) & (vals < hi))


def test_shrinkage_output_respects_oracle_and_interval():
    rng = make_stream(10, 0)
    ivs = [(-0.1, 0.1), (0.7, 0.9)]
    oracle = lambda t: set_contains(ivs, t)
    for _ in range(2000):
        res = reeled_shrinkage(oracle, -0.1, 0.9, rng)
        assert oracle(res.theta)
        assert -0.1 < res.theta < 0.9


def test_shrinkage_mass_lower_bound_two_arc_config():
    # S cap (lo, hi) = (-0.1, 0.1) u (0.7, 0.9); the far component carries at
    # least its Lebesgue share 0.2 / min(width, diam S) = 0.2.
    rng = make_stream(11, 0)
    ivs = [(-0.1, 0.1), (0.7, 0.9)]
    oracle = lambda t: set_contains(ivs, t)
    n = 100_000
    hits = sum(0.7 < reeled_shrinkage(oracle, -0.1, 0.9, rng).theta < 0.9 for _ in range(n))
    p = hits / n
    se = math.sqrt(p * (1 - p) / n)
    bound = shrinkage_mass_bound(0.2, 1.0, 1.0)
    assert bound == pytest.approx(0.2)
    assert p >= bound - 3 * se


def test_shrinkage_mean_iterations_logged():
    rng = make_stream(12, 0)
    # acceptable mass is 1% of the interval
    oracle = lambda t: 0.0 - 0.005 < t < 0.005
    iters = [reeled_shrinkage(oracle, -0.5, 0.5, rng).iterations for _ in range(10_000)]
    mean_iters = float(np.mean(iters))
    print(f"shrinkage mean iterations at 1% mass: {mean_iters:.2f}")
    assert mean_iters < 200  # sanity ceiling, far above observed values


def test_shrinkage_cap_error(monkeypatch):
    monkeypatch.setattr(slice1d, "MAX_SHRINK_ITERS", 60)
    rng = make_stream(13, 0)
    with pytest.raises(ShrinkageCapError):
        reeled_shrinkage(lambda t: False, -1.0, 1.0, rng)


def test_shrinkage_rejects_degenerate_interval():
    rng = make_stream(14, 0)
    with pytest.raises(ValueError):
        reeled_shrinkage(lambda t: True, 0.5, 1.0, rng)


def test_shrinkage_mass_bound_values_and_errors():
    assert shrinkage_mass_bound(0.2, 1.0, 1.0) == pytest.approx(0.2)
    assert shrinkage_mass_bound(0.0, 5.0, 1.0) == 0.0
    assert shrinkage_mass_bound(0.5, 2.0, 0.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        shrinkage_mass_bound(0.1, 0.0, 1.0)


@st.composite
def _interval_union(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    edges = sorted(
        draw(
            st.lists(
                st.floats(min_value=-4.0, max_value=4.0),
                min_size=2 * k,
                max_size=2 * k,
                unique=True,
            )
        )
    )
    ivs = [(edges[2 * i], edges[2 * i + 1]) for i in range(k)]
    if not any(a < 0.0 < b for a, b in ivs):
        a, b = ivs[0]
        ivs[0] = (min(a, -0.05), max(b, 0.05))
    return [iv for iv in ivs if iv[1] - iv[0] > 1e-9]


@settings(max_examples=80, deadline=None)
@given(
    ivs=_interval_union(),
    w=st.floats(min_value=0.1, max_value=3.0),
    m=st.sampled_from([1, 2, 3, 7, math.inf]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_interval_invariants_random_sets(ivs, w, m, seed):
    rng = make_stream(seed, 0)
    params = StepOutParams(w, m)
    oracle = lambda t: set_contains(ivs, t)
    itv = stepping_out(oracle, params, rng)
    assert itv.lo < 0.0 < itv.hi
    total = itv.expansions_left + itv.expansions_right + 1
    assert itv.width == pytest.approx(total * w, rel=1e-12)
    if not math.isinf(m):
        assert itv.width <= m * w * (1 + 1e-12)


def test_random_forms_match_uniform_and_integers():
    # open_uniform, the first shrinkage angle and the m = 1 split draw through
    # random() or not at all; they must give what uniform()/integers() give,
    # from the same stream state, and leave the stream where those leave it
    src = make_stream(40, 0)
    fast, ref = make_stream(41, 0), make_stream(41, 0)
    inside = lambda s: True
    for _ in range(2000):
        lo = float(src.uniform(-3.0, 0.0))
        hi = float(src.uniform(1e-9, 3.0))
        w = float(src.exponential(2.0))
        assert open_uniform(fast, lo, hi) == ref.uniform(lo, hi)
        res = reeled_shrinkage(inside, lo, hi, fast)
        assert res == (unwrap_angle(ref.uniform(0.0, TWO_PI), lo, hi), 1)
        itv = stepping_out(inside, StepOutParams(w, 1), fast)
        ups = ref.uniform(0.0, w)
        assert ref.integers(1, 2) == 1
        assert (itv.lo, itv.hi, itv.expansions_left, itv.expansions_right) == (-ups, -ups + w, 0, 0)
    assert fast.bit_generator.state == ref.bit_generator.state


# SHA-256 of the 1-D layer's outputs on a fixed two-piece set, taken before
# stepping-out became one loop per side and the repeated-draw loop moved here
GOLDEN_COVERING = "b2ae64f8c0fb23f6ec7c3fdfc4eaab61d2376bb996ce2fffcece37d41f8d27de"
GOLDEN_INTERVALS = "7a85eeb913ee5b845f8a2d76b4ee7136b868c35254df3182dbc775a9ecac8182"


def test_outputs_match_golden_digests_1d():
    ivs = [(-1.0, 0.3), (0.5, 1.2)]
    covering, intervals = hashlib.sha256(), hashlib.sha256()
    for k, m in enumerate((1, 2, 3, math.inf)):
        params = StepOutParams(0.8, m)
        p, se = estimate_covering_probability(ivs, 0.0, math.inf, params, 4000, make_stream(50, k))
        covering.update(struct.pack("<2d", p, se))
        intervals.update(sample_intervals(ivs, 0.2, params, 500, make_stream(51, k)).tobytes())
    assert covering.hexdigest() == GOLDEN_COVERING
    assert intervals.hexdigest() == GOLDEN_INTERVALS
