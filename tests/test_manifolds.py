import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from geoslice import manifolds, targets
from geoslice.manifolds import Euclidean, Sphere, Torus, from_spec, log_unit_sphere_area
from geoslice.rng import make_stream

BUILT_IN = ["euclidean:3", "sphere:1", "sphere:2", "sphere:3", "torus:2:6.283185307179586"]


def _tangent(man, x, direction):
    """``direction`` projected onto the tangent space at x and normalised."""
    v = man.project_tangent(x, np.asarray(direction, dtype=float))
    return v / np.linalg.norm(v)


def _random_point(man, rng):
    if isinstance(man, Euclidean):
        return rng.standard_normal(man.dim)
    return man.uniform_points(1, rng)[0]


def test_exp_map_identity_at_zero():
    for man, coords, direction in [
        (Sphere(2), [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]),
        (Euclidean(2), [1.0, 2.0], [0.0, 1.0]),
        (Torus(2, 2 * math.pi), [0.5, 1.0], [1.0, 0.0]),
    ]:
        x = man.point(coords).coords
        y = man.exp_array(x, _tangent(man, x, direction), 0.0)
        assert np.allclose(y, x, atol=1e-15)


def test_hot_path_products_match_matmul_bit_for_bit():
    # The scalar hot path takes 1-D products with ndarray.dot and builds the sphere's
    # exp map in place.  Both must round exactly like the @ expressions they replaced,
    # or every golden digest moves; a numpy or BLAS build that breaks this fails here.
    rng = np.random.default_rng(41)
    for n in range(1, 9):
        for _ in range(3000):
            a, b = rng.standard_normal((2, 2 * n)) * 10.0 ** rng.integers(-4, 5, size=(2, 1))
            for x, y in ((a[:n], b[:n]), (a[::2], b[::2]), (a[1::2], b[n:]), (a[:n], b[::2])):
                assert np.float64(x.dot(y)).tobytes() == np.float64(x @ y).tobytes(), (x, y)
    for d in range(1, 5):
        man = Sphere(d)
        for x in man.uniform_points(5000, rng):
            v = man.sample_tangent_array(x, rng)
            theta = float(rng.uniform(-8.0, 8.0))
            p = math.cos(theta) * x + math.sin(theta) * v
            assert man.exp_array(x, v, theta).tobytes() == (p / math.sqrt(p @ p)).tobytes()


def test_sphere_quarter_circle_matches_ode_oracle():
    man = Sphere(2)
    x = man.point([0.0, 0.0, 1.0]).coords
    y = man.exp_array(x, _tangent(man, x, [1.0, 0.0, 0.0]), math.pi / 2)
    assert np.allclose(y, [1.0, 0.0, 0.0], atol=1e-12)
    ode = oracles.sphere_geodesic_ode([0, 0, 1], [1, 0, 0], math.pi / 2)
    assert np.allclose(y, ode, atol=1e-9)


def test_sphere_generic_exp_matches_ode_oracle():
    man = Sphere(2)
    rng = make_stream(123, 0)
    for _ in range(5):
        x = man.uniform_points(1, rng)[0]
        v = man.sample_tangent_array(x, rng)
        theta = float(rng.uniform(0.1, 3.0))
        ode = oracles.sphere_geodesic_ode(x, v, theta)
        assert np.allclose(man.exp_array(x, v, theta), ode, atol=1e-8)


def test_euclidean_straight_line():
    man = Euclidean(2)
    x = man.point([1.0, 2.0]).coords
    assert np.allclose(man.exp_array(x, _tangent(man, x, [0.0, 1.0]), 3.0), [1.0, 5.0])


@pytest.mark.parametrize("spec", BUILT_IN)
def test_exp_batch_rows_match_exp_array(spec):
    man = from_spec(spec)
    rng = make_stream(5, 2)
    for _ in range(10):
        x = _random_point(man, rng)
        v = man.sample_tangent_array(x, rng)
        thetas = rng.uniform(-7.0, 7.0, size=33)
        batch = man.exp_batch(x, v, thetas)
        assert batch.shape == (33, man.embedding_dim)
        for row, theta in zip(batch, thetas):
            assert np.allclose(row, man.exp_array(x, v, float(theta)), rtol=0.0, atol=1e-12)


class _Ring(manifolds.Manifold):
    """The unit circle in R^2, written out without the built-in classes."""

    dim, embedding_dim, spec = 1, 2, "ring"
    info = manifolds.ManifoldInfo(math.pi, 0.0, math.pi, math.log(2 * math.pi))

    def exp_array(self, x, v, theta):
        return math.cos(theta) * x + math.sin(theta) * v

    def project_tangent(self, x, g):
        return g - (g @ x) * x

    def uniform_points(self, n, rng):
        a = rng.uniform(0.0, 2 * math.pi, n)
        return np.column_stack([np.cos(a), np.sin(a)])


def test_scan_section_follows_user_manifold_geodesics():
    ring = _Ring()
    on_ring = lambda pts: (np.abs(np.linalg.norm(pts, axis=1) - 1.0) < 1e-9).astype(float)
    t = targets.custom_target(
        ring, lambda x: float(on_ring(x[None])[0]), 1.0, math.pi, density_batch=on_ring,
        sampler=ring.uniform_points, level_samples=1000,
    )
    rng = make_stream(3, 0)
    for _ in range(5):
        x, v, thetas, dens = targets.scan_section(t, rng, 64)
        assert thetas[-1] > 3.0  # the scan reaches the cut time
        assert np.all(dens == 1.0)  # every scanned point lies on the ring


@pytest.mark.parametrize("spec", ["sphere:2", "sphere:3", "euclidean:3", "torus:2:6.283185307179586"])
def test_unit_speed_up_to_cut_time(spec):
    man = from_spec(spec)
    rng = make_stream(7, 1)
    for _ in range(50):
        x = man.point(_random_point(man, rng)).coords
        v = man.sample_tangent_array(x, rng)
        cut = man.info.injectivity_radius  # a lower bound of every cut time
        theta = float(rng.uniform(0.0, min(cut, 10.0) * 0.999))
        y = man.exp_array(x, v, theta)
        assert abs(oracles.geodesic_distance(man.spec, x, y) - theta) < 1e-9


def test_sphere_periodicity():
    man = Sphere(2)
    rng = make_stream(9, 0)
    x = man.uniform_points(1, rng)[0]
    v = man.sample_tangent_array(x, rng)
    for theta in [0.3, 1.7, 2.9]:
        a = man.exp_array(x, v, theta)
        b = man.exp_array(x, v, theta + 2 * math.pi)
        assert np.allclose(a, b, atol=1e-10)


def test_cut_times():
    # the injectivity radius: the cut time in every direction on R^d and S^d; on the
    # torus P/2 is exact along an axis and a lower bound otherwise
    assert math.isinf(Euclidean(2).info.injectivity_radius)
    assert Sphere(3).info.injectivity_radius == math.pi
    to = Torus(2, 2 * math.pi)
    assert to.info.injectivity_radius == math.pi
    xt = to.point([0.3, 0.4]).coords
    v = _tangent(to, xt, [1.0, 0.0])
    assert np.allclose(to.exp_array(xt, v, 2 * math.pi), xt)  # an axis geodesic closes at P
    # the manifold's constants are built once, not on every read
    assert to.info is to.info


def test_tangent_sampling_orthogonality_and_norm():
    rng = make_stream(31, 0)
    man = Sphere(2)
    x = man.point([0.0, 0.0, 1.0]).coords
    for _ in range(200):
        v = man.sample_tangent_array(x, rng)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert abs(v @ x) < 1e-12
    assert abs(man.sample_tangent_array(x, rng)[2]) < 1e-12


def test_tangent_direction_uniform_in_plane():
    man = Euclidean(2)
    x = man.point([0.0, 0.0]).coords
    rng = make_stream(32, 0)
    angles = []
    for _ in range(100_000):
        v = man.sample_tangent_array(x, rng)
        angles.append(math.atan2(v[1], v[0]) % (2 * math.pi))
    counts, _ = np.histogram(angles, bins=36, range=(0.0, 2 * math.pi))
    res = stats.chisquare(counts)
    assert res.pvalue > 0.001


def test_tangent_circle_two_directions():
    man = Sphere(1)
    x = man.point([1.0, 0.0]).coords
    rng = make_stream(33, 0)
    ups = 0
    for _ in range(10_000):
        v = man.sample_tangent_array(x, rng)
        assert abs(abs(v[1]) - 1.0) < 1e-12
        ups += v[1] > 0
    assert abs(ups / 10_000 - 0.5) < 0.01


def test_unit_sphere_area_values_and_ratio():
    # small dimensions keep the gamma form's bits
    assert log_unit_sphere_area(1) == math.log(2.0)
    assert log_unit_sphere_area(2) == math.log(2 * math.pi)
    assert log_unit_sphere_area(3) == pytest.approx(math.log(4 * math.pi), rel=1e-15)
    for d in range(1, 21):
        log_ratio = log_unit_sphere_area(d + 1) - log_unit_sphere_area(d)
        assert log_ratio >= 0.5 * math.log(2 * math.pi / d) - 1e-12


def test_unit_sphere_area_past_gamma_overflow():
    # |S^(d+1)| = 2 pi / d * |S^(d-1)| on both sides of d = 344, where math.gamma overflows,
    # and past d = 456, where the area itself underflows a float
    import mpmath

    for d in [*range(330, 420), 437, 438, 440, 456, 700, 10_000, 100_000]:
        step = log_unit_sphere_area(d + 2) - log_unit_sphere_area(d)
        assert step == pytest.approx(math.log(2 * math.pi / d), rel=1e-12, abs=1e-10)
        exact = mpmath.log(2) + d / mpmath.mpf(2) * mpmath.log(mpmath.pi) - mpmath.loggamma(d / mpmath.mpf(2))
        assert log_unit_sphere_area(d) == pytest.approx(float(exact), rel=1e-15)


def test_manifold_info_constants():
    s2 = Sphere(2).info
    assert s2.ricci_lower == 1.0 and s2.diameter == pytest.approx(math.pi)
    assert s2.log_total_measure == pytest.approx(math.log(4 * math.pi), rel=1e-15)
    assert Sphere(1).info.ricci_lower == 0.0
    t = Torus(2, 4.0).info
    assert t.ricci_lower == 0.0
    assert t.diameter == pytest.approx(2.0 * math.sqrt(2.0))
    assert t.log_total_measure == pytest.approx(math.log(16.0), rel=1e-15)
    assert Torus(400, 1e300).info.log_total_measure == pytest.approx(400 * math.log(1e300), rel=1e-15)
    assert math.isinf(Euclidean(2).info.diameter)


def test_spec_parsing_and_errors():
    assert isinstance(from_spec("euclidean:3"), Euclidean)
    assert isinstance(from_spec("sphere:2"), Sphere)
    tor = from_spec("torus:2:6.0")
    assert isinstance(tor, Torus) and tor.period == 6.0
    for bad in ["klein:2", "sphere", "torus:2", "sphere:x"]:
        with pytest.raises(ValueError):
            from_spec(bad)


def test_point_validation():
    man = Sphere(2)
    with pytest.raises(ValueError):
        man.point([1.0, 1.0, 1.0])
    p = man.point([0.0, 0.0, 1.0 + 1e-9])
    assert np.linalg.norm(p.coords) == pytest.approx(1.0, abs=1e-15)
    t = Torus(1, 2.0)
    assert t.point([5.0]).coords[0] == pytest.approx(1.0)


def test_dimension_mismatch_raises():
    for man, coords in [
        (Sphere(2), [1.0, 0.0]), (Euclidean(2), [0.0, 0.0, 1.0]), (Torus(2, 1.0), [0.5]),
        # non-finite coordinates are not points either
        (Sphere(2), [math.nan, 0.0, 0.0]), (Sphere(2), [math.inf, 0.0, 0.0]),
        (Euclidean(2), [math.nan, 0.0]), (Euclidean(2), [0.0, -math.inf]),
        (Torus(2, 1.0), [math.nan, 0.5]), (Torus(2, 1.0), [0.5, math.inf]),
    ]:
        with pytest.raises(ValueError):
            man.point(coords)


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(min_value=-6.0, max_value=6.0, allow_nan=False))
def test_sphere_exp_stays_normalised(theta):
    man = Sphere(2)
    x = man.point([0.6, 0.0, 0.8]).coords
    y = man.exp_array(x, _tangent(man, x, [0.0, 1.0, 0.0]), theta)
    assert abs(np.linalg.norm(y) - 1.0) < 1e-12
