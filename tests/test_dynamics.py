"""Iteration, classification, cloud, and potential tests against hand oracles."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expmetric as em
from expmetric.dynamics import JULIA_SAMPLE_STEPS, orbit_derivative_magnitude, preimage_branch

SQRT2 = math.sqrt(2.0)


def test_evaluate_oracles():
    assert em.UnicriticalMap(2, 0).evaluate(0) == 0
    assert em.UnicriticalMap(2, -2).evaluate(-2) == 2
    assert em.UnicriticalMap(2, 1j).evaluate(1j) == -1 + 1j


def test_degree_below_two_rejected():
    with pytest.raises(ValueError):
        em.UnicriticalMap(1, 0)


def test_orbit_derivative_magnitude_oracles():
    m = em.UnicriticalMap(2, -2)
    assert orbit_derivative_magnitude(m, 0.7 + 0.1j, 0) == 1.0
    assert orbit_derivative_magnitude(m, 3, 2) == pytest.approx(84.0, rel=1e-12)
    assert orbit_derivative_magnitude(m, SQRT2, 1) == pytest.approx(2 * SQRT2, rel=1e-12)


def test_orbit_derivative_magnitude_deep_orbit_no_overflow():
    # 60 levels of |f'| ~ 4 would overflow a naive product of squared moduli
    m = em.UnicriticalMap(2, -2)
    val = orbit_derivative_magnitude(m, 2.0, 60)
    assert math.isfinite(val) and val > 1e30


@settings(max_examples=40, deadline=None)
@given(
    st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
    st.integers(min_value=1, max_value=8),
)
def test_chain_rule_matches_finite_difference(z, n):
    m = em.UnicriticalMap(2, -1 + 0.2j)
    # keep intermediate iterates moderate so the difference quotient is sane
    w = z
    for _ in range(n):
        if abs(w) > 1e3:
            return
        w = m.evaluate(w)
    h = 1e-7
    fn = lambda x: _iterate(m, x, n)
    approx = abs((fn(z + h) - fn(z - h)) / (2 * h))
    exact = orbit_derivative_magnitude(m, z, n)
    if exact < 1e-3:
        return  # truncation error of the quotient swamps tiny derivatives
    assert approx == pytest.approx(exact, rel=1e-4)


def _iterate(m, z, n):
    for _ in range(n):
        z = m.evaluate(z)
    return z


def test_critical_orbit_oracles():
    orbit, esc = em.critical_orbit(em.UnicriticalMap(2, -2), 4)
    assert orbit == [-2, 2, 2, 2] and esc is None
    orbit, esc = em.critical_orbit(em.UnicriticalMap(2, 1j), 5)
    assert orbit == [1j, -1 + 1j, -1j, -1 + 1j, -1j] and esc is None
    orbit, esc = em.critical_orbit(em.UnicriticalMap(2, 0), 3)
    assert orbit == [0, 0, 0] and esc is None


def test_critical_orbit_escape_flag():
    orbit, esc = em.critical_orbit(em.UnicriticalMap(2, 1), 100)
    assert esc is not None
    assert len(orbit) == esc
    assert abs(orbit[-1]) > em.UnicriticalMap(2, 1).escape_radius()
    # (-2)^1000000 overflows a double: that iterate has escaped
    orbit, esc = em.critical_orbit(em.UnicriticalMap(1_000_000, -2), 10)
    assert orbit == [-2, complex(math.inf, 0)] and esc == 2


def test_escape_past_the_float_range_of_c():
    # |c| overflows a float though both parts are finite: the escape radius is
    # the largest float, and c itself, of infinite modulus, has escaped
    big = em.UnicriticalMap(2, complex(1.7e308, 1.7e308))
    assert big.escape_radius() == sys.float_info.max
    orbit, esc = em.critical_orbit(big, 10)
    assert orbit == [big.c] and esc == 1
    cls = em.classify_parameter(orbit, esc)
    assert cls.kind is em.OrbitKind.ESCAPING and cls.recurrence_gap == math.inf
    # wherever |c| is finite, hypot gives abs's bits
    for c in (complex(1e308, 1e308), 1 + 1j, 0.3 - 0.7j, -2, 0):
        assert em.UnicriticalMap(2, c).escape_radius() == max(2.0, abs(c)) + 1.0


def test_classify_parameter_oracles():
    cls = em.classify_parameter(*em.critical_orbit(em.UnicriticalMap(2, -2), 100))
    assert cls.kind is em.OrbitKind.BOUNDED_NONRECURRENT
    assert cls.recurrence_gap == pytest.approx(2.0)

    cls = em.classify_parameter(*em.critical_orbit(em.UnicriticalMap(2, 1), 100))
    assert cls.kind is em.OrbitKind.ESCAPING
    assert cls.escape_index is not None

    cls = em.classify_parameter(*em.critical_orbit(em.UnicriticalMap(2, 0), 10))
    assert cls.kind is em.OrbitKind.BOUNDED_RECURRENT
    assert cls.recurrence_gap == 0.0

    # the orbit of a small real c > 0 climbs from c to a fixed point, so the
    # gap is c itself, here below RECURRENCE_DELTA = 1e-3
    cls = em.classify_parameter(*em.critical_orbit(em.UnicriticalMap(2, 0.0005), 2000))
    assert cls.kind is em.OrbitKind.BOUNDED_RECURRENT
    assert cls.recurrence_gap == 0.0005


def test_classify_parameter_undetermined_band():
    # gap 0.0015 (c itself) falls in (delta, 2*delta] for delta = 1e-3
    cls = em.classify_parameter(*em.critical_orbit(em.UnicriticalMap(2, 0.0015), 2000))
    assert cls.kind is em.OrbitKind.UNDETERMINED
    assert cls.recurrence_gap == 0.0015


def test_classify_parameter_usage_errors():
    with pytest.raises(ValueError):
        em.classify_parameter(*em.critical_orbit(em.UnicriticalMap(2, -2), 0))


def test_classification_escape_index_consistency():
    with pytest.raises(ValueError):
        em.OrbitClassification(em.OrbitKind.ESCAPING, 1.0, 5, escape_index=None)
    with pytest.raises(ValueError):
        em.OrbitClassification(em.OrbitKind.BOUNDED_RECURRENT, 0.0, 5, escape_index=3)


def test_cloud_oracles():
    cloud = em.build_postcritical_cloud(em.critical_orbit(em.UnicriticalMap(2, -2), 50)[0])
    assert sorted(cloud.points.real) == [-2, 2]
    cloud_i = em.build_postcritical_cloud(em.critical_orbit(em.UnicriticalMap(2, 1j), 50)[0])
    assert len(cloud_i) == 3
    assert {complex(round(p.real), round(p.imag)) for p in cloud_i.points} == {
        1j, -1 + 1j, -1j
    }
    assert len(em.build_postcritical_cloud(em.critical_orbit(em.UnicriticalMap(2, 0), 10)[0])) == 1


def test_cloud_forward_near_invariance():
    m = em.UnicriticalMap(2, 1j)
    cloud = em.build_postcritical_cloud(em.critical_orbit(m, 50)[0])
    pts = cloud.points
    for p in pts:
        image = m.evaluate(p)
        assert min(abs(image - q) for q in pts) <= em.dynamics.CLOUD_DEDUP_TOL


def test_dist_to_cloud_oracles():
    cloud = em.build_postcritical_cloud(em.critical_orbit(em.UnicriticalMap(2, -2), 50)[0])
    assert cloud.dist_many(np.array([0j, 2 + 0j])) == pytest.approx([2.0, 0.0], abs=1e-15)
    cloud_i = em.build_postcritical_cloud(em.critical_orbit(em.UnicriticalMap(2, 1j), 50)[0])
    assert cloud_i.dist_many(np.array([0j]))[0] == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(
    st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
)
def test_dist_to_cloud_lipschitz(z1, z2):
    cloud = em.build_postcritical_cloud(em.critical_orbit(em.UnicriticalMap(2, 1j), 50)[0])
    d1, d2 = cloud.dist_many(np.array([z1, z2]))
    assert abs(d1 - d2) <= abs(z1 - z2) + 1e-12


def test_cloud_monotone_refinement():
    # a denser cloud can only decrease the distance
    m = em.UnicriticalMap(2, -0.2 + 0.75j)  # bounded, aperiodic-looking orbit
    if em.classify_parameter(*em.critical_orbit(m, 2000)).kind is em.OrbitKind.ESCAPING:
        pytest.skip("parameter escaped; pick another refinement sample")
    small = em.build_postcritical_cloud(em.critical_orbit(m, 50)[0])
    large = em.build_postcritical_cloud(em.critical_orbit(m, 500)[0])
    rng = np.random.default_rng(0)
    zs = rng.uniform(-2, 2, 50) + 1j * rng.uniform(-2, 2, 50)
    assert np.all(large.dist_many(zs) <= small.dist_many(zs) + 1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 32, 33])
def test_cloud_search_matches_kdtree_bitwise(m):
    # direct search up to DIRECT_SEARCH_MAX points, the tree above: both must
    # give exactly the tree's distances, or reports would move by an ulp
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(m)
    pts = rng.uniform(-2, 2, (m, 2))
    cloud = em.PostcriticalCloud(pts[:, 0] + 1j * pts[:, 1])
    assert (cloud._tree is None) == (m <= em.dynamics.DIRECT_SEARCH_MAX)
    zs = rng.uniform(-3, 3, 5000) + 1j * rng.uniform(-3, 3, 5000)
    zs[:m] = pts[:, 0] + 1j * pts[:, 1]  # queries on the cloud itself
    expected, _ = cKDTree(pts).query(np.column_stack([zs.real, zs.imag]))
    got = cloud.dist_many(zs)
    assert np.array_equal(got, expected)
    assert all(cloud.dist_many(np.array([z]))[0] == d for z, d in zip(zs[:500], got[:500]))


def test_cloud_search_past_the_float_range_matches_kdtree():
    # squares past the float range: the direct search gives inf, silently,
    # at every point where the tree does
    import warnings

    from scipy.spatial import cKDTree

    cloud = em.build_postcritical_cloud(em.critical_orbit(em.UnicriticalMap(2, -2), 50)[0])
    assert cloud._tree is None
    centres = -1e200 + 0.5e200 * (np.arange(4) + 0.5)  # a 4x4 render of that box
    zs = (centres[None, :] + 1j * centres[:, None]).ravel()
    zs = np.append(zs, [3e153 + 0j, 1e154j, 0j])  # about where the squares overflow
    expected, _ = cKDTree(np.column_stack([cloud.points.real, cloud.points.imag])).query(
        np.column_stack([zs.real, zs.imag]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cloud.dist_many(zs)
    assert np.array_equal(got, expected)
    assert np.isinf(got[:16]).all() and np.isfinite(got[-1])


@pytest.mark.parametrize("c", [-2 + 0j, 1j, 0.25 + 0j], ids=["c=-2", "c=i", "c=1/4"])
def test_dist_xy_on_a_lattice_matches_dist_many_bit_for_bit(c):
    # c = 1/4 keeps more points than the direct search takes: the KD-tree
    cloud = em.build_postcritical_cloud(em.critical_orbit(em.UnicriticalMap(2, c), 2000)[0])
    assert (cloud._tree is None) == (c != 0.25)
    rng = np.random.default_rng(7)
    on = cloud.points[:3]  # lattice points on the cloud itself
    xs = np.concatenate([rng.uniform(-2.5, 2.5, 37), on.real])
    ys = np.concatenate([rng.uniform(-2.5, 2.5, 23), on.imag])
    want = cloud.dist_many((xs + 1j * ys[:, None]).ravel()).reshape(len(ys), len(xs))
    assert np.array_equal(cloud.dist_xy(xs, ys[:, None]), want)
    assert np.array_equal(cloud.dist_xy(xs[:, None], ys), want.T)
    assert np.array_equal(cloud.dist_xy(*np.broadcast_arrays(xs, ys[:, None])), want)
    assert not np.diag(want[-len(on):, -len(on):]).any()


@pytest.mark.parametrize("c", [-2 + 0j, 0.25 + 0j], ids=["direct", "tree"])
def test_dist_xy_past_the_float_range_and_at_nan(c):
    # squares past 1e308 are inf, and NaN stays NaN, without a warning, on the
    # lattice as at the complex points; the tree refuses a NaN query
    import warnings

    cloud = em.build_postcritical_cloud(em.critical_orbit(em.UnicriticalMap(2, c), 2000)[0])
    nan = [math.nan] if cloud._tree is None else []
    xs = np.array([-1e200, -3e153, 0.0, 3e153, 1e200, *nan])
    ys = np.array([2e154, 0.5, -1e200, *nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cloud.dist_xy(xs, ys[:, None])
        want = cloud.dist_many((xs + 1j * ys[:, None]).ravel()).reshape(got.shape)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isinf(got[[0, 2], :5]).all() and np.isinf(got[:3, [0, 4]]).all()
    assert np.isfinite(got[1, 1:4]).all()
    if nan:
        assert np.isnan(got[3]).all() and np.isnan(got[:, 5]).all()


@pytest.mark.parametrize("shape", [(3, 2), (2, 2), (1, 1, 1)])
def test_cloud_refuses_points_not_one_dimensional(shape):
    # an (m, 2) array of real columns is not read as 2m points
    with pytest.raises(ValueError, match="1-D"):
        em.PostcriticalCloud(np.ones(shape))


def test_dist_many_matches_scalar():
    # a query's bits do not depend on the other points queried with it
    cloud = em.build_postcritical_cloud(em.critical_orbit(em.UnicriticalMap(2, 1j), 50)[0])
    zs = np.array([0 + 0j, 1 + 1j, -2 + 0.5j])
    assert cloud.dist_many(zs).tolist() == [cloud.dist_many(zs[k:k + 1])[0] for k in range(3)]


def test_cloud_diameter():
    cloud = em.build_postcritical_cloud(em.critical_orbit(em.UnicriticalMap(2, -2), 50)[0])
    assert cloud.diameter() == pytest.approx(4.0)
    cloud_0 = em.build_postcritical_cloud(em.critical_orbit(em.UnicriticalMap(2, 0), 5)[0])
    assert cloud_0.diameter() == 0.0


def test_cloud_matches_reference_loop():
    # c = 1/4 (parabolic): the 2000-iterate orbit creeps toward 1/2 and keeps
    # 2000 points; the kept points and the diameter must be the bits of the
    # plain greedy loop over all pairs
    fmap = em.UnicriticalMap(2, 0.25)
    orbit, _ = em.critical_orbit(fmap, 2000)
    kept = []
    for z in orbit:
        if all(abs(z - w) > em.dynamics.CLOUD_DEDUP_TOL for w in kept):
            kept.append(z)
    cloud = em.build_postcritical_cloud(em.critical_orbit(fmap, 2000)[0])
    assert cloud.points.tolist() == kept
    assert cloud.diameter() == max(abs(a - b) for a in kept for b in kept)


def julia_distance_at(fmap, z):
    return em.julia_distance_estimate(fmap, np.array([z], dtype=complex))


def test_julia_distance_estimate_oracles():
    m0 = em.UnicriticalMap(2, 0)
    est = julia_distance_at(m0, 2)
    assert est.shape == (1,) and 0.25 <= est[0] <= 4.0
    m = em.UnicriticalMap(2, -2)
    assert 0.25 <= julia_distance_at(m, 3)[0] <= 4.0
    near = julia_distance_at(m0, 1.0001)[0]
    assert 0.0001 / 4 <= near <= 0.0004


def test_julia_distance_estimate_nan_inside():
    assert np.isnan(julia_distance_at(em.UnicriticalMap(2, 0), 0.3 + 0.2j)).all()


def scalar_julia_distance(fmap, z):
    """The point-by-point loop over Python complex numbers; NaN for a point
    that does not escape."""
    w, dw = complex(z), 1.0 + 0.0j
    for k in range(em.dynamics.POTENTIAL_MAX_ITER + 1):
        mag = abs(w)
        if mag > em.dynamics.POTENTIAL_ESCAPE_RADIUS:
            g = math.log(mag) / fmap.d ** k
            log_grad = math.log(abs(dw)) - math.log(mag) - k * math.log(fmap.d)
            return math.sinh(g) * math.exp(-log_grad)
        dw = fmap.d * w ** (fmap.d - 1) * dw
        w = fmap.evaluate(w)
    return math.nan


@pytest.mark.parametrize("d, c, depth", [(2, -2, 50), (2, 1j, 50), (3, 0.2j, 30), (5, 0.4j, 20)],
                         ids=["c=-2", "c=i", "d=3", "d=5"])
def test_julia_distance_estimate_matches_scalar_loop_on_ray_points(d, c, depth):
    fmap = em.UnicriticalMap(d, c)
    zs = em.trace_rays(fmap, [k / 48 for k in range(48)], depth)[0].ravel()
    want = np.array([scalar_julia_distance(fmap, z) for z in zs])
    # bit for bit, NaN where the loop finds no escape
    assert np.array_equal(em.julia_distance_estimate(fmap, zs), want, equal_nan=True)


@pytest.mark.parametrize("d, c", [(31, 0.1), (40, 0)])
def test_julia_distance_estimate_nan_where_python_overflows(d, c):
    # past degree 30 an iterate below the escape radius can overflow a double
    # at the next step, where Python's complex power or abs raises
    fmap = em.UnicriticalMap(d, c)
    rng = np.random.default_rng(1)
    zs = rng.uniform(-2, 2, 2000) + 1j * rng.uniform(-2, 2, 2000)
    # at d = 31 the derivative of this point reaches finite parts whose
    # modulus overflows, where only Python's abs raises
    zs = np.append(zs, -0.8067619715178869 - 1.9171168226571096j)
    want = []
    for z in zs:
        try:
            want.append(scalar_julia_distance(fmap, z))
        except OverflowError:
            want.append("overflow")
    assert "overflow" in want
    want = np.array([math.nan if w == "overflow" else w for w in want])
    assert np.array_equal(em.julia_distance_estimate(fmap, zs), want, equal_nan=True)


def test_sample_julia_points_near_julia_set():
    m = em.UnicriticalMap(2, -2)
    pts = em.sample_julia_points(m, 30, np.random.default_rng(7))
    # J = [-2, 2] on the real axis for the Chebyshev parameter
    for z in pts:
        assert abs(z.imag) < 1e-6
        assert -2 - 1e-6 <= z.real <= 2 + 1e-6


def test_sample_julia_points_deterministic():
    m = em.UnicriticalMap(2, 1j)
    a = em.sample_julia_points(m, 10, np.random.default_rng(42))
    b = em.sample_julia_points(m, 10, np.random.default_rng(42))
    assert a == b


@pytest.mark.parametrize("fmap", [em.UnicriticalMap(2, 1j), em.UnicriticalMap(3, 0.2j)])
def test_sample_julia_points_draw_order(fmap):
    # expansion's base points rest on this order: one integers(d) draw per
    # backward step, point after point, each step by preimage_branch on a
    # one-point array (a 0-d one would reach libm's pow, not NumPy's array pow)
    count = 7
    rng = np.random.default_rng(11)
    got = em.sample_julia_points(fmap, count, rng)
    ref = np.random.default_rng(11)
    roots = np.roots([1.0] + [0.0] * (fmap.d - 2) + [-1.0, fmap.c])
    want = []
    for _ in range(count):
        z = np.array([roots[np.argmax(np.abs(roots))]])
        for _ in range(JULIA_SAMPLE_STEPS):
            z = preimage_branch(fmap, z, int(ref.integers(fmap.d)))
        want.append(complex(z[0]))
    assert got == want
    assert rng.bit_generator.state == ref.bit_generator.state
