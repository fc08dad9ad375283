"""External-ray tracing, landing, John constants, and rho-lengths."""

import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import expmetric as em
from expmetric import cli
from expmetric.cli import RHO_LENGTH_RADII
from expmetric.dynamics import preimage_branch
from expmetric.metrics import SingularMetric, Variant
from expmetric.rays import (
    LANDING_TOL,
    NO_DISTANCE,
    RHO_LENGTH_REFINE,
    SUBSTEPS,
    TOP_POTENTIAL,
    RayTracingError,
    _aitken,
    _boettcher_top,
    _landing,
    arclengths_from_landing,
    john_constant_along_ray,
    ray_potentials,
    rho_length_of_ray,
    rho_lengths,
    trace_ray,
    trace_rays,
)
from expmetric.render import RenderSpec, _pixel_axes, escape_time_field


def cheb():
    return em.UnicriticalMap(2, -2)


def dist_to_segment(z):
    # exact distance to J = [-2, 2] for the Chebyshev parameter
    x = min(2.0, max(-2.0, z.real))
    return abs(z - x)


def dist_to_circle(z):
    # exact distance to the unit circle for c = 0
    return abs(abs(z) - 1.0)


def john_constants(points, dist):
    """The least John ratio of each row of ``points``, with ``dist`` as the
    distance to J."""
    dists = np.array([[dist(z) for z in row] for row in points.tolist()])
    return john_constant_along_ray(arclengths_from_landing(points), dists)[0]


# ------------------------------------------------------------------ tracing


def test_ray_domain_errors():
    with pytest.raises(ValueError, match=r"^angle must lie in \[0, 1\) turns, got 1\.0$"):
        trace_rays(cheb(), [1.0], 10)
    with pytest.raises(ValueError, match=r"^angle must lie in \[0, 1\) turns, got -0\.1$"):
        trace_rays(cheb(), [-0.1], 10)
    with pytest.raises(ValueError, match=r"^depth must lie in 1\.\.60, got 61$"):
        trace_rays(cheb(), [0.25], 61)


def test_overflowing_boettcher_start_raises():
    # at degree 100 the top sub-level sits at potential 1000, past exp's range;
    # the overflow is refused with an error, not also warned about
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RayTracingError, match="overflows"):
            trace_rays(em.UnicriticalMap(100, 0), [0.1], 5)


@pytest.mark.parametrize("d", [2, 100])
def test_no_angles_trace_no_rays(d):
    # a render with no overlay: empty arrays of the usual shapes, and no
    # Boettcher start to overflow even at degree 100; the depth is still checked
    points, landings = trace_rays(em.UnicriticalMap(d, 0), [], 7)
    assert points.shape == (0, 8) and points.dtype == complex
    assert landings.shape == (0,) and landings.dtype == complex
    with pytest.raises(ValueError, match=r"^depth must lie in 1\.\.60, got 0$"):
        trace_rays(cheb(), [], 0)


def test_landing_oracles_chebyshev():
    _, (east, west) = trace_rays(cheb(), [0.0, 0.5], 30)
    assert abs(east - 2.0) < 1e-4  # false for a NaN, no landing
    assert abs(west - (-2.0)) < 1e-4


def test_landing_at_critical_point_via_extrapolation():
    # the 1/4-ray lands on the critical point 0, where the two inverse
    # branches meet
    _, [landing] = trace_rays(cheb(), [0.25], 30)
    assert abs(landing) < 1e-6


def test_landing_oracles_square_map():
    _, landings = trace_rays(em.UnicriticalMap(2, 0), [k / 8 for k in range(8)], 30)
    for k, landing in enumerate(landings):
        expected = np.exp(2j * np.pi * k / 8)
        assert abs(landing - expected) < 1e-5


def test_cubic_ray_lands():
    _, [landing] = trace_rays(em.UnicriticalMap(3, 0), [1 / 3], 30)
    assert abs(landing - np.exp(2j * np.pi / 3)) < 1e-5


def test_potential_schedule():
    potentials = ray_potentials(2, 20)
    assert len(potentials) == 21
    assert potentials[0] == pytest.approx(1.0)
    for k, g in enumerate(potentials):
        assert g == pytest.approx(1.0 / 2**k, abs=1e-8)
    assert all(b < a for a, b in zip(potentials, potentials[1:]))


def test_points_sit_on_stated_equipotentials():
    for fmap in (cheb(), em.UnicriticalMap(2, 1j)):
        [polyline], _ = trace_rays(fmap, [0.3], 15)
        for z, g in zip(polyline.tolist(), ray_potentials(2, 15)):
            assert plain_potential(z, fmap.c)[0] == pytest.approx(g, abs=1e-6)


def plain_potential(z, c):
    """G(z) = log|f^n z| / 2^n at the first |f^n z| > 1e10, by plain iteration
    of z^2 + c, with the change in G that rounding each iterate can make: the
    gradient |(f^n)'(z)| / (2^n |f^n z|) times the running backward error
    eps sum_k (|w_k - c| + |c|) / |(f^k)'(z)|, with eps 8 machine epsilons;
    (0, inf) when z does not escape, as for points that round onto J."""
    w, dw, back = z, 1.0 + 0j, abs(z)
    for k in range(4000):
        if abs(w) > 1e10:
            grad = abs(dw) / (2.0**k * abs(w))
            return math.log(abs(w)) / 2.0**k, 8.0 * 2.2e-16 * grad * back
        dw = 2.0 * w * dw
        w = w * w + c
        if dw == 0:
            break
        back += (abs(w - c) + abs(c)) / abs(dw)
    return 0.0, math.inf


@pytest.mark.parametrize("c", [-2 + 0j, 1j], ids=["c=-2", "c=i"])
def test_deep_points_have_their_stated_potentials(c):
    # every stored point down to level 50 (potential 2^-50) sits on its
    # equipotential, up to the roundoff plain iteration itself makes
    thetas = [k / 48 for k in range(48)]
    points, landings = trace_rays(em.UnicriticalMap(2, c), thetas, 50)
    assert points.shape == (48, 51) and landings.shape == (48,)
    for theta, polyline in zip(thetas, points.tolist()):
        for z, g in zip(polyline, ray_potentials(2, 50)):
            recomputed, roundoff = plain_potential(z, c)
            assert abs(recomputed - g) <= 1e-6 * g + roundoff, (theta, g, z)


def test_batched_rays_match_single_rays_bit_for_bit():
    angles = [k / 48 for k in range(0, 48, 5)] + [0.1, 0.3, 0.1]
    # trace_ray is the row-0 form of trace_rays
    for fmap in (cheb(), em.UnicriticalMap(2, 1j), em.UnicriticalMap(3, 0.2j)):
        points, landings = trace_rays(fmap, angles, 50)
        for theta, polyline, landing in zip(angles, points, landings):
            single, single_landing = trace_ray(fmap, theta, 50)
            assert np.array_equal(polyline, single)
            assert np.array_equal([landing], [single_landing], equal_nan=True)


def reference_trace(fmap, thetas, depth):
    """(polyline, landing) of each angle by the pull-back of ``trace_rays``
    taken one array step a sub-level, each step drawing its own candidates;
    the landing is NaN where there is none."""
    d, s, g0 = fmap.d, SUBSTEPS, TOP_POTENTIAL
    above = max(0, math.ceil(s * math.log(_boettcher_top(fmap) / g0, d)))
    top = above + s - 1
    n_sub = top + depth * s + 1
    order, reach = {}, []
    fresh = [Fraction(theta) for theta in thetas]
    for _ in range((n_sub - 1) // s + 1):
        fresh = [a for a in dict.fromkeys(fresh) if a not in order]
        for a in fresh:
            order[a] = len(order)
        reach.append(len(order))
        fresh = [d * a % 1 for a in fresh]
    angles = list(order)
    image = np.array([order[d * a % 1] for a in angles[:reach[-2]]], dtype=int)
    potential = g0 * float(d) ** ((top - np.arange(s)) / s)
    z = np.full((n_sub, len(angles)), np.nan, dtype=complex)
    z[:s] = np.exp(potential[:, None] + 2j * math.pi * np.array([float(a) for a in angles]))
    branches = np.arange(d)[:, None]
    for t in range(s, n_sub):
        n = reach[(n_sub - 1 - t) // s]
        cands = preimage_branch(fmap, z[t - s, image[:n]], branches)
        pick = np.argmin(np.abs(cands - z[t - 1, :n]), axis=0)
        z[t, :n] = cands[pick, np.arange(n)]
    traced = []
    for theta in thetas:
        polyline = z[top::s, order[Fraction(theta)]].tolist()
        traced.append((polyline, _landing(polyline)))
    return traced


FORTY_EIGHT = [k / 48 for k in range(48)]


@pytest.mark.parametrize("d, c, thetas, depth", [
    (2, -2 + 0j, FORTY_EIGHT, 50),
    (2, 1j, FORTY_EIGHT, 50),
    # periodic under doubling: 0, the 2-cycle 1/3, 2/3, the 3-cycle 1/7, 2/7, 4/7
    (2, 1j, [0.0, 1 / 3, 2 / 3], 50),
    (2, -2 + 0j, [1 / 7, 2 / 7, 4 / 7, 0.0], 50),
    (3, 0.2j, [0.0, 0.1, 0.25, 0.5], 20),
    # periodic under tripling: the 2-cycles 1/4, 3/4 and 1/8, 3/8
    (3, 0.2j, [1 / 4, 3 / 4, 1 / 8, 3 / 8], 20),
    # as fractions the angles have denominators from 2 to 2^58, so the
    # integer orbits run over their least common multiple; 16/48 and 1/3 are
    # one float, given twice
    (3, 0.2j, FORTY_EIGHT + [0.1, 0.7, 1 / 3], 20),
    (5, 0.4j, FORTY_EIGHT + [0.1, 0.7, 1 / 3], 20),
    # exact rationals, whose odd denominators a common power of two does not hold
    (2, 1j, [Fraction(1, 3), Fraction(1, 7), Fraction(2, 5), Fraction(1, 12)], 30),
], ids=["c=-2", "c=i", "c=i-periodic", "c=-2-periodic", "d=3", "d=3-periodic",
        "d=3-mixed-denominators", "d=5-mixed-denominators", "exact-rationals"])
def test_trace_rays_matches_one_sub_level_a_step(d, c, thetas, depth):
    fmap = em.UnicriticalMap(d, c)
    points, landings = trace_rays(fmap, thetas, depth)
    assert points.shape == (len(thetas), depth + 1)
    for theta, got, got_landing, (polyline, landing) in zip(
            thetas, points, landings, reference_trace(fmap, thetas, depth)):
        assert np.array_equal(got, polyline, equal_nan=True), theta
        assert np.array_equal([got_landing], [landing], equal_nan=True), theta


def test_cubic_ray_follows_exact_angle_orbit():
    # z^3 has the radial rays exp(g + 2 pi i theta); in floating point
    # 0.1 * 3^m mod 1 is 0.02 turns off at m = 33 and 0.4 at m = 38, so only
    # an exact angle orbit keeps the deep points on the 0.1-ray
    [polyline], [landing] = trace_rays(em.UnicriticalMap(3, 0), [0.1], 40)
    for z, g in zip(polyline.tolist(), ray_potentials(3, 40)):
        assert abs(cmath.phase(z) - 2 * math.pi * 0.1) < 1e-12
        assert abs(math.log(abs(z)) - g) < 1e-12
    assert abs(landing - cmath.exp(0.2j * math.pi)) < 1e-12


@pytest.mark.parametrize("d, c, depth", [(2, 1j, 30), (2, -2 + 0j, 30), (2, 0.2 + 0.55j, 30),
                                         (3, 0.2j, 40), (5, 0.4j, 20)],
                         ids=["c=i", "c=-2", "c=0.2+0.55i", "d=3", "d=5"])
def test_quadratic_rays_half_a_turn_apart_are_negatives(d, c, depth):
    # z^d + c commutes with z -> omega z, omega = e^(2 pi i / d), which maps
    # the theta-ray onto the (theta + 1/d)-ray: the ray of theta + k/d is omega^k
    # times the ray of theta, so at d = 2 the half turn negates it
    fmap = em.UnicriticalMap(d, c)
    thetas = [Fraction(j, 32 * d) for j in range(32 * d)]
    points, _ = trace_rays(fmap, thetas, depth)
    for k in range(1, d):
        omega_k = cmath.exp(2j * math.pi * k / d)
        for theta, turned_theta, polyline, turned in zip(thetas, thetas[32 * k:], points,
                                                         points[32 * k:]):
            assert turned_theta == theta + Fraction(k, d)
            assert np.abs(turned - omega_k * polyline).max() <= 1e-13, (k, theta)


@pytest.mark.parametrize("d, c, depth", [(2, 0.2 + 0.55j, 45), (2, -0.12 + 0.75j, 40),
                                         (3, 0.2 + 0.3j, 30)],
                         ids=["c=0.2+0.55i", "c=-0.12+0.75i", "d=3"])
def test_rays_at_the_conjugate_parameter_are_conjugate(d, c, depth):
    # z^d + conj(c) is z^d + c conjugated, and conjugation reverses angles:
    # the (1 - theta)-ray at conj(c) is the conjugate of the theta-ray at c
    thetas = [Fraction(k, 48) for k in range(48)]
    points, landings = trace_rays(em.UnicriticalMap(d, c), thetas, depth)
    mirrored, mirrored_landings = trace_rays(em.UnicriticalMap(d, c.conjugate()),
                                             [(1 - t) % 1 for t in thetas], depth)
    for theta, polyline, landing, mirror, mirror_landing in zip(
            thetas, points, landings, mirrored, mirrored_landings):
        assert np.abs(np.conj(polyline) - mirror).max() <= 1e-13, theta
        assert np.isnan(landing) == np.isnan(mirror_landing), theta
        if not np.isnan(landing):
            assert abs(landing.conjugate() - mirror_landing) <= 1e-13, theta


def test_ray_equivariance_under_f():
    # f maps the theta-ray to the (d theta)-ray, doubling the potential
    fmap = cheb()
    ray_a, ray_b = trace_rays(fmap, [0.3, 0.6], 12)[0].tolist()
    for k in range(1, 12):
        assert abs(fmap.evaluate(ray_a[k + 1]) - ray_b[k]) < 1e-6


def test_arclengths_from_landing():
    points, _ = trace_rays(cheb(), [0.0, 0.1, 0.3], 20)
    arcs = arclengths_from_landing(points)
    assert arcs.shape == (3, 21)
    for polyline, row in zip(points, arcs):
        # each row is its ray's segment lengths summed from the deep end
        segs = np.abs(np.diff(polyline))
        assert np.array_equal(row, np.concatenate([[0.0], np.cumsum(segs[::-1])])[::-1])
        assert row[-1] == 0.0
        assert all(a >= b for a, b in zip(row, row[1:]))
        # total arclength dominates the straight-line span
        assert row[0] >= abs(polyline[0] - polyline[-1]) - 1e-12


# ------------------------------------------------------------------- Aitken


def test_aitken_exact_on_geometric_tails():
    L = 0.7 - 0.2j
    seq = [L + 0.3 * (0.4 + 0.1j) ** n for n in range(3)]
    assert abs(_aitken(*seq) - L) < 1e-12
    # non-contracting differences are rejected
    assert _aitken(0.0, 1.0, 2.0) is None


def test_extrapolated_landing_gates():
    assert math.isnan(_landing([0j, 1j, 2j]))  # too short to extrapolate
    assert math.isnan(_landing([0j, 1j, 2j, 3j]))  # not contracting
    # the last point, when the last two lie within LANDING_TOL
    assert _landing([0j, 1j, 1j + LANDING_TOL / 2]) == 1j + LANDING_TOL / 2
    L = 1.5 + 0.5j
    seq = [L + (0.3 + 0.05j) ** n for n in range(8)]
    assert abs(_landing(seq) - L) < 1e-6


# ------------------------------------------------------------ John constant


def test_john_constant_square_map_is_one():
    # rays of z^2 are radial, so dist(z, J) equals the arclength exactly
    constants = john_constants(
        trace_rays(em.UnicriticalMap(2, 0), [k / 8 for k in range(8)], 35)[0], dist_to_circle)
    assert np.all(np.abs(constants - 1.0) <= 0.05)


def test_john_constant_chebyshev_positive_and_stable():
    fmap = cheb()
    c40 = john_constants(trace_rays(fmap, [0.1, 0.3], 40)[0], dist_to_segment)
    c50 = john_constants(trace_rays(fmap, [0.1, 0.3], 50)[0], dist_to_segment)
    assert np.all(c40 >= 0.01)
    assert np.all(np.abs(c40 - c50) <= 0.25 * c40)


def test_john_aggregate_clamps_at_one(tmp_path, monkeypatch):
    # distances of 100 put every ratio above 1, least at each ray's top point,
    # the farthest from its landing: the report caps its constant at 1 and
    # names the first worst ray's point, and per_ray keeps the raw ratios
    monkeypatch.setattr(cli, "julia_distance_estimate", lambda fmap, z: np.full(len(z), 100.0))
    angles = [0.1, 0.3, 0.6]
    report = cli.cmd_rays(cli.ExperimentConfig(depth=20, out_dir=tmp_path), angles)
    points, _ = trace_rays(cheb(), angles, 20)
    raw = 100.0 / arclengths_from_landing(points)[:, 0]
    assert raw.min() > 1.0
    top = points[raw.argmin(), 0]
    assert report["john"] == {
        "constant": 1.0,
        "worst_point": [top.real, top.imag],
        "ray_count": 3,
        "per_ray": [{"theta": theta, "constant": r} for theta, r in zip(angles, raw.tolist())],
    }


def test_john_constant_takes_first_minimum_and_refuses_nan():
    # arclengths from the landing 0: 3, 2, 1, 0.  Row 0's ratios are 1/3, 1/2,
    # 1/3 and the landing itself is skipped, so the first of the two minima is
    # the worst point; row 1 reads NaN at its first NaN, which cmd_rays refuses
    # as a failure naming that point; row 2 has no point at positive arclength
    polylines = np.array([[3, 2, 1, 0], [3, 2, 1, 0], [5, 5, 5, 5]], dtype=complex)
    dists = np.array([[1.0, 1.0, 1 / 3, math.nan],
                      [1.0, math.nan, 1.0, math.nan],
                      [1.0, 1.0, 1.0, 1.0]])
    constants, worst = john_constant_along_ray(arclengths_from_landing(polylines), dists)
    assert np.array_equal(constants, [1 / 3, math.nan, math.inf], equal_nan=True)
    assert worst.tolist() == [0, 1, 0]
    assert NO_DISTANCE.format(complex(polylines[1, worst[1]])).startswith(
        "no distance to J at ray point (2+0j): ")


# -------------------------------------------------------------- rho-length


def cheb_metric(variant=Variant.RHO):
    cloud = em.build_postcritical_cloud(em.critical_orbit(cheb(), 50)[0])
    return SingularMetric(cloud, 2, variant)


def reference_rho_length(polyline, base, metric, from_radius):
    """The rho-length of one ray at one radius, each straddling segment
    clipped by a scalar bisection with Python's ``abs``, and one density
    call; NaN when no ray point lies in B(base, 2r)."""
    radius = 2.0 * from_radius
    pts = np.array(polyline)
    inside = np.abs(pts - base) <= radius
    if not inside.any():
        return math.nan
    keep = inside[:-1] | inside[1:]
    a, b = pts[:-1][keep], pts[1:][keep]
    for k in np.flatnonzero(~inside[:-1][keep]):
        a[k] = reference_clip(a[k], b[k], base, radius)
    for k in np.flatnonzero(~inside[1:][keep]):
        b[k] = reference_clip(b[k], a[k], base, radius)
    ts = (np.arange(RHO_LENGTH_REFINE) + 0.5) / RHO_LENGTH_REFINE
    mids = a[:, None] + (b - a)[:, None] * ts
    dens = metric.density_array(mids.ravel()).reshape(mids.shape)
    sums = np.where(np.isfinite(dens), dens, 0.0).sum(axis=1)
    return float(np.sum(sums * (np.abs(b - a) / RHO_LENGTH_REFINE)))


def reference_clip(outside, inside, center, radius):
    lo, hi = 0.0, 1.0  # parameter from inside toward outside
    for _ in range(60):
        mid = (lo + hi) / 2.0
        z = inside + (outside - inside) * mid
        if abs(z - center) <= radius:
            lo = mid
        else:
            hi = mid
    return inside + (outside - inside) * lo


def reference_rho_lengths(points, landings, metric, radii):
    return np.array([[reference_rho_length(polyline, base, metric, r)
                      for polyline, base in zip(points, landings)] for r in radii])


@pytest.mark.parametrize("c", [-2 + 0j, 1j], ids=["c=-2", "c=i"])
def test_rho_lengths_match_one_ray_and_radius_at_a_time(c):
    # the rays command's angles, depth, radii and cloud
    fmap = em.UnicriticalMap(2, c)
    metric = SingularMetric(em.build_postcritical_cloud(em.critical_orbit(fmap, 2000)[0]), 2)
    points, landings = trace_rays(fmap, FORTY_EIGHT, 50)
    got = rho_lengths(points, landings, metric, RHO_LENGTH_RADII)
    assert got.shape == (len(RHO_LENGTH_RADII), 48)
    assert np.isfinite(got).all()
    assert np.array_equal(got, reference_rho_lengths(points, landings, metric, RHO_LENGTH_RADII))


def test_rho_lengths_nan_where_no_ray_point_lies_in_the_disk():
    # the 0.1-ray lies in the upper half-plane; with its landing moved 0.3
    # below the axis, B(base, 0.4) holds its tail and the smaller disks none
    metric = cheb_metric()
    points, landings = trace_rays(cheb(), [0.1, 0.3], 20)
    landings[0] -= 0.3j
    got = rho_lengths(points, landings, metric, RHO_LENGTH_RADII)
    assert np.isfinite(got[0, 0]) and np.isnan(got[1:, 0]).all()
    assert np.isfinite(got[:, 1]).all()
    want = reference_rho_lengths(points, landings, metric, RHO_LENGTH_RADII)
    assert np.array_equal(got, want, equal_nan=True)
    moved = points[0], landings[0]
    assert rho_length_of_ray(moved, metric, 0.2) == got[0, 0]
    with pytest.raises(ValueError, match=r"^no ray points inside B\(base, 2r\)$"):
        rho_length_of_ray(moved, metric, 0.1)
    assert rho_lengths(points[:0], landings[:0], metric, RHO_LENGTH_RADII).shape == (4, 0)


def test_rho_length_matches_direct_quadrature():
    points, landings = trace_rays(cheb(), [0.1], 25)
    metric = cheb_metric()
    r = 0.2
    got = rho_lengths(points, landings, metric, [r])[0, 0]
    # independent midpoint sum over the clipped polyline
    base = landings[0]
    total = 0.0
    pts = points[0].tolist()
    for a, b in zip(pts[:-1], pts[1:]):
        ts = np.linspace(0, 1, 400)
        seg = a + (b - a) * ts
        keep = np.abs(seg - base) <= 2 * r
        if not keep.any():
            continue
        mids = 0.5 * (seg[:-1] + seg[1:])
        ok = keep[:-1] & keep[1:]
        dens = metric.density_array(mids[ok])
        total += float(np.sum(dens) * abs(b - a) / 399)
    assert got == pytest.approx(total, rel=0.02)


def test_rho_length_finite_at_singular_landing():
    # the 0-ray lands on the cloud point 2; alpha < 1 keeps the length finite
    val = rho_lengths(*trace_rays(cheb(), [0.0], 40), cheb_metric(Variant.SIGMA), [0.1])[0, 0]
    assert math.isfinite(val) and val > 0.0


def test_rho_length_decreases_with_radius():
    vals = rho_lengths(*trace_rays(cheb(), [0.0], 40), cheb_metric(), [0.2, 0.1, 0.05, 0.025])
    assert all(b < a for a, b in zip(vals[:, 0], vals[1:, 0]))


def test_rho_length_scaling_exponent():
    # near a singular landing point, length(B(x, 2r) cap ray) ~ r^(1 - alpha)
    # or faster; the fitted exponent must not fall below 1 - alpha by much
    metric = cheb_metric(Variant.SIGMA)
    radii = np.array([0.2, 0.1, 0.05, 0.025, 0.0125])
    vals = rho_lengths(*trace_rays(cheb(), [0.0], 50), metric, radii)[:, 0]
    slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
    assert slope >= (1.0 - metric.alpha) - 0.1


def test_rho_length_rejects_faraway_base():
    # a landing far from every point of the polyline leaves no point in B(base, 2r)
    ray = np.array([3 + 0j, 2.5 + 0j]), 100 + 100j
    with pytest.raises(ValueError, match=r"^no ray points inside B\(base, 2r\)$"):
        rho_length_of_ray(ray, cheb_metric(), 0.05)


def test_rho_length_requires_landing_or_base():
    # a ray with no landing estimate, NaN, has no point in any disk round it
    ray = np.array([3 + 0j, 2.5 + 0j]), complex(math.nan, 0.0)
    with pytest.raises(ValueError, match=r"^no ray points inside B\(base, 2r\)$"):
        rho_length_of_ray(ray, cheb_metric(), 0.1)


# ------------------------------------------------------------- escape time


@pytest.mark.parametrize("d, c", [(2, -2 + 0j), (2, 1j), (3, 0.2j)],
                         ids=["c=-2", "c=i", "d=3"])
def test_escape_time_matches_per_pixel_iteration(d, c):
    fmap = em.UnicriticalMap(d, c)
    spec = RenderSpec((-2.5 - 2.5j, 2.5 + 2.5j), 64, 64)
    r_esc = fmap.escape_radius()
    want = np.full((64, 64), 128.0)
    xs, ys = _pixel_axes(spec)
    for (j, i), z in np.ndenumerate(xs + 1j * ys[:, None]):
        w = complex(z)
        for k in range(128):
            w = w**d + c
            if abs(w) > r_esc:
                want[j, i] = k
                break
    assert np.array_equal(escape_time_field(fmap, spec), want)
