"""External-ray tracing, landing, John constants, and rho-lengths."""

import cmath
import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import expmetric as em
from expmetric.cli import RHO_LENGTH_RADII
from expmetric.dynamics import preimage_branch
from expmetric.errors import DomainError, InsideJuliaError, RayTracingError
from expmetric.metrics import SingularMetric, Variant
from expmetric.rays import (
    LANDING_TOL,
    RHO_LENGTH_REFINE,
    SUBSTEPS,
    TOP_POTENTIAL,
    ExternalRay,
    JohnRayEntry,
    _aitken,
    _boettcher_top,
    _extrapolated_landing,
    john_constant_along_ray,
    john_report,
    rho_length_of_ray,
    rho_lengths,
    trace_ray,
    trace_rays,
)
from expmetric.render import RenderSpec, _pixel_grid, escape_time_field


def cheb():
    return em.UnicriticalMap(2, -2)


def dist_to_segment(z):
    # exact distance to J = [-2, 2] for the Chebyshev parameter
    x = min(2.0, max(-2.0, z.real))
    return abs(z - x)


def dist_to_circle(z):
    # exact distance to the unit circle for c = 0
    return abs(abs(z) - 1.0)


def distances(ray, dist):
    return np.array([dist(z) for z in ray.polyline])


# ------------------------------------------------------------------ tracing


def test_ray_domain_errors():
    with pytest.raises(DomainError):
        trace_ray(cheb(), 1.0, 10)
    with pytest.raises(DomainError):
        trace_ray(cheb(), -0.1, 10)
    with pytest.raises(DomainError):
        trace_ray(cheb(), 0.25, 61)


def test_overflowing_boettcher_start_raises():
    # at degree 100 the top sub-level sits at potential 1000, past exp's range;
    # the overflow is refused with an error, not also warned about
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RayTracingError, match="overflows"):
            trace_rays(em.UnicriticalMap(100, 0), [0.1], 5)


def test_landing_oracles_chebyshev():
    ray = trace_ray(cheb(), 0.0, 30)
    assert ray.landing is not None
    assert abs(ray.landing - 2.0) < 1e-4
    ray = trace_ray(cheb(), 0.5, 30)
    assert abs(ray.landing - (-2.0)) < 1e-4


def test_landing_at_critical_point_via_extrapolation():
    # the 1/4-ray lands on the critical point 0, where the two inverse
    # branches meet
    ray = trace_ray(cheb(), 0.25, 30)
    assert ray.landing is not None
    assert abs(ray.landing) < 1e-6


def test_landing_oracles_square_map():
    fmap = em.UnicriticalMap(2, 0)
    for k in range(8):
        ray = trace_ray(fmap, k / 8, 30)
        expected = np.exp(2j * np.pi * k / 8)
        assert abs(ray.landing - expected) < 1e-5


def test_cubic_ray_lands():
    fmap = em.UnicriticalMap(3, 0)
    ray = trace_ray(fmap, 1 / 3, 30)
    assert abs(ray.landing - np.exp(2j * np.pi / 3)) < 1e-5


def test_potential_schedule():
    ray = trace_ray(cheb(), 0.0, 20)
    assert ray.potentials[0] == pytest.approx(1.0)
    for k, g in enumerate(ray.potentials):
        assert g == pytest.approx(1.0 / 2**k, abs=1e-8)
    assert all(b < a for a, b in zip(ray.potentials, ray.potentials[1:]))


def test_points_sit_on_stated_equipotentials():
    for fmap in (cheb(), em.UnicriticalMap(2, 1j)):
        ray = trace_ray(fmap, 0.3, 15)
        for z, g in zip(ray.polyline, ray.potentials):
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
    rays = trace_rays(em.UnicriticalMap(2, c), [k / 48 for k in range(48)], 50)
    for ray in rays:
        assert len(ray.polyline) == 51
        for z, g in zip(ray.polyline, ray.potentials):
            recomputed, roundoff = plain_potential(z, c)
            assert abs(recomputed - g) <= 1e-6 * g + roundoff, (ray.theta, g, z)


def test_batched_rays_match_single_rays_bit_for_bit():
    angles = [k / 48 for k in range(0, 48, 5)] + [0.1, 0.3, 0.1]
    for fmap in (cheb(), em.UnicriticalMap(2, 1j), em.UnicriticalMap(3, 0.2j)):
        for ray in trace_rays(fmap, angles, 50):
            single = trace_ray(fmap, ray.theta, 50)
            assert ray.polyline == single.polyline
            assert ray.potentials == single.potentials
            assert ray.landing == single.landing


def reference_trace(fmap, thetas, depth):
    """(polyline, landing) of each angle by the pull-back of ``trace_rays``
    taken one array step a sub-level, each step drawing its own candidates."""
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
        if abs(polyline[-1] - polyline[-2]) < LANDING_TOL:
            traced.append((polyline, polyline[-1]))
        else:
            traced.append((polyline, _extrapolated_landing(polyline)))
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
], ids=["c=-2", "c=i", "c=i-periodic", "c=-2-periodic", "d=3", "d=3-periodic"])
def test_trace_rays_matches_one_sub_level_a_step(d, c, thetas, depth):
    fmap = em.UnicriticalMap(d, c)
    for ray, (polyline, landing) in zip(trace_rays(fmap, thetas, depth),
                                        reference_trace(fmap, thetas, depth)):
        assert np.array_equal(ray.polyline, polyline, equal_nan=True), ray.theta
        assert (ray.landing is None) == (landing is None), ray.theta
        if landing is not None:
            assert np.array_equal([ray.landing], [landing], equal_nan=True), ray.theta


def test_cubic_ray_follows_exact_angle_orbit():
    # z^3 has the radial rays exp(g + 2 pi i theta); in floating point
    # 0.1 * 3^m mod 1 is 0.02 turns off at m = 33 and 0.4 at m = 38, so only
    # an exact angle orbit keeps the deep points on the 0.1-ray
    fmap = em.UnicriticalMap(3, 0)
    ray = trace_ray(fmap, 0.1, 40)
    for z, g in zip(ray.polyline, ray.potentials):
        assert abs(cmath.phase(z) - 2 * math.pi * 0.1) < 1e-12
        assert abs(math.log(abs(z)) - g) < 1e-12
    assert abs(ray.landing - cmath.exp(0.2j * math.pi)) < 1e-12


def test_ray_equivariance_under_f():
    # f maps the theta-ray to the (d theta)-ray, doubling the potential
    fmap = cheb()
    ray_a = trace_ray(fmap, 0.3, 12)
    ray_b = trace_ray(fmap, 0.6, 12)
    for k in range(1, 12):
        assert abs(fmap.evaluate(ray_a.polyline[k + 1]) - ray_b.polyline[k]) < 1e-6


def test_arclengths_from_landing():
    ray = trace_ray(cheb(), 0.0, 20)
    arcs = ray.arclengths_from_landing()
    assert len(arcs) == len(ray.polyline)
    assert arcs[-1] == 0.0
    assert all(a >= b for a, b in zip(arcs, arcs[1:]))
    # total arclength dominates the straight-line span
    assert arcs[0] >= abs(ray.polyline[0] - ray.polyline[-1]) - 1e-12


# ------------------------------------------------------------------- Aitken


def test_aitken_exact_on_geometric_tails():
    L = 0.7 - 0.2j
    seq = [L + 0.3 * (0.4 + 0.1j) ** n for n in range(3)]
    assert abs(_aitken(*seq) - L) < 1e-12
    # non-contracting differences are rejected
    assert _aitken(0.0, 1.0, 2.0) is None


def test_extrapolated_landing_gates():
    assert _extrapolated_landing([0j, 1j, 2j]) is None  # too short
    L = 1.5 + 0.5j
    seq = [L + (0.3 + 0.05j) ** n for n in range(8)]
    est = _extrapolated_landing(seq)
    assert est is not None and abs(est - L) < 1e-6


# ------------------------------------------------------------ John constant


def test_john_constant_square_map_is_one():
    # rays of z^2 are radial, so dist(z, J) equals the arclength exactly
    fmap = em.UnicriticalMap(2, 0)
    entries = []
    for k in range(8):
        ray = trace_ray(fmap, k / 8, 35)
        entries.append(john_constant_along_ray(ray, distances(ray, dist_to_circle)))
    for e in entries:
        assert e.constant == pytest.approx(1.0, abs=0.05)
    rep = john_report(entries)
    assert 0.95 <= rep.constant <= 1.0
    worst = min(entries, key=lambda e: e.constant)
    assert (rep.constant, rep.worst_point) == (min(1.0, worst.constant), worst.worst_point)


def test_john_constant_chebyshev_positive_and_stable():
    fmap = cheb()
    for theta in (0.1, 0.3):
        r40, r50 = trace_ray(fmap, theta, 40), trace_ray(fmap, theta, 50)
        e40 = john_constant_along_ray(r40, distances(r40, dist_to_segment))
        e50 = john_constant_along_ray(r50, distances(r50, dist_to_segment))
        assert e40.constant >= 0.01
        assert abs(e40.constant - e50.constant) <= 0.25 * e40.constant


def test_john_report_clamps_at_one():
    entries = [JohnRayEntry(0.0, 2.5, 1 + 0j), JohnRayEntry(0.5, 3.0, -1 + 0j)]
    rep = john_report(entries)
    assert rep == JohnRayEntry(0.0, 1.0, 1 + 0j)  # the worst ray's theta and point
    assert entries[0].constant == 2.5  # raw per-ray values untouched


def test_john_constant_requires_landing():
    ray = ExternalRay(0.0, [3 + 0j, 2.5 + 0j], [1.0, 0.5], None)
    with pytest.raises(RayTracingError):
        john_constant_along_ray(ray, distances(ray, dist_to_segment))


def test_john_constant_takes_first_minimum_and_refuses_nan():
    # arclengths from the landing 0: 3, 2, 1, 0; ratios 1/3, 1/2, 1/3, and the
    # landing itself skipped, so the first of the two minima is the worst point
    ray = ExternalRay(0.0, [3 + 0j, 2 + 0j, 1 + 0j, 0j], [1.0, 0.5, 0.25, 0.125], 0j)
    entry = john_constant_along_ray(ray, np.array([1.0, 1.0, 1 / 3, math.nan]))
    assert (entry.constant, entry.worst_point) == (1 / 3, 3 + 0j)
    with pytest.raises(InsideJuliaError, match=r"ray point \(2\+0j\)"):
        john_constant_along_ray(ray, np.array([1.0, math.nan, 1.0, 1.0]))


# -------------------------------------------------------------- rho-length


def cheb_metric(variant=Variant.RHO):
    cloud = em.build_postcritical_cloud(em.critical_orbit(cheb(), 50)[0])
    return SingularMetric(cloud, 2, variant)


def reference_rho_length(ray, metric, from_radius):
    """The rho-length of one ray at one radius, each straddling segment
    clipped by a scalar bisection with Python's ``abs``, and one density
    call; NaN when no ray point lies in B(base, 2r)."""
    base, radius = ray.landing, 2.0 * from_radius
    pts = np.array(ray.polyline)
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


def reference_rho_lengths(rays, metric, radii):
    return np.array([[reference_rho_length(ray, metric, r) for ray in rays] for r in radii])


@pytest.mark.parametrize("c", [-2 + 0j, 1j], ids=["c=-2", "c=i"])
def test_rho_lengths_match_one_ray_and_radius_at_a_time(c):
    # the rays command's angles, depth, radii and cloud
    fmap = em.UnicriticalMap(2, c)
    metric = SingularMetric(em.build_postcritical_cloud(em.critical_orbit(fmap, 2000)[0]), 2)
    rays = trace_rays(fmap, FORTY_EIGHT, 50)
    got = rho_lengths(rays, metric, RHO_LENGTH_RADII)
    assert got.shape == (len(RHO_LENGTH_RADII), 48)
    assert np.isfinite(got).all()
    assert np.array_equal(got, reference_rho_lengths(rays, metric, RHO_LENGTH_RADII))


def test_rho_lengths_nan_where_no_ray_point_lies_in_the_disk():
    # the 0.1-ray lies in the upper half-plane; with its landing moved 0.3
    # below the axis, B(base, 0.4) holds its tail and the smaller disks none
    metric = cheb_metric()
    ray, other = trace_rays(cheb(), [0.1, 0.3], 20)
    moved = dataclasses.replace(ray, landing=ray.landing - 0.3j)
    got = rho_lengths([moved, other], metric, RHO_LENGTH_RADII)
    assert np.isfinite(got[0, 0]) and np.isnan(got[1:, 0]).all()
    assert np.isfinite(got[:, 1]).all()
    want = reference_rho_lengths([moved, other], metric, RHO_LENGTH_RADII)
    assert np.array_equal(got, want, equal_nan=True)
    assert rho_length_of_ray(moved, metric, 0.2) == got[0, 0]
    with pytest.raises(DomainError, match=r"^no ray points inside B\(base, 2r\)$"):
        rho_length_of_ray(moved, metric, 0.1)
    assert rho_lengths([], metric, RHO_LENGTH_RADII).shape == (4, 0)


def test_rho_length_matches_direct_quadrature():
    ray = trace_ray(cheb(), 0.1, 25)
    metric = cheb_metric()
    r = 0.2
    got = rho_length_of_ray(ray, metric, r)
    # independent midpoint sum over the clipped polyline
    base = ray.landing
    total = 0.0
    pts = ray.polyline
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
    ray = trace_ray(cheb(), 0.0, 40)
    metric = cheb_metric(Variant.SIGMA)
    val = rho_length_of_ray(ray, metric, 0.1)
    assert math.isfinite(val) and val > 0.0


def test_rho_length_decreases_with_radius():
    ray = trace_ray(cheb(), 0.0, 40)
    metric = cheb_metric()
    vals = [rho_length_of_ray(ray, metric, r) for r in (0.2, 0.1, 0.05, 0.025)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_rho_length_scaling_exponent():
    # near a singular landing point, length(B(x, 2r) cap ray) ~ r^(1 - alpha)
    # or faster; the fitted exponent must not fall below 1 - alpha by much
    ray = trace_ray(cheb(), 0.0, 50)
    metric = cheb_metric(Variant.SIGMA)
    radii = np.array([0.2, 0.1, 0.05, 0.025, 0.0125])
    vals = np.array([rho_length_of_ray(ray, metric, r) for r in radii])
    slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
    assert slope >= (1.0 - metric.alpha) - 0.1


def test_rho_length_rejects_faraway_base():
    # a landing far from every point of the polyline leaves no point in B(base, 2r)
    ray = ExternalRay(0.0, [3 + 0j, 2.5 + 0j], [1.0, 0.5], 100 + 100j)
    with pytest.raises(DomainError):
        rho_length_of_ray(ray, cheb_metric(), 0.05)


def test_rho_length_requires_landing_or_base():
    ray = ExternalRay(0.0, [3 + 0j, 2.5 + 0j], [1.0, 0.5], None)
    with pytest.raises(RayTracingError):
        rho_length_of_ray(ray, cheb_metric(), 0.1)


# ------------------------------------------------------------- escape time


@pytest.mark.parametrize("d, c", [(2, -2 + 0j), (2, 1j), (3, 0.2j)],
                         ids=["c=-2", "c=i", "d=3"])
def test_escape_time_matches_per_pixel_iteration(d, c):
    fmap = em.UnicriticalMap(d, c)
    spec = RenderSpec((-2.5 - 2.5j, 2.5 + 2.5j), 64, 64)
    r_esc = fmap.escape_radius()
    want = np.full((64, 64), 128.0)
    for (j, i), z in np.ndenumerate(_pixel_grid(spec)):
        w = complex(z)
        for k in range(128):
            w = w**d + c
            if abs(w) > r_esc:
                want[j, i] = k
                break
    assert np.array_equal(escape_time_field(fmap, spec), want)
