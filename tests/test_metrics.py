"""Closed-form density, comparison-function, and distortion-bound tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expmetric as em
from expmetric.metrics import Variant

SQRT2 = math.sqrt(2.0)


def cheb_cloud():
    return em.build_postcritical_cloud(em.critical_orbit(em.UnicriticalMap(2, -2), 50)[0])


def test_density_oracles():
    rho = em.SingularMetric(cheb_cloud(), 2, Variant.RHO)
    assert rho.density(0) == pytest.approx(1 + 2 ** -0.5, rel=1e-12)
    sigma = em.SingularMetric(cheb_cloud(), 2, Variant.SIGMA)
    assert sigma.density(SQRT2) == pytest.approx((2 - SQRT2) ** -0.5, rel=1e-12)
    assert rho.density(2) == math.inf
    assert sigma.density(-2) == math.inf
    # as a function of the distance to the cloud, the one the grid's
    # search bounds read
    assert rho.density_of_distance(4.0) == 1.5
    assert sigma.density_of_distance(0.25) == 2.0
    assert rho.density_of_distance(0.0) == sigma.density_of_distance(0.0) == math.inf


def test_density_bounds_by_variant():
    rho = em.SingularMetric(cheb_cloud(), 2, Variant.RHO)
    sigma = em.SingularMetric(cheb_cloud(), 2, Variant.SIGMA)
    for z in (0.5 + 0.5j, 3, -1j, 0.1):
        assert rho.density(z) >= 1.0
        assert sigma.density(z) > 0.0


@pytest.mark.parametrize("variant", [Variant.RHO, Variant.SIGMA])
def test_density_is_the_one_point_density_array(variant):
    metric = em.SingularMetric(cheb_cloud(), 2, variant)
    rng = np.random.default_rng(5)
    zs = list(rng.uniform(-3, 3, 20) + 1j * rng.uniform(-3, 3, 20)) + [2, -2, 0j]
    for z in zs:
        assert metric.density(z) == metric.density_array(np.array([z]))[0]
    assert metric.density(2) == metric.density(-2) == math.inf
    grid = em.build_grid(metric, (complex(-3, -3), complex(3, 3)), 31)
    for z in zs:
        floored = metric.density_array(np.array([z]), dist_floor=grid.h / 2)[0]
        assert grid.local_density(np.array([z]))[0] == floored
    assert math.isfinite(grid.local_density(np.array([2 + 0j]))[0])


def test_alpha_matches_degree():
    for d in (2, 3, 5):
        metric = em.SingularMetric(cheb_cloud(), d)
        assert metric.d == d and metric.alpha == 1.0 - 1.0 / d
    with pytest.raises(ValueError, match="degree must be >= 2"):
        em.SingularMetric(cheb_cloud(), 1)


def test_density_cloud_sandwich():
    # coarser cloud (subset) has larger distances, hence smaller rho
    m = em.UnicriticalMap(2, 1j)
    small = em.SingularMetric(em.build_postcritical_cloud(em.critical_orbit(m, 2)[0]), 2)
    full = em.SingularMetric(em.build_postcritical_cloud(em.critical_orbit(m, 50)[0]), 2)
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert 1.0 <= small.density(z) <= full.density(z) + 1e-12


def test_series_F_oracles():
    assert em.series_F_times_power(3, 0.0) == pytest.approx(1 / 3)
    assert em.series_F_times_power(2, 0.25) == pytest.approx(0.625)
    assert em.series_F_times_power(2, 0.81) == pytest.approx(0.905)


def test_comparison_F_oracles():
    assert em.comparison_F(2, 0.25) == pytest.approx(1.25, rel=1e-12)
    t = 1 - 1e-12
    assert em.comparison_F(2, t) == pytest.approx(1.0, abs=1e-9)


def test_comparison_F_domain():
    with pytest.raises(ValueError, match=r"^t must lie in \(0, 1\), got 0\.0$"):
        em.comparison_F(2, 0.0)
    with pytest.raises(ValueError, match=r"^t must lie in \(0, 1\), got 1\.0$"):
        em.comparison_F(2, 1.0)


def test_F_sandwich_and_monotone():
    ts = np.linspace(1e-9, 1 - 1e-9, 10_000)
    for d in range(2, 9):
        vals = np.array([em.series_F_times_power(d, t) for t in ts])
        assert np.all(vals >= 1 / d - 1e-15)
        assert np.all(vals <= 1.0 + 1e-15)
        assert np.all(np.diff(vals) > 0)


def test_series_finite_near_one():
    for d in (2, 5, 8):
        v = em.series_F_times_power(d, 1 - 1e-15)
        assert math.isfinite(v) and v <= 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=8),
       st.floats(min_value=1e-6, max_value=0.999))
def test_closed_form_matches_series(d, t):
    a = em.comparison_F(d, t)
    b = em.comparison_F_closed_form(d, t)
    assert b == pytest.approx(a, rel=1e-9)


def test_hyperbolic_density_disk_oracles():
    assert em.hyperbolic_density_disk(1, 0) == pytest.approx(2.0)
    assert em.hyperbolic_density_disk(2, 0) == pytest.approx(1.0)
    assert em.hyperbolic_density_disk(1, 0.5) == pytest.approx(8 / 3)
    with pytest.raises(ValueError, match=r"^z must lie inside B\(0, r\)$"):
        em.hyperbolic_density_disk(1, 1.0)


def test_orbifold_density_oracles():
    assert em.orbifold_density_disk(2, 0.25) == pytest.approx(8 / 3, rel=1e-12)
    assert em.orbifold_density_disk(2, 0) == math.inf
    with pytest.raises(ValueError, match="^z must lie inside the unit disk$"):
        em.orbifold_density_disk(2, 1.5)


def test_orbifold_hyperbolic_ratio_is_F():
    rng = np.random.default_rng(2)
    for d in (2, 3, 4):
        for _ in range(200):
            t = rng.uniform(1e-3, 1 - 1e-3)
            z = t * np.exp(2j * np.pi * rng.uniform())
            ratio = em.orbifold_density_disk(d, z) / em.hyperbolic_density_disk(1, z)
            assert ratio == pytest.approx(em.comparison_F(d, t), abs=1e-10)


def test_orbifold_ratio_tends_to_one():
    z = 1 - 1e-9
    ratio = em.orbifold_density_disk(4, z) / em.hyperbolic_density_disk(1, z)
    assert ratio == pytest.approx(1.0, abs=1e-6)


def test_koebe_bounds_oracles():
    kb = em.koebe_bounds(1, 1, 0.5)
    assert kb.lower == pytest.approx(4 / 9)
    assert kb.upper == pytest.approx(4.0)
    assert kb.quarter_radius == pytest.approx(0.25)
    kb = em.koebe_bounds(3, 2, 1)
    assert kb.lower == pytest.approx(4 / 3)
    assert kb.upper == pytest.approx(12.0)
    assert kb.quarter_radius == pytest.approx(1.5)


def test_koebe_bounds_collapse_as_s_to_zero():
    kb = em.koebe_bounds(2.5, 1, 1e-9)
    assert kb.lower == pytest.approx(2.5, rel=1e-6)
    assert kb.upper == pytest.approx(2.5, rel=1e-6)


def test_koebe_bounds_domain():
    with pytest.raises(ValueError, match="^need 0 <= s < r$"):
        em.koebe_bounds(1, 1, 1)


def test_koebe_on_explicit_univalent_family():
    # g(z) = r z / (r - z) is univalent on B(0, r) with g'(0) = 1
    rng = np.random.default_rng(3)
    for r in (1.0, 2.0, 0.5):
        for _ in range(3000):
            s = rng.uniform(1e-3, 0.99 * r)
            z = s * np.exp(2j * np.pi * rng.uniform())
            g = r * z / (r - z)
            ratio = abs(g) / abs(z)
            kb = em.koebe_bounds(1.0, r, s)
            assert kb.lower - 1e-12 <= ratio <= kb.upper + 1e-12
