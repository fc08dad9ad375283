"""Backward disk orbits: branches, lifts, case labels, and expansion fits."""

import math

import numpy as np
import pytest

import expmetric as em
from expmetric.backward import (
    BackwardDiskOrbit,
    CaseLabel,
    case3_bound_check,
    classify_level,
    conformal_radius_proxy,
    expansion_ratios,
    preimages,
    SAMPLED_TOO_COARSELY,
    pull_back,
    pull_back_orbits,
    shrink_fit,
    winding_number,
)
from expmetric.dynamics import set_diameter
from expmetric.errors import SamplingResolutionError
from expmetric.metrics import SingularMetric, Variant

SQRT2 = math.sqrt(2.0)


def cheb():
    return em.UnicriticalMap(2, -2)


def map_i():
    return em.UnicriticalMap(2, 1j)


def fresh_orbit(fmap, z0, eps, cloud_n=50):
    cloud = em.build_postcritical_cloud(fmap, cloud_n)
    return BackwardDiskOrbit(fmap, z0, eps, cloud=cloud)


# ---------------------------------------------------------------- preimages


def test_preimages_oracles():
    got = sorted(w.real for w in preimages(cheb(), 2))
    assert got == pytest.approx([-2.0, 2.0], abs=1e-12)
    got = sorted(w.real for w in preimages(cheb(), 0))
    assert got == pytest.approx([-SQRT2, SQRT2], abs=1e-12)


def test_preimages_collapse_at_critical_value():
    fmap = em.UnicriticalMap(3, 0.3 + 0.1j)
    assert preimages(fmap, fmap.c) == [0j, 0j, 0j]


def test_preimages_cube_roots():
    fmap = em.UnicriticalMap(3, 0)
    roots = preimages(fmap, 8)
    assert sorted(abs(w) for w in roots) == pytest.approx([2, 2, 2])
    assert min(abs(w - 2) for w in roots) < 1e-12


def test_preimages_are_actual_preimages():
    rng = np.random.default_rng(0)
    for fmap in (cheb(), map_i(), em.UnicriticalMap(3, 0.2j)):
        for _ in range(25):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            ws = preimages(fmap, z)
            assert len(ws) == fmap.d
            for w in ws:
                assert abs(fmap.evaluate(w) - z) < 1e-10


# ------------------------------------------------------------------ winding


def unit_square(center=0j, half=1.0, n=200):
    t = np.linspace(0, 1, n, endpoint=False)
    side = np.floor(4 * t).astype(int)
    u = 4 * t - side
    pts = np.empty(n, dtype=complex)
    pts[side == 0] = complex(-half, -half) + 2 * half * u[side == 0]
    pts[side == 1] = complex(half, -half) + 2j * half * u[side == 1]
    pts[side == 2] = complex(half, half) - 2 * half * u[side == 2]
    pts[side == 3] = complex(-half, half) - 2j * half * u[side == 3]
    return pts + center


def test_winding_number_oracles():
    sq = unit_square()
    assert winding_number(sq, 0) == 1
    assert winding_number(sq, 0.5 + 0.5j) == 1
    assert winding_number(sq, 2 + 0j) == 0
    assert winding_number(sq[::-1], 0) == -1
    assert winding_number(unit_square(center=5 + 5j), 0) == 0


def test_point_in_polygon_oracles():
    # polygon membership, as classify_level tests it: a nonzero winding number
    sq = unit_square()
    assert winding_number(sq, 0) != 0
    assert winding_number(sq, -0.9 - 0.9j) != 0
    assert winding_number(sq, 1.5 + 0j) == 0
    assert winding_number(unit_square(center=3j), 0) == 0


def test_winding_on_circle_matches_unit_disk():
    t = np.exp(2j * np.pi * np.arange(128) / 128)
    rng = np.random.default_rng(1)
    for _ in range(50):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if abs(abs(z) - 1.0) < 0.05:
            continue
        assert winding_number(t, z) == (1 if abs(z) < 1.0 else 0)


# ------------------------------------------------------------------ pull_back


def test_pull_back_zero_steps_is_identity():
    orbit = fresh_orbit(cheb(), 0.5, 0.05)
    pull_back(cheb(), orbit, 0, 0)
    assert orbit.depth == 0
    assert orbit.points == [0.5 + 0j]
    assert orbit.labels == [None]


def test_pull_back_fixed_index_oracle():
    orbit = fresh_orbit(cheb(), 0, 0.1)
    pull_back(cheb(), orbit, 1, 0)
    assert orbit.points[1] == pytest.approx(SQRT2)
    orbit = fresh_orbit(cheb(), 0, 0.1)
    pull_back(cheb(), orbit, 1, 1)
    assert orbit.points[1] == pytest.approx(-SQRT2)


@pytest.mark.parametrize("branch", [-1, 2])
def test_pull_back_out_of_range_branch_rejected(branch):
    orbit = fresh_orbit(cheb(), 0, 0.1)
    with pytest.raises(ValueError, match=f"branch must lie in 0..1, got {branch}"):
        pull_back(cheb(), orbit, 1, branch)
    assert orbit.depth == 0


def test_pull_back_draws_one_branch_a_level():
    # a generator picks root number rng.integers(d) at each level
    fmap = em.UnicriticalMap(3, 0.2j)
    drawn = fresh_orbit(fmap, 0.4 + 0.3j, 0.02)
    pull_back(fmap, drawn, 6, np.random.default_rng(9))
    fixed = fresh_orbit(fmap, 0.4 + 0.3j, 0.02)
    for k in np.random.default_rng(9).integers(3, size=6):
        pull_back(fmap, fixed, 1, int(k))
    assert drawn.points == fixed.points


def test_pull_back_center_consistency():
    for fmap in (cheb(), map_i()):
        orbit = fresh_orbit(fmap, 0.4 + 0.3j, 0.02)
        pull_back(fmap, orbit, 10, np.random.default_rng(3))
        assert orbit.depth == 10
        for n in range(1, 11):
            back = fmap.evaluate(orbit.points[n])
            assert abs(back - orbit.points[n - 1]) < 1e-10


def test_pull_back_boundary_consistency():
    fmap = map_i()
    orbit = fresh_orbit(fmap, 0.4 + 0.3j, 0.02)
    pull_back(fmap, orbit, 8, np.random.default_rng(4))
    for n in range(1, 9):
        prev = orbit.boundary[n - 1]
        cur = orbit.boundary[n]
        m = len(prev)
        for j, w in enumerate(cur):
            assert abs(fmap.evaluate(w) - prev[j % m]) < 1e-8


def test_pull_back_diameters_match_boundaries():
    fmap = cheb()
    orbit = fresh_orbit(fmap, 0.4, 0.03)
    pull_back(fmap, orbit, 6, np.random.default_rng(5))
    for n, poly in enumerate(orbit.boundary):
        d = np.abs(poly[:, None] - poly[None, :]).max()
        assert orbit.diams[n] == pytest.approx(float(d))
        assert np.abs(orbit.offsets[n] - (poly - orbit.points[n])).max() < 1e-14


def test_pulled_back_diameters_keep_precision_to_depth_50():
    # diam U_n |(f^n)'(z_n)| stays at its level-1 value up to the distortion
    # of the pulled-back circle, which shrinks like eps^2: over these orbits
    # the median drift is 2e-8 at eps = 1e-4 (2e-6 at eps = 1e-3), and the
    # worst orbit's 3e-4.  Lost precision is of order one instead: at depth
    # 50 the diameter is about 1e-4 * 2^-50 ~ 1e-19, far below an ulp of the
    # absolute samples.
    fmap = cheb()
    cloud = em.build_postcritical_cloud(fmap, 50)
    drifts = []
    for k, z0 in enumerate(em.sample_julia_points(fmap, 20, np.random.default_rng(0))):
        orbit = BackwardDiskOrbit(fmap, z0, 1e-4, cloud=cloud)
        pull_back(fmap, orbit, 50, np.random.default_rng([0, k]))
        if orbit.critical_level() is not None:
            continue
        scaled = [orbit.diams[n] / conformal_radius_proxy(orbit, n).value
                  for n in range(1, 51)]
        drifts.append(max(abs(s / scaled[0] - 1.0) for s in scaled))
    assert len(drifts) >= 10
    assert np.median(drifts) < 1e-6
    assert max(drifts) < 1e-2


def test_coarse_boundary_around_critical_value_rejected():
    fmap = cheb()
    # an octagon with the critical value 0.1% of its apothem inside one
    # edge: seen from c, that edge turns through nearly pi, so the side on
    # which the circle passes c is not resolved
    apothem = 0.05 * math.cos(math.pi / 8) * np.exp(1j * math.pi / 8)
    z0 = fmap.c - 0.999 * apothem
    orbit = fresh_orbit(fmap, z0, 0.05)
    octagon = 0.05 * np.exp(2j * math.pi * np.arange(8) / 8)
    orbit.boundary[0] = z0 + octagon
    orbit.offsets[0] = octagon
    with pytest.raises(SamplingResolutionError):
        pull_back(fmap, orbit, 1, 0)
    # 64 samples resolve the same disk, which contains c: a critical level
    orbit = fresh_orbit(fmap, z0, 0.05)
    pull_back(fmap, orbit, 1, 0)
    assert orbit.labels[1] is CaseLabel.CRITICAL
    # a sample on the critical value itself has no phase
    orbit = fresh_orbit(fmap, 0.5, 0.05)
    orbit.boundary[0] = np.array([fmap.c, fmap.c + 1, fmap.c + 1j])
    with pytest.raises(SamplingResolutionError):
        pull_back(fmap, orbit, 1, 0)


@pytest.mark.parametrize("fmap", [cheb(), map_i(), em.UnicriticalMap(3, 0.2j)],
                         ids=["c=-2", "c=i", "d=3"])
def test_pull_back_orbits_matches_one_orbit_at_a_time(fmap):
    cloud = em.build_postcritical_cloud(fmap, 50)
    rng = np.random.default_rng(7)
    # small Julia disks stay univalent; disks at the critical value are
    # critical at level 1 and carry d * 64 samples beside the 64-gons from
    # then on; larger Julia disks meet the critical value later, and disks at
    # cloud points meet the cloud
    disks = [(z, 1e-3) for z in em.sample_julia_points(fmap, 6, rng)]
    disks += [(fmap.c + 0.001, 0.003), (fmap.c - 0.001j, 0.003)]
    disks += [(z, 0.2) for z in em.sample_julia_points(fmap, 8, rng)]
    disks += [(p + 1e-5, 1e-4) for p in cloud.points_complex[1:3]]
    depth = 25

    def rngs():
        return [np.random.default_rng([7, k]) for k in range(len(disks))]

    batch = [BackwardDiskOrbit(fmap, z, eps, cloud=cloud) for z, eps in disks]
    assert pull_back_orbits(fmap, batch, depth, rngs()) is None
    for orbit, (z, eps), branch in zip(batch, disks, rngs()):
        ref = pull_back(fmap, BackwardDiskOrbit(fmap, z, eps, cloud=cloud), depth, branch)
        assert orbit.points == ref.points
        assert orbit.diams == ref.diams
        assert orbit.labels == ref.labels
        # only the current polygon is kept, bit for bit the one-orbit lift's
        assert len(orbit.boundary) == len(orbit.offsets) == 1
        assert orbit.boundary[0].tobytes() == ref.boundary[-1].tobytes()
        assert orbit.offsets[0].tobytes() == ref.offsets[-1].tobytes()
        # the labeller serves classify_level too, on one orbit
        assert [classify_level(ref, n) for n in range(1, depth + 1)] == ref.labels[1:]
    assert {len(orbit.boundary[0]) for orbit in batch} == {64, 64 * fmap.d}
    assert {lab for orbit in batch for lab in orbit.labels[1:]} == set(CaseLabel)


def test_pull_back_orbits_refuses_the_lowest_numbered_orbit():
    fmap = cheb()
    cloud = em.build_postcritical_cloud(fmap, 50)
    # a disk holding the whole Julia set meets the critical value again at
    # level 2 (as in test_coarse_boundary_around_critical_value_rejected, an
    # octagon around c is too coarse to lift at level 1)
    [z_big] = em.sample_julia_points(fmap, 1, np.random.default_rng(4))
    apothem = 0.05 * math.cos(math.pi / 8) * np.exp(1j * math.pi / 8)
    z_coarse = fmap.c - 0.999 * apothem
    octagon = 0.05 * np.exp(2j * math.pi * np.arange(8) / 8)

    def orbits(order):
        made = {"big": BackwardDiskOrbit(fmap, z_big, 3.0, cloud=cloud),
                "coarse": BackwardDiskOrbit(fmap, z_coarse, 0.05, cloud=cloud),
                "small": BackwardDiskOrbit(fmap, 0.5 + 0.5j, 1e-3, cloud=cloud)}
        made["coarse"].boundary[0] = z_coarse + octagon
        made["coarse"].offsets[0] = octagon
        return [made[name] for name in order]

    def rngs():
        return [np.random.default_rng([4, k]) for k in range(3)]

    # the later orbit is refused first, but the message names the lower one
    batch = orbits(["big", "coarse", "small"])
    assert pull_back_orbits(fmap, batch, 10, rngs()) == (
        0, "level 2 is its second critical level")
    # each orbit stopped as soon as it, or a lower-numbered one, was refused
    assert [orbit.depth for orbit in batch] == [2, 0, 1]
    assert len(batch[0].boundary[0]) == 4 * 64
    batch = orbits(["coarse", "big", "small"])
    assert pull_back_orbits(fmap, batch, 10, rngs()) == (0, SAMPLED_TOO_COARSELY)
    assert [orbit.depth for orbit in batch] == [0, 1, 1]


@pytest.mark.parametrize("m", [64, 128, 1000])
def test_polygon_diameter_blocks_match_full_matrix(m):
    rng = np.random.default_rng(m)
    samples = rng.normal(size=m) + 1j * rng.normal(size=m)
    planted = samples.copy()
    planted[-2:] = 100, -100j  # the farthest pair, both in the last row block
    for s in (samples, planted):
        assert set_diameter(s) == np.abs(s[:, None] - s[None, :]).max()
    # a stack of polygons, more than are taken at once, gives one diameter each
    stack = np.stack([samples, planted, 2 * planted, samples[::-1], samples + 1])
    assert set_diameter(stack).tolist() == [
        np.abs(s[:, None] - s[None, :]).max() for s in stack]


# ------------------------------------------------------------- case labels


def critical_orbit_at(fmap, steps=3, seed=5):
    # B(c + 0.02, 0.05) contains the critical value c, so the first pullback
    # winds around the critical point
    orbit = fresh_orbit(fmap, fmap.c + 0.02, 0.05)
    return pull_back(fmap, orbit, steps, np.random.default_rng(seed))


def test_critical_label_detected_at_level_one():
    for fmap in (cheb(), map_i(), em.UnicriticalMap(3, 0.2j)):
        orbit = critical_orbit_at(fmap)
        assert orbit.labels[1] is CaseLabel.CRITICAL
        assert orbit.critical_level() == 1
        # the lift runs d turns around the branch point
        assert len(orbit.boundary[1]) == 64 * fmap.d


def test_classify_level_univalent_oracles():
    fmap = cheb()
    # disk around 1.9 meets the cloud point 2 after no pullback is needed:
    # instead check the level-1 pullback of B(2, 0.3), whose preimage disk
    # around +-2 contains the cloud point with the matching sign
    orbit = fresh_orbit(fmap, 2 + 0.001j, 0.3)
    pull_back(fmap, orbit, 1, 0)
    assert orbit.labels[1] is CaseLabel.UNIVALENT_MEETS_P
    # far from cloud and critical point: plain univalent
    orbit = fresh_orbit(fmap, 0.5 + 0.5j, 0.01)
    pull_back(fmap, orbit, 1, 0)
    assert orbit.labels[1] is CaseLabel.UNIVALENT_NO_P


def test_classify_level_bad_levels_rejected():
    orbit = fresh_orbit(cheb(), 0.5, 0.01)
    pull_back(cheb(), orbit, 2, 0)
    with pytest.raises(ValueError):
        classify_level(orbit, 0)
    with pytest.raises(ValueError):
        classify_level(orbit, 3)


def test_at_most_one_critical_label():
    for fmap in (cheb(), map_i()):
        for seed in range(12):
            orbit = fresh_orbit(fmap, fmap.c + 0.02, 0.05)
            pull_back(fmap, orbit, 15, np.random.default_rng(seed))
            crit = sum(lab is CaseLabel.CRITICAL for lab in orbit.labels[1:])
            assert crit <= 1


# ------------------------------------------------------------ expansion fit


def test_expansion_ratio_first_level_oracle():
    # R_1 = |f'(sqrt 2)| sigma(0) / sigma(sqrt 2) = 2 sqrt(2 - sqrt 2)
    fmap = cheb()
    cloud = em.build_postcritical_cloud(fmap, 50)
    metric = SingularMetric.for_degree(cloud, 2, Variant.SIGMA)
    orbit = fresh_orbit(fmap, 0, 0.1)
    pull_back(fmap, orbit, 1, 0)
    rep = expansion_ratios(orbit, metric)
    assert rep.levels == [1]
    assert rep.ratios[0] == pytest.approx(2 * math.sqrt(2 - SQRT2), rel=1e-12)
    assert rep.ratios[0] == pytest.approx(1.5307337294603591, abs=1e-12)


def test_accumulated_derivative_oracle_at_depth_80():
    # z^2 maps the unit circle to itself with |f'| = 2, so |(f^n)'(z_n)| = 2^n;
    # sigma = |z|^(-1/2) is 1 there, so R_n = 2^n as well
    fmap = em.UnicriticalMap(2, 0)
    cloud = em.build_postcritical_cloud(fmap, 5)
    orbit = BackwardDiskOrbit(fmap, complex(math.cos(1.0), math.sin(1.0)), 0.01,
                              cloud=cloud)
    pull_back(fmap, orbit, 80, np.random.default_rng(2))
    rep = expansion_ratios(orbit, SingularMetric.for_degree(cloud, 2, Variant.SIGMA))
    assert rep.levels == list(range(1, 81))
    assert rep.ratios == pytest.approx([2.0**n for n in range(1, 81)], rel=1e-12)
    assert conformal_radius_proxy(orbit, 80).value == pytest.approx(0.01 / 2**80, rel=1e-12)


def test_expansion_fit_grows_exponentially():
    fmap = cheb()
    cloud = em.build_postcritical_cloud(fmap, 50)
    metric = SingularMetric.for_degree(cloud, 2, Variant.SIGMA)
    orbit = fresh_orbit(fmap, 0, 0.05)
    pull_back(fmap, orbit, 20, np.random.default_rng(11))
    rep = expansion_ratios(orbit, metric)
    assert rep.lam > 1.0
    assert sum(rep.case_counts.values()) == orbit.depth
    assert len(rep.levels) + len(rep.skipped_levels) == orbit.depth


def test_expansion_skips_levels_on_the_cloud():
    fmap = cheb()
    cloud = em.build_postcritical_cloud(fmap, 50)
    metric = SingularMetric.for_degree(cloud, 2, Variant.SIGMA)
    orbit = fresh_orbit(fmap, 0, 0.1)
    # synthetic continuation: level 1 lands exactly on the cloud point 2
    orbit.points += [2 + 0j, SQRT2 + 0j]
    orbit.labels += [CaseLabel.UNIVALENT_MEETS_P, CaseLabel.UNIVALENT_NO_P]
    rep = expansion_ratios(orbit, metric)
    assert rep.skipped_levels == [1]
    assert rep.levels == [2]


def test_expansion_all_levels_skipped_rejected():
    fmap = cheb()
    cloud = em.build_postcritical_cloud(fmap, 50)
    metric = SingularMetric.for_degree(cloud, 2, Variant.SIGMA)
    orbit = fresh_orbit(fmap, 0, 0.1)
    orbit.points.append(2 + 0j)
    orbit.labels.append(CaseLabel.UNIVALENT_MEETS_P)
    with pytest.raises(ValueError):
        expansion_ratios(orbit, metric)


# --------------------------------------------------- conformal radius proxy


def test_conformal_radius_proxy_oracles():
    fmap = cheb()
    orbit = fresh_orbit(fmap, 0, 0.1)
    pull_back(fmap, orbit, 2, 0)
    r0 = conformal_radius_proxy(orbit, 0)
    assert r0.value == 0.1 and not r0.from_diameter
    r1 = conformal_radius_proxy(orbit, 1)
    assert r1.value == pytest.approx(0.1 / (2 * SQRT2), rel=1e-12)
    assert r1.value == pytest.approx(0.035355339059327376, abs=1e-15)
    assert not r1.from_diameter
    with pytest.raises(ValueError):
        conformal_radius_proxy(orbit, 3)


def test_conformal_radius_proxy_past_critical():
    orbit = critical_orbit_at(cheb(), steps=4)
    with pytest.raises(ValueError):
        conformal_radius_proxy(orbit, 1)  # the critical level itself
    r = conformal_radius_proxy(orbit, 3)
    assert r.from_diameter
    assert r.value == pytest.approx(orbit.diams[3])
    assert r.value <= 1.05 * orbit.diams[3]


# ------------------------------------------------------------- shrink fit


def test_shrink_fit_square_map_halves_diameters():
    fmap = em.UnicriticalMap(2, 0)
    orbit = fresh_orbit(fmap, 1, 0.05, cloud_n=5)
    pull_back(fmap, orbit, 12, 0)
    c0, theta = shrink_fit(orbit)
    assert theta == pytest.approx(0.5, abs=0.05)
    assert c0 == pytest.approx(2 * 0.05, rel=0.2)


def test_shrink_fit_flags_noncontraction():
    orbit = fresh_orbit(cheb(), 0.5, 0.05)
    # synthetic stall: constant diameters give theta ~ 1
    orbit.points += [0.5 + 0j] * 12
    orbit.diams += [orbit.diams[0]] * 12
    orbit.labels += [CaseLabel.UNIVALENT_NO_P] * 12
    c0, theta = shrink_fit(orbit)
    assert theta == pytest.approx(1.0, abs=1e-9)


def test_shrink_fit_needs_depth():
    orbit = fresh_orbit(cheb(), 0.5, 0.05)
    pull_back(cheb(), orbit, 5, 0)
    with pytest.raises(ValueError):
        shrink_fit(orbit)


# ------------------------------------------------------------ case 3 bounds


def test_case3_margins_nonnegative():
    for fmap in (cheb(), map_i()):
        cloud = em.build_postcritical_cloud(fmap, 50)
        metric = SingularMetric.for_degree(cloud, 2, Variant.SIGMA)
        orbit = critical_orbit_at(fmap, steps=6)
        rep = case3_bound_check(orbit, metric)
        assert rep.critical_level == 1
        assert rep.w0 == pytest.approx(fmap.c)
        assert rep.deriv_lower_margin >= 0.0
        assert rep.sigma_upper_margin >= 0.0
        assert rep.sigma_lower_margin >= 0.0


def test_case3_requires_critical_level():
    fmap = cheb()
    cloud = em.build_postcritical_cloud(fmap, 50)
    metric = SingularMetric.for_degree(cloud, 2, Variant.SIGMA)
    orbit = fresh_orbit(fmap, 0.5 + 0.5j, 0.01)
    pull_back(fmap, orbit, 3, 0)
    with pytest.raises(ValueError):
        case3_bound_check(orbit, metric)


def test_case3_detects_corrupted_radius():
    fmap = cheb()
    cloud = em.build_postcritical_cloud(fmap, 50)
    metric = SingularMetric.for_degree(cloud, 2, Variant.SIGMA)
    orbit = critical_orbit_at(fmap, steps=6)
    orbit.diams[-1] = 1e9  # absurd final radius must break the sigma bound
    rep = case3_bound_check(orbit, metric)
    assert rep.sigma_upper_margin < 0.0
