"""Backward disk orbits: branches, lifts, case labels, and expansion fits."""

import math
import sys
import warnings

import numpy as np
import pytest

import expmetric as em
from expmetric.backward import (
    MAX_PHASE_STEP,
    BackwardDiskOrbit,
    CaseLabel,
    _labels,
    _log_derivatives,
    _phase_steps,
    classify_level,
    expansion_ratios,
    SAMPLED_TOO_COARSELY,
    pull_back,
    pull_back_orbits,
    shrink_fit,
)
from expmetric.dynamics import DIAMETER_BLOCK_PAIRS, preimage_branch, set_diameter
from expmetric.errors import SamplingResolutionError
from expmetric.metrics import SingularMetric, Variant

SQRT2 = math.sqrt(2.0)


def cheb():
    return em.UnicriticalMap(2, -2)


def map_i():
    return em.UnicriticalMap(2, 1j)


def fresh_orbit(fmap, z0, eps, cloud_n=50):
    cloud = em.build_postcritical_cloud(em.critical_orbit(fmap, cloud_n)[0])
    return BackwardDiskOrbit(fmap, z0, eps, cloud=cloud)


# ---------------------------------------------------------------- preimages


def roots_of(fmap, z):
    """All d roots of w^d = z - c, in branch order."""
    return preimage_branch(fmap, z, np.arange(fmap.d))


def test_preimages_oracles():
    got = sorted(w.real for w in roots_of(cheb(), 2))
    assert got == pytest.approx([-2.0, 2.0], abs=1e-12)
    got = sorted(w.real for w in roots_of(cheb(), 0))
    assert got == pytest.approx([-SQRT2, SQRT2], abs=1e-12)


def test_preimages_collapse_at_critical_value():
    fmap = em.UnicriticalMap(3, 0.3 + 0.1j)
    assert roots_of(fmap, fmap.c).tolist() == [0j, 0j, 0j]


def test_preimages_cube_roots():
    fmap = em.UnicriticalMap(3, 0)
    roots = roots_of(fmap, 8)
    assert sorted(abs(w) for w in roots) == pytest.approx([2, 2, 2])
    assert abs(roots[0] - 2) < 1e-12  # the principal root


def test_preimages_are_actual_preimages():
    rng = np.random.default_rng(0)
    for fmap in (cheb(), map_i(), em.UnicriticalMap(3, 0.2j)):
        zs = rng.uniform(-3, 3, 25) + 1j * rng.uniform(-3, 3, 25)
        ws = preimage_branch(fmap, zs[:, None], np.arange(fmap.d))
        assert ws.shape == (25, fmap.d)
        assert np.abs(fmap.evaluate(ws) - zs[:, None]).max() < 1e-10
        # the d roots are distinct: consecutive branches differ by exp(2 pi i / d)
        rot = np.exp(2j * math.pi / fmap.d)
        assert np.abs(ws[:, 1:] - ws[:, :-1] * rot).max() < 1e-12 * np.abs(ws).max()


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
    assert _phase_steps(sq)[2] == 1
    assert _phase_steps(sq - (0.5 + 0.5j))[2] == 1
    assert _phase_steps(sq - 2)[2] == 0
    assert _phase_steps(sq[::-1])[2] == -1
    assert _phase_steps(unit_square(center=5 + 5j))[2] == 0


def test_point_in_polygon_oracles():
    # polygon membership, as _labels tests it: a nonzero winding number
    sq = unit_square()
    assert _phase_steps(sq)[2] != 0
    assert _phase_steps(sq - (-0.9 - 0.9j))[2] != 0
    assert _phase_steps(sq - 1.5)[2] == 0
    assert _phase_steps(unit_square(center=3j))[2] == 0
    # one winding number per polygon along the last axis
    assert _phase_steps(np.stack([sq, sq - 2, sq[::-1]]))[2].tolist() == [1, 0, -1]


def test_winding_on_circle_matches_unit_disk():
    t = np.exp(2j * np.pi * np.arange(128) / 128)
    rng = np.random.default_rng(1)
    for _ in range(50):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if abs(abs(z) - 1.0) < 0.05:
            continue
        assert _phase_steps(t - z)[2] == (1 if abs(z) < 1.0 else 0)


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
    cloud = em.build_postcritical_cloud(em.critical_orbit(fmap, 50)[0])
    drifts = []
    for k, z0 in enumerate(em.sample_julia_points(fmap, 20, np.random.default_rng(0))):
        orbit = BackwardDiskOrbit(fmap, z0, 1e-4, cloud=cloud)
        pull_back(fmap, orbit, 50, np.random.default_rng([0, k]))
        if CaseLabel.CRITICAL in orbit.labels:
            continue
        logs = _log_derivatives(orbit)
        scaled = [orbit.diams[n] * math.exp(logs[n]) / 1e-4 for n in range(1, 51)]
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
    cloud = em.build_postcritical_cloud(em.critical_orbit(fmap, 50)[0])
    rng = np.random.default_rng(7)
    # small Julia disks stay univalent; disks at the critical value are
    # critical at level 1 and carry d * 64 samples beside the 64-gons from
    # then on; larger Julia disks meet the critical value later, and disks at
    # cloud points meet the cloud
    disks = [(z, 1e-3) for z in em.sample_julia_points(fmap, 6, rng)]
    disks += [(fmap.c + 0.001, 0.003), (fmap.c - 0.001j, 0.003)]
    disks += [(z, 0.2) for z in em.sample_julia_points(fmap, 8, rng)]
    disks += [(p + 1e-5, 1e-4) for p in cloud.points[1:3]]
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
        # classify_level reads the recorded case, on a batch orbit too
        assert [classify_level(orbit, n) for n in range(1, depth + 1)] == ref.labels[1:]
    assert {len(orbit.boundary[0]) for orbit in batch} == {64, 64 * fmap.d}
    assert {lab for orbit in batch for lab in orbit.labels[1:]} == set(CaseLabel)


def test_pull_back_orbits_refuses_the_lowest_numbered_orbit():
    fmap = cheb()
    cloud = em.build_postcritical_cloud(em.critical_orbit(fmap, 50)[0])
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


def reference_pull_back(fmap, cloud, disks, steps, rngs):
    """The level step of pull_back_orbits written plainly, one orbit at a
    time: a scalar draw of each root at each level, every sample lifted by
    ``preimage_branch`` on every turn, the on-sheet denominator as the sum of
    all d terms w^j z^(d-1-j), a level-0 disk built for each orbit and
    full-matrix diameters.  Returns the orbits' states (centres, current
    polygon, current offsets, diameters, labels) and the refusal."""
    d = fmap.d
    angles = 2.0 * math.pi * np.arange(64) / 64
    states = []
    for z0, eps in disks:
        offsets = eps * np.exp(1j * angles)
        states.append({"points": [complex(z0)], "boundary": z0 + offsets, "offsets": offsets,
                       "diams": [float(full_matrix_max(offsets))], "labels": [None]})

    def lift(state, root):
        center = preimage_branch(fmap, np.array([state["points"][-1]]), np.array([root]))
        prev = state["boundary"][None, :]
        u = prev - fmap.c
        phase, steps, winding = _phase_steps(u)
        if not u.all() or np.abs(steps).max() > MAX_PHASE_STEP:
            return False
        unwrapped = phase[:, :1] + np.concatenate(
            (np.zeros((1, 1)), np.cumsum(steps[:, :-1], axis=1)), axis=1)
        sheets = np.rint((unwrapped - phase) / (2.0 * math.pi)).astype(int)
        t = d // math.gcd(int(winding[0]), d)
        z_n = center[:, None]
        start = np.abs(preimage_branch(fmap, prev[:, :1], np.arange(d)) - z_n).argmin(axis=1)
        branch = (start[:, None, None] + sheets[:, None, :]
                  + winding[:, None, None] * np.arange(t)[:, None]) % d
        lifted = preimage_branch(fmap, prev[:, None, :], branch).reshape(1, -1)
        offsets = lifted - z_n
        on_sheet = np.abs(offsets) < 0.5 * math.sin(math.pi / d) * np.abs(z_n)
        w = lifted[on_sheet]
        z = np.broadcast_to(z_n, lifted.shape)[on_sheet]
        offsets[on_sheet] = np.tile(state["offsets"][None, :], (1, t))[on_sheet] / sum(
            w**j * z ** (d - 1 - j) for j in range(d))
        state["points"].append(complex(center[0]))
        state["boundary"], state["offsets"] = lifted[0], offsets[0]
        state["diams"].append(float(full_matrix_max(offsets[0])))
        state["labels"] += _labels(cloud, winding[0] % d != 0, lifted)
        return True

    refusal = None
    live = list(range(len(states)))
    for _ in range(steps):
        stopped = {}
        for i in live:
            state = states[i]
            if not lift(state, int(rngs[i].integers(d))):
                stopped[i] = SAMPLED_TOO_COARSELY
            elif (state["labels"][-1] is CaseLabel.CRITICAL
                  and state["labels"].count(CaseLabel.CRITICAL) > 1):
                stopped[i] = f"level {len(state['points']) - 1} is its second critical level"
        if stopped:
            refusal = min(stopped), stopped[min(stopped)]
            live = [i for i in live if i < refusal[0]]
    return states, refusal


@pytest.mark.parametrize("fmap", [cheb(), map_i(), em.UnicriticalMap(3, 0.2j)],
                         ids=["c=-2", "c=i", "d=3"])
@pytest.mark.parametrize("radius", [1e-3, 3.0], ids=["small", "large"])
def test_pull_back_orbits_matches_the_reference_level_step(fmap, radius):
    # small Julia disks and disks at the critical value, which are critical at
    # level 1, reach the depth; Julia disks of radius 3 meet the critical
    # value again and the run refuses
    cloud = em.build_postcritical_cloud(em.critical_orbit(fmap, 50)[0])
    bases = em.sample_julia_points(fmap, 6, np.random.default_rng(11))
    disks = [(z, radius) for z in bases] + [(fmap.c + 0.001, 0.003), (fmap.c - 0.001j, 0.003)]
    depth = 20

    def rngs():
        return [np.random.default_rng([11, k]) for k in range(len(disks))]

    ref, ref_refusal = reference_pull_back(fmap, cloud, disks, depth, rngs())
    batch = [BackwardDiskOrbit(fmap, z, eps, cloud=cloud) for z, eps in disks]
    refusal = pull_back_orbits(fmap, batch, depth, rngs())
    assert refusal == ref_refusal
    assert (refusal is None) == (radius < 1)
    for orbit, state in zip(batch, ref):
        assert orbit.points == state["points"]
        assert orbit.diams == state["diams"]
        assert orbit.labels == state["labels"]
        assert orbit.boundary[0].tobytes() == state["boundary"].tobytes()
        assert orbit.offsets[0].tobytes() == state["offsets"].tobytes()
    # the disks at the critical value pass one critical level
    assert all(state["labels"].count(CaseLabel.CRITICAL) == 1 for state in ref[-2:])


def full_matrix_max(s):
    # the m x m distances of a few polygons at a time, at most 16 MiB of them
    m = s.shape[-1]
    polygons = s.reshape(-1, m)
    step = max(1, 2**20 // m**2)
    with np.errstate(over="ignore", invalid="ignore"):
        out = [np.abs(p[:, :, None] - p[:, None, :]).max(axis=(1, 2))
               for p in (polygons[j:j + step] for j in range(0, len(polygons), step))]
    return np.concatenate(out).reshape(s.shape[:-1])


def first_kept_shift(s):
    # set_diameter's skip, restated: a polygon skips shift 0 and every shift k
    # whose k longest edges sum, times 1 + 1e-9, below its largest distance at
    # shift m // 2, unless that distance is not finite or is below 2**-900;
    # one call starts at the least first shift over its polygons
    m = s.shape[-1]
    h = m // 2
    polygons = s.reshape(-1, m)
    with np.errstate(over="ignore", invalid="ignore"):
        lower = np.abs(polygons - np.roll(polygons, -h, axis=1)).max(axis=1)
        edges = -np.sort(-np.abs(polygons - np.roll(polygons, -1, axis=1)), axis=1)
        bound = np.cumsum(edges[:, :h], axis=1) * (1 + 1e-9)
        first = [1 + int((b < low).sum()) if np.isfinite(low) and low >= 2.0**-900 else 0
                 for b, low in zip(bound, lower)]
    return min(first + [h])


def ordered_polygons(m):
    # polygons whose samples run in order along a closed curve, where the
    # edge bound skips the short shifts
    t = 2 * math.pi * np.arange(m) / m
    circle = np.exp(1j * t) + (0.3 - 0.2j)
    ellipse = 10 * np.cos(t) + 1j * np.sin(t)
    needle = 1e-6 * np.exp(1j * t) + np.cos(t) * np.exp(0.7j)
    star = np.exp(1j * t) * np.where(np.arange(m) % 2, 0.2, 1.0)
    # sample 0 lies 100 away from the others and sample 1 is the farthest of
    # them, so the maximum is an edge, at shift 1, which the bound must keep
    long_edge = 100 + 1e-3 * np.exp(1j * t)
    long_edge[0] = 0
    long_edge[1 % m] += 1e-3
    return {"circle": circle, "ellipse": ellipse, "needle": needle, "star": star,
            "long edge": long_edge}


@pytest.fixture(scope="module")
def critical_128_gon():
    orbit = fresh_orbit(map_i(), map_i().c + 0.001, 0.003)
    pull_back(map_i(), orbit, 3, np.random.default_rng(5))
    assert orbit.labels[1] is CaseLabel.CRITICAL and len(orbit.offsets[3]) == 128
    return orbit.offsets[3]


@pytest.mark.parametrize("m", [1, 2, 3, 63, 64, 65, 128, 1000])
def test_polygon_diameter_blocks_match_full_matrix(m, critical_128_gon):
    rng = np.random.default_rng(m)
    samples = rng.normal(size=m) + 1j * rng.normal(size=m)
    # the farthest pair at shift m // 2, and across the wrap-around (the last
    # sample and the first, shift 1)
    at_half, wrapped = samples.copy(), samples.copy()
    at_half[0], at_half[m // 2] = 100, -100j
    wrapped[-1], wrapped[0] = 100, -100j
    # a non-finite sample gives NaN through inf - inf on the diagonal; finite
    # samples a distance past the float range apart give inf
    nonfinite = []
    for value in (np.nan, np.inf, -np.inf, complex(0, -np.inf), complex(np.inf, np.nan)):
        s = samples.copy()
        s[m // 3] = value
        nonfinite.append(s)
    overflowing = samples.copy()
    overflowing[0], overflowing[-1] = 1e308, -1e308 - 1e308j
    cases = [samples, at_half, wrapped, *nonfinite, overflowing]
    # stacks of polygons: (3, 7, m), and more polygons than one block holds
    one_block = DIAMETER_BLOCK_PAIRS // (m * (m // 2 + 1))
    cases += [rng.normal(size=(3, 7, m)) + 1j * rng.normal(size=(3, 7, m)),
              np.resize(np.stack(cases), (one_block + 2, m))]
    ordered = ordered_polygons(m)
    round_cases = [ordered["circle"], ordered["ellipse"],
                   np.stack([ordered["circle"], ordered["needle"]])]
    if m == 128:
        round_cases.append(critical_128_gon)
    scaled = [scale * ordered["circle"] for scale in (1e-310, 1e-200, 1e300)]
    # a walk on the grid of the least subnormal, whose distances round so far
    # that shifts the edge bound would skip hold the maximum
    walk = np.array([0, 1 - 1j, 1 - 1j, 2 - 2j, 3 - 2j, 2 - 1j, 1, 1j, -1 + 2j, 1j]) * 5e-324
    cases += [*ordered.values(), *round_cases, *scaled, walk]
    for s in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diam = set_diameter(s)
        assert diam.shape == s.shape[:-1]
        assert np.array_equal(diam, full_matrix_max(s), equal_nan=True)
    if m > 1:  # the skip runs past the diagonal on round polygons
        assert all(first_kept_shift(s) > 0 for s in round_cases + scaled[1:])
        if m >= 64:
            assert all(first_kept_shift(s) > m // 8 for s in round_cases + scaled[1:])
    # a subnormal polygon keeps every shift
    assert first_kept_shift(scaled[0]) == 0
    assert np.isnan(set_diameter(nonfinite[1]))
    if m > 1:  # one sample has diameter 0
        assert set_diameter(overflowing) == math.inf
        assert set_diameter(at_half) == set_diameter(wrapped) == abs(100 + 100j)


@pytest.mark.parametrize("fmap, samples", [(map_i(), 128), (em.UnicriticalMap(3, 0.2j), 192)],
                         ids=["c=i", "d=3"])
def test_pull_back_diameters_are_full_matrix_maxima(fmap, samples):
    # a small disk at the critical value is critical at level 1 only, and its
    # polygons carry d * 64 samples from then on
    orbit = fresh_orbit(fmap, fmap.c + 0.001, 0.003)
    pull_back(fmap, orbit, 20, np.random.default_rng(5))
    assert orbit.labels.count(CaseLabel.CRITICAL) == 1 == orbit.labels.index(CaseLabel.CRITICAL)
    assert {len(offsets) for offsets in orbit.offsets[1:]} == {samples}
    for n, offsets in enumerate(orbit.offsets):
        assert orbit.diams[n] == full_matrix_max(offsets)


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
        assert orbit.labels.index(CaseLabel.CRITICAL) == 1
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
    cloud = em.build_postcritical_cloud(em.critical_orbit(fmap, 50)[0])
    metric = SingularMetric(cloud, 2, Variant.SIGMA)
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
    cloud = em.build_postcritical_cloud(em.critical_orbit(fmap, 5)[0])
    orbit = BackwardDiskOrbit(fmap, complex(math.cos(1.0), math.sin(1.0)), 0.01,
                              cloud=cloud)
    pull_back(fmap, orbit, 80, np.random.default_rng(2))
    rep = expansion_ratios(orbit, SingularMetric(cloud, 2, Variant.SIGMA))
    assert rep.levels == list(range(1, 81))
    assert rep.ratios == pytest.approx([2.0**n for n in range(1, 81)], rel=1e-12)


def test_expansion_fit_grows_exponentially():
    fmap = cheb()
    cloud = em.build_postcritical_cloud(em.critical_orbit(fmap, 50)[0])
    metric = SingularMetric(cloud, 2, Variant.SIGMA)
    orbit = fresh_orbit(fmap, 0, 0.05)
    pull_back(fmap, orbit, 20, np.random.default_rng(11))
    rep = expansion_ratios(orbit, metric)
    assert rep.lam > 1.0
    assert sum(rep.case_counts.values()) == orbit.depth
    assert len(rep.levels) + len(rep.skipped_levels) == orbit.depth


def test_expansion_skips_levels_on_the_cloud():
    fmap = cheb()
    cloud = em.build_postcritical_cloud(em.critical_orbit(fmap, 50)[0])
    metric = SingularMetric(cloud, 2, Variant.SIGMA)
    orbit = fresh_orbit(fmap, 0, 0.1)
    # synthetic continuation: level 1 lands exactly on the cloud point 2
    orbit.points += [2 + 0j, SQRT2 + 0j]
    orbit.labels += [CaseLabel.UNIVALENT_MEETS_P, CaseLabel.UNIVALENT_NO_P]
    rep = expansion_ratios(orbit, metric)
    assert rep.skipped_levels == [1]
    assert rep.levels == [2]


def test_expansion_all_levels_skipped_rejected():
    fmap = cheb()
    cloud = em.build_postcritical_cloud(em.critical_orbit(fmap, 50)[0])
    metric = SingularMetric(cloud, 2, Variant.SIGMA)
    orbit = fresh_orbit(fmap, 0, 0.1)
    orbit.points.append(2 + 0j)
    orbit.labels.append(CaseLabel.UNIVALENT_MEETS_P)
    with pytest.raises(ValueError):
        expansion_ratios(orbit, metric)


def test_expansion_ratio_past_the_float_range_rejected():
    fmap = cheb()
    cloud = em.build_postcritical_cloud(em.critical_orbit(fmap, 50)[0])
    metric = SingularMetric(cloud, 2, Variant.SIGMA)
    orbit = fresh_orbit(fmap, 0, 0.1)
    # synthetic continuation far out: each level adds log 2 + log 1e100 to
    # log|(f^n)'|, so R_n passes the float range at level 3
    orbit.points += [1e100 + 0j] * 3
    orbit.labels += [CaseLabel.UNIVALENT_NO_P] * 3
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="the expansion ratio at level 3 overflows a float"):
            expansion_ratios(orbit, metric)


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


def test_shrink_fit_refuses_an_underflowed_diameter():
    orbit = fresh_orbit(cheb(), 0.5, 0.05)
    orbit.points += [0.5 + 0j] * 12
    orbit.diams += [1e-300] * 6 + [0.0] * 6
    orbit.labels += [CaseLabel.UNIVALENT_NO_P] * 12
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="the diameter at level 7 underflows to 0"):
            shrink_fit(orbit)
        # below the least normal float a diameter has lost relative precision
        orbit.diams[7:] = [sys.float_info.min / 2] * 6
        with pytest.raises(ValueError, match=r"the diameter at level 7 underflows to 1\.1125"):
            shrink_fit(orbit)
        orbit.diams[7:] = [sys.float_info.min] * 6
        assert shrink_fit(orbit)[1] < 1.0


def test_shrink_fit_needs_depth():
    orbit = fresh_orbit(cheb(), 0.5, 0.05)
    pull_back(cheb(), orbit, 5, 0)
    with pytest.raises(ValueError):
        shrink_fit(orbit)


# ------------------------------------------------------------ case 3 bounds


def test_case3_margins_nonnegative():
    # past the critical level n0 = 1, where w0 = f(0) = c, the derivative
    # obeys |(f^n)'(z_n)| >= eps^(1/d) |z0 - w0|^(1-1/d) / r_n with the
    # diameter of U_n for r_n; the ratio of the two sides is about 4.7 at
    # c = -2 and 4.5 at c = i
    for fmap in (cheb(), map_i()):
        orbit = critical_orbit_at(fmap, steps=6)
        assert orbit.labels.index(CaseLabel.CRITICAL) == 1
        d, n, w0 = fmap.d, orbit.depth, fmap.c
        deriv = math.exp(_log_derivatives(orbit)[n])
        bound = (orbit.epsilon ** (1.0 / d) * abs(orbit.points[0] - w0) ** (1.0 - 1.0 / d)
                 / orbit.diams[n])
        assert deriv / bound >= 1.0
