"""Branch-resolved backward orbits of small disks and expansion verification.

A backward orbit pulls a disk B(z0, eps) through inverse branches of f,
tracking the center orbit, boundary polygons, diameter estimates, and a
per-level case classification (univalent away from the postcritical cloud,
univalent meeting it, or passing through the critical point).  Expansion
ratios weighted by the singular density are fitted for exponential growth.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

# orbit_derivative_magnitude and preimages are re-exported for callers that
# look them up here
from .dynamics import (  # noqa: F401
    PostcriticalCloud,
    UnicriticalMap,
    orbit_derivative_magnitude,
    preimage_branch,
    preimages,
    set_diameter,
)
from .errors import SamplingResolutionError
from .metrics import SingularMetric

CLOUD_EXCLUSION = 1e-9
MIN_FIT_LEVELS = 10
# Samples on the boundary circle of the level-0 disk.
BOUNDARY_SAMPLES = 64
# A phase step of arg(z - c) this close to pi between neighbouring boundary
# samples puts c within 0.08 chord lengths of the chord between them, which
# leaves the side on which the boundary passes c undecided; the chords of a
# 64-gon stand 0.012 chord lengths off its circle.
MAX_PHASE_STEP = 0.9 * math.pi
SAMPLED_TOO_COARSELY = "boundary sampled too coarsely around the critical value"


class CaseLabel(enum.Enum):
    UNIVALENT_NO_P = "univalent-no-p"
    UNIVALENT_MEETS_P = "univalent-meets-p"
    CRITICAL = "critical"


@dataclass
class BackwardDiskOrbit:
    fmap: UnicriticalMap
    z0: complex
    epsilon: float
    cloud: Optional[PostcriticalCloud] = None
    points: List[complex] = field(default_factory=list)
    # the polygons of the last len(boundary) levels: all of them after
    # pull_back, the current one after pull_back_orbits
    boundary: List[np.ndarray] = field(default_factory=list)
    # boundary samples minus the level's center, kept apart because the
    # absolute samples lose all relative precision once the diameter nears
    # an ulp of the center
    offsets: List[np.ndarray] = field(default_factory=list)
    diams: List[float] = field(default_factory=list)
    labels: List[Optional[CaseLabel]] = field(default_factory=list)

    def __post_init__(self):
        if not self.points:
            self.points = [complex(self.z0)]
            angles = 2.0 * math.pi * np.arange(BOUNDARY_SAMPLES) / BOUNDARY_SAMPLES
            offsets = self.epsilon * np.exp(1j * angles)
            self.boundary = [self.z0 + offsets]
            self.offsets = [offsets]
            self.diams = [float(set_diameter(offsets))]
            self.labels = [None]  # level 0 is the reference disk, not a pullback

    @property
    def depth(self) -> int:
        return len(self.points) - 1

    def critical_level(self) -> Optional[int]:
        for n, lab in enumerate(self.labels):
            if lab is CaseLabel.CRITICAL:
                return n
        return None


def _phase_steps(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """arg v at each sample of closed polygons along the last axis, the step
    from each sample to the next (the closing step last) reduced to [-pi, pi),
    and the winding number of each polygon around 0, its steps' sum in turns."""
    phase = np.angle(v)
    steps = (np.diff(phase, append=phase[..., :1]) + math.pi) % (2.0 * math.pi) - math.pi
    return phase, steps, np.rint(steps.sum(axis=-1) / (2.0 * math.pi)).astype(int)


def winding_number(polygon: np.ndarray, point: complex) -> int:
    """Winding number of a closed sample polygon around ``point``."""
    return int(_phase_steps(polygon - point)[2])


def _labels(fmap: UnicriticalMap, cloud: Optional[PostcriticalCloud],
            prev_windings: np.ndarray, polys: np.ndarray) -> List[CaseLabel]:
    """Pullback case of each row of ``polys``, one orbit's level n polygon a
    row: Critical when its level n-1 polygon winds around the critical value
    (mod d), as ``prev_windings`` says, Univalent-MeetsP when the level n
    polygon winds around a cloud point, else Univalent-NoP."""
    critical = prev_windings % fmap.d != 0
    meets = np.zeros(len(polys), dtype=bool)
    if cloud is not None:
        pts = cloud.points_complex
        re, im = polys.real, polys.imag
        in_box = (~critical[:, None]
                  & (re.min(axis=1)[:, None] <= pts.real) & (pts.real <= re.max(axis=1)[:, None])
                  & (im.min(axis=1)[:, None] <= pts.imag) & (pts.imag <= im.max(axis=1)[:, None]))
        for p in np.flatnonzero(in_box.any(axis=0)):
            rows = np.flatnonzero(in_box[:, p] & ~meets)
            meets[rows] = _phase_steps(polys[rows] - pts[p])[2] != 0
    return [CaseLabel.CRITICAL if crit else CaseLabel.UNIVALENT_MEETS_P if meet
            else CaseLabel.UNIVALENT_NO_P for crit, meet in zip(critical, meets)]


def _extend(fmap: UnicriticalMap, orbits: List[BackwardDiskOrbit], roots: List[int]) -> List[int]:
    """Pull orbits whose current polygons share one sample count and one cloud
    back one level together: each centre by its root number of ``preimages``,
    each boundary by the continuous lift.  Appends each orbit's centre,
    polygon, offsets, diameter and case label, and returns the positions of
    the orbits left as they were because their boundary is sampled too
    coarsely around the critical value.

    The phase of prev - c is unwrapped along each polygon; its integer jumps
    give each sample's sheet, and the winding number W around c sets the
    number of turns, d / gcd(W, d): one for a univalent level, d for a
    critical one.  Each sample is lifted by ``preimage_branch``, starting from
    the preimage of the polygon's first sample nearest the new center."""
    d = fmap.d
    centers = [preimages(fmap, orbit.points[-1])[k] for orbit, k in zip(orbits, roots)]
    prev = np.stack([orbit.boundary[-1] for orbit in orbits])
    prev_offsets = np.stack([orbit.offsets[-1] for orbit in orbits])
    u = prev - fmap.c
    phase, steps, winding = _phase_steps(u)
    coarse = ~u.all(axis=1) | (np.abs(steps).max(axis=1) > MAX_PHASE_STEP)
    # cumulative sums run along each row, in the order of a single polygon's
    unwrapped = phase[:, :1] + np.concatenate(
        (np.zeros((len(u), 1)), np.cumsum(steps[:, :-1], axis=1)), axis=1)
    sheets = np.rint((unwrapped - phase) / (2.0 * math.pi)).astype(int)
    turns = d // np.gcd(winding, d)
    for t in set(turns[~coarse].tolist()):
        rows = np.flatnonzero((turns == t) & ~coarse)
        start = []
        for i in rows:
            cands = preimages(fmap, complex(prev[i, 0]))
            start.append(min(range(d), key=lambda k: abs(cands[k] - centers[i])))
        branch = (np.array(start)[:, None, None] + sheets[rows, None, :]
                  + winding[rows, None, None] * np.arange(t)[:, None]) % d
        lifted = preimage_branch(fmap, prev[rows, None, :], branch).reshape(len(rows), -1)
        # on the center's sheet w - z_n = (w^d - z_n^d) / sum_j w^j z_n^(d-1-j),
        # and w^d - z_n^d is the previous offset: exact in relative terms; the
        # powers of z_n stay Python complex powers, which NumPy's need not match
        offsets = lifted - np.array([centers[i] for i in rows])[:, None]
        radius = np.array([0.5 * math.sin(math.pi / d) * abs(centers[i]) for i in rows])
        on_sheet = np.abs(offsets) < radius[:, None]
        row_of = np.nonzero(on_sheet)[0]
        w = lifted[on_sheet]
        offsets[on_sheet] = np.tile(prev_offsets[rows], (1, t))[on_sheet] / sum(
            w**j * np.array([centers[i] ** (d - 1 - j) for i in rows])[row_of]
            for j in range(d))
        diams = set_diameter(offsets)
        labels = _labels(fmap, orbits[0].cloud, winding[rows], lifted)
        for r, i in enumerate(rows):
            orbit = orbits[i]
            orbit.points.append(centers[i])
            orbit.boundary.append(lifted[r])
            orbit.offsets.append(offsets[r])
            orbit.diams.append(float(diams[r]))
            orbit.labels.append(labels[r])
    return np.flatnonzero(coarse).tolist()


def classify_level(orbit: BackwardDiskOrbit, n: int) -> CaseLabel:
    """Pullback case at level n: Critical when the level n-1 polygon winds
    around the critical value (mod d), Univalent-MeetsP when the level n
    polygon winds around a cloud point, else Univalent-NoP.  The orbit must
    keep the polygons of both levels."""
    first = orbit.depth + 1 - len(orbit.boundary)  # the first level with a kept polygon
    if not first < n <= orbit.depth:
        raise ValueError(f"level {n} not populated")
    winding = _phase_steps(orbit.boundary[n - 1 - first] - orbit.fmap.c)[2]
    return _labels(orbit.fmap, orbit.cloud, winding[None],
                   orbit.boundary[n - first][None])[0]


def pull_back(
    fmap: UnicriticalMap,
    orbit: BackwardDiskOrbit,
    steps: int,
    branch: Union[int, np.random.Generator],
) -> BackwardDiskOrbit:
    """Extend the orbit by ``steps`` inverse images: the center by root number
    ``branch`` of ``preimages``, or by one drawn from ``branch`` at each level
    when it is a generator; the boundary by the continuous lift; plus
    diameters and case labels.  Every level's polygon is kept."""
    random = isinstance(branch, np.random.Generator)
    if not random and not 0 <= branch < fmap.d:
        raise ValueError(f"branch must lie in 0..{fmap.d - 1}, got {branch!r}")
    for _ in range(steps):
        if _extend(fmap, [orbit], [int(branch.integers(fmap.d)) if random else branch]):
            raise SamplingResolutionError(SAMPLED_TOO_COARSELY)
    return orbit


def pull_back_orbits(
    fmap: UnicriticalMap,
    orbits: List[BackwardDiskOrbit],
    steps: int,
    rngs: List[np.random.Generator],
) -> Optional[Tuple[int, str]]:
    """Extend every orbit by ``steps`` levels, all of them one level at a time:
    orbit i draws its root at each level from ``rngs[i]``, and orbits whose
    current polygons share a sample count and a cloud are lifted together.
    Each orbit keeps only its current polygon in ``boundary`` and
    ``offsets``; centres, diameters and labels keep every level.

    An orbit whose boundary is too coarse to lift, or which reaches a second
    critical level, is past the single critical pass the expansion proof
    allows, and each further critical lift would multiply its samples by d:
    it stops at once, and so does every orbit after the lowest-numbered one
    stopped.  Returns that orbit's index and the reason, or None when every
    orbit reached the depth."""
    refusal = None
    live = list(range(len(orbits)))
    for _ in range(steps):
        groups = {}
        for i in live:
            key = (len(orbits[i].boundary[-1]), id(orbits[i].cloud))
            groups.setdefault(key, []).append(i)
        stopped = {}
        for group in groups.values():
            roots = [int(rngs[i].integers(fmap.d)) for i in group]
            for pos in _extend(fmap, [orbits[i] for i in group], roots):
                stopped[group[pos]] = SAMPLED_TOO_COARSELY
        for i in live:
            orbit = orbits[i]
            if (i not in stopped and orbit.labels[-1] is CaseLabel.CRITICAL
                    and orbit.labels.count(CaseLabel.CRITICAL) > 1):
                stopped[i] = f"level {orbit.depth} is its second critical level"
            del orbit.boundary[:-1], orbit.offsets[:-1]
        if stopped and (refusal is None or min(stopped) < refusal[0]):
            refusal = min(stopped), stopped[min(stopped)]
        live = [i for i in live if i not in stopped and (refusal is None or i < refusal[0])]
    return refusal


def _log_derivatives(orbit: BackwardDiskOrbit) -> np.ndarray:
    """log|(f^n)'(z_n)| for n = 0..depth, by the chain rule along the stored
    centers: (f^n)'(z_n) = f'(z_n) f'(z_(n-1)) ... f'(z_1)."""
    d = orbit.fmap.d
    with np.errstate(divide="ignore"):
        logs = math.log(d) + (d - 1) * np.log(np.abs(np.asarray(orbit.points[1:], dtype=complex)))
    return np.concatenate(([0.0], np.cumsum(logs)))


@dataclass(frozen=True)
class ExpansionReport:
    ratios: List[float]
    levels: List[int]
    skipped_levels: List[int]
    lam: float
    constant: float
    case_counts: dict


def expansion_ratios(
    orbit: BackwardDiskOrbit, metric: SingularMetric
) -> ExpansionReport:
    """Ratios R_n = |(f^n)'(z_n)| density(z0) / density(z_n) along the orbit,
    with a least-squares fit log R_n = log C + n log lambda.

    Levels whose center sits within 1e-9 of the cloud are skipped (the density
    would be infinite there; the expansion bound only concerns z not in P(f)).
    """
    pts = np.asarray(orbit.points, dtype=complex)
    on_cloud = metric.cloud.dist_many(pts[1:]) < CLOUD_EXCLUSION
    levels = np.flatnonzero(~on_cloud) + 1
    if levels.size == 0:
        raise ValueError("all levels skipped; orbit unusable for ratio fitting")
    dens = metric.density_array(pts[np.concatenate(([0], levels))])
    logs = _log_derivatives(orbit)[levels] + np.log(dens[0]) - np.log(dens[1:])
    if len(levels) >= 2:
        slope, intercept = np.polyfit(levels.astype(float), logs, 1)
    else:
        slope, intercept = 0.0, logs[0]
    counts = {lab: 0 for lab in CaseLabel}
    for lab in orbit.labels[1:]:
        counts[lab] += 1
    return ExpansionReport(
        ratios=np.exp(logs).tolist(),
        levels=levels.tolist(),
        skipped_levels=(np.flatnonzero(on_cloud) + 1).tolist(),
        lam=float(math.exp(slope)),
        constant=float(math.exp(intercept)),
        case_counts={lab.value: v for lab, v in counts.items()},
    )


@dataclass(frozen=True)
class RadiusProxy:
    value: float
    from_diameter: bool


def conformal_radius_proxy(orbit: BackwardDiskOrbit, n: int) -> RadiusProxy:
    """Conformal radius of the level-n pullback with respect to its center.

    At univalent levels this is the exact derivative transport eps/|(f^n)'(z_n)|;
    past a critical level the sampled diameter is the (flagged) fallback."""
    if n == 0:
        return RadiusProxy(orbit.epsilon, False)
    if n > orbit.depth:
        raise ValueError(f"level {n} not populated")
    if orbit.labels[n] is CaseLabel.CRITICAL:
        raise ValueError(
            "conformal-radius transport is not defined at the critical level"
        )
    n_crit = orbit.critical_level()
    if n_crit is not None and n > n_crit:
        return RadiusProxy(orbit.diams[n], True)
    return RadiusProxy(orbit.epsilon / math.exp(_log_derivatives(orbit)[n]), False)


def shrink_fit(orbit: BackwardDiskOrbit) -> Tuple[float, float]:
    """Fit diam U_n ~ C0 theta^n by least squares on log diameters.

    Returns (C0, theta); theta >= 1 is reported as-is, falsifying contraction."""
    if orbit.depth < MIN_FIT_LEVELS:
        raise ValueError(f"need at least {MIN_FIT_LEVELS} pullback levels")
    ns = np.arange(orbit.depth + 1, dtype=float)
    logs = np.log(orbit.diams)
    slope, intercept = np.polyfit(ns, logs, 1)
    return float(math.exp(intercept)), float(math.exp(slope))


@dataclass(frozen=True)
class Case3Report:
    critical_level: int
    w0: complex
    deriv_lower_margin: float
    sigma_upper_margin: float
    sigma_lower_margin: float


def case3_bound_check(
    orbit: BackwardDiskOrbit, metric: SingularMetric
) -> Case3Report:
    """Check the critical-branch inequalities with the diameter proxy for the
    final conformal radius, recording signed margins (>= 0 means satisfied).

    w0 is the forward image of the critical point at the critical level."""
    n0 = orbit.critical_level()
    if n0 is None:
        raise ValueError("orbit has no critical level")
    fmap = orbit.fmap
    d = fmap.d
    w0 = 0.0 + 0.0j
    for _ in range(n0):
        w0 = fmap.evaluate(w0)
    n = orbit.depth
    z0 = orbit.points[0]
    z_n = orbit.points[n]
    r_n = orbit.diams[n]  # diameter-based proxy, upper-bound flavor
    deriv = math.exp(_log_derivatives(orbit)[n])
    lower = orbit.epsilon ** (1.0 / d) * abs(z0 - w0) ** (1.0 - 1.0 / d) / r_n
    sigma_n = metric.density(z_n)
    sigma_0 = metric.density(z0)
    return Case3Report(
        critical_level=n0,
        w0=w0,
        deriv_lower_margin=deriv - lower,
        sigma_upper_margin=(4.0 / r_n) ** (1.0 - 1.0 / d) - sigma_n,
        sigma_lower_margin=sigma_0 - abs(z0 - w0) ** (-(1.0 - 1.0 / d)),
    )
