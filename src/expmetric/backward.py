"""Branch-resolved backward orbits of small disks and expansion verification.

A backward orbit pulls a disk B(z0, eps) through inverse branches of f,
tracking the center orbit, boundary polygons, diameter estimates, and a
per-level case classification (univalent away from the postcritical cloud,
univalent meeting it, or passing through the critical point).  Expansion
ratios weighted by the singular density are fitted for exponential growth.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

# orbit_derivative_magnitude is re-exported for callers that look it up here
from .dynamics import (  # noqa: F401
    PostcriticalCloud,
    UnicriticalMap,
    _polar_preimage,
    orbit_derivative_magnitude,
    preimage_branch,
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
    points: List[complex] = field(init=False)
    # the current polygon after pull_back_orbits, every level's after
    # pull_back (read only by bench/tracing.py and tests)
    boundary: List[np.ndarray] = field(init=False)
    # boundary samples minus the level's center, kept apart because the
    # absolute samples lose all relative precision once the diameter nears
    # an ulp of the center
    offsets: List[np.ndarray] = field(init=False)
    diams: List[float] = field(init=False)
    labels: List[Optional[CaseLabel]] = field(init=False)

    def __post_init__(self):
        self.points = [complex(self.z0)]
        offsets, diam = _level_zero_disk(self.epsilon)
        self.boundary = [self.z0 + offsets]
        self.offsets = [offsets]
        self.diams = [diam]
        self.labels = [None]  # level 0 is the reference disk, not a pullback

    @property
    def depth(self) -> int:
        return len(self.points) - 1


@functools.lru_cache(maxsize=8)
def _level_zero_disk(epsilon: float) -> Tuple[np.ndarray, float]:
    """The offsets of the level-0 polygon of radius ``epsilon``, read-only
    because every orbit of that radius shares them, and their diameter."""
    angles = 2.0 * math.pi * np.arange(BOUNDARY_SAMPLES) / BOUNDARY_SAMPLES
    offsets = epsilon * np.exp(1j * angles)
    offsets.flags.writeable = False
    return offsets, float(set_diameter(offsets))


def _phase_steps(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """arg v at each sample of closed polygons along the last axis, the step
    from each sample to the next (the closing step last) reduced to [-pi, pi),
    and the winding number of each polygon around 0, its steps' sum in turns."""
    phase = np.angle(v)
    steps = (np.diff(phase, append=phase[..., :1]) + math.pi) % (2.0 * math.pi) - math.pi
    return phase, steps, np.rint(steps.sum(axis=-1) / (2.0 * math.pi)).astype(int)


def _labels(cloud: Optional[PostcriticalCloud], critical: bool,
            polys: np.ndarray) -> List[CaseLabel]:
    """Pullback case of each row of ``polys``, one orbit's level n polygon a
    row, all lifted with one turn count: Critical when ``critical`` says the
    lift ran more than one turn, else Univalent-MeetsP when the level n
    polygon winds around a cloud point, else Univalent-NoP."""
    if critical:
        return [CaseLabel.CRITICAL] * len(polys)
    meets = np.zeros(len(polys), dtype=bool)
    if cloud is not None:
        pts = cloud.points
        re, im = polys.real, polys.imag
        in_box = ((re.min(axis=1)[:, None] <= pts.real) & (pts.real <= re.max(axis=1)[:, None])
                  & (im.min(axis=1)[:, None] <= pts.imag) & (pts.imag <= im.max(axis=1)[:, None]))
        for p in np.flatnonzero(in_box.any(axis=0)):
            rows = np.flatnonzero(in_box[:, p] & ~meets)
            meets[rows] = _phase_steps(polys[rows] - pts[p])[2] != 0
    return [CaseLabel.UNIVALENT_MEETS_P if meet else CaseLabel.UNIVALENT_NO_P
            for meet in meets]


def _extend(fmap: UnicriticalMap, orbits: List[BackwardDiskOrbit], roots: List[int]) -> List[int]:
    """Pull orbits whose current polygons share one sample count and one cloud
    back one level together: each centre by its root number of
    ``preimage_branch``, each boundary by the continuous lift.  Appends each
    orbit's centre, polygon, offsets, diameter and case label, and returns the
    positions of the orbits left as they were because their boundary is
    sampled too coarsely around the critical value.

    The phase of prev - c is unwrapped along each polygon; its integer jumps
    give each sample's sheet, and the winding number W around c sets the
    number of turns, d / gcd(W, d): one for a univalent level, more for a
    critical one, which is what labels the level Critical.  Each sample is
    lifted by the formula of ``preimage_branch`` from the phase already taken
    and |prev - c|^(1/d), starting from the preimage of the polygon's first
    sample nearest the new center."""
    d = fmap.d
    centers = preimage_branch(fmap, np.array([orbit.points[-1] for orbit in orbits]),
                              np.array(roots))
    prev = np.stack([orbit.boundary[-1] for orbit in orbits])
    prev_offsets = np.stack([orbit.offsets[-1] for orbit in orbits])
    u = prev - fmap.c
    phase, steps, winding = _phase_steps(u)
    modulus = np.abs(u) ** (1.0 / d)  # |w| for every preimage w of each sample
    coarse = ~u.all(axis=1) | (np.abs(steps).max(axis=1) > MAX_PHASE_STEP)
    # cumulative sums run along each row, in the order of a single polygon's
    unwrapped = phase[:, :1] + np.concatenate(
        (np.zeros((len(u), 1)), np.cumsum(steps[:, :-1], axis=1)), axis=1)
    sheets = np.rint((unwrapped - phase) / (2.0 * math.pi)).astype(int)
    turns = d // np.gcd(winding, d)
    for t in set(turns[~coarse].tolist()):
        rows = np.flatnonzero((turns == t) & ~coarse)
        z_n = centers[rows, None]
        start = np.abs(_polar_preimage(d, modulus[rows, :1], phase[rows, :1], np.arange(d))
                       - z_n).argmin(axis=1)
        branch = (start[:, None, None] + sheets[rows, None, :]
                  + winding[rows, None, None] * np.arange(t)[:, None]) % d
        lifted = _polar_preimage(d, modulus[rows, None, :], phase[rows, None, :],
                                 branch).reshape(len(rows), -1)
        # on the center's sheet w - z_n = (w^d - z_n^d) / sum_j w^j z_n^(d-1-j),
        # and w^d - z_n^d is the previous offset: exact in relative terms
        offsets = lifted - z_n
        on_sheet = np.abs(offsets) < 0.5 * math.sin(math.pi / d) * np.abs(z_n)
        w = lifted[on_sheet]
        z = np.broadcast_to(z_n, lifted.shape)[on_sheet]
        offsets[on_sheet] = np.tile(prev_offsets[rows], (1, t))[on_sheet] / (sum(
            (w**j * z ** (d - 1 - j) for j in range(1, d - 1)), z ** (d - 1)) + w ** (d - 1))
        diams = set_diameter(offsets)
        labels = _labels(orbits[0].cloud, t > 1, lifted)
        for r, i in enumerate(rows):
            orbit = orbits[i]
            orbit.points.append(complex(centers[i]))
            orbit.boundary.append(lifted[r])
            orbit.offsets.append(offsets[r])
            orbit.diams.append(float(diams[r]))
            orbit.labels.append(labels[r])
    return np.flatnonzero(coarse).tolist()


def classify_level(orbit: BackwardDiskOrbit, n: int) -> CaseLabel:
    """Pullback case at level n, as the lift recorded it."""
    if not 1 <= n <= orbit.depth:
        raise ValueError(f"level {n} not populated")
    return orbit.labels[n]


def pull_back(
    fmap: UnicriticalMap,
    orbit: BackwardDiskOrbit,
    steps: int,
    branch: Union[int, np.random.Generator],
) -> BackwardDiskOrbit:
    """Extend the orbit by ``steps`` inverse images: the center by root number
    ``branch`` of ``preimage_branch``, or by one drawn from ``branch`` at each
    level when it is a generator; the boundary by the continuous lift; plus
    diameters and case labels.  Every level's polygon is kept, which only
    bench/tracing.py and tests read."""
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
    orbit i draws the roots of all ``steps`` levels from ``rngs[i]`` in one
    call, the same sequence as one draw a level, and orbits whose
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
    draws = [rng.integers(fmap.d, size=steps) for rng in rngs[:len(orbits)]]
    for level in range(steps):
        groups = {}
        for i in live:
            key = (len(orbits[i].boundary[-1]), id(orbits[i].cloud))
            groups.setdefault(key, []).append(i)
        stopped = {}
        for group in groups.values():
            roots = [int(draws[i][level]) for i in group]
            for pos in _extend(fmap, [orbits[i] for i in group], roots):
                stopped[group[pos]] = SAMPLED_TOO_COARSELY
        for i in live:
            orbit = orbits[i]
            if (i not in stopped and orbit.labels[-1] is CaseLabel.CRITICAL
                    and orbit.labels.count(CaseLabel.CRITICAL) > 1):
                stopped[i] = f"level {orbit.depth} is its second critical level"
            del orbit.boundary[:-1], orbit.offsets[:-1]
        if stopped:  # every live orbit is numbered below an earlier refusal
            refusal = min(stopped), stopped[min(stopped)]
            live = [i for i in live if i < refusal[0]]
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
    dist = metric.cloud.dist_many(np.asarray(orbit.points, dtype=complex))
    on_cloud = dist[1:] < CLOUD_EXCLUSION
    levels = np.flatnonzero(~on_cloud) + 1
    if levels.size == 0:
        raise ValueError("all levels skipped; orbit unusable for ratio fitting")
    dens = metric.density_of_distance(dist[np.concatenate(([0], levels))])
    logs = _log_derivatives(orbit)[levels] + np.log(dens[0]) - np.log(dens[1:])
    if len(levels) >= 2:
        slope, intercept = np.polyfit(levels.astype(float), logs, 1)
    else:
        slope, intercept = 0.0, logs[0]
    with np.errstate(over="ignore"):
        ratios = np.exp(logs)
    overflow = np.flatnonzero(np.isinf(ratios))
    if overflow.size:
        raise ValueError(f"the expansion ratio at level {levels[overflow[0]]} overflows a float")
    counts = {lab: 0 for lab in CaseLabel}
    for lab in orbit.labels[1:]:
        counts[lab] += 1
    return ExpansionReport(
        ratios=ratios.tolist(),
        levels=levels.tolist(),
        skipped_levels=(np.flatnonzero(on_cloud) + 1).tolist(),
        lam=float(math.exp(slope)),
        constant=float(math.exp(intercept)),
        case_counts={lab.value: v for lab, v in counts.items()},
    )


def shrink_fit(orbit: BackwardDiskOrbit) -> Tuple[float, float]:
    """Fit diam U_n ~ C0 theta^n by least squares on log diameters.

    Returns (C0, theta); theta >= 1 is reported as-is, falsifying contraction."""
    if orbit.depth < MIN_FIT_LEVELS:
        raise ValueError(f"need at least {MIN_FIT_LEVELS} pullback levels")
    # a subnormal diameter has lost relative precision, as a zero has lost all
    tiny = np.flatnonzero(np.asarray(orbit.diams) < sys.float_info.min)
    if tiny.size:
        raise ValueError(f"the diameter at level {tiny[0]} underflows to {orbit.diams[tiny[0]]!r}")
    ns = np.arange(orbit.depth + 1, dtype=float)
    logs = np.log(orbit.diams)
    slope, intercept = np.polyfit(ns, logs, 1)
    return float(math.exp(intercept)), float(math.exp(slope))
