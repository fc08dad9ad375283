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
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

# orbit_derivative_magnitude is re-exported for callers that look it up here
from .dynamics import (PostcriticalCloud, UnicriticalMap, _polar_preimage,  # noqa: F401
                       orbit_derivative_magnitude, preimage_branch, set_diameter)
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
    boundary: List[np.ndarray] = field(init=False)
    # boundary samples minus the level's center, kept apart because the
    # absolute samples lose all relative precision once the diameter nears
    # an ulp of the center
    offsets: List[np.ndarray] = field(init=False)
    diams: List[float] = field(init=False)
    labels: List[Optional[CaseLabel]] = field(init=False)

    def __post_init__(self):
        offsets, diam = _level_zero_disk(self.epsilon)
        # level 0 is the reference disk, not a pullback, so it has no label
        self.points, self.boundary, self.offsets, self.diams, self.labels = (
            [complex(self.z0)], [self.z0 + offsets], [offsets], [diam], [None])

    @property
    def depth(self) -> int:
        return len(self.points) - 1


def _level_zero_disk(epsilon: float) -> Tuple[np.ndarray, float]:
    """The offsets of the level-0 polygon of radius ``epsilon`` and their
    diameter."""
    angles = 2.0 * math.pi * np.arange(BOUNDARY_SAMPLES) / BOUNDARY_SAMPLES
    offsets = epsilon * np.exp(1j * angles)
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
        pts, re, im = cloud.points, polys.real, polys.imag
        in_box = ((re.min(axis=1)[:, None] <= pts.real) & (pts.real <= re.max(axis=1)[:, None])
                  & (im.min(axis=1)[:, None] <= pts.imag) & (pts.imag <= im.max(axis=1)[:, None]))
        for p in np.flatnonzero(in_box.any(axis=0)):
            rows = np.flatnonzero(in_box[:, p] & ~meets)
            meets[rows] = _phase_steps(polys[rows] - pts[p])[2] != 0
    return [CaseLabel.UNIVALENT_MEETS_P if meet else CaseLabel.UNIVALENT_NO_P
            for meet in meets]


def _lift_level(fmap: UnicriticalMap, cloud: Optional[PostcriticalCloud], centers: np.ndarray,
                roots: np.ndarray, prev: np.ndarray, prev_offsets: np.ndarray):
    """Pull polygons of one sample count and one cloud, an orbit a row, back
    one level: centres by ``preimage_branch``, polygons by the continuous
    lift.  Returns the new centres, a mask of the rows too coarse to lift,
    and each turn count's rows, polygons, offsets, diameters and labels.

    The phase of prev - c is unwrapped along each polygon; its integer jumps
    give each sample's sheet, and the winding number W around c sets the
    number of turns, d / gcd(W, d): one for a univalent level, more for a
    critical one, which is what labels the level Critical.  Each sample is
    lifted by the formula of ``preimage_branch`` from the phase already taken
    and |prev - c|^(1/d), starting from the preimage of the polygon's first
    sample nearest the new center."""
    d = fmap.d
    centers = preimage_branch(fmap, centers, roots)
    u = prev - fmap.c
    phase, steps, winding = _phase_steps(u)
    modulus = np.abs(u) ** (1.0 / d)  # |w| for every preimage w of each sample
    coarse = ~u.all(axis=1) | (np.abs(steps).max(axis=1) > MAX_PHASE_STEP)
    # cumulative sums run along each row, in the order of a single polygon's
    unwrapped = phase[:, :1] + np.concatenate(
        (np.zeros((len(u), 1)), np.cumsum(steps[:, :-1], axis=1)), axis=1)
    sheets = np.rint((unwrapped - phase) / (2.0 * math.pi)).astype(int)
    turns = d // np.gcd(winding, d)
    lifts = []
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
        lifts.append((rows, lifted, offsets, set_diameter(offsets), _labels(cloud, t > 1, lifted)))
    return centers, coarse, lifts


def classify_level(orbit: BackwardDiskOrbit, n: int) -> CaseLabel:
    """Pullback case at level n, as the lift recorded it."""
    if not 1 <= n <= orbit.depth:
        raise ValueError(f"level {n} not populated")
    return orbit.labels[n]


def pull_back(fmap: UnicriticalMap, orbit: BackwardDiskOrbit, steps: int,
              branch: Union[int, np.random.Generator]) -> BackwardDiskOrbit:
    """Extend the orbit by ``steps`` inverse images: the center by root number
    ``branch`` of ``preimage_branch``, or by one drawn from ``branch`` at each
    level when it is a generator; the boundary by the continuous lift; plus
    diameters and case labels.  Every level's polygon is kept, which only
    bench/tracing.py and tests read."""
    random = isinstance(branch, np.random.Generator)
    if not random and not 0 <= branch < fmap.d:
        raise ValueError(f"branch must lie in 0..{fmap.d - 1}, got {branch!r}")
    for _ in range(steps):
        root = int(branch.integers(fmap.d)) if random else branch
        centers, coarse, lifts = _lift_level(
            fmap, orbit.cloud, np.array(orbit.points[-1:]), np.array([root]),
            np.array(orbit.boundary[-1:]), np.array(orbit.offsets[-1:]))
        if coarse[0]:
            raise RuntimeError(SAMPLED_TOO_COARSELY)
        [(_, lifted, offsets, diams, labels)] = lifts
        orbit.points.append(complex(centers[0]))
        orbit.boundary.append(lifted[0])
        orbit.offsets.append(offsets[0])
        orbit.diams.append(float(diams[0]))
        orbit.labels += labels
    return orbit


def pull_back_orbits(fmap: UnicriticalMap, cloud: Optional[PostcriticalCloud],
                     bases: Sequence[complex], epsilon: float, steps: int,
                     rngs: List[np.random.Generator]):
    """Pull the disks B(z0, ``epsilon``), a z0 of ``bases`` each, back
    ``steps`` levels, all of them one level at a time: orbit i draws the roots
    of all ``steps`` levels from ``rngs[i]`` in one call, the same sequence as
    one draw a level.  Live orbits are carried as stacked arrays, lifted by one
    ``_lift_level`` call a level for each sample count.

    An orbit whose boundary is too coarse to lift, or which reaches a second
    critical level, is past the single critical pass the expansion proof
    allows, and each further critical lift would multiply its samples by d:
    it stops at once, and so does every orbit after the lowest-numbered one
    stopped.  Returns the (orbits, steps + 1) arrays of centres, diameters
    and labels, level 0 the disk itself with no label, NaN or None past the
    level where an orbit stopped; and the refusal, that orbit's index and the
    reason, or None when every orbit reached the depth."""
    if len(rngs) < len(bases):
        raise ValueError(f"{len(bases)} orbits need a generator each, got {len(rngs)}")
    offsets, diam = _level_zero_disk(epsilon)
    points = np.full((len(bases), steps + 1), math.nan, dtype=complex)
    diams = np.full(points.shape, math.nan)
    labels = np.full(points.shape, None, dtype=object)
    points[:, 0], diams[:, 0] = bases, diam
    draws = np.array([rng.integers(fmap.d, size=steps) for _, rng in zip(bases, rngs)])
    # (orbit numbers, polygons, offsets) of live rows
    pieces = [(np.arange(len(bases)), points[:, :1] + offsets, np.tile(offsets, (len(bases), 1)))]
    refusal = None
    for level in range(1, steps + 1):
        groups = {}  # a critical lift brings rows to the sample count of earlier ones
        for piece in pieces:
            if len(piece[0]):
                groups.setdefault(piece[1].shape[1], []).append(piece)
        pieces, stopped = [], {}
        for group in groups.values():
            idx, polys, offs = (np.concatenate(a) for a in zip(*group))
            centers, coarse, lifts = _lift_level(fmap, cloud, points[idx, level - 1],
                                                 draws[idx, level - 1], polys, offs)
            stopped.update((i, SAMPLED_TOO_COARSELY) for i in idx[coarse].tolist())
            for rows, lifted, lifted_offs, ds, labs in lifts:
                i = idx[rows]
                points[i, level], diams[i, level], labels[i, level] = centers[rows], ds, labs
                # only a critical lift multiplies the samples of a 64-gon
                if labs[0] is CaseLabel.CRITICAL and polys.shape[1] > BOUNDARY_SAMPLES:
                    stopped.update((k, f"level {level} is its second critical level")
                                   for k in i.tolist())
                pieces.append((i, lifted, lifted_offs))
        if stopped:  # every live orbit is numbered below an earlier refusal
            refusal = min(stopped), stopped[min(stopped)]
            pieces = [tuple(a[p[0] < refusal[0]] for a in p) for p in pieces]
    return points, diams, labels, refusal


class OrbitRefused(ValueError):
    """A fit that cannot report row ``orbit`` of its stacked orbits, the first such row."""
    def __init__(self, orbit: int, why: str):
        super().__init__(f"orbit {orbit}: {why}")
        self.orbit = orbit


def expansion_ratios(points: np.ndarray, metric: SingularMetric):
    """Ratios R_n = |(f^n)'(z_n)| density(z0) / density(z_n) along each row
    of the (orbits, depth + 1) centres, with a least-squares fit
    log R_n = log C + n log lambda a row.  Returns the ratios, NaN at level 0
    and at each level skipped, and the lambdas and Cs.

    Levels whose center sits within 1e-9 of the cloud are skipped (the density
    would be infinite there; the expansion bound only concerns z not in P(f)).
    """
    dist = metric.cloud.dist_many(points)
    log_density = np.log(metric.density_of_distance(dist))
    # log|(f^n)'(z_n)| by the chain rule: (f^n)'(z_n) = f'(z_n) ... f'(z_1)
    with np.errstate(divide="ignore"):
        logs = math.log(metric.d) + (metric.d - 1) * np.log(np.abs(points))
    logs[:, 0] = math.nan
    np.cumsum(logs[:, 1:], axis=1, out=logs[:, 1:])
    # skipped before the densities are taken in, so that an infinite density
    # at a level on the cloud never meets an infinite one at level 0
    logs[:, 1:][dist[:, 1:] < CLOUD_EXCLUSION] = math.nan
    logs = logs + log_density[:, :1] - log_density
    with np.errstate(over="ignore"):
        ratios = np.exp(logs)
    unusable, overflow = np.isnan(logs[:, 1:]).all(axis=1), np.isinf(ratios)
    bad = unusable | overflow.any(axis=1)
    if bad.any():
        k = int(bad.argmax())
        raise OrbitRefused(k, "all levels skipped; orbit unusable for ratio fitting" if unusable[k]
                           else f"the expansion ratio at level {overflow[k].argmax()} "
                                "overflows a float")
    # one fit a row, through the levels not skipped
    levels = [np.flatnonzero(~np.isnan(row)) for row in logs]
    fits = [np.polyfit(n.astype(float), row[n], 1) if len(n) >= 2 else (0.0, row[n[0]])
            for row, n in zip(logs, levels)]
    return ratios, [math.exp(slope) for slope, _ in fits], [math.exp(c) for _, c in fits]


def shrink_fit(diams: np.ndarray) -> Tuple[List[float], List[float]]:
    """Fit diam U_n ~ C0 theta^n by least squares on the log diameters of
    each row of the (orbits, depth + 1) diameters.

    Returns the C0s and thetas; theta >= 1 is reported as-is, falsifying
    contraction."""
    if diams.shape[1] - 1 < MIN_FIT_LEVELS:
        raise ValueError(f"need at least {MIN_FIT_LEVELS} pullback levels")
    # a subnormal diameter has lost relative precision, as a zero has lost all
    tiny = diams < sys.float_info.min
    if tiny.any():
        k = int(tiny.any(axis=1).argmax())
        n = int(tiny[k].argmax())
        raise OrbitRefused(k, f"the diameter at level {n} underflows to {float(diams[k, n])!r}")
    fits = [np.polyfit(np.arange(diams.shape[1], dtype=float), row, 1) for row in np.log(diams)]
    return [math.exp(c0) for _, c0 in fits], [math.exp(theta) for theta, _ in fits]
