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
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

# orbit_derivative_magnitude and preimages are re-exported for callers that
# look them up here
from .dynamics import (  # noqa: F401
    PostcriticalCloud,
    UnicriticalMap,
    orbit_derivative_magnitude,
    preimage_branch,
    preimages,
)
from .errors import SamplingResolutionError
from .metrics import SingularMetric

CLOUD_EXCLUSION = 1e-9
MIN_FIT_LEVELS = 10
# A phase step of arg(z - c) this close to pi between neighbouring boundary
# samples puts c within 0.08 chord lengths of the chord between them, which
# leaves the side on which the boundary passes c undecided; the chords of a
# 64-gon stand 0.012 chord lengths off its circle.
MAX_PHASE_STEP = 0.9 * math.pi


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
    n_boundary: int = 64
    points: List[complex] = field(default_factory=list)
    branch_choices: List[int] = field(default_factory=list)
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
            angles = 2.0 * math.pi * np.arange(self.n_boundary) / self.n_boundary
            offsets = self.epsilon * np.exp(1j * angles)
            self.boundary = [self.z0 + offsets]
            self.offsets = [offsets]
            self.diams = [_polygon_diameter(offsets)]
            self.labels = [None]  # level 0 is the reference disk, not a pullback

    @property
    def depth(self) -> int:
        return len(self.points) - 1

    def critical_level(self) -> Optional[int]:
        for n, lab in enumerate(self.labels):
            if lab is CaseLabel.CRITICAL:
                return n
        return None


def _polygon_diameter(samples: np.ndarray) -> float:
    d = np.abs(samples[:, None] - samples[None, :])
    return float(d.max())


def _phase_steps(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    """arg v at each sample of a closed polygon, the step from each sample to
    the next (the closing step last) reduced to [-pi, pi), and the winding
    number of the polygon around 0, the steps' sum in turns."""
    phase = np.angle(v)
    steps = (np.diff(phase, append=phase[:1]) + math.pi) % (2.0 * math.pi) - math.pi
    return phase, steps, int(round(steps.sum() / (2.0 * math.pi)))


def winding_number(polygon: np.ndarray, point: complex) -> int:
    """Winding number of a closed sample polygon around ``point``."""
    return _phase_steps(polygon - point)[2]


BranchRule = Union[str, Callable[[List[complex], int], int]]


def _choose_branch(
    rule: BranchRule, cands: List[complex], level: int, rng: Optional[np.random.Generator]
) -> int:
    if callable(rule):
        return rule(cands, level)
    if rule == "random-seeded":
        if rng is None:
            raise ValueError("random-seeded branch rule requires an rng")
        return int(rng.integers(len(cands)))
    if rule.startswith("fixed-index"):
        parts = rule.split(":")
        return int(parts[1]) if len(parts) > 1 else 0
    if rule == "toward-critical":
        return min(range(len(cands)), key=lambda i: abs(cands[i]))
    raise ValueError(f"unknown branch rule {rule!r}")


def _lift_boundary(
    fmap: UnicriticalMap, prev: np.ndarray, prev_offsets: np.ndarray, center: complex
) -> Tuple[np.ndarray, np.ndarray]:
    """Continuous lift of the boundary polygon through f^-1, as absolute
    samples and as offsets from the new center.

    The phase of prev - c is unwrapped along the polygon; its integer jumps
    give each sample's sheet, and the winding number W around c sets the
    number of turns, d / gcd(W, d): one for a univalent level, d for a
    critical one.  Each sample is lifted by ``preimage_branch``,
    starting from the preimage of prev[0] nearest the new center."""
    d = fmap.d
    u = prev - fmap.c
    phase, steps, winding = _phase_steps(u)
    if not u.all() or np.abs(steps).max() > MAX_PHASE_STEP:
        raise SamplingResolutionError(
            "boundary sampled too coarsely around the critical value; "
            "raise the sample count"
        )
    unwrapped = phase[0] + np.concatenate(([0.0], np.cumsum(steps[:-1])))
    sheets = np.rint((unwrapped - phase) / (2.0 * math.pi)).astype(int)
    turns = d // math.gcd(winding, d)
    cands = preimages(fmap, complex(prev[0]))
    start = min(range(d), key=lambda k: abs(cands[k] - center))
    branch = (start + sheets + winding * np.arange(turns)[:, None]) % d
    lifted = preimage_branch(fmap, prev, branch).ravel()
    # on the center's sheet w - z_n = (w^d - z_n^d) / sum_j w^j z_n^(d-1-j),
    # and w^d - z_n^d is the previous offset: exact in relative terms
    offsets = lifted - center
    on_sheet = np.abs(offsets) < 0.5 * math.sin(math.pi / d) * abs(center)
    w = lifted[on_sheet]
    offsets[on_sheet] = np.tile(prev_offsets, turns)[on_sheet] / sum(
        w**j * center ** (d - 1 - j) for j in range(d))
    return lifted, offsets


def classify_level(
    orbit: BackwardDiskOrbit, n: int, cloud: Optional[PostcriticalCloud] = None
) -> CaseLabel:
    """Pullback case at level n: Critical when the level n-1 polygon winds
    around the critical value (mod d), Univalent-MeetsP when the level n
    polygon winds around a cloud point, else Univalent-NoP."""
    if n < 1 or n > orbit.depth:
        raise ValueError(f"level {n} not populated")
    fmap = orbit.fmap
    if winding_number(orbit.boundary[n - 1], fmap.c) % fmap.d:
        return CaseLabel.CRITICAL
    poly = orbit.boundary[n]
    cloud = cloud or orbit.cloud
    if cloud is not None:
        pts = cloud.points_complex
        in_box = ((poly.real.min() <= pts.real) & (pts.real <= poly.real.max())
                  & (poly.imag.min() <= pts.imag) & (pts.imag <= poly.imag.max()))
        if any(winding_number(poly, p) for p in pts[in_box]):
            return CaseLabel.UNIVALENT_MEETS_P
    return CaseLabel.UNIVALENT_NO_P


def pull_back(
    fmap: UnicriticalMap,
    orbit: BackwardDiskOrbit,
    steps: int,
    branch_rule: BranchRule = "random-seeded",
    rng: Optional[np.random.Generator] = None,
) -> BackwardDiskOrbit:
    """Extend the orbit by ``steps`` inverse images: center by the branch rule,
    boundary by the continuous lift, plus diameters and case labels."""
    for _ in range(steps):
        cands = preimages(fmap, orbit.points[-1])
        k = _choose_branch(branch_rule, cands, orbit.depth + 1, rng)
        lifted, offsets = _lift_boundary(fmap, orbit.boundary[-1], orbit.offsets[-1], cands[k])
        orbit.points.append(cands[k])
        orbit.branch_choices.append(k)
        orbit.boundary.append(lifted)
        orbit.offsets.append(offsets)
        orbit.diams.append(_polygon_diameter(offsets))
        orbit.labels.append(classify_level(orbit, orbit.depth))
    return orbit


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
    log_slope: float
    lam: float
    constant: float
    case_counts: dict

    def predicted(self, n: int) -> float:
        return self.constant * self.lam**n


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
        log_slope=float(slope),
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
