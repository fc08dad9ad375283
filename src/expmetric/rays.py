"""External rays pulled back through the escape potential, John-constant
estimation along rays, and singular-metric length accounting."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .dynamics import UnicriticalMap, preimage_branch
from .metrics import SingularMetric

LANDING_TOL = 1e-6
# Potential of a ray's first stored point; deeper levels divide it by d.
TOP_POTENTIAL = 1.0
# Pull-back sub-levels per level.
SUBSTEPS = 4
MAX_RAY_DEPTH = 60
# Midpoint-rule subdivisions of each polyline segment in rho_lengths, whose
# midpoints over all rays and radii take their densities in one pass.
RHO_LENGTH_REFINE = 8
# Why a rho-length has no value: no ray point lies in its disk.
NO_POINT_INSIDE = "no ray points inside B(base, 2r)"
# Why a John ratio has no value, for the first ray point with no distance to J.
NO_DISTANCE = ("no distance to J at ray point {!r}: its orbit did not escape "
               "within the iterate budget")


class RayTracingError(RuntimeError):
    """The Boettcher start of a ray overflows: the package's one exception
    type."""


def ray_potentials(d: int, depth: int) -> List[float]:
    """The potential of each stored ray point, TOP_POTENTIAL / d^k at level k
    for k = 0..depth."""
    return [TOP_POTENTIAL / d**k for k in range(depth + 1)]


def arclengths_from_landing(polylines: np.ndarray) -> np.ndarray:
    """Cumulative Euclidean arclength of each row of the ``(rays, points)``
    array ``polylines`` from its deep end, summed from that end."""
    tails = np.cumsum(np.abs(np.diff(polylines, axis=1))[:, ::-1], axis=1)[:, ::-1]
    return np.concatenate([tails, np.zeros((len(polylines), 1))], axis=1)


def _boettcher_top(fmap: UnicriticalMap) -> float:
    # high enough that the Boettcher map is the identity to ~1e-10
    return max(12.0, 25.0 / (fmap.d - 1))


def trace_rays(fmap: UnicriticalMap, thetas: Sequence[float],
               depth: int) -> Tuple[np.ndarray, np.ndarray]:
    """Trace the external rays of the angles ``thetas`` (in turns) from
    potential g0 = TOP_POTENTIAL down to g0/d^depth, one stored point per
    level: the ``(len(thetas), depth + 1)`` array of the points, a row per
    ray and a column per level of ``ray_potentials``, and each ray's landing
    estimate, NaN where it has none.

    Since G(f(z)) = d G(z), the point of potential g on the alpha-ray is a
    preimage of the point of potential d g on the (d alpha)-ray.  Sub-level t
    sits at potential g0 d^(-t/s), s = SUBSTEPS.  The top s sub-levels lie
    where the Boettcher map is the identity, so z = exp(g + 2 pi i alpha)
    there; below, z[t, alpha] is the branch of f^-1(z[t - s, d alpha])
    nearest z[t - 1, alpha].  The angles alpha -> d alpha mod 1 are followed
    exactly, as integer numerators over the least common denominator of the
    thetas, and all of them are pulled back together: the s
    sub-levels of a block draw their candidate roots in one array call and
    pick the nearest one a sub-level at a time.  The landing estimate is
    ``_landing``'s.
    """
    for theta in thetas:
        if not 0.0 <= theta < 1.0:
            raise ValueError(f"angle must lie in [0, 1) turns, got {theta}")
    if not 1 <= depth <= MAX_RAY_DEPTH:
        raise ValueError(f"depth must lie in 1..{MAX_RAY_DEPTH}, got {depth}")
    if not len(thetas):  # a render with no overlay: no block to pull back
        return np.empty((0, depth + 1), dtype=complex), np.empty(0, dtype=complex)
    d, s, g0 = fmap.d, SUBSTEPS, TOP_POTENTIAL
    # sub-levels above g0 that put the top s of them in the Boettcher regime
    above = max(0, math.ceil(s * math.log(_boettcher_top(fmap) / g0, d)))
    top = above + s - 1  # sub-level of g0; sub-level 0 is the highest
    n_sub = top + depth * s + 1
    chain = (n_sub - 1) // s  # pull-backs from the top block to the deepest level

    # every angle reached within `chain` steps of alpha -> d alpha, ordered by
    # the fewest steps from a requested angle: sub-level t needs the first
    # reach[(n_sub - 1 - t) // s] of them.  An angle is its integer numerator
    # over den, the least common denominator of the thetas as fractions.
    fractions = [Fraction(theta) for theta in thetas]
    den = math.lcm(*(f.denominator for f in fractions))
    starts = [f.numerator * (den // f.denominator) for f in fractions]
    order = {}
    reach = []
    fresh = starts
    for _ in range(chain + 1):
        fresh = [a for a in dict.fromkeys(fresh) if a not in order]
        for a in fresh:
            order[a] = len(order)
        reach.append(len(order))
        fresh = [d * a % den for a in fresh]
    angles = list(order)
    image = np.array([order[d * a % den] for a in angles[:reach[-2]]], dtype=int)

    potential = g0 * float(d) ** ((top - np.arange(s)) / s)
    # int / int rounds correctly, as float(Fraction) does
    turns = np.array([a / den for a in angles])
    z = np.full((n_sub, len(angles)), np.nan, dtype=complex)
    with np.errstate(over="ignore"):  # an overflow is refused just below
        z[:s] = np.exp(potential[:, None] + 2j * math.pi * turns)
    if not np.isfinite(z[:s]).all():
        raise RayTracingError(f"the Boettcher-regime start overflows at degree {d}")
    branches = np.arange(d)[:, None]
    # block k holds the sub-levels t >= s with (n_sub - 1 - t) // s = k: they
    # share n = reach[k] and take their candidates from block k + 1, so one
    # call draws a block's candidates; only the nearest-branch pick runs a
    # sub-level at a time
    for k in range(chain - 1, -1, -1):
        lo, hi, n = max(s, n_sub - (k + 1) * s), n_sub - k * s, reach[k]
        cands = preimage_branch(fmap, z[lo - s:hi - s, image[:n]][:, None], branches)
        for t, level in enumerate(cands, lo):
            pick = np.argmin(np.abs(level - z[t - 1, :n]), axis=0)
            z[t, :n] = level[pick, np.arange(n)]

    points = z[top::s, [order[a] for a in starts]].T
    return points, np.array([_landing(row) for row in points.tolist()], dtype=complex)


def trace_ray(fmap: UnicriticalMap, theta: float, depth: int) -> Tuple[np.ndarray, complex]:
    """The points and landing estimate of the external ray of angle
    ``theta``; see ``trace_rays``."""
    points, landings = trace_rays(fmap, [theta], depth)
    return points[0], landings[0]


def _aitken(z0: complex, z1: complex, z2: complex) -> Optional[complex]:
    d1 = z1 - z0
    d2 = z2 - z1
    if abs(d1) == 0.0 or abs(d2) == 0.0:
        return z2
    if abs(d2) >= 0.9 * abs(d1):
        return None
    return z2 - d2 * d2 / (d2 - d1)


def _landing(polyline: List[complex]) -> complex:
    """The last point when the last two differ by less than LANDING_TOL, else
    the Aitken limit of a geometrically contracting tail, accepted only when
    two sliding-window extrapolants agree within LANDING_TOL; NaN when
    neither rule holds."""
    if abs(polyline[-1] - polyline[-2]) < LANDING_TOL:
        return polyline[-1]
    if len(polyline) < 4:
        return math.nan
    latest = _aitken(polyline[-3], polyline[-2], polyline[-1])
    previous = _aitken(polyline[-4], polyline[-3], polyline[-2])
    if latest is None or previous is None or abs(latest - previous) >= LANDING_TOL:
        return math.nan
    return latest


def john_constant_along_ray(arcs: np.ndarray,
                            dists: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per row, the least of dist(z, J) / arclength(landing -> z) over the ray
    points at positive arclength, and its column: the John condition
    specialized to geodesics terminating on the boundary.  ``arcs`` holds the
    ``arclengths_from_landing`` of each point and ``dists`` its distance to J.
    Of equal ratios the first is the worst; a row with a NaN ratio reads NaN
    at its first NaN, and one with no point at positive arclength inf at
    column 0."""
    ratios = np.divide(dists, arcs, out=np.full(arcs.shape, math.inf), where=arcs > 0.0)
    worst = ratios.argmin(axis=1)
    return ratios[np.arange(len(worst)), worst], worst


def rho_lengths(points: np.ndarray, landings: np.ndarray, metric: SingularMetric,
                radii: Sequence[float]) -> np.ndarray:
    """Midpoint-rule rho-length of the part of each ray inside B(base, 2r),
    where base is its landing estimate: entry [j, i] for the ray of row
    ``points[j]`` and base ``landings[j]`` and for ``radii[i]``, NaN where no
    point of the ray lies in the disk, as in every disk round a NaN base.

    Each polyline segment is subdivided ``RHO_LENGTH_REFINE`` times; the
    density is integrable (alpha < 1) so the sum converges under refinement
    even when the landing point lies on the singular set.  The midpoints of
    every ray and radius take their densities in one pass, and each
    (ray, radius) entry is its own pairwise sum over its slice.
    """
    disk = 2.0 * np.asarray(radii, dtype=float)
    inside = np.abs(points - landings[:, None])[:, None] <= disk[:, None]
    lengths = np.where(inside.any(axis=2), 0.0, math.nan)
    # the segments with an end in the disk, in (ray, radius, segment) order
    j, i, seg = np.nonzero(inside[..., :-1] | inside[..., 1:])
    a, b = points[j, seg], points[j, seg + 1]
    # clip the segments that straddle the disk boundary; a kept segment has
    # at most one end outside
    a_out = ~inside[j, i, seg]
    cut = np.flatnonzero(a_out | ~inside[j, i, seg + 1])
    flip = a_out[cut]
    edge = _clip_to_circle(np.where(flip, a[cut], b[cut]), np.where(flip, b[cut], a[cut]),
                           landings[j[cut]], disk[i[cut]])
    a[cut[flip]] = edge[flip]
    b[cut[~flip]] = edge[~flip]
    ts = (np.arange(RHO_LENGTH_REFINE) + 0.5) / RHO_LENGTH_REFINE
    mids = a[:, None] + (b - a)[:, None] * ts
    dens = metric.density_array(mids.ravel()).reshape(mids.shape)
    sums = np.where(np.isfinite(dens), dens, 0.0).sum(axis=1)
    terms = sums * (np.abs(b - a) / RHO_LENGTH_REFINE)
    starts = np.flatnonzero(np.diff(j * len(disk) + i, prepend=-1)).tolist()
    for start, end in zip(starts, [*starts[1:], len(terms)]):
        lengths[j[start], i[start]] = terms[start:end].sum()
    return lengths


def rho_length_of_ray(ray: Tuple[np.ndarray, complex], metric: SingularMetric,
                      from_radius: float) -> float:
    """The rho-length of ``rho_lengths`` for one ray, given as the points and
    landing of ``trace_ray``, and one radius; refused when no point of the ray
    lies in the disk."""
    points, landing = ray
    length = rho_lengths(np.array([points]), np.array([landing]), metric, [from_radius])[0, 0]
    if math.isnan(length):
        raise ValueError(NO_POINT_INSIDE)
    return float(length)


def _clip_to_circle(outside: np.ndarray, inside: np.ndarray, center: np.ndarray,
                    radius: np.ndarray) -> np.ndarray:
    """Where each segment from ``inside`` to ``outside`` meets the circle
    |z - center| = radius, by 60 bisection steps on its parameter.  The
    moduli come from ``np.hypot``, which rounds as Python's complex ``abs``
    does; NumPy's complex ``abs`` differs in the last bit."""
    step = outside - inside
    lo, hi = np.zeros(len(step)), np.ones(len(step))
    for _ in range(60):
        mid = (lo + hi) / 2.0
        w = inside + step * mid - center
        held = np.hypot(w.real, w.imag) <= radius
        lo = np.where(held, mid, lo)
        hi = np.where(held, hi, mid)
    return inside + step * lo
