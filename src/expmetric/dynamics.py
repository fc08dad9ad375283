"""Iteration, derivatives, escape analysis, and postcritical clouds for z^d + c."""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import EscapeError, InsideJuliaError

# Iterates beyond this modulus are treated as escaped for potential/distance
# purposes; large enough that the Boettcher correction is below 1e-10.
POTENTIAL_ESCAPE_RADIUS = 1e10
# Iterates the potential and the Julia distance estimate take to escape.
POTENTIAL_MAX_ITER = 400
# A critical orbit whose least modulus is at most this is recurrent, at most
# twice this undetermined.
RECURRENCE_DELTA = 1e-3
# Critical-orbit points closer than this to a kept one are not kept again.
CLOUD_DEDUP_TOL = 1e-9
# Backward steps from the repelling fixed point to each sampled Julia point.
JULIA_SAMPLE_STEPS = 36
# Polygons whose pair distances set_diameter holds at once: four 64-gons take
# 256 KiB of complex differences, all 50 of an expansion level 3.1 MiB.
DIAMETER_POLYGONS = 4

# Clouds up to this size are searched point by point, larger ones by a KD-tree.
# Per query, with SciPy already loaded, the tree wins between 32 and 64 points;
# a fresh density-rho render, which must also import SciPy for the tree, breaks
# even between 64 and 128.  On the 2000-point cloud of c = 1/4 the tree renders
# three times as fast as the direct search.
DIRECT_SEARCH_MAX = 32


@dataclass(frozen=True)
class UnicriticalMap:
    """The polynomial f(z) = z^d + c with its unique finite critical point at 0."""

    d: int
    c: complex

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"degree must be >= 2, got {self.d}")

    def evaluate(self, z: complex) -> complex:
        return z ** self.d + self.c

    def deriv(self, z: complex) -> complex:
        return self.d * z ** (self.d - 1)

    def escape_radius(self) -> float:
        # |z| > max(2, |c|) + 1 guarantees monotone escape for z^d + c
        return max(2.0, abs(self.c)) + 1.0


class OrbitKind(enum.Enum):
    ESCAPING = "escaping"
    BOUNDED_NONRECURRENT = "bounded-nonrecurrent"
    BOUNDED_RECURRENT = "bounded-recurrent"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class OrbitClassification:
    kind: OrbitKind
    recurrence_gap: float
    iterates_used: int
    escape_index: Optional[int] = None

    def __post_init__(self):
        if (self.kind is OrbitKind.ESCAPING) != (self.escape_index is not None):
            raise ValueError("escape_index must be present iff kind is ESCAPING")


def critical_orbit(fmap: UnicriticalMap, n: int):
    """Forward orbit [f(0), ..., f^N(0)] of the critical point.

    Stops early when the modulus exceeds the escape radius; the escape index
    (1-based, position in the returned list) is returned alongside.  An
    iterate that overflows has escaped and is recorded as infinite.
    """
    if n < 1:
        raise ValueError("need at least one iterate")
    r_esc = fmap.escape_radius()
    orbit = []
    z = 0.0 + 0.0j
    escape_index = None
    for k in range(1, n + 1):
        try:
            z = fmap.evaluate(z)
        except OverflowError:
            z = complex(math.inf, 0.0)
        orbit.append(z)
        if abs(z) > r_esc:
            escape_index = k
            break
    return orbit, escape_index


def preimages(fmap: UnicriticalMap, z: complex) -> List[complex]:
    """The d solutions of w^d = z - c: principal root times the d-th roots of
    unity.  All collapse to 0 at the critical value z = c."""
    w = z - fmap.c
    if w == 0:
        return [0.0 + 0.0j] * fmap.d
    r = abs(w) ** (1.0 / fmap.d)
    phi = cmath.phase(w) / fmap.d
    return [
        r * cmath.exp(1j * (phi + 2.0 * math.pi * k / fmap.d))
        for k in range(fmap.d)
    ]


def preimage_branch(fmap: UnicriticalMap, z: np.ndarray, branch) -> np.ndarray:
    """Array form of ``preimages``: root number ``branch`` (0 is the principal
    root) of w^d = z - c, elementwise, with z and branch broadcast together."""
    u = np.asarray(z) - fmap.c
    arg = np.angle(u) / fmap.d + 2.0 * math.pi * branch / fmap.d
    return np.abs(u) ** (1.0 / fmap.d) * np.exp(1j * arg)


def orbit_derivative_magnitude(fmap: UnicriticalMap, z: complex, n: int) -> float:
    """|(f^n)'(z)|, accumulated in log magnitude so deep orbits do not overflow."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1.0
    log_sum = 0.0
    w = complex(z)
    for _ in range(n):
        if w == 0:
            return 0.0
        log_sum += math.log(fmap.d) + (fmap.d - 1) * math.log(abs(w))
        w = fmap.evaluate(w)
    return math.exp(log_sum)


def classify_parameter(fmap: UnicriticalMap, n: int = 100_000) -> OrbitClassification:
    """Heuristic verdict on the critical orbit: escape, or bounded with/without
    observed recurrence.  The non-recurrence gap is the min of |f^n(0)| over the
    computed orbit; verdicts are configuration-dependent, never certificates.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    orbit, escape_index = critical_orbit(fmap, n)
    gap = min(abs(z) for z in orbit)
    if escape_index is not None:
        return OrbitClassification(OrbitKind.ESCAPING, gap, len(orbit), escape_index)
    if gap > 2 * RECURRENCE_DELTA:
        kind = OrbitKind.BOUNDED_NONRECURRENT
    elif gap > RECURRENCE_DELTA:
        kind = OrbitKind.UNDETERMINED
    else:
        kind = OrbitKind.BOUNDED_RECURRENT
    return OrbitClassification(kind, gap, len(orbit))


@dataclass
class PostcriticalCloud:
    """Finite approximation of P(f): the first N critical-orbit points,
    deduplicated at ``CLOUD_DEDUP_TOL``, for nearest-point queries.

    Up to ``DIRECT_SEARCH_MAX`` points the distance is the square root of the
    least ``dx*dx + dy*dy`` over the points, bit for bit what ``cKDTree.query``
    returns; larger clouds build that tree on their first query, the only use
    of SciPy here."""

    points: np.ndarray  # shape (m, 2), real/imag columns

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError("cloud must be non-empty")

    @functools.cached_property
    def _tree(self):
        if len(self.points) <= DIRECT_SEARCH_MAX:
            return None
        from scipy.spatial import cKDTree
        return cKDTree(self.points)

    def __len__(self):
        return len(self.points)

    @property
    def points_complex(self) -> np.ndarray:
        return self.points[:, 0] + 1j * self.points[:, 1]

    def diameter(self) -> float:
        return float(set_diameter(self.points_complex))

    def dist(self, z: complex) -> float:
        return float(self.dist_many(np.array([complex(z)]))[0])

    def dist_many(self, zs: np.ndarray) -> np.ndarray:
        if self._tree is not None:
            d, _ = self._tree.query(np.column_stack([zs.real, zs.imag]))
            return d
        # not abs(z - p): hypot rounds differently from the tree's sum of squares
        x, y = zs.real, zs.imag
        best = None
        for px, py in self.points:
            # dx*dx + dy*dy in place: two temporaries a point, not five
            sq, dy = x - px, y - py
            sq *= sq
            dy *= dy
            sq += dy
            best = sq if best is None else np.minimum(best, sq, out=best)
        return np.sqrt(best, out=best)


def set_diameter(samples: np.ndarray) -> np.ndarray:
    """Largest distance between two samples along the last axis, one for each
    polygon of a (..., m) array, each pair visited once, in blocks of at most
    4096 pairs for each of at most ``DIAMETER_POLYGONS`` polygons.  A full
    m x m temporary costs 16 m^2 bytes a polygon; at 128 samples (256 KiB) it
    took up to three times as long as the blocks in a process without SciPy
    loaded, likely allocator behaviour (glibc serves blocks that large by mmap
    until its threshold adapts)."""
    m = samples.shape[-1]
    r = max(1, 4096 // m)
    polygons = samples.reshape(-1, m)
    out = np.empty(len(polygons))
    for j in range(0, len(polygons), DIAMETER_POLYGONS):
        rows = polygons[j:j + DIAMETER_POLYGONS]
        out[j:j + DIAMETER_POLYGONS] = np.maximum.reduce(
            [np.abs(rows[:, i:i + r, None] - rows[:, None, i:]).max(axis=(1, 2))
             for i in range(0, m, r)])
    return out.reshape(samples.shape[:-1])


def build_postcritical_cloud(fmap: UnicriticalMap, n: int = 2000) -> PostcriticalCloud:
    """The critical orbit's points, each kept unless it lies within
    ``CLOUD_DEDUP_TOL`` of a point kept before it.  An exact repeat lies at
    distance 0 from its first occurrence, or from the point that one was
    dropped for, so repeats are skipped before any distance is taken."""
    orbit, escape_index = critical_orbit(fmap, n)
    if escape_index is not None:
        raise EscapeError(
            "critical orbit escapes; the postcritical set is unbounded"
        )
    kept = np.empty(len(orbit), dtype=complex)
    m = 0
    for z in dict.fromkeys(orbit):
        if m == 0 or np.abs(kept[:m] - z).min() > CLOUD_DEDUP_TOL:
            kept[m] = z
            m += 1
    return PostcriticalCloud(np.column_stack([kept[:m].real, kept[:m].imag]))


def green_potential(fmap: UnicriticalMap, z: complex) -> float:
    """Escape-rate potential G(z) = log|f^n(z)| / d^n at the first escape past
    ``POTENTIAL_ESCAPE_RADIUS``; 0 when the orbit stays bounded within the
    budget."""
    w = complex(z)
    for k in range(POTENTIAL_MAX_ITER + 1):
        mag = abs(w)
        if mag > POTENTIAL_ESCAPE_RADIUS:
            return math.log(mag) / fmap.d ** k
        if not math.isfinite(mag):
            # overflow: iterate before it was already past any finite radius
            return math.inf
        w = fmap.evaluate(w)
    return 0.0


def julia_distance_estimate(fmap: UnicriticalMap, z: complex) -> float:
    """Potential-theoretic estimate of dist(z, J) = sinh(G)/|grad G|.

    Accurate only up to a bounded multiplicative factor (factor-of-4 class near
    the Julia set); never use where exactness matters.
    """
    w = complex(z)
    dw = 1.0 + 0.0j
    for k in range(POTENTIAL_MAX_ITER + 1):
        mag = abs(w)
        if mag > POTENTIAL_ESCAPE_RADIUS:
            g = math.log(mag) / fmap.d ** k
            # |grad G| in log space to dodge overflow of |dw|
            log_grad = math.log(abs(dw)) - math.log(mag) - k * math.log(fmap.d)
            return math.sinh(g) * math.exp(-log_grad)
        dw = fmap.deriv(w) * dw
        w = fmap.evaluate(w)
    raise InsideJuliaError(f"{z} did not escape within {POTENTIAL_MAX_ITER} iterates")


def sample_julia_points(fmap: UnicriticalMap, count: int, rng: np.random.Generator) -> list:
    """Points near J(f) via random backward iteration from the repelling fixed
    point of largest modulus.  Backward orbits equidistribute on the Julia set."""
    roots = np.roots([1.0] + [0.0] * (fmap.d - 2) + [-1.0, fmap.c])
    beta = complex(roots[np.argmax(np.abs(roots))])
    out = []
    for _ in range(count):
        z = beta
        for _ in range(JULIA_SAMPLE_STEPS):
            z = preimages(fmap, z)[int(rng.integers(fmap.d))]
        out.append(z)
    return out
