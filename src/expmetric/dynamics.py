"""Iteration, derivatives, escape analysis, and postcritical clouds for z^d + c."""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from scipy.spatial import cKDTree

from .errors import EscapeError, InsideJuliaError

# Iterates beyond this modulus are treated as escaped for potential/distance
# purposes; large enough that the Boettcher correction is below 1e-10.
POTENTIAL_ESCAPE_RADIUS = 1e10


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


def critical_orbit(fmap: UnicriticalMap, n: int, r_esc: Optional[float] = None):
    """Forward orbit [f(0), ..., f^N(0)] of the critical point.

    Stops early when the modulus exceeds the escape radius; the escape index
    (1-based, position in the returned list) is returned alongside.
    """
    if n < 1:
        raise ValueError("need at least one iterate")
    if r_esc is None:
        r_esc = fmap.escape_radius()
    orbit = []
    z = 0.0 + 0.0j
    escape_index = None
    for k in range(1, n + 1):
        z = fmap.evaluate(z)
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


def classify_parameter(
    fmap: UnicriticalMap,
    n: int = 100_000,
    r_esc: Optional[float] = None,
    delta_rec: float = 1e-3,
) -> OrbitClassification:
    """Heuristic verdict on the critical orbit: escape, or bounded with/without
    observed recurrence.  The non-recurrence gap is the min of |f^n(0)| over the
    computed orbit; verdicts are configuration-dependent, never certificates.
    """
    if n < 1 or delta_rec <= 0:
        raise ValueError("need n >= 1 and delta_rec > 0")
    orbit, escape_index = critical_orbit(fmap, n, r_esc)
    if escape_index is not None:
        gap = min(abs(z) for z in orbit)
        return OrbitClassification(OrbitKind.ESCAPING, gap, len(orbit), escape_index)
    gap = min(abs(z) for z in orbit)
    if gap > 2 * delta_rec:
        kind = OrbitKind.BOUNDED_NONRECURRENT
    elif gap > delta_rec:
        kind = OrbitKind.UNDETERMINED
    else:
        kind = OrbitKind.BOUNDED_RECURRENT
    return OrbitClassification(kind, gap, len(orbit))


@dataclass
class PostcriticalCloud:
    """Finite approximation of P(f): the first N critical-orbit points,
    deduplicated at ``tol_dedup``, with a KD-tree for nearest-point queries."""

    points: np.ndarray  # shape (m, 2), real/imag columns
    n_iterates: int
    tol_dedup: float
    _tree: cKDTree = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError("cloud must be non-empty")
        if self._tree is None:
            self._tree = cKDTree(self.points)

    def __len__(self):
        return len(self.points)

    @property
    def points_complex(self) -> np.ndarray:
        return self.points[:, 0] + 1j * self.points[:, 1]

    def diameter(self) -> float:
        pts = self.points_complex
        if len(pts) == 1:
            return 0.0
        return max(abs(a - b) for a in pts for b in pts)

    def dist(self, z: complex) -> float:
        d, _ = self._tree.query([z.real, z.imag])
        return float(d)

    def dist_many(self, zs: np.ndarray) -> np.ndarray:
        xy = np.column_stack([zs.real, zs.imag])
        d, _ = self._tree.query(xy)
        return d


def build_postcritical_cloud(
    fmap: UnicriticalMap, n: int = 2000, tol_dedup: float = 1e-9
) -> PostcriticalCloud:
    if tol_dedup <= 0:
        raise ValueError("tol_dedup must be positive")
    orbit, escape_index = critical_orbit(fmap, n)
    if escape_index is not None:
        raise EscapeError(
            "critical orbit escapes; the postcritical set is unbounded"
        )
    kept = []
    for z in orbit:
        if all(abs(z - w) > tol_dedup for w in kept):
            kept.append(z)
    points = np.array([[z.real, z.imag] for z in kept])
    return PostcriticalCloud(points, n, tol_dedup)


def dist_to_cloud(cloud: PostcriticalCloud, z: complex) -> float:
    return cloud.dist(z)


def green_potential(
    fmap: UnicriticalMap,
    z: complex,
    n_max: int = 400,
    r_esc: float = POTENTIAL_ESCAPE_RADIUS,
) -> float:
    """Escape-rate potential G(z) = log|f^n(z)| / d^n at the first escape past
    r_esc; 0 when the orbit stays bounded within the budget."""
    w = complex(z)
    for k in range(n_max + 1):
        mag = abs(w)
        if mag > r_esc:
            return math.log(mag) / fmap.d ** k
        if not math.isfinite(mag):
            # overflow: iterate before it was already past any finite radius
            return math.inf
        w = fmap.evaluate(w)
    return 0.0


def julia_distance_estimate(
    fmap: UnicriticalMap,
    z: complex,
    n_max: int = 400,
    r_esc: float = POTENTIAL_ESCAPE_RADIUS,
) -> float:
    """Potential-theoretic estimate of dist(z, J) = sinh(G)/|grad G|.

    Accurate only up to a bounded multiplicative factor (factor-of-4 class near
    the Julia set); never use where exactness matters.
    """
    w = complex(z)
    dw = 1.0 + 0.0j
    for k in range(n_max + 1):
        mag = abs(w)
        if mag > r_esc:
            g = math.log(mag) / fmap.d ** k
            # |grad G| in log space to dodge overflow of |dw|
            log_grad = math.log(abs(dw)) - math.log(mag) - k * math.log(fmap.d)
            return math.sinh(g) * math.exp(-log_grad)
        dw = fmap.deriv(w) * dw
        w = fmap.evaluate(w)
    raise InsideJuliaError(f"{z} did not escape within {n_max} iterates")


def sample_julia_points(
    fmap: UnicriticalMap,
    count: int,
    rng: np.random.Generator,
    depth: int = 24,
    transient: int = 12,
) -> list:
    """Points near J(f) via random backward iteration from the repelling fixed
    point of largest modulus.  Backward orbits equidistribute on the Julia set."""
    roots = np.roots([1.0] + [0.0] * (fmap.d - 2) + [-1.0, fmap.c])
    beta = complex(roots[np.argmax(np.abs(roots))])
    out = []
    for _ in range(count):
        z = beta
        for _ in range(transient + depth):
            z = preimages(fmap, z)[int(rng.integers(fmap.d))]
        out.append(z)
    return out
