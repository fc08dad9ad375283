"""Iteration, derivatives, escape analysis, and postcritical clouds for z^d + c."""

from __future__ import annotations

import cmath
import enum
import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Iterates beyond this modulus are treated as escaped by the Julia distance
# estimate; large enough that the Boettcher correction is below 1e-10.
POTENTIAL_ESCAPE_RADIUS = 1e10
# Iterates the Julia distance estimate takes to escape.
POTENTIAL_MAX_ITER = 400
# Most critical-orbit iterates a command takes: the cloud's deduplication is
# quadratic in its size, 9.2 s at c = 1/4, whose 100000 iterates keep 48972
# points, on two shared x86-64 cores.
MAX_ORBIT_N = 100_000
# A critical orbit whose least modulus is at most this is recurrent, at most
# twice this undetermined.
RECURRENCE_DELTA = 1e-3
# Critical-orbit points closer than this to a kept one are not kept again.
CLOUD_DEDUP_TOL = 1e-9
# Backward steps from the repelling fixed point to each sampled Julia point.
JULIA_SAMPLE_STEPS = 36
# Largest degree sample_julia_points serves: np.roots solves the d x d companion
# matrix in O(d^3) time and O(d^2) memory, 0.6 s at d = 256 and 2.5 s at 1024
# on two shared x86-64 cores.
MAX_SAMPLE_DEGREE = 256
# Sample pairs whose distances set_diameter holds at once: 512 KiB of complex
# differences, fifteen 64-gons of an expansion level at every shift.
DIAMETER_BLOCK_PAIRS = 32768
# set_diameter skips a shift whose edge bound, times 1 + this, is below the
# largest distance at shift m // 2: far above the roundoff of a sum of up to
# m // 2 edges.
DIAMETER_SKIP_SLACK = 1e-9
# Below this largest distance at shift m // 2, set_diameter keeps every shift:
# subnormal distances lose the relative precision that the slack relies on.
DIAMETER_SKIP_FLOOR = 2.0**-900

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

    def escape_radius(self) -> float:
        # |z| > max(2, |c|) + 1 guarantees monotone escape for z^d + c; hypot
        # is abs without its OverflowError, and past the float range only an
        # infinite modulus exceeds the radius
        return min(max(2.0, math.hypot(self.c.real, self.c.imag)) + 1.0, sys.float_info.max)


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
    iterate that overflows, to inf or to NaN (inf - inf in a part), has
    escaped and is recorded as infinite.
    """
    if n < 1:
        raise ValueError("need at least one iterate")
    r_esc = fmap.escape_radius()
    orbit = []
    z = 0.0 + 0.0j
    for k in range(1, n + 1):
        try:
            z = fmap.evaluate(z)
        except OverflowError:
            z = complex(math.inf, 0.0)
        if not math.hypot(z.real, z.imag) <= r_esc:  # escaped, or overflowed to inf or NaN
            orbit.append(z if cmath.isfinite(z) else complex(math.inf, 0.0))
            return orbit, k
        orbit.append(z)
    return orbit, None


def preimage_branch(fmap: UnicriticalMap, z: np.ndarray, branch) -> np.ndarray:
    """Root number ``branch`` of w^d = z - c, elementwise, with z and branch
    broadcast together: the principal root (branch 0) times the d-th roots of
    unity.  All roots collapse to 0 at the critical value z = c.  Pass arrays:
    a 0-d z takes libm's scalar pow, which can differ from NumPy's array pow
    in the last bit."""
    u = np.asarray(z) - fmap.c
    return _polar_preimage(fmap.d, np.abs(u) ** (1.0 / fmap.d), np.angle(u), branch)


def _polar_preimage(d: int, root: np.ndarray, phase: np.ndarray, branch) -> np.ndarray:
    """Root number ``branch`` of w^d = u from ``root`` = |u|^(1/d) and
    ``phase`` = arg u, all three broadcast together: the formula of
    ``preimage_branch``, for callers that hold the polar form already."""
    return root * np.exp(1j * (phase / d + 2.0 * math.pi * branch / d))


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


def classify_parameter(orbit, escape_index: Optional[int]) -> OrbitClassification:
    """Heuristic verdict on a critical orbit and escape index as
    ``critical_orbit`` returns them: escape, or bounded with/without observed
    recurrence.  The non-recurrence gap is the min of |f^n(0)| over the
    computed orbit; verdicts are configuration-dependent, never certificates.
    """
    gap = min(math.hypot(z.real, z.imag) for z in orbit)
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

    points: np.ndarray  # shape (m,), complex

    def __post_init__(self):
        if np.ndim(self.points) != 1 or len(self.points) == 0:
            raise ValueError("cloud points must be a non-empty 1-D array of complex "
                             f"numbers, got shape {np.shape(self.points)}")

    @functools.cached_property
    def _tree(self):
        if len(self.points) <= DIRECT_SEARCH_MAX:
            return None
        from scipy.spatial import cKDTree
        return cKDTree(np.column_stack([self.points.real, self.points.imag]))

    def __len__(self):
        return len(self.points)

    def diameter(self) -> float:
        return float(set_diameter(self.points))

    def dist_many(self, zs: np.ndarray) -> np.ndarray:
        return self.dist_xy(zs.real, zs.imag)

    def dist_xy(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Distance to the cloud from each point ``x + iy``, with ``x`` and
        ``y`` broadcast together: a row of real parts and a column of
        imaginary parts give a lattice, whose squared distance to a cloud
        point is one broadcast add of the squared offsets along each axis."""
        if self._tree is not None:
            d, _ = self._tree.query(np.stack(np.broadcast_arrays(x, y), axis=-1))
            return d
        # not abs(z - p): hypot rounds differently from the tree's sum of squares
        best = None
        # a square past the float range is inf, as the tree returns it: no warning
        with np.errstate(over="ignore"):
            for px, py in zip(self.points.real, self.points.imag):
                # dx*dx + dy*dy in place: two temporaries a point, not five
                sq, dy = x - px, y - py
                sq *= sq
                dy *= dy
                if sq.shape == dy.shape:
                    sq += dy
                else:  # the axes of a lattice
                    sq = sq + dy
                best = sq if best is None else np.minimum(best, sq, out=best)
        return np.sqrt(best, out=best)


def set_diameter(samples: np.ndarray) -> np.ndarray:
    """Largest distance between two samples along the last axis, one for each
    polygon of a (..., m) array.  Sample i is compared with sample i + k
    (mod m) for the shifts k = 0 .. m // 2, which meet every pair at least
    once: the shifted samples are a window sliding over each polygon followed
    by its first m // 2 samples.  ``|z_i - z_j|`` and ``|z_j - z_i|`` are the
    same float, and shift 0 keeps the diagonal, so this is the maximum of the
    full m x m matrix of distances bit for bit: a distance past the float
    range is inf, and a non-finite sample gives NaN (inf - inf on the
    diagonal), without a warning.

    The shifts below a first one are skipped, because none of their pairs
    can hold the maximum.  Along the polygon, samples k apart are joined by a
    path of k edges (the shift-1 distances), so their distance is at most
    the sum of the polygon's k longest edges.  A polygon skips every shift
    whose sum, times 1 + ``DIAMETER_SKIP_SLACK``, is below its largest
    distance at shift m // 2; the slack covers the roundoff of the sums and
    distances, so each skipped pair's computed distance is below a computed
    distance that the maximum keeps, and the result keeps its bits.  The
    first shift is the least over the polygons of one call, and a polygon
    whose distance at shift m // 2 is not finite or is below
    ``DIAMETER_SKIP_FLOOR`` keeps every shift, so NaN, inf and subnormal
    distances are met as before.  The kept shifts are taken in blocks of
    about ``DIAMETER_BLOCK_PAIRS`` pairs: several whole polygons, or a run
    of the shifts of one polygon too large for that."""
    m = samples.shape[-1]
    polygons = samples.reshape(-1, m)
    h = m // 2
    shifted = sliding_window_view(
        np.concatenate([polygons, polygons[:, :h]], axis=1), m, axis=1)
    out = np.empty(len(polygons))
    with np.errstate(over="ignore", invalid="ignore"):
        first = _first_shift(polygons, shifted) if h else 0
        ks = max(1, DIAMETER_BLOCK_PAIRS // m)  # shifts a block
        g = max(1, DIAMETER_BLOCK_PAIRS // (m * (h + 1 - first)))  # polygons a block
        for j in range(0, len(polygons), g):
            rows = polygons[j:j + g, None, :]
            out[j:j + g] = np.maximum.reduce(
                [np.abs(rows - shifted[j:j + g, k:k + ks]).max(axis=(1, 2))
                 for k in range(first, h + 1, ks)])
    return out.reshape(samples.shape[:-1])


def _first_shift(polygons: np.ndarray, shifted: np.ndarray) -> int:
    """The least shift that ``set_diameter`` must compare over ``polygons``,
    an (n, m) array with m >= 2, and ``shifted``, their sliding windows."""
    h = polygons.shape[1] // 2
    lower = np.abs(polygons - shifted[:, h]).max(axis=1)
    # the h longest edges of each polygon, longest first, summed
    edges = np.sort(np.abs(polygons - shifted[:, 1]), axis=1)[:, :-h - 1:-1]
    bound = np.cumsum(edges, axis=1) * (1.0 + DIAMETER_SKIP_SLACK)
    # shift 0 and every shift whose bound stays below the lower bound
    skipped = 1 + (bound < lower[:, None]).sum(axis=1)
    usable = (DIAMETER_SKIP_FLOOR <= lower) & (lower < math.inf)
    return int(np.where(usable, skipped, 0).min(initial=h))


def build_postcritical_cloud(orbit) -> PostcriticalCloud:
    """The points of a bounded critical orbit from ``critical_orbit``, each
    kept unless it lies within ``CLOUD_DEDUP_TOL`` of a point kept before it.
    An exact repeat lies at distance 0 from its first occurrence, or from the
    point that one was dropped for, so repeats are skipped before any distance
    is taken."""
    kept = np.empty(len(orbit), dtype=complex)
    m = 0
    for z in dict.fromkeys(orbit):
        if m == 0 or np.abs(kept[:m] - z).min() > CLOUD_DEDUP_TOL:
            kept[m] = z
            m += 1
    return PostcriticalCloud(kept[:m])


def _complex_product(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) on split real and imaginary parts, with the
    operations and rounding of CPython's complex multiply."""
    return ar * br - ai * bi, ar * bi + ai * br


def _complex_power(xr, xi, n: int):
    """(xr + i xi)^n for n >= 1 by binary powering in the order of CPython's
    ``c_powu``, starting from the product with 1 + 0i.  CPython powers this
    way for exponents up to 100 and in polar form above; there the two can
    differ in the last bits."""
    rr, ri = 1.0, 0.0
    mask = 1
    while True:
        if n & mask:
            rr, ri = _complex_product(rr, ri, xr, xi)
        mask <<= 1
        if mask > n:
            return rr, ri
        xr, xi = _complex_product(xr, xi, xr, xi)


def julia_distance_estimate(fmap: UnicriticalMap, zs: np.ndarray) -> np.ndarray:
    """Potential-theoretic estimate of dist(z, J) = sinh(G)/|grad G| at each
    point of the 1-D array ``zs``, all iterated together; each point leaves
    the iteration once it escapes.

    Accurate only up to a bounded multiplicative factor (factor-of-4 class near
    the Julia set); never use where exactness matters.  The orbit and its
    derivative are iterated on split real and imaginary arrays with the
    operations of Python's complex arithmetic, the moduli taken by hypot, and
    the last step's log, sinh and exp by ``math`` mapped over lists (its
    + - * / in NumPy, in the loop's order), so up to degree 100 every
    estimate has the bits of the point-by-point loop over Python complex
    numbers (NumPy's complex multiply and ``abs``, and its log, exp and sinh,
    round differently).  A point gets NaN where that loop has no value: when it
    does not escape within ``POTENTIAL_MAX_ITER`` iterates, or when its orbit
    overflows where Python's complex power or ``abs`` raises OverflowError.
    """
    zs = np.asarray(zs, dtype=complex)
    n = len(zs)
    d, c = fmap.d, complex(fmap.c)
    wr, wi = zs.real.copy(), zs.imag.copy()
    dr, di = np.ones(n), np.zeros(n)
    idx = np.arange(n)
    steps = np.full(n, -1)  # the escape iterate, -1 until the point escapes
    mags = np.empty(n)
    grads = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(POTENTIAL_MAX_ITER + 1):
            mag = np.hypot(wr, wi)
            out = ~(mag <= POTENTIAL_ESCAPE_RADIUS)  # escaped, or overflowed to inf or NaN
            if out.any():
                gone, ddr, ddi = idx[out], dr[out], di[out]
                grads[gone] = np.hypot(ddr, ddi)
                mags[gone] = mag[out]
                # no estimate where Python's complex power or abs would raise
                # OverflowError: a modulus past the double range, unless a
                # part of the derivative is infinite already
                ok = np.isfinite(mags[gone]) & (np.isfinite(grads[gone])
                                                | ~(np.isfinite(ddr) & np.isfinite(ddi)))
                steps[gone] = np.where(ok, k, -1)
                keep = ~out
                idx, wr, wi, dr, di = idx[keep], wr[keep], wi[keep], dr[keep], di[keep]
            if not idx.size:
                break
            # dw = (d * w^(d-1)) * dw, with the integer d as the complex d + 0i
            pr, pi = _complex_power(wr, wi, d - 1)
            pr, pi = _complex_product(float(d), 0.0, pr, pi)
            dr, di = _complex_product(pr, pi, dr, di)
            # w = w^d + c
            pr, pi = _complex_power(wr, wi, d)
            wr, wi = pr + c.real, pi + c.imag
    est = np.full(n, math.nan)
    escaped = steps >= 0
    k = steps[escaped]
    log_mag = _libm(math.log, mags[escaped])
    # x / d ** k rounds d^k to a float correctly; here once for each k
    ks, at = np.unique(k, return_inverse=True)
    g = log_mag / np.array([float(d ** j) for j in ks.tolist()])[at]
    # |grad G| in log space to dodge overflow of |dw|
    log_grad = _libm(math.log, grads[escaped]) - log_mag - k * math.log(d)
    est[escaped] = _libm(math.sinh, g) * _libm(math.exp, -log_grad)
    return est


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """The ``math`` function ``fn`` at each entry of ``x``, with the bits of
    the C library, which NumPy's log, exp and sinh do not always have."""
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=len(x))


def sample_julia_points(fmap: UnicriticalMap, count: int, rng: np.random.Generator) -> list:
    """Points near J(f) via random backward iteration from the repelling fixed
    point of largest modulus.  Backward orbits equidistribute on the Julia set."""
    roots = np.roots([1.0] + [0.0] * (fmap.d - 2) + [-1.0, fmap.c])
    z = np.full(count, complex(roots[np.argmax(np.abs(roots))]))
    # row by row, the draws of a scalar integers(d) call per step and point
    branches = rng.integers(fmap.d, size=(count, JULIA_SAMPLE_STEPS))
    for step in range(JULIA_SAMPLE_STEPS):
        z = preimage_branch(fmap, z, branches[:, step])
    return z.tolist()
