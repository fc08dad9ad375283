"""Discretization of the singular path metric on a planar grid.

An 8-neighbor weighted grid graph realizes the path metric d_rho; shortest
paths approximate geodesic lengths, and log-log regression on sampled pairs
recovers the Hoelder exponent of the equivalence with the Euclidean metric.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .metrics import SingularMetric

# Octile metrics overestimate straight-line length by at most this factor
ANISOTROPY_FACTOR = 1.082
MIN_RESOLUTION = 16
# Most grid columns (and rows) allowed.  build_grid allocates the slot table, 64
# bytes a node: a traced peak of 17 MB at 512 columns, 68 MB at 1024 and 273 MB
# at 2048 (tracemalloc).  Only the pages that the searches fill become
# resident: holder at 2048 columns and seed 1 peaks at 186 MB resident at
# c = -2 and 385 MB at c = i (610 MB for both with a whole-grid build), the
# ru_maxrss of a child process on an x86-64 Xeon.  Reading ``graph`` fills all
# of it.  The bound also keeps every CSR index within int32.
MAX_GRID_RES = 2048

# Slot s of node (row j, col i) holds the edge to (row j + _SLOT_DJ[s], col i +
# _SLOT_DI[s]), node offsets -n-1, -n, -n+1, -1, +1, n-1, n, n+1 for n columns:
# increasing, so a node's edges come out in SciPy's sorted order.
_SLOT_DI = np.array([-1, 0, 1, -1, 1, -1, 0, 1])
_SLOT_DJ = np.array([-1, -1, -1, 0, 0, 1, 1, 1])


@dataclass
class PathMetricGrid:
    lo: complex
    hi: complex
    n_cols: int
    n_rows: int
    h: float
    metric: Optional[SingularMetric]
    # lower bound on every edge's weight per unit length: an edge of length l
    # weighs >= rho_min * l
    rho_min: float
    # each node's eight edge-slot weights, written by _slot_weights when first
    # needed (``_filled``); np.empty, so pages never written stay unmapped
    _slots: np.ndarray = field(repr=False)
    _filled: np.ndarray = field(repr=False)
    _dist_cache: dict = field(default_factory=dict, repr=False)

    def nearest_node(self, z: complex) -> Tuple[int, complex]:
        i = int(round((z.real - self.lo.real) / self.h))
        j = int(round((z.imag - self.lo.imag) / self.h))
        i = min(max(i, 0), self.n_cols - 1)
        j = min(max(j, 0), self.n_rows - 1)
        node = j * self.n_cols + i
        pos = complex(self.lo.real + i * self.h, self.lo.imag + j * self.h)
        return node, pos

    def local_density(self, zs: np.ndarray) -> np.ndarray:
        """Density at each point of ``zs``, with the edge weights' distance
        floor h/2; 1 on the Euclidean grid."""
        if self.metric is None:
            return np.ones(len(zs))
        return self.metric.density_array(zs, dist_floor=self.h / 2.0)

    def contains(self, z: complex) -> bool:
        return (self.lo.real <= z.real <= self.hi.real
                and self.lo.imag <= z.imag <= self.hi.imag)

    @functools.cached_property
    def graph(self) -> "scipy.sparse.csr_matrix":
        """The whole grid graph, a symmetric ``csr_matrix`` with sorted
        ``int32`` indices, assembled from the slot table, all of which it
        fills.  The searches read the slot table itself, not this."""
        from scipy.sparse import csr_matrix

        n = self.n_cols * self.n_rows
        nodes = np.arange(n)
        weights = _slot_weights(self, nodes)
        on = np.isfinite(weights)  # a slot is an edge exactly where it has a weight
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(on.sum(axis=1, dtype=np.int32), out=indptr[1:])
        targets = nodes[:, None] + (_SLOT_DJ * self.n_cols + _SLOT_DI)
        return csr_matrix((weights[on], targets[on].astype(np.int32), indptr), shape=(n, n))


def build_grid(
    metric: Optional[SingularMetric],
    bbox: Tuple[complex, complex],
    resolution: int,
) -> PathMetricGrid:
    """Grid over ``bbox`` with ``resolution`` columns; edge weights are
    density(midpoint) * edge length, with the distance to the singular set
    capped below by h/2 so weights stay finite.  ``metric=None`` builds the
    Euclidean (density 1) grid.

    Only the geometry and ``rho_min`` are computed here: no weight, no
    density.  Every midpoint lies in the box, so its distance to P is at most
    far = min_p max_corner |corner - p|, and every edge weighs at least
    D(max(far, h/2)) times its length, D being the metric's
    ``density_of_distance``; that, with a relative 1e-9 for rounding, is
    ``rho_min`` (exactly 1 on the Euclidean grid).  ``_slot_weights``
    computes the weights the first time a search needs them.
    """
    if not MIN_RESOLUTION <= resolution <= MAX_GRID_RES:
        raise ValueError(f"resolution must lie in {MIN_RESOLUTION}..{MAX_GRID_RES}, "
                         f"got {resolution}")
    lo, hi = bbox
    width = hi.real - lo.real
    height = hi.imag - lo.imag
    if width <= 0 or height <= 0:
        raise ValueError("bbox must have positive width and height")
    n_cols = resolution
    h = width / (n_cols - 1)
    n_rows = int(round(height / h)) + 1
    if n_rows > MAX_GRID_RES:
        raise ValueError(f"bbox needs {n_rows} rows at this resolution, "
                         f"more than {MAX_GRID_RES}")
    hi = complex(hi.real, lo.imag + (n_rows - 1) * h)

    rho_min = 1.0
    if metric is not None:
        margin = 2.0 * h
        pts = metric.cloud.points
        if (pts.real.min() < lo.real + margin or pts.real.max() > hi.real - margin
                or pts.imag.min() < lo.imag + margin or pts.imag.max() > hi.imag - margin):
            raise ValueError("bbox must contain the cloud with margin >= 2h")
        corners = np.array([lo, complex(hi.real, lo.imag), complex(lo.real, hi.imag), hi])
        far = float(np.abs(corners[:, None] - pts).max(axis=0).min())
        rho_min = float(metric.density_of_distance(max(far * (1.0 + 1e-9), h / 2.0))
                        / (1.0 + 1e-9))

    n = n_cols * n_rows
    return PathMetricGrid(lo, hi, n_cols, n_rows, h, metric, rho_min,
                          np.empty((n, 8)), np.zeros(n, dtype=bool))


def _slot_weights(grid: PathMetricGrid, nodes: np.ndarray) -> np.ndarray:
    """The eight edge-slot weights of each of ``nodes``, a (len(nodes), 8)
    array; inf where the neighbour lies off the grid.

    The nodes not yet filled get theirs here, in one density pass over their
    edges' midpoints ((x_i + x_i') / 2, (y_j + y_j') / 2), which the edge's
    two ends compute alike (IEEE addition commutes), so the graph stays
    symmetric; the grid keeps them for later searches.
    """
    todo = nodes[~grid._filled[nodes]]
    if len(todo):
        j, i = np.divmod(todo, grid.n_cols)
        jj, ii = j[:, None] + _SLOT_DJ, i[:, None] + _SLOT_DI
        mid = np.empty(jj.shape, dtype=complex)
        mid.real = ((grid.lo.real + grid.h * i)[:, None] + (grid.lo.real + grid.h * ii)) / 2.0
        mid.imag = ((grid.lo.imag + grid.h * j)[:, None] + (grid.lo.imag + grid.h * jj)) / 2.0
        length = np.where(_SLOT_DI * _SLOT_DJ != 0, grid.h * math.sqrt(2.0), grid.h)
        weights = grid.local_density(mid.ravel()).reshape(jj.shape) * length
        weights[(ii < 0) | (ii >= grid.n_cols) | (jj < 0) | (jj >= grid.n_rows)] = math.inf
        grid._slots[todo] = weights
        grid._filled[todo] = True
    return grid._slots[nodes]


def dijkstra(*args, **kwargs):
    """``scipy.sparse.csgraph.dijkstra``, imported when called so that only
    the grid metric loads SciPy; a module global, so callers can wrap it."""
    from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

    return csgraph_dijkstra(*args, **kwargs)


def _path_weight(grid: PathMetricGrid, a: int, b: int) -> float:
    """Weight of one explicit grid path from node a to node b: diagonal steps
    first, then straight ones.  Any path bounds the shortest distance above."""
    ja, ia = divmod(a, grid.n_cols)
    jb, ib = divmod(b, grid.n_cols)
    di, dj = ib - ia, jb - ja
    steps = np.arange(max(abs(di), abs(dj)) + 1)
    i = ia + np.sign(di) * np.minimum(steps, abs(di))
    j = ja + np.sign(dj) * np.minimum(steps, abs(dj))
    # the slot of each step (di, dj): its index among the nine cells round a
    # node, less the node's own
    k = 3 * np.diff(j) + np.diff(i) + 4
    slots = k - (k > 4)
    weights = _slot_weights(grid, (j * grid.n_cols + i)[:-1])
    return float(weights[np.arange(len(slots)), slots].sum())


def _weight_bounds(grid: PathMetricGrid, a: int, b: int, limit: float) -> List[float]:
    """Rising lower bounds rho_0, rho_1, ... on the weight per unit length of
    every edge that an a-b path of weight <= limit can use.

    rho_0 = rho_min holds for every edge.  Given rho_k, every point z of such
    a path (a node or an edge midpoint) splits it into pieces of weight at
    least rho_k * |z - a| and rho_k * |z - b|, so rho_k * (|z - a| + |z - b|)
    <= limit: z lies in an ellipse with foci a and b, hence within limit /
    (2 rho_k) of their midpoint c, and dist(z, P) <= far_k = dist(c, P) +
    limit / (2 rho_k).  The density falls with the distance to P, floored at
    h/2 in the edge weights, so every edge of the path weighs at least
    D(max(far_k, h/2)) times its length, D being the metric's
    ``density_of_distance``: that, less a relative 1e-9 for rounding, is
    rho_{k+1}.  The bounds stop at one that does not rise, or that shrinks
    the ellipse's reach |z - a| + |z - b| by less than a node spacing.  The
    Euclidean grid has rho_0 alone.
    """
    rhos = [grid.rho_min]
    if grid.metric is None:
        return rhos
    ja, ia = divmod(a, grid.n_cols)
    jb, ib = divmod(b, grid.n_cols)
    c = grid.lo + grid.h * complex(ia + ib, ja + jb) / 2.0
    centre_dist = float(grid.metric.cloud.dist_many(np.array([c]))[0])
    while True:
        rho = rhos[-1]
        far = max(centre_dist + limit / (2.0 * rho) * (1.0 + 1e-9), grid.h / 2.0)
        bound = grid.metric.density_of_distance(far) / (1.0 + 1e-9)
        if bound <= rho:
            return rhos
        rhos.append(bound)
        if limit / grid.h * (1.0 / rho - 1.0 / bound) < 1.0:
            return rhos


def _search_graph(grid: PathMetricGrid, a: int, b: int, limit: float):
    """The part of the grid graph that an a-b path of weight <= limit can visit,
    as (csr_matrix, local a, local b).

    An edge of length l on such a path weighs at least rho * l, rho the last
    of ``_weight_bounds``, so every node v on it has |v - a| + |v - b| <=
    reach = limit / (rho * h), in node spacings (widened by a relative 1e-9
    for rounding): it lies in an ellipse with foci a and b, hence within
    reach / 2 of their midpoint c in each coordinate (2 |v - c| <= |v - a| +
    |v - b|).  The local nodes are those of that square, clipped to the grid,
    that satisfy the inequality, in increasing order.  Each keeps its eight
    slots, with the weights of ``_slot_weights``; a slot whose neighbour lies
    outside the ellipse, or off the grid (weight inf), points to one sink
    node with no edges.
    """
    from scipy.sparse import csr_matrix

    n = grid.n_cols
    rho = _weight_bounds(grid, a, b, limit)[-1]
    reach = limit / (rho * grid.h) * (1.0 + 1e-9)
    ja, ia = divmod(a, n)
    jb, ib = divmod(b, n)
    j = np.arange(max(math.ceil((ja + jb - reach) / 2.0), 0),
                  min(math.floor((ja + jb + reach) / 2.0), grid.n_rows - 1) + 1)[:, None]
    i = np.arange(max(math.ceil((ia + ib - reach) / 2.0), 0),
                  min(math.floor((ia + ib + reach) / 2.0), n - 1) + 1)
    # the square padded by a node on each side, which holds every neighbour of
    # the ellipse; the offsets are integers, so each square root is correctly rounded
    inside = np.zeros((len(j) + 2, len(i) + 2), dtype=bool)
    inside[1:-1, 1:-1] = (np.sqrt((j - ja) ** 2 + (i - ia) ** 2)
                          + np.sqrt((j - jb) ** 2 + (i - ib) ** 2) <= reach)
    nodes = (j * n + i)[inside[1:-1, 1:-1]]  # each local node's global index, increasing
    cells = np.flatnonzero(inside)
    m = len(cells)
    lookup = np.full(inside.size, m, dtype=np.int32)  # local indices, the sink m off the ellipse
    lookup[cells] = np.arange(m)
    targets = lookup[cells[:, None] + _SLOT_DJ * inside.shape[1] + _SLOT_DI]
    indptr = np.minimum(8 * np.arange(m + 2, dtype=np.int32), 8 * m)  # the sink has no edges
    sub = csr_matrix((_slot_weights(grid, nodes).ravel(), targets.ravel(), indptr),
                     shape=(m + 1, m + 1))
    local_a, local_b = np.searchsorted(nodes, (a, b))
    return sub, int(local_a), int(local_b)


def _pair_distance(grid: PathMetricGrid, a: int, b: int) -> np.float64:
    """Shortest-path distance between nodes a and b, cached per pair.

    Dijkstra stops at the weight of an explicit a-b path (with a relative
    margin for summation order) and runs on the ellipse of nodes a path
    within that limit can reach (``_search_graph``).  Its distance at b is the
    least summed weight over a-b paths, and the path attaining it lies in the
    ellipse, so it is exactly that of an unlimited whole-grid run.  The graph
    is symmetric, so the directed search gives the same distances.
    """
    key = (a, b)
    if key not in grid._dist_cache:
        limit = _path_weight(grid, a, b) * (1.0 + 1e-9)
        sub, local_a, local_b = _search_graph(grid, a, b, limit)
        grid._dist_cache[key] = dijkstra(
            sub, directed=True, indices=local_a, limit=limit
        )[local_b]
    return grid._dist_cache[key]


def grid_distance(grid: PathMetricGrid, z0: complex, z1: complex) -> float:
    """Shortest-path d_rho between the nodes nearest z0 and z1, plus a snapping
    correction of density * offset at each endpoint (each <= h * rho_local)."""
    if not (grid.contains(z0) and grid.contains(z1)):
        raise ValueError("query points must lie inside the grid bbox")
    if z0 == z1:
        return 0.0
    n0, p0 = grid.nearest_node(z0)
    n1, p1 = grid.nearest_node(z1)
    if n0 == n1:
        base = 0.0
    else:
        # query from the smaller index so (z0,z1) and (z1,z0) share a cache entry
        a, b = (n0, n1) if n0 <= n1 else (n1, n0)
        base = float(_pair_distance(grid, a, b))
    rho0, rho1 = grid.local_density(np.array([z0, z1], dtype=complex)).tolist()
    snap = abs(z0 - p0) * rho0 + abs(z1 - p1) * rho1
    return base + snap


def verify_lower_bound(grid: PathMetricGrid, samples: Sequence[Tuple[complex, complex]],
                       distances: Sequence[float]):
    """Audit d_rho(z0,z1) >= |z0-z1| - 2h*rho_local on each pair, given its d_rho."""
    rho = grid.local_density(np.array([z for pair in samples for z in pair], dtype=complex))
    violations = []
    for (z0, z1), d, pair_rho in zip(samples, distances, rho.reshape(-1, 2).tolist()):
        slack = 2.0 * grid.h * max(pair_rho)
        if d < abs(z0 - z1) - slack:
            violations.append((z0, z1, d))
    return {"checked": len(samples), "violations": violations}


@dataclass(frozen=True)
class HoelderFit:
    exponent: float
    constant: float
    r_squared: float
    sample_count: int

    def __post_init__(self):
        if not 0.0 < self.exponent <= 1.05:
            raise ValueError(f"degenerate fitted exponent {self.exponent}")


def holder_fit(separations: Sequence[float], distances: Sequence[float]) -> HoelderFit:
    """Least-squares fit of log d_rho against log |z0 - z1| over sampled pairs,
    given each pair's separation and d_rho.

    Requires at least 50 pairs whose separations span two decades.
    """
    seps = np.asarray(separations, dtype=float)
    if len(seps) < 50:
        raise ValueError("need at least 50 sample pairs")
    if np.any(seps <= 0) or np.any(seps >= 1):
        raise ValueError("pair separations must lie in (0, 1)")
    if seps.max() / seps.min() < 100.0:
        raise ValueError("pair separations must span at least two decades")
    x, y = np.log(seps), np.log(np.asarray(distances, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - np.sum(resid**2) / ss_tot if ss_tot > 0 else 1.0
    return HoelderFit(float(slope), float(math.exp(intercept)), float(r2), len(seps))


def uniform_upper_constant(separations: Sequence[float], distances: Sequence[float],
                           alpha: float) -> float:
    """Smallest single C with d <= C s^(1-alpha) over pairs of separation s > 0
    and d_rho d."""
    return max((float(d) / float(s) ** (1.0 - alpha)
                for s, d in zip(separations, distances) if s > 0), default=0.0)
