"""Discretization of the singular path metric on a planar grid.

An 8-neighbor weighted grid graph realizes the path metric d_rho; shortest
paths approximate geodesic lengths, and log-log regression on sampled pairs
recovers the Hoelder exponent of the equivalence with the Euclidean metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .metrics import SingularMetric

# Octile metrics overestimate straight-line length by at most this factor
ANISOTROPY_FACTOR = 1.082
MIN_RESOLUTION = 16
# Most grid columns (and rows) allowed.  build_grid's traced peak grows with the
# node count: 36 MB at 512 columns, 143 MB at 1024, so about 0.6 GB at 2048;
# the bound also keeps every CSR index and offset within int32.
MAX_GRID_RES = 2048


@dataclass
class PathMetricGrid:
    lo: complex
    hi: complex
    n_cols: int
    n_rows: int
    h: float
    metric: Optional[SingularMetric]
    graph: "scipy.sparse.csr_matrix" = field(repr=False)
    # least edge weight per unit length: an edge of length l weighs >= rho_min * l
    rho_min: float
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


def build_grid(
    metric: Optional[SingularMetric],
    bbox: Tuple[complex, complex],
    resolution: int,
) -> PathMetricGrid:
    """Grid over ``bbox`` with ``resolution`` columns; edge weights are
    density(midpoint) * edge length, with the distance to the singular set
    capped below by h/2 so weights stay finite.

    ``metric=None`` builds the Euclidean (density 1) grid.  The graph is a
    symmetric ``csr_matrix`` with sorted ``int32`` indices.
    """
    from scipy.sparse import csr_matrix

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

    if metric is not None:
        margin = 2.0 * h
        pts = metric.cloud.points
        if (pts.real.min() < lo.real + margin or pts.real.max() > hi.real - margin
                or pts.imag.min() < lo.imag + margin or pts.imag.max() > hi.imag - margin):
            raise ValueError("bbox must contain the cloud with margin >= 2h")

    xs = lo.real + h * np.arange(n_cols)
    ys = lo.imag + h * np.arange(n_rows)
    Z = xs[None, :] + 1j * ys[:, None]  # index [row, col]

    def weights(za, zb, length):
        """density(midpoint) * length of each edge from za to zb."""
        if metric is None:
            return np.full(za.shape, length)
        mid = ((za + zb) / 2.0).ravel()
        return metric.density_array(mid, dist_floor=h / 2.0).reshape(za.shape) * length

    horiz = weights(Z[:, :-1], Z[:, 1:], h)
    vert = weights(Z[:-1, :], Z[1:, :], h)
    # both diagonals of a cell share its midpoint bits (IEEE addition
    # commutes) and its length, so one density pass serves the two
    diag_len = h * math.sqrt(2.0)
    diag = weights(Z[:-1, :-1], Z[1:, 1:], diag_len)
    del Z
    # initial=inf: a one-row grid has no vertical or diagonal edges
    rho_min = min(horiz.min(initial=math.inf) / h, vert.min(initial=math.inf) / h,
                  diag.min(initial=math.inf) / diag_len)

    # Slot s of node (row j, col i) holds the edge to j*n_cols + i + offsets[s];
    # the offsets increase, so a node's edges come out in SciPy's sorted order.
    offsets = np.array([-n_cols - 1, -n_cols, -n_cols + 1, -1, 1,
                        n_cols - 1, n_cols, n_cols + 1], dtype=np.int32)
    slots = np.empty((n_rows, n_cols, 8))
    slots[1:, 1:, 0] = diag
    slots[1:, :, 1] = vert
    slots[1:, :-1, 2] = diag
    slots[:, 1:, 3] = horiz
    slots[:, :-1, 4] = horiz
    slots[:-1, 1:, 5] = diag
    slots[:-1, :, 6] = vert
    slots[:-1, :-1, 7] = diag
    del horiz, vert, diag
    valid = np.ones((n_rows, n_cols, 8), dtype=bool)
    valid[0, :, :3] = False
    valid[-1, :, 5:] = False
    valid[:, 0, [0, 3, 5]] = False
    valid[:, -1, [2, 4, 7]] = False

    n = n_cols * n_rows
    data = slots[valid]
    del slots
    indices = (np.arange(n, dtype=np.int32).reshape(n_rows, n_cols, 1) + offsets)[valid]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(valid.sum(axis=2, dtype=np.int32).ravel(), out=indptr[1:])
    graph = csr_matrix((data, indices, indptr), shape=(n, n))
    return PathMetricGrid(lo, hi, n_cols, n_rows, h, metric, graph, float(rho_min))


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
    nodes = j * grid.n_cols + i
    return float(grid.graph[nodes[:-1], nodes[1:]].sum())


def _ellipse_rows(grid: PathMetricGrid, a: int, b: int, reach: float):
    """Rows, first and last columns of the nodes v with |v - a| + |v - b| <=
    reach, distances in node spacings: per row an interval, clipped to the grid
    (empty where first > last)."""
    ja, ia = divmod(a, grid.n_cols)
    jb, ib = divmod(b, grid.n_cols)
    cx, cy = (ia + ib) / 2.0, (ja + jb) / 2.0
    semi, focal = reach / 2.0, math.hypot(ib - ia, jb - ja) / 2.0
    ux, uy = ((ib - ia) / (2.0 * focal), (jb - ja) / (2.0 * focal)) if focal else (1.0, 0.0)
    # squared semi-axes, the minor one as a product, accurate for thin ellipses
    major2, minor2 = semi * semi, max((semi - focal) * (semi + focal), 0.0)
    ey2 = major2 * uy * uy + minor2 * ux * ux  # squared half-height
    ey = math.sqrt(ey2)
    rows = np.arange(max(math.ceil(cy - ey), 0), min(math.floor(cy + ey), grid.n_rows - 1) + 1)
    y = rows - cy
    if ey2 > 0.0:
        # the row at height y meets the ellipse in the chord cx + centre +- half:
        # the roots of its quadratic in x, without the cancelling discriminant
        centre = ux * uy * (major2 - minor2) * y / ey2
        half = np.sqrt(major2 * minor2 * np.maximum(ey2 - y * y, 0.0)) / ey2
    else:  # a horizontal segment or a point, on the one row cy
        centre, half = 0.0, np.full(len(rows), semi)
    first = np.clip(np.ceil(cx + centre - half), 0, grid.n_cols).astype(np.intp)
    last = np.minimum(np.floor(cx + centre + half), grid.n_cols - 1).astype(np.intp)
    return rows, first, np.maximum(last, first - 1)


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
    of ``_weight_bounds``, so every node v on it has rho * h * (|v - a| +
    |v - b|) <= limit: it lies in an ellipse with foci a and b (widened by a
    relative 1e-9 for rounding).  Each row of it is one run of nodes, hence
    one run of CSR entries; edges leaving the ellipse go to one sink node with
    no edges.
    """
    from scipy.sparse import csr_matrix

    n = grid.n_cols
    graph = grid.graph
    rho = _weight_bounds(grid, a, b, limit)[-1]
    rows, first, last = _ellipse_rows(grid, a, b, limit / (rho * grid.h) * (1.0 + 1e-9))
    counts = last - first + 1
    base = np.zeros(len(rows) + 1, dtype=np.intp)  # local index of each row's first node
    np.cumsum(counts, out=base[1:])
    m = int(base[-1])
    starts = rows * n + first
    local = np.arange(m)
    nodes = np.repeat(starts - base[:-1], counts) + local  # global index of each local node
    # local index of every node in rows j0 - 1 .. j1 + 1, which hold every
    # neighbour of the ellipse; the sink m for the nodes outside it
    offset = (int(rows[0]) - 1) * n
    lookup = np.full((len(rows) + 2) * n, m, dtype=np.int32)
    lookup[nodes - offset] = local
    # each row's nodes own one run of CSR entries, copied whole
    e0 = graph.indptr[starts]
    e1 = graph.indptr[starts + counts]
    spans = list(zip(e0.tolist(), e1.tolist()))
    targets = np.concatenate([graph.indices[i:j] for i, j in spans])
    elen = e1 - e0
    shift = e0 - (np.cumsum(elen) - elen)  # global minus local entry index, per row
    indptr = np.empty(m + 2, dtype=np.int32)
    indptr[:m] = graph.indptr[nodes] - np.repeat(shift, counts)
    indptr[m:] = len(targets)  # the sink has no edges
    sub = csr_matrix((np.concatenate([graph.data[i:j] for i, j in spans]),
                      lookup[np.subtract(targets, offset, dtype=np.intp)], indptr),
                     shape=(m + 1, m + 1))
    return sub, int(lookup[a - offset]), int(lookup[b - offset])


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
