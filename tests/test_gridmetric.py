"""Path-metric grid construction, shortest-path distances, and Hoelder fits."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

import expmetric as em
from expmetric.gridmetric import (
    ANISOTROPY_FACTOR, HoelderFit, _pair_distance, _path_weight, _search_graph,
    _slot_weights, _weight_bounds,
)
from expmetric.metrics import Variant


def cheb_metric():
    cloud = em.build_postcritical_cloud(em.critical_orbit(em.UnicriticalMap(2, -2), 50)[0])
    return em.SingularMetric(cloud, 2, Variant.RHO)


def uniform_grid(res=64, half=3.0):
    return em.build_grid(None, (complex(-half, -half), complex(half, half)), res)


def edge_weight(grid, za, zb):
    na, pa = grid.nearest_node(za)
    nb, pb = grid.nearest_node(zb)
    assert abs(pa - za) < 1e-9 and abs(pb - zb) < 1e-9, "test points must be nodes"
    return grid.graph[na, nb]


def measure(grid, pairs):
    """Each pair's separation and d_rho, as the holder command measures them."""
    seps = np.array([abs(b - a) for a, b in pairs])
    return seps, np.array([em.grid_distance(grid, a, b) for a, b in pairs])


def test_resolution_floor():
    with pytest.raises(ValueError):
        em.build_grid(None, (complex(-1, -1), complex(1, 1)), 8)


def test_bbox_must_contain_cloud():
    with pytest.raises(ValueError):
        em.build_grid(cheb_metric(), (complex(-1, -1), complex(1, 1)), 64)


def coo_grid_graph(metric, bbox, resolution):
    """Reference construction of build_grid's graph: four edge families as COO
    triples, symmetrized by concatenation, then converted and sorted to CSR."""
    lo, hi = bbox
    h = (hi.real - lo.real) / (resolution - 1)
    n_cols, n_rows = resolution, int(round((hi.imag - lo.imag) / h)) + 1
    X, Y = np.meshgrid(lo.real + h * np.arange(n_cols), lo.imag + h * np.arange(n_rows))
    Z = X + 1j * Y
    idx = np.arange(n_cols * n_rows).reshape(n_rows, n_cols)
    rows_e, cols_e, weights = [], [], []
    for di, dj in ((1, 0), (0, 1), (1, 1), (1, -1)):
        if dj >= 0:
            a = idx[: n_rows - dj if dj else n_rows, : n_cols - di if di else n_cols]
            b = idx[dj:, di:]
            za = Z[: n_rows - dj if dj else n_rows, : n_cols - di if di else n_cols]
            zb = Z[dj:, di:]
        else:
            a, b = idx[-dj:, : n_cols - di], idx[:dj, di:]
            za, zb = Z[-dj:, : n_cols - di], Z[:dj, di:]
        length = h * math.hypot(di, dj)
        mid = ((za + zb) / 2.0).ravel()
        if metric is None:
            w = np.full(mid.shape, length)
        else:
            w = metric.density_array(mid, dist_floor=h / 2.0) * length
        rows_e.append(a.ravel())
        cols_e.append(b.ravel())
        weights.append(w)
    r, c, w = map(np.concatenate, (rows_e, cols_e, weights))
    n = n_cols * n_rows
    return coo_matrix((np.concatenate([w, w]), (np.concatenate([r, c]), np.concatenate([c, r]))),
                      shape=(n, n)).tocsr()


def _metric(variant, c, d):
    cloud = em.build_postcritical_cloud(em.critical_orbit(em.UnicriticalMap(d, c), 50)[0])
    return em.SingularMetric(cloud, d, variant)


_SQUARE = (complex(-3, -3), complex(3, 3))


@pytest.mark.parametrize("metric, bbox, resolution", [
    *[(m, _SQUARE, res)
      for m in (None, (Variant.RHO, -2, 2), (Variant.SIGMA, 1j, 2), (Variant.RHO, 0.2j, 3))
      for res in (16, 17, 128)],
    ((Variant.RHO, -2, 2), (complex(-3, -1), complex(3, 1.7)), 37),
    (None, (0j, 1 + 0.001j), 16),
], ids=[*[f"{name}-{res}" for name in ("euclid", "rho-c=-2", "sigma-c=i", "d=3-c=0.2i")
          for res in (16, 17, 128)], "non-square", "one-row"])
def test_grid_csr_matches_coo_construction(metric, bbox, resolution):
    if metric is not None:
        metric = _metric(*metric)
    graph = em.build_grid(metric, bbox, resolution).graph
    expected = coo_grid_graph(metric, bbox, resolution)
    for attr in ("indptr", "indices", "data"):
        got, want = getattr(graph, attr), getattr(expected, attr)
        assert got.dtype == want.dtype and np.array_equal(got, want), attr
    assert graph.indices.dtype == np.int32 and graph.indptr.dtype == np.int32
    assert graph.has_sorted_indices
    assert (graph != graph.T).nnz == 0


@pytest.mark.parametrize("metric, bbox", [(cheb_metric(), _SQUARE), (None, (0j, 1 + 0.001j))],
                         ids=["rho-c=-2", "one-row"])
def test_slots_off_the_grid_weigh_inf(metric, bbox):
    grid = em.build_grid(metric, bbox, 16)
    weights = _slot_weights(grid, np.arange(grid.n_cols * grid.n_rows))
    assert np.isinf(weights).sum() == weights.size - grid.graph.nnz
    assert np.isfinite(grid.graph.data).all()


def _holder_grid(monkeypatch, tmp_path, c, resolution, seed):
    """build_grid's arguments in one holder command, and the grid it built."""
    from expmetric import cli

    calls = []
    build = cli.build_grid

    def keep_grid(*args):
        calls.append((args, build(*args)))
        return calls[-1][1]

    monkeypatch.setattr(cli, "build_grid", keep_grid)
    assert cli.main(["holder", "--c-re", str(c.real), "--c-im", str(c.imag),
                     "--grid-res", str(resolution), "--seed", str(seed),
                     "--out", str(tmp_path)]) == 0
    (call,) = calls
    return call


@pytest.mark.parametrize("c", [-2, 1j])
def test_holder_fill_order_leaves_the_graph_unchanged(monkeypatch, tmp_path, c):
    # holder's searches fill part of the slot table, in their own order; the
    # whole graph read after them is that of a fresh grid and of the reference
    args, grid = _holder_grid(monkeypatch, tmp_path, complex(c), 128, 0)
    assert 0 < grid._filled.mean() < 1
    graph = grid.graph
    for expected in (em.build_grid(*args).graph, coo_grid_graph(*args)):
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(graph, attr), getattr(expected, attr)), attr


@pytest.mark.parametrize("c, share", [(-2, 0.10), (1j, 0.25)])
def test_holder_fills_few_nodes(monkeypatch, tmp_path, c, share):
    # seed 1 at 512 columns: the search ellipses and explicit paths of the 80
    # pairs touch under a tenth of the grid at c = -2, under a quarter at c = i
    _, grid = _holder_grid(monkeypatch, tmp_path, complex(c), 512, 1)
    assert grid._filled.mean() <= share


def test_grid_build_peak_traced_memory():
    # the build allocates the slot table, 64 bytes a node (16.8 MB here), and
    # computes no weight
    metric = cheb_metric()
    tracemalloc.start()
    try:
        grid = em.build_grid(metric, _SQUARE, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert grid.graph.nnz == 2 * (2 * 512 * 511 + 2 * 511 * 511)


def test_grid_build_computes_no_density(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_grid computed a density")

    metric = cheb_metric()
    monkeypatch.setattr(em.SingularMetric, "density_array", refuse)
    grid = em.build_grid(metric, _SQUARE, 128)
    assert not grid._filled.any()


def test_grid_resolution_ceiling():
    with pytest.raises(ValueError, match="resolution must lie in 16..2048, got 2049"):
        em.build_grid(None, (complex(-1, -1), complex(1, 1)), 2049)
    with pytest.raises(ValueError, match="bbox needs 4001 rows"):
        em.build_grid(None, (0j, 1 + 200j), 21)


def test_uniform_grid_edge_weights_are_lengths():
    grid = uniform_grid(res=31, half=3.0)  # h = 0.2
    assert grid.h == pytest.approx(0.2)
    assert edge_weight(grid, 0 + 0j, 0.2 + 0j) == pytest.approx(0.2)
    assert edge_weight(grid, 0 + 0j, 0.2 + 0.2j) == pytest.approx(0.2 * math.sqrt(2))


def test_singular_grid_edge_weight_oracles():
    # h = 0.2 lattice through 0 and the cloud points +-2
    metric = cheb_metric()
    grid = em.build_grid(metric, (complex(-3, -3), complex(3, 3)), 31)
    h = grid.h
    # horizontal edge with midpoint at i*h/2 distance ~... use the edge from
    # -h/2... nodes sit on multiples of h, so take the edge (0, h): midpoint h/2
    w = edge_weight(grid, 0 + 0j, h + 0j)
    expected = h * (1 + (2 - h / 2) ** -0.5)
    assert w == pytest.approx(expected, rel=1e-12)
    # edge whose midpoint is the cloud point 2: nodes 2 -+ h/2 are not lattice
    # points here, so use the vertical edge through 2 with midpoint exactly 2
    w = edge_weight(grid, 2 - 1j * h, 2 + 0j)
    # midpoint dist = h/2 after capping
    expected = h * (1 + (h / 2) ** -0.5)
    assert w == pytest.approx(expected, rel=1e-12)
    assert math.isfinite(w)


def test_grid_distance_trivia():
    grid = uniform_grid()
    assert em.grid_distance(grid, 0.3 + 0.1j, 0.3 + 0.1j) == 0.0


def test_grid_distance_outside_bbox_rejected():
    grid = uniform_grid()
    with pytest.raises(ValueError):
        em.grid_distance(grid, 0, 10 + 0j)


def test_uniform_grid_anisotropy_bound():
    grid = uniform_grid(res=101, half=2.5)
    rng = np.random.default_rng(0)
    for _ in range(30):
        z0 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        z1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z0 - z1) < 5 * grid.h:
            continue
        d = em.grid_distance(grid, z0, z1)
        L = abs(z0 - z1)
        assert L - 2 * grid.h <= d <= ANISOTROPY_FACTOR * L + 2 * grid.h


def test_pair_distance_matches_unlimited_dijkstra():
    # h = 6/127; the Chebyshev cloud {-2, 2} sits near columns 21 and 106, row 63.5
    grid = em.build_grid(cheb_metric(), (complex(-3, -3), complex(3, 3)), 128)
    n, m = grid.n_cols, grid.n_cols * grid.n_rows

    def node(i, j):
        return j * n + i

    pairs = [
        (node(5, 40), node(120, 40)),       # same row
        (node(106, 3), node(106, 124)),     # same column, through the cloud point 2
        (node(10, 20), node(100, 110)),     # exact diagonal
        (node(110, 10), node(30, 90)),      # exact anti-diagonal
        (node(0, 0), m - 1),                # opposite corners
        (node(n - 1, 0), node(0, n - 1)),   # the other two corners
        (node(105, 63), node(106, 64)),     # one diagonal step beside the cloud point 2
        (node(33, 33), node(33, 33)),       # n0 == n1
    ]
    rng = np.random.default_rng(11)
    pairs += [tuple(sorted(rng.integers(m, size=2).tolist())) for _ in range(12)]
    for a, b in pairs:
        exact = dijkstra(grid.graph, directed=False, indices=a)[b]
        assert _pair_distance(grid, a, b) == exact
        # summed in another order than Dijkstra's, an equally short path can
        # land an ulp below; the 1e-9 margin of the limit covers that
        assert _path_weight(grid, a, b) >= exact * (1 - 1e-12)
    assert _pair_distance(grid, node(33, 33), node(33, 33)) == 0.0


def assert_pairs_match_whole_grid(grid, pairs):
    """_pair_distance equals an unbounded whole-grid Dijkstra, bit for bit."""
    pairs = [(min(a, b), max(a, b)) for a, b in pairs]
    sources = sorted({a for a, _ in pairs})
    whole = dijkstra(grid.graph, directed=False, indices=sources)
    for a, b in pairs:
        assert _pair_distance(grid, a, b) == whole[sources.index(a), b]


def weights_per_length(grid):
    """The graph's edges as COO, with each edge's weight over its length."""
    coo = grid.graph.tocoo()
    n = grid.n_cols
    diagonal = (coo.row % n != coo.col % n) & (coo.row // n != coo.col // n)
    return coo, coo.data / np.where(diagonal, grid.h * math.sqrt(2.0), grid.h)


def test_rho_min_bounds_every_weight_per_unit_length():
    # the bound _weight_bounds starts from: no edge weighs less than rho_min
    # times its length, on either singular density and the Euclidean grid
    for metric in (None, cheb_metric(), _metric(Variant.RHO, 1j, 2),
                   _metric(Variant.SIGMA, 1j, 2), _metric(Variant.SIGMA, 0.2j, 3)):
        grid = em.build_grid(metric, _SQUARE, 64)
        least = weights_per_length(grid)[1].min()
        assert grid.rho_min <= least
        if metric is None:
            assert grid.rho_min == least == 1.0


def test_search_graph_euclidean_grid_matches_whole_grid():
    grid = uniform_grid(res=48)
    assert grid.rho_min == 1.0
    m = grid.n_cols * grid.n_rows
    rng = np.random.default_rng(5)
    pairs = [(0, m - 1), (0, grid.n_cols - 1), (3 * grid.n_cols, 3 * grid.n_cols + 40),
             (5, 5 + 30 * grid.n_cols)]  # same row and same column: thin ellipses
    pairs += [tuple(rng.integers(m, size=2).tolist()) for _ in range(10)]
    assert_pairs_match_whole_grid(grid, pairs)


def test_search_graph_one_row_grid():
    grid = em.build_grid(None, (0j, 1 + 0.001j), 32)
    assert grid.n_rows == 1 and grid.rho_min == 1.0
    assert_pairs_match_whole_grid(grid, [(0, 31), (3, 4), (10, 20), (7, 7)])


def test_search_graph_clipped_at_corners_and_borders():
    grid = em.build_grid(cheb_metric(), _SQUARE, 128)
    n, m = grid.n_cols, grid.n_cols * grid.n_rows
    corners = [0, n - 1, m - n, m - 1]
    pairs = [(p, q) for p in corners for q in corners if p < q]
    pairs += [(0, 1), (0, n), (0, n + 1), (n - 1, 2 * n - 2), (m - 1, m - n - 2)]
    pairs += [(5, 90), (40 * n, 100 * n), (60 * n + n - 1, 61 * n - 40),  # along borders
              (m - n + 7, m - 3 * n + 100), (2 * n + 3, 120 * n + 125)]
    assert_pairs_match_whole_grid(grid, pairs)


def test_search_graph_of_a_node_to_itself():
    grid = em.build_grid(cheb_metric(), _SQUARE, 128)
    n, m = grid.n_cols, grid.n_cols * grid.n_rows
    for a in (0, n - 1, m - 1, 64 * n + 20):
        sub, local_a, local_b = _search_graph(grid, a, a, 0.0)
        assert sub.shape == (2, 2) and local_a == local_b == 0
        assert _pair_distance(grid, a, a) == 0.0


def test_search_graph_of_a_short_pair_is_small():
    grid = em.build_grid(cheb_metric(), _SQUARE, 512)
    n, m = grid.n_cols, grid.n_cols * grid.n_rows
    a = 300 * n + 200
    b = a + 3
    sub, local_a, local_b = _search_graph(grid, a, b, _path_weight(grid, a, b) * (1 + 1e-9))
    assert sub.shape[0] < 0.01 * m
    assert_pairs_match_whole_grid(grid, [(a, b)])


def _cloud_grid(variant, c, resolution, margin):
    """A grid over P(f)'s bounding box widened by ``margin``, with its cloud;
    ``variant=None`` builds the Euclidean grid over the same box."""
    cloud = em.build_postcritical_cloud(em.critical_orbit(em.UnicriticalMap(2, c), 50)[0])
    pts = cloud.points
    bbox = (complex(pts.real.min() - margin, pts.imag.min() - margin),
            complex(pts.real.max() + margin, pts.imag.max() + margin))
    metric = None if variant is None else em.SingularMetric(cloud, 2, variant)
    return em.build_grid(metric, bbox, resolution), cloud


def _holder_node_pairs(grid, cloud, seed):
    """The distinct node pairs, smaller index first, of holder's sample pairs:
    separations 0.004 to 0.8 across cloud points."""
    from expmetric.cli import holder_sample_pairs

    pairs = [tuple(sorted((grid.nearest_node(z0)[0], grid.nearest_node(z1)[0])))
             for z0, z1 in holder_sample_pairs(cloud, np.random.default_rng(seed))]
    return [(a, b) for a, b in pairs if a != b]


def _ellipse_nodes(grid, a, b, limit, rho):
    """Node mask of the ellipse that _search_graph takes for the bound rho: the
    nodes v with |v - a| + |v - b| <= limit / (rho h) node spacings (widened
    by a relative 1e-9), tested at every node of the grid."""
    j, i = np.divmod(np.arange(grid.n_cols * grid.n_rows), grid.n_cols)
    ja, ia = divmod(a, grid.n_cols)
    jb, ib = divmod(b, grid.n_cols)
    return (np.sqrt((i - ia) ** 2 + (j - ja) ** 2) + np.sqrt((i - ib) ** 2 + (j - jb) ** 2)
            <= limit / (rho * grid.h) * (1.0 + 1e-9))


@pytest.mark.parametrize("variant", [Variant.RHO, Variant.SIGMA])
@pytest.mark.parametrize("c", [-2, 1j])
def test_weight_bounds_hold_on_each_round_ellipse(variant, c):
    # every edge with both ends in round k's ellipse weighs at least
    # rho_{k+1} times its length, so the next ellipse holds every short path
    grid, cloud = _cloud_grid(variant, c, 128, 0.45)
    coo, per_length = weights_per_length(grid)
    rounds = []
    for a, b in _holder_node_pairs(grid, cloud, 0):
        limit = _path_weight(grid, a, b) * (1.0 + 1e-9)
        rhos = _weight_bounds(grid, a, b, limit)
        assert rhos[0] == grid.rho_min and all(np.diff(rhos) > 0)
        rounds.append(len(rhos) - 1)
        for rho, tighter in zip(rhos, rhos[1:]):
            inside = _ellipse_nodes(grid, a, b, limit, rho)
            assert per_length[inside[coo.row] & inside[coo.col]].min() >= tighter
    assert min(rounds) >= 1 and max(rounds) >= 3


def _runs_past_border(grid, a, b, reach):
    """Whether the ellipse |v - a| + |v - b| <= reach (node spacings) reaches
    outside the grid: its bounding box, from its squared semi-axes."""
    ja, ia = divmod(a, grid.n_cols)
    jb, ib = divmod(b, grid.n_cols)
    major2 = reach * reach / 4.0
    # ex^2 = major2 ux^2 + minor2 uy^2 = major2 - focal^2 uy^2, focal * uy = (jb - ja) / 2
    ex = math.sqrt(major2 - (jb - ja) ** 2 / 4.0)
    ey = math.sqrt(major2 - (ib - ia) ** 2 / 4.0)
    cx, cy = (ia + ib) / 2.0, (ja + jb) / 2.0
    return (cx - ex < 0 or cx + ex > grid.n_cols - 1
            or cy - ey < 0 or cy + ey > grid.n_rows - 1)


@pytest.mark.parametrize("variant", [Variant.RHO, Variant.SIGMA, None])
@pytest.mark.parametrize("c", [-2, 1j])
def test_pair_distance_of_holder_pairs_matches_whole_grid(variant, c):
    # the box leaves 0.45 beside the cloud, so on the singular grids the
    # widest pairs' ellipses, even tightened, run past the grid's border
    grid, cloud = _cloud_grid(variant, c, 128, 0.45)
    pairs = _holder_node_pairs(grid, cloud, 1)
    clipped = 0
    for a, b in pairs:
        limit = _path_weight(grid, a, b) * (1.0 + 1e-9)
        rho = _weight_bounds(grid, a, b, limit)[-1]
        clipped += _runs_past_border(grid, a, b, limit / (rho * grid.h))
    assert clipped >= (0 if variant is None else 5)
    assert_pairs_match_whole_grid(grid, pairs)


@pytest.mark.parametrize("c", [-2, 1j])
def test_largest_holder_pair_searches_half_its_rho_min_ellipse(c):
    # holder's square box around the cloud, 512 columns, seed 0; over seeds
    # 0-2 the ratio runs 0.43-0.45 at c = -2 and 0.47-0.51 at c = i
    cloud = em.build_postcritical_cloud(em.critical_orbit(em.UnicriticalMap(2, c), 50)[0])
    pts = cloud.points
    centre = complex(pts.real.max() + pts.real.min(), pts.imag.max() + pts.imag.min()) / 2.0
    half = max(np.ptp(pts.real), np.ptp(pts.imag)) / 2.0 + 1.0
    grid = em.build_grid(em.SingularMetric(cloud, 2, Variant.RHO),
                         (centre - complex(half, half), centre + complex(half, half)), 512)
    sizes = []
    for a, b in _holder_node_pairs(grid, cloud, 0):
        limit = _path_weight(grid, a, b) * (1.0 + 1e-9)
        before = _ellipse_nodes(grid, a, b, limit, grid.rho_min).sum()
        after = _search_graph(grid, a, b, limit)[0].shape[0] - 1  # less the sink
        # the square round the ellipse is filtered to the ellipse's nodes
        rho = _weight_bounds(grid, a, b, limit)[-1]
        assert after == _ellipse_nodes(grid, a, b, limit, rho).sum()
        sizes.append((before, after))
    before, after = max(sizes)
    assert after <= before / 2


def test_grid_distance_symmetry_exact():
    grid = em.build_grid(cheb_metric(), (complex(-3, -3), complex(3, 3)), 64)
    rng = np.random.default_rng(1)
    for _ in range(10):
        z0 = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        z1 = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        assert em.grid_distance(grid, z0, z1) == em.grid_distance(grid, z1, z0)


def test_grid_distance_triangle_inequality():
    grid = em.build_grid(cheb_metric(), (complex(-3, -3), complex(3, 3)), 64)
    rng = np.random.default_rng(2)
    slack = 4 * grid.h * 10  # snapping at three points, density bounded on samples
    for _ in range(10):
        z = [complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)) for _ in range(3)]
        d01 = em.grid_distance(grid, z[0], z[1])
        d12 = em.grid_distance(grid, z[1], z[2])
        d02 = em.grid_distance(grid, z[0], z[2])
        assert d02 <= d01 + d12 + slack


def test_verify_lower_bound_no_violations():
    grid = em.build_grid(cheb_metric(), (complex(-3, -3), complex(3, 3)), 128)
    rng = np.random.default_rng(3)
    pairs = [
        (complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)),
         complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)))
        for _ in range(100)
    ]
    violations = em.verify_lower_bound(grid, np.array(pairs), *measure(grid, pairs))
    assert violations.shape == (100,)
    assert not violations.any()


def test_verify_lower_bound_degenerate_pair():
    grid = uniform_grid()
    pairs = [(0.5 + 0.5j, 0.5 + 0.5j)]
    assert not em.verify_lower_bound(grid, np.array(pairs), *measure(grid, pairs)).any()


def _log_spaced_pairs(rng, centers, n=60, s_min=0.005, s_max=0.8):
    pairs = []
    scales = np.exp(np.linspace(math.log(s_min), math.log(s_max), n))
    for s in scales:
        c = centers[int(rng.integers(len(centers)))]
        u = np.exp(2j * np.pi * rng.uniform())
        pairs.append((c - 0.5 * s * u, c + 0.5 * s * u))
    return pairs


def _node_aligned_pairs(grid, start, count=60):
    """Horizontal pairs sharing a left endpoint on a grid node: no snapping
    error at either end."""
    _, p0 = grid.nearest_node(start)
    max_k = int(0.99 / grid.h)
    ks = [max(1, int(round(k))) for k in np.exp(
        np.linspace(0, math.log(max_k), count))]
    return [(p0, p0 + k * grid.h) for k in ks]


def test_holder_fit_uniform_metric_exponent_one():
    grid = uniform_grid(res=205, half=0.51)  # h = 0.005
    pairs = _node_aligned_pairs(grid, complex(-0.5, 0))
    fit = em.holder_fit(*measure(grid, pairs))
    assert fit.exponent == pytest.approx(1.0, abs=0.02)
    assert fit.constant == pytest.approx(1.0, rel=0.02)


def test_holder_fit_far_from_cloud_exponent_one():
    grid = em.build_grid(cheb_metric(), (complex(-3, -3), complex(3, 3)), 641)
    # row y = 2.5 keeps every sample at distance > 1 from the cloud {-2, 2}
    pairs = _node_aligned_pairs(grid, complex(-0.5, 2.5))
    fit = em.holder_fit(*measure(grid, pairs))
    assert fit.exponent == pytest.approx(1.0, abs=0.05)


def test_holder_fit_straddling_cloud_in_band():
    from expmetric.cli import holder_sample_pairs

    cloud = em.build_postcritical_cloud(em.critical_orbit(em.UnicriticalMap(2, -2), 50)[0])
    metric = em.SingularMetric(cloud, 2, Variant.RHO)
    grid = em.build_grid(metric, (complex(-2.55, -2.55), complex(2.56, 2.56)), 512)
    rng = np.random.default_rng(6)
    pairs = [(a, b) for a, b in holder_sample_pairs(cloud, rng)
             if grid.contains(a) and grid.contains(b) and 0 < abs(a - b) < 1]
    fit = em.holder_fit(*measure(grid, pairs))
    assert 0.45 <= fit.exponent <= 1.0


def test_holder_fit_usage_errors():
    grid = uniform_grid()
    rng = np.random.default_rng(7)
    few = _log_spaced_pairs(rng, [0 + 0j], n=10)
    with pytest.raises(ValueError):
        em.holder_fit(*measure(grid, few))
    narrow = _log_spaced_pairs(rng, [0 + 0j], n=60, s_min=0.2, s_max=0.8)
    with pytest.raises(ValueError):
        em.holder_fit(*measure(grid, narrow))


def test_holder_fit_rejects_degenerate_exponent():
    with pytest.raises(ValueError):
        HoelderFit(1.5, 1.0, 0.9, 60)
    with pytest.raises(ValueError):
        HoelderFit(-0.1, 1.0, 0.9, 60)


def test_refinement_changes_distances_mildly():
    metric = cheb_metric()
    bbox = (complex(-3, -3), complex(3, 3))
    coarse = em.build_grid(metric, bbox, 128)
    fine = em.build_grid(metric, bbox, 256)
    rng = np.random.default_rng(8)
    for _ in range(15):
        z0 = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        z1 = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        if abs(z0 - z1) < 0.2:
            continue
        dc = em.grid_distance(coarse, z0, z1)
        df = em.grid_distance(fine, z0, z1)
        assert abs(dc - df) <= 0.15 * max(dc, df)


def test_uniform_upper_constant_finite_and_covering():
    grid = em.build_grid(cheb_metric(), bbox=(complex(-3, -3), complex(3, 3)),
                         resolution=128)
    rng = np.random.default_rng(9)
    pairs = _log_spaced_pairs(rng, [-2 + 0j, 2 + 0j])
    seps, dists = measure(grid, pairs)
    c = em.uniform_upper_constant(seps, dists, alpha=0.5)
    assert math.isfinite(c) and c > 0
    for s, d in zip(seps, dists):
        assert d <= c * s ** 0.5 + 1e-12
