"""Row-blocked render fields and pixmaps against the whole-array computation."""

import math
import tracemalloc

import numpy as np
import pytest

import expmetric as em
from expmetric import cli
from expmetric.metrics import SingularMetric, Variant
from expmetric.render import (
    ESCAPE_MAX_ITER,
    RENDER_BLOCK_PIXELS,
    RenderSpec,
    _clip_to_box,
    _unit_steps,
    density_field,
    distance_field,
    escape_time_field,
    overlay_polyline,
    to_rgb,
)


# The whole-array forms: every pixel at once, with full-size temporaries.

def whole_pixel_grid(spec):
    lo, hi = spec.bbox
    xs = np.linspace(lo.real, hi.real, spec.width)
    ys = np.linspace(hi.imag, lo.imag, spec.height)
    X, Y = np.meshgrid(xs, ys)
    return X + 1j * Y


def whole_escape_time_field(fmap, spec):
    Z = whole_pixel_grid(spec)
    counts = np.full(Z.size, ESCAPE_MAX_ITER, dtype=float)
    idx = np.arange(Z.size)
    w = Z.ravel()
    r_esc = fmap.escape_radius()
    for k in range(ESCAPE_MAX_ITER):
        w = w ** fmap.d + fmap.c
        escaped = ~(np.abs(w) <= r_esc)  # past it, inf or NaN
        counts[idx[escaped]] = k
        idx, w = idx[~escaped], w[~escaped]
        if not idx.size:
            break
    return counts.reshape(Z.shape)


def whole_to_rgb(field):
    f = field.astype(float)
    finite = np.isfinite(f)
    if finite.any():
        lo, hi = f[finite].min(), f[finite].max()
        span = hi - lo if hi > lo else 1.0
        norm = np.where(finite, (f - lo) / span, 1.0)
    else:
        norm = np.ones_like(f)
    v = (norm * 255).astype(np.uint8)
    return np.stack([v, (v * 0.6).astype(np.uint8), 255 - v], axis=-1)


def whole_field(layer, fmap, spec):
    if layer == "escape-time":
        return whole_escape_time_field(fmap, spec)
    cloud = em.build_postcritical_cloud(em.critical_orbit(fmap, 2000)[0])
    if layer == "distance-to-P":
        return cloud.dist_many(whole_pixel_grid(spec).ravel()).reshape(spec.height, spec.width)
    variant = Variant.RHO if layer == "density-rho" else Variant.SIGMA
    metric = SingularMetric(cloud, fmap.d, variant)
    density = metric.density_array(whole_pixel_grid(spec).ravel())
    return np.log1p(density).reshape(spec.height, spec.width)


def blocked_field(layer, fmap, spec):
    if layer == "escape-time":
        return escape_time_field(fmap, spec)
    cloud = em.build_postcritical_cloud(em.critical_orbit(fmap, 2000)[0])
    if layer == "distance-to-P":
        return distance_field(cloud, spec)
    variant = Variant.RHO if layer == "density-rho" else Variant.SIGMA
    return density_field(SingularMetric(cloud, fmap.d, variant), spec)


BBOX = (-2.5 - 2.5j, 2.5 + 2.5j)


# 16384 x 3 puts two rows in a block and one in the last; c = 1/4 keeps 2000
# cloud points, so its distances come from the KD-tree, block by block
@pytest.mark.parametrize("layer", ["escape-time", "density-rho", "density-sigma",
                                   "distance-to-P"])
@pytest.mark.parametrize("width, height", [(1, 1), (300, 170), (333, 777), (16384, 3)],
                         ids=["1x1", "300x170", "333x777", "16384x3"])
@pytest.mark.parametrize("d, c", [(2, -2 + 0j), (2, 0.25 + 0j), (3, 0.2j)],
                         ids=["c=-2", "c=1/4", "d=3"])
def test_blocked_render_equals_whole_array(layer, width, height, d, c):
    fmap = em.UnicriticalMap(d, c)
    spec = RenderSpec(BBOX, width, height, layer)
    want = whole_field(layer, fmap, spec)
    got = blocked_field(layer, fmap, spec)
    assert np.array_equal(got, want)
    assert np.array_equal(to_rgb(got), whole_to_rgb(want))


def test_escape_time_counts_an_overflowing_iterate_as_escaped(tmp_path, capfd):
    # z^3 of a pixel 5e199 or more from 0 overflows to inf or to NaN (inf - inf
    # in a part): it has escaped at k = 0; the centre pixel 0 -> -2 -> -10 at k = 1
    spec = RenderSpec((-1e200 - 1e200j, 1e200 + 1e200j), 5, 5)
    want = np.zeros((5, 5))
    want[2, 2] = 1
    assert np.array_equal(escape_time_field(em.UnicriticalMap(3, -2), spec), want)
    # and NumPy warns of none of it
    assert cli.main(["render", "--layer", "escape-time", "--d", "3", "--width", "5",
                     "--height", "5", "--bbox", "-1e200", "1e200", "-1e200", "1e200",
                     "--out", str(tmp_path)]) == 0
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("logged", [False, True], ids=["linear", "log"])
@pytest.mark.parametrize("fill", ["mixed", "constant", "none-finite", "minus-inf"])
def test_blocked_to_rgb_equals_whole_array(fill, logged):
    # 3 blocks of 32 rows of 997 columns and a short last block of 5 rows
    rng = np.random.default_rng(5)
    field = rng.lognormal(size=(3 * (RENDER_BLOCK_PIXELS // 997) + 5, 997))
    if fill == "constant":
        field[:] = 2.0
    field.flat[::7] = math.inf
    field.flat[3::11] = math.nan
    if fill == "none-finite":
        field[np.isfinite(field)] = math.inf
    if logged:  # as density_field logs a density, with +inf where it is singular
        field = np.log1p(field)
    if fill == "minus-inf":
        field.flat[5::13] = -math.inf
    assert np.array_equal(to_rgb(field), whole_to_rgb(field))


@pytest.mark.parametrize("layer", ["escape-time", "density-rho"])
def test_render_peak_memory(tmp_path, layer):
    # the 1024 x 1024 renders of the benchmark: the float field (8 MiB) and the
    # pixmap (3 MiB) are the only full-size arrays; whole-image temporaries
    # and a copy of the pixmap for writing took the peak to 50-61 MB
    config = cli.ExperimentConfig(out_dir=tmp_path)
    spec = RenderSpec(BBOX, 1024, 1024, layer)
    cli.cmd_render(config, RenderSpec(BBOX, 8, 8, layer))  # imports and caches first
    tracemalloc.start()
    try:
        cli.cmd_render(config, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6


def test_heat_map_green_is_six_tenths_of_red_for_every_value():
    # the field spans [0, 1] finely enough that red takes each of its 256 values
    rgb = to_rgb(np.linspace(0.0, 1.0, 100_000).reshape(100, 1000))
    red, green, blue = (rgb[..., k].ravel() for k in range(3))
    assert np.array_equal(np.unique(red), np.arange(256))
    assert np.array_equal(green, (red * 0.6).astype(np.uint8))
    assert np.array_equal(blue, 255 - red)


def test_unit_steps_are_each_counts_linspace():
    rng = np.random.default_rng(3)
    counts = np.concatenate([[2, 3, 2], rng.integers(2, 5000, 200)])
    t, seg = _unit_steps(counts)
    want = [np.linspace(0, 1, n) for n in counts]
    assert np.array_equal(t, np.concatenate(want))
    assert np.array_equal(seg, np.repeat(np.arange(len(counts)), counts))


def per_segment_overlay(rgb, spec, polyline):
    """The overlay with one np.linspace a segment: the form whose pixels the
    one-pass densification keeps."""
    lo, hi = spec.bbox
    width, height = hi.real - lo.real, hi.imag - lo.imag
    extent, pixels = width, spec.width
    if height / spec.height < width / spec.width:
        extent, pixels = height, spec.height

    def points(a, b):
        return abs(b - a) / extent * pixels * 2

    most = 2 * math.hypot(spec.width + 2, spec.height + 2)
    pad = complex(width / spec.width, height / spec.height)
    pts = np.array(polyline)
    dense = []
    for a, b in zip(pts[:-1], pts[1:]):
        n = points(a, b)
        if n > most:
            inside = _clip_to_box(a, b, lo - pad, hi + pad)
            if inside is None:
                continue
            a, b = a + (b - a) * inside[0], a + (b - a) * inside[1]
            n = min(points(a, b), most)
        dense.append(a + (b - a) * np.linspace(0, 1, max(2, int(n))))
    z = np.concatenate(dense) if dense else pts
    i = np.rint((z.real - lo.real) / width * (spec.width - 1))
    j = np.rint((hi.imag - z.imag) / height * (spec.height - 1))
    on = (0 <= i) & (i < spec.width) & (0 <= j) & (j < spec.height)
    rgb[j[on].astype(int), i[on].astype(int)] = 255


@pytest.mark.parametrize("seed", range(8))
def test_overlay_equals_per_segment_linspace(seed):
    # random boxes, some zoomed or thin, and polylines whose points lie from a
    # hundredth of the box to 10^6 boxes from its centre: many segments are
    # clipped, and some miss the box
    rng = np.random.default_rng(seed)
    centre = complex(*rng.uniform(-2, 2, 2))
    half = complex(*10.0 ** rng.uniform(-4, 1, 2))
    spec = RenderSpec((centre - half, centre + half), *rng.integers(1, 200, 2))
    turns = np.exp(2j * math.pi * rng.random(60))
    polyline = centre + abs(half) * 10.0 ** rng.uniform(-2, 6, 60) * turns
    want = np.zeros((spec.height, spec.width, 3), dtype=np.uint8)
    got = want.copy()
    per_segment_overlay(want, spec, polyline)
    overlay_polyline(got, spec, polyline)
    assert np.array_equal(got, want)
    # a polyline of one point marks its pixel, with no segment to densify
    per_segment_overlay(want, spec, [centre])
    overlay_polyline(got, spec, [centre])
    assert np.array_equal(got, want)


def unclipped_overlay(rgb, spec, polyline):
    """The overlay before segments were clipped: every segment densified at
    two points a pixel of box width over its whole length."""
    lo, hi = spec.bbox
    pts = np.array(polyline)
    dense = [a + (b - a) * np.linspace(0, 1, max(2, int(abs(b - a) / (hi.real - lo.real)
                                                        * spec.width * 2)))
             for a, b in zip(pts[:-1], pts[1:])]
    z = np.concatenate(dense) if dense else pts
    i = np.rint((z.real - lo.real) / (hi.real - lo.real) * (spec.width - 1)).astype(int)
    j = np.rint((hi.imag - z.imag) / (hi.imag - lo.imag) * (spec.height - 1)).astype(int)
    on = (0 <= i) & (i < spec.width) & (0 <= j) & (j < spec.height)
    rgb[j[on], i[on]] = 255


@pytest.mark.parametrize("c", [-2 + 0j, 1j], ids=["c=-2", "c=i"])
@pytest.mark.parametrize("bbox, size", [(BBOX, 1024), ((-0.4 - 0.9j, 0.1 + 0.6j), 200)],
                         ids=["bench-box", "part-box"])
def test_overlay_unchanged_where_no_segment_is_clipped(c, bbox, size):
    # no segment of these rays is longer than the box diagonal, so none is clipped
    spec = RenderSpec(bbox, size, size)
    want = np.zeros((size, size, 3), dtype=np.uint8)
    got = want.copy()
    for polyline in em.trace_rays(em.UnicriticalMap(2, c), [k / 48 for k in range(48)], 50)[0]:
        unclipped_overlay(want, spec, polyline)
        overlay_polyline(got, spec, polyline)
    assert want.any() and np.array_equal(got, want)


def test_overlay_clips_long_segments_and_drops_misses():
    # segments 1e12 box widths long, each 10^14 points unclipped
    spec = RenderSpec((-1 - 1j, 1 + 1j), 32, 32)

    def white(polyline):
        rgb = np.zeros((32, 32, 3), dtype=np.uint8)
        overlay_polyline(rgb, spec, polyline)
        return np.all(rgb == 255, axis=-1)

    assert np.array_equal(white([-1e12 - 1e12j, 1e12 + 1e12j]), np.eye(32, dtype=bool)[::-1])
    # a third of a pixel above the box, a line rounds onto the top row, as
    # its unclipped points did; well beside the box it marks nothing
    top = np.zeros((32, 32), dtype=bool)
    top[0] = True
    assert np.array_equal(white([-1e12 + 1.02j, 1e12 + 1.02j]), top)
    assert not white([-1e12 + 2j, 1e12 + 2j]).any()


@pytest.mark.parametrize("xmin, xmax", [("-1e-9", "1e-9"), ("0", "1e-300"), ("0", "5e-324")],
                         ids=["1e-9", "1e-300", "subnormal"])
def test_overlay_on_a_thin_box_counts_pixels_along_each_axis(tmp_path, capfd, xmin, xmax):
    # a pixel of this box is up to 10^323 times taller than it is wide: counted
    # in pixels of box width, the ray's segments took 10^10 points or more
    assert cli.main(["render", "--c-re", "-2", "--bbox", xmin, xmax, "-2", "2",
                     "--width", "8", "--height", "8", "--rays", "0.25", "--depth", "10",
                     "--out", str(tmp_path)]) == 0
    assert capfd.readouterr().err == ""
    if xmin == "-1e-9":
        # the 1/4-ray at c = -2 is 2i sinh(g) for g from 1 down to 2^-10: the
        # centre column, from above the box down to the row of 0.002i
        pixels = (tmp_path / "render.ppm").read_bytes()[-8 * 8 * 3:]
        white = np.all(np.frombuffer(pixels, dtype=np.uint8).reshape(8, 8, 3) == 255, axis=-1)
        want = np.zeros((8, 8), dtype=bool)
        want[:4, 4] = True
        assert np.array_equal(white, want)


@pytest.mark.parametrize("ymin, ymax", [(-1e-9, 1e-9), (-0.5, 0.5)], ids=["1e-9", "0.5"])
def test_overlay_marks_every_row_where_pixels_are_wider_than_tall(ymin, ymax):
    # a vertical segment across a wide, flat box: counted in pixels of box
    # width, its points fell 0 of 8 rows apart (1e-9) or every other row (0.5)
    spec = RenderSpec((complex(-2, ymin), complex(2, ymax)), 8, 8)
    rgb = np.zeros((8, 8, 3), dtype=np.uint8)
    overlay_polyline(rgb, spec, [-1j, 1j])
    want = np.zeros((8, 8), dtype=bool)
    want[:, 4] = True  # x = 0 rounds to column 4 of 0..7
    assert np.array_equal(np.all(rgb == 255, axis=-1), want)


# P(f) of the two parameters; both critical orbits are exact in floating point
# (0 -> -2 -> 2 -> 2 and 0 -> i -> -1+i -> -i -> -1+i).
POSTCRITICAL = {-2 + 0j: (-2 + 0j, 2 + 0j), 1j: (1j, -1 + 1j, -1j)}


def plain_escape_counts(z, c):
    """Iterations of w*w + c, one point at a time, before |w| exceeds
    max(2, |c|) + 1; ESCAPE_MAX_ITER if it never does."""
    def count(w):
        for k in range(ESCAPE_MAX_ITER):
            w = w * w + c
            if abs(w) > max(2.0, abs(c)) + 1.0:
                return k
        return ESCAPE_MAX_ITER
    return np.array([[count(w) for w in row] for row in z.tolist()], dtype=float)


def exact_log_density(z, c):
    """log(1 + rho) with rho = 1 + dist(z, P)^(-1/2) over the exact P(f)."""
    dist = np.min([np.abs(z - p) for p in POSTCRITICAL[c]], axis=0)
    return np.log1p(1.0 + dist**-0.5)


@pytest.mark.parametrize("rays", ["2,24,26", "4,8,36"])
@pytest.mark.parametrize("layer", ["escape-time", "density-rho"])
@pytest.mark.parametrize("c", [-2 + 0j, 1j], ids=["c=-2", "c=i"])
def test_render_matches_an_independent_heat_map(tmp_path, c, layer, rays):
    # the benchmark's renders, smaller: three of the rays k/48 (those its
    # seeds 0 and 1 draw) over the default box, every pixel not white checked
    # against the field recomputed apart from the package, exactly for the
    # escape time and within one level for the density; at 96x96 the
    # overlay already covers more than 1 % of the pixels
    size = 257
    angles = ",".join(repr(int(k) / 48) for k in rays.split(","))
    assert cli.main(["render", "--c-re", repr(c.real), "--c-im", repr(c.imag),
                     "--layer", layer, "--width", str(size), "--height", str(size),
                     "--depth", "50", "--rays", angles, "--out", str(tmp_path)]) == 0
    header, pixels = (tmp_path / "render.ppm").read_bytes().split(b"\n255\n", 1)
    assert header == f"P6\n{size} {size}".encode()
    got = np.frombuffer(pixels, dtype=np.uint8).reshape(size, size, 3).astype(int)
    xs = np.linspace(-2.5, 2.5, size)
    z = xs + 1j * xs[::-1, None]
    field, tol = ((plain_escape_counts, 0) if layer == "escape-time"
                  else (exact_log_density, 1))
    values = field(z, c)
    want = ((values - values.min()) / (values.max() - values.min()) * 255).astype(int)
    heat = ~np.all(got == 255, axis=-1)  # white pixels are the ray overlay
    red = got[..., 0][heat]
    assert np.abs(red - want[heat]).max() <= tol
    assert np.array_equal(got[..., 1][heat], (red * 0.6).astype(int))
    assert np.array_equal(got[..., 2][heat], 255 - red)
    assert 0 < heat.size - np.count_nonzero(heat) <= 0.01 * heat.size
