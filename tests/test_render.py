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
    density_field,
    distance_field,
    escape_time_field,
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
@pytest.mark.parametrize("fill", ["mixed", "constant", "none-finite"])
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
