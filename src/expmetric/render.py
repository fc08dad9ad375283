"""Raster renders: escape time, metric-density heatmaps, distance-to-cloud,
with optional external-ray overlays, written as binary P6 pixmaps."""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Tuple

import numpy as np

from .dynamics import PostcriticalCloud, UnicriticalMap
from .metrics import SingularMetric

MAX_PIXELS_PER_SIDE = 16384
# Iterates after which a pixel counts as bounded in the escape-time layer.
ESCAPE_MAX_ITER = 128
# Pixels each field and pixmap pass works on at once, in whole rows: at 1024
# columns a block of complex pixel centres is 512 KiB, small enough to stay in
# cache, where whole-image temporaries set the render's peak memory.
RENDER_BLOCK_PIXELS = 1 << 15

LAYERS = ("escape-time", "density-rho", "density-sigma", "distance-to-P")


@dataclass(frozen=True)
class RenderSpec:
    bbox: Tuple[complex, complex]
    width: int
    height: int
    layer: str = "escape-time"
    ray_angles: List[float] = field(default_factory=list)

    def __post_init__(self):
        if self.width > MAX_PIXELS_PER_SIDE or self.height > MAX_PIXELS_PER_SIDE:
            raise ValueError("pixel dimensions exceed the 16384 per-side limit")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"pixel dimensions must be at least 1, got "
                             f"{self.width}x{self.height}")
        if self.layer not in LAYERS:
            raise ValueError(f"unknown layer {self.layer!r}; choose from {LAYERS}")
        lo, hi = self.bbox
        if not (cmath.isfinite(lo) and cmath.isfinite(hi)
                and lo.real < hi.real and lo.imag < hi.imag):
            raise ValueError("bbox needs finite corners with XMIN < XMAX and YMIN < YMAX, "
                             f"got {lo.real!r} {hi.real!r} {lo.imag!r} {hi.imag!r}")
        span = hi - lo
        if not cmath.isfinite(span):  # the pixel centres would be NaN
            raise ValueError("bbox width and height must be finite, "
                             f"got {span.real!r} x {span.imag!r}")


def _pixel_grid(spec: RenderSpec, rows: slice = slice(None)) -> np.ndarray:
    """Pixel centres of the given rows; the top row has the largest imaginary part."""
    lo, hi = spec.bbox
    xs = np.linspace(lo.real, hi.real, spec.width)
    ys = np.linspace(hi.imag, lo.imag, spec.height)[rows]
    return xs + 1j * ys[:, None]


def _row_blocks(height: int, width: int):
    """Slices of whole rows holding at most ``RENDER_BLOCK_PIXELS`` pixels,
    one row when a row alone holds more."""
    step = max(1, RENDER_BLOCK_PIXELS // width)
    for start in range(0, height, step):
        yield slice(start, min(start + step, height))


def _fill_field(spec: RenderSpec, values) -> np.ndarray:
    """The (height, width) field of ``values`` at the pixel centres, which
    maps a flat array of points to one value each, one row block at a time."""
    out = np.empty((spec.height, spec.width))
    for rows in _row_blocks(spec.height, spec.width):
        z = _pixel_grid(spec, rows)
        out[rows] = values(z.ravel()).reshape(z.shape)
    return out


def escape_time_field(fmap: UnicriticalMap, spec: RenderSpec) -> np.ndarray:
    """Per pixel, the k at which |f^(k+1)(z)| first exceeds the escape
    radius, or ESCAPE_MAX_ITER; only the pixels still bounded are iterated.
    An iterate that overflows, to inf or to NaN, has escaped, without a
    warning."""
    r_esc = fmap.escape_radius()

    def counts(w):
        out = np.full(w.size, ESCAPE_MAX_ITER, dtype=float)
        idx = np.arange(w.size)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(ESCAPE_MAX_ITER):
                w = w ** fmap.d + fmap.c
                bounded = np.abs(w) <= r_esc  # False past it, at inf and at NaN
                out[idx[~bounded]] = k
                idx, w = idx[bounded], w[bounded]
                if not idx.size:
                    break
        return out

    return _fill_field(spec, counts)


def density_field(metric: SingularMetric, spec: RenderSpec) -> np.ndarray:
    """log(1 + density) at each pixel centre: the log scale saturates P(f)."""
    return _fill_field(spec, lambda z: np.log1p(metric.density_array(z)))


def distance_field(cloud: PostcriticalCloud, spec: RenderSpec) -> np.ndarray:
    return _fill_field(spec, cloud.dist_many)


def to_rgb(field: np.ndarray) -> np.ndarray:
    """Grayscale-to-heat mapping; non-finite pixels take the top colour.

    Two passes over row blocks of the field: the first finds the least and
    greatest finite value, the second writes the pixmap, so no full-size
    float temporary is made."""
    height, width = field.shape
    lo, hi = math.inf, -math.inf
    for rows in _row_blocks(height, width):
        f = field[rows][np.isfinite(field[rows])]
        if f.size:
            lo, hi = min(lo, f.min()), max(hi, f.max())
    if lo > hi:  # no finite value: every pixel takes 1.0 below
        lo = hi = 0.0
    span = hi - lo if hi > lo else 1.0
    rgb = np.empty((height, width, 3), dtype=np.uint8)
    for rows in _row_blocks(height, width):
        f = field[rows]
        norm = np.where(np.isfinite(f), (f - lo) / span, 1.0)
        v = (norm * 255).astype(np.uint8)
        rgb[rows, :, 0] = v
        rgb[rows, :, 1] = (v * 0.6).astype(np.uint8)
        rgb[rows, :, 2] = 255 - v
    return rgb


def overlay_polyline(rgb: np.ndarray, spec: RenderSpec, polyline) -> None:
    """Mark the pixels nearest each densified polyline point in white."""
    lo, hi = spec.bbox
    pts = np.array(polyline)
    dense = []
    for a, b in zip(pts[:-1], pts[1:]):
        n = max(2, int(abs(b - a) / (hi.real - lo.real) * spec.width * 2))
        dense.append(a + (b - a) * np.linspace(0, 1, n))
    z = np.concatenate(dense) if dense else pts
    i = np.rint((z.real - lo.real) / (hi.real - lo.real) * (spec.width - 1)).astype(int)
    j = np.rint((hi.imag - z.imag) / (hi.imag - lo.imag) * (spec.height - 1)).astype(int)
    on = (0 <= i) & (i < spec.width) & (0 <= j) & (j < spec.height)
    rgb[j[on], i[on]] = 255


@contextmanager
def replacing(path: Path) -> Iterator[Path]:
    """``<path>.tmp`` for the block to write, renamed onto ``path`` when the
    block ends; a failed write or rename removes it and re-raises."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        yield tmp
        tmp.replace(path)
    except BaseException:
        with suppress(OSError):  # the first error is the one to report
            tmp.unlink(missing_ok=True)
        raise


def write_ppm(path: Path, rgb: np.ndarray) -> None:
    h, w, _ = rgb.shape
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(rgb, dtype=np.uint8).data)  # no copy of a pixmap
