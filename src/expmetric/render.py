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
# columns a block of complex escape iterates is 512 KiB, small enough to stay
# in cache, where whole-image temporaries set the render's peak memory.
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


def _pixel_axes(spec: RenderSpec) -> Tuple[np.ndarray, np.ndarray]:
    """The real parts of the pixel centres, column by column, and their
    imaginary parts, row by row: pixel (r, c) is ``xs[c] + 1j * ys[r]``, and
    the top row has the largest imaginary part."""
    lo, hi = spec.bbox
    return (np.linspace(lo.real, hi.real, spec.width),
            np.linspace(hi.imag, lo.imag, spec.height))


def _row_blocks(height: int, width: int):
    """Slices of whole rows holding at most ``RENDER_BLOCK_PIXELS`` pixels,
    one row when a row alone holds more."""
    step = max(1, RENDER_BLOCK_PIXELS // width)
    for start in range(0, height, step):
        yield slice(start, min(start + step, height))


def _fill_field(spec: RenderSpec, values) -> np.ndarray:
    """The (height, width) field of ``values`` at the pixel centres, one row
    block at a time: ``values(xs, ys)`` maps the real parts of a row and a
    column of the block's imaginary parts to the block's values."""
    xs, ys = _pixel_axes(spec)
    out = np.empty((spec.height, spec.width))
    for rows in _row_blocks(spec.height, spec.width):
        out[rows] = values(xs, ys[rows, None])
    return out


def escape_time_field(fmap: UnicriticalMap, spec: RenderSpec) -> np.ndarray:
    """Per pixel, the k at which |f^(k+1)(z)| first exceeds the escape
    radius, or ESCAPE_MAX_ITER; only the pixels still bounded are iterated.
    An iterate that overflows, to inf or to NaN, has escaped, without a
    warning."""
    r_esc = fmap.escape_radius()

    def counts(xs, ys):
        z = xs + 1j * ys
        w = z.ravel()
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
        return out.reshape(z.shape)

    return _fill_field(spec, counts)


def density_field(metric: SingularMetric, spec: RenderSpec) -> np.ndarray:
    """log(1 + density) at each pixel centre: the log scale saturates P(f)."""
    return _fill_field(spec, lambda xs, ys: np.log1p(
        metric.density_of_distance(metric.cloud.dist_xy(xs, ys))))


def distance_field(cloud: PostcriticalCloud, spec: RenderSpec) -> np.ndarray:
    return _fill_field(spec, cloud.dist_xy)


def to_rgb(field: np.ndarray) -> np.ndarray:
    """Grayscale-to-heat mapping; non-finite pixels take the top colour.

    Two passes over row blocks of the field: the first finds the least and
    greatest finite value, the second writes the pixmap a channel at a time,
    so no full-size temporary is made.  A block that is all finite is read
    without a mask.  Red is v = 255 (f - lo) / (hi - lo), truncated, green
    the truncated 0.6 v and blue 255 - v."""
    height, width = field.shape
    lo, hi = math.inf, -math.inf
    for rows in _row_blocks(height, width):
        f = field[rows]
        finite = np.isfinite(f)
        if not finite.all():
            f = f[finite]
        if f.size:
            lo, hi = min(lo, f.min()), max(hi, f.max())
    if lo > hi:  # no finite value: every pixel takes the top colour below
        lo = hi = 0.0
    span = hi - lo if hi > lo else 1.0
    rgb = np.empty((height, width, 3), dtype=np.uint8)
    for rows in _row_blocks(height, width):
        f = field[rows]
        v = f - lo
        v /= span
        v *= 255
        finite = np.isfinite(f)
        if not finite.all():
            v[~finite] = 255.0
        red = rgb[rows, :, 0]
        red[...] = v  # truncated, as astype(np.uint8) truncates
        rgb[rows, :, 1] = (red * 0.6).astype(np.uint8)
        np.subtract(255, red, out=rgb[rows, :, 2])
    return rgb


# a box a few subnormals wide puts counts and pixel indices past the float
# range; an infinite count is capped and an infinite index is off the box
@np.errstate(over="ignore")
def overlay_polyline(rgb: np.ndarray, spec: RenderSpec, polyline) -> None:
    """Mark the pixels nearest each densified polyline point in white.

    A segment takes two points a pixel along it, counted in pixels along the
    axis whose pixels are smaller (width on a tie), so that it leaves no gap
    along either axis.  One that would take more than two points a pixel
    along the diagonal of the box widened by a pixel on each side, that
    diagonal measured in pixels along each axis, is first clipped to the
    widened box, dropped if it misses it, and takes at most that many
    points: in a zoomed box a segment of the ray can be 10^12 box widths
    long, and a pixel of a thin box is far taller than it is wide."""
    lo, hi = spec.bbox
    width, height = hi.real - lo.real, hi.imag - lo.imag
    extent, pixels = width, spec.width
    if height / spec.height < width / spec.width:
        extent, pixels = height, spec.height

    def points(a, b) -> float:
        return abs(b - a) / extent * pixels * 2

    most = 2 * math.hypot(spec.width + 2, spec.height + 2)
    pad = complex(width / spec.width, height / spec.height)
    pts = np.array(polyline)
    starts, ends, counts = [], [], []
    for a, b in zip(pts[:-1], pts[1:]):
        n = points(a, b)
        if n > most:
            inside = _clip_to_box(a, b, lo - pad, hi + pad)
            if inside is None:
                continue
            a, b = a + (b - a) * inside[0], a + (b - a) * inside[1]
            n = min(points(a, b), most)
        starts.append(a)
        ends.append(b)
        counts.append(max(2, int(n)))
    if counts:
        t, seg = _unit_steps(np.array(counts))
        start = np.array(starts)[seg]
        z = start + (np.array(ends)[seg] - start) * t
    else:
        z = pts
    i = np.rint((z.real - lo.real) / width * (spec.width - 1))
    j = np.rint((hi.imag - z.imag) / height * (spec.height - 1))
    # tested as floats: a point far off the box has no integer pixel index
    on = (0 <= i) & (i < spec.width) & (0 <= j) & (j < spec.height)
    rgb[j[on].astype(int), i[on].astype(int)] = 255


def _unit_steps(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.linspace(0, 1, n)`` for each n of ``counts`` (each at least 2),
    end to end, bit for bit, and the index of the count each value belongs
    to: the j-th value of a run is j * (1 / (n - 1)) and its last is 1.0, as
    NumPy's linspace makes them."""
    seg = np.repeat(np.arange(len(counts)), counts)
    last = np.cumsum(counts) - 1
    t = np.arange(len(seg)) - (last - (counts - 1))[seg]
    t = t * (1.0 / (counts - 1))[seg]
    t[last] = 1.0
    return t, seg


def _clip_to_box(a: complex, b: complex, lo: complex, hi: complex):
    """The parameters (t0, t1) of the part of a + (b - a) t, 0 <= t <= 1,
    inside the box from ``lo`` to ``hi``, or None if the segment misses it
    (the Liang-Barsky clip)."""
    t0, t1 = 0.0, 1.0
    for step, low, high in ((b.real - a.real, lo.real - a.real, hi.real - a.real),
                            (b.imag - a.imag, lo.imag - a.imag, hi.imag - a.imag)):
        if step == 0.0:
            if not low <= 0.0 <= high:
                return None
            continue
        enter, leave = sorted((low / step, high / step))
        t0, t1 = max(t0, enter), min(t1, leave)
    return (t0, t1) if t0 <= t1 else None


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
