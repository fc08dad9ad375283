"""Raster renders: escape time, metric-density heatmaps, distance-to-cloud,
with optional external-ray overlays, written as binary P6 pixmaps."""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Tuple

import numpy as np

from .dynamics import UnicriticalMap
from .metrics import SingularMetric

MAX_PIXELS_PER_SIDE = 16384
# Iterates after which a pixel counts as bounded in the escape-time layer.
ESCAPE_MAX_ITER = 128

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


def _pixel_grid(spec: RenderSpec) -> np.ndarray:
    lo, hi = spec.bbox
    xs = np.linspace(lo.real, hi.real, spec.width)
    ys = np.linspace(hi.imag, lo.imag, spec.height)  # top row = max imag
    X, Y = np.meshgrid(xs, ys)
    return X + 1j * Y


def escape_time_field(fmap: UnicriticalMap, spec: RenderSpec) -> np.ndarray:
    """Per pixel, the k at which |f^(k+1)(z)| first exceeds the escape
    radius, or ESCAPE_MAX_ITER; only the pixels still bounded are iterated."""
    Z = _pixel_grid(spec)
    counts = np.full(Z.size, ESCAPE_MAX_ITER, dtype=float)
    idx = np.arange(Z.size)
    w = Z.ravel()
    r_esc = fmap.escape_radius()
    for k in range(ESCAPE_MAX_ITER):
        w = w ** fmap.d + fmap.c
        escaped = np.abs(w) > r_esc
        counts[idx[escaped]] = k
        idx, w = idx[~escaped], w[~escaped]
        if not idx.size:
            break
    return counts.reshape(Z.shape)


def density_field(metric: SingularMetric, spec: RenderSpec) -> np.ndarray:
    Z = _pixel_grid(spec)
    return metric.density_array(Z.ravel()).reshape(Z.shape)


def distance_field(metric: SingularMetric, spec: RenderSpec) -> np.ndarray:
    Z = _pixel_grid(spec)
    return metric.cloud.dist_many(Z.ravel()).reshape(Z.shape)


def to_rgb(field: np.ndarray, log_scale: bool = False) -> np.ndarray:
    """Grayscale-to-heat mapping; log scaling saturates the singular set."""
    f = field.astype(float)
    finite = np.isfinite(f)
    if log_scale:
        f = np.where(finite, np.log1p(np.abs(f)), np.nan)
        finite = np.isfinite(f)
    if finite.any():
        lo, hi = f[finite].min(), f[finite].max()
        span = hi - lo if hi > lo else 1.0
        norm = np.where(finite, (f - lo) / span, 1.0)
    else:
        norm = np.ones_like(f)
    v = (norm * 255).astype(np.uint8)
    rgb = np.stack([v, (v * 0.6).astype(np.uint8), 255 - v], axis=-1)
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


def write_ppm(path: Path, rgb: np.ndarray) -> None:
    h, w, _ = rgb.shape
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.astype(np.uint8).tobytes())
    tmp.replace(path)
