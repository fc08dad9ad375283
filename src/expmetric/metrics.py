"""Closed-form metric densities and distortion bounds.

Singular densities over a postcritical cloud, the orbifold/hyperbolic
comparison function F_d, hyperbolic and orbifold disk densities, and Koebe
distortion bounds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import PostcriticalCloud


class Variant(enum.Enum):
    SIGMA = "sigma"  # dist^(-alpha)
    RHO = "rho"      # 1 + dist^(-alpha)


@dataclass(frozen=True)
class SingularMetric:
    """Density rho(z) = 1 + dist(z, P)^(-alpha) or sigma(z) = dist(z, P)^(-alpha)
    over a finite postcritical cloud, with alpha = 1 - 1/d."""

    cloud: PostcriticalCloud
    d: int
    variant: Variant = Variant.RHO

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"degree must be >= 2, got {self.d}")

    @property
    def alpha(self) -> float:
        return 1.0 - 1.0 / self.d

    def density(self, z: complex) -> float:
        """Metric density at z, the one-point case of ``density_array``; +inf
        on the cloud itself."""
        return float(self.density_array(np.array([complex(z)]))[0])

    def density_array(self, zs: np.ndarray, dist_floor: float = 0.0) -> np.ndarray:
        """Density at each point of ``zs``, with distances capped below by
        ``dist_floor``; +inf on the cloud itself."""
        dist = self.cloud.dist_many(zs)
        if dist_floor > 0.0:
            dist = np.maximum(dist, dist_floor)
        return self.density_of_distance(dist)

    def density_of_distance(self, dist):
        """Density at distance ``dist`` from the cloud, decreasing in it; +inf
        at distance 0."""
        with np.errstate(divide="ignore"):
            sing = np.power(dist, -self.alpha)
        return 1.0 + sing if self.variant is Variant.RHO else sing


def series_F_times_power(d: int, t: float) -> float:
    """F_d(t) * t^(1-1/d) as the finite geometric sum
    (1 + t^(2/d) + ... + t^((2d-2)/d)) / d, stable on all of [0, 1)."""
    if d < 2:
        raise ValueError("degree must be >= 2")
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must lie in [0, 1), got {t}")
    if t == 0.0:
        return 1.0 / d
    u = t ** (2.0 / d)
    acc = 1.0
    term = 1.0
    for _ in range(d - 1):
        term *= u
        acc += term
    return acc / d


def comparison_F(d: int, t: float) -> float:
    """Ratio of the one-cone-point orbifold density to the hyperbolic density
    at pseudo-hyperbolic distance t from the cone point."""
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie in (0, 1), got {t}")
    return series_F_times_power(d, t) * t ** (-(1.0 - 1.0 / d))


def comparison_F_closed_form(d: int, t: float) -> float:
    """(1 - t^2) / (d t^(1-1/d) (1 - t^(2/d))); cancels catastrophically as
    t -> 1, kept only as a cross-check against the series form."""
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie in (0, 1), got {t}")
    return (1.0 - t * t) / (d * t ** (1.0 - 1.0 / d) * (1.0 - t ** (2.0 / d)))


def hyperbolic_density_disk(r: float, z: complex) -> float:
    """Hyperbolic density 2r / (r^2 - |z|^2) of B(0, r)."""
    if abs(z) >= r:
        raise ValueError("z must lie inside B(0, r)")
    return 2.0 * r / (r * r - abs(z) ** 2)


def orbifold_density_disk(d: int, z: complex) -> float:
    """Hyperbolic orbifold density of the unit disk with one cone point of
    order d at 0: 2 / (d |z|^(1-1/d) (1 - |z|^(2/d))).  +inf at the cone point."""
    if d < 2:
        raise ValueError("degree must be >= 2")
    t = abs(z)
    if t >= 1.0:
        raise ValueError("z must lie inside the unit disk")
    if t == 0.0:
        return math.inf
    return 2.0 / (d * t ** (1.0 - 1.0 / d) * (1.0 - t ** (2.0 / d)))


@dataclass(frozen=True)
class KoebeBounds:
    """Distortion sandwich for |g(z)-g(z0)| / |z-z0| of a univalent map on
    B(z0, r) at radius s, plus the guaranteed 1/4-theorem image radius."""

    lower: float
    upper: float
    quarter_radius: float

    def __post_init__(self):
        if not 0.0 < self.lower <= self.upper or self.quarter_radius <= 0.0:
            raise ValueError("inconsistent Koebe bounds")


def koebe_bounds(deriv_mag: float, r: float, s: float) -> KoebeBounds:
    if deriv_mag <= 0.0:
        raise ValueError("derivative magnitude must be positive")
    if not 0.0 <= s < r:
        raise ValueError("need 0 <= s < r")
    u = s / r
    return KoebeBounds(
        lower=deriv_mag / (1.0 + u) ** 2,
        upper=deriv_mag / (1.0 - u) ** 2,
        quarter_radius=deriv_mag * r / 4.0,
    )
