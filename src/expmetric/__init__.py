"""Numerical toolkit for expanding singular metrics of unicritical
polynomials z^d + c: metric densities, distortion bounds, backward-orbit
expansion ratios, pullback shrinking, path-metric grids, and external-ray
geometry."""

__version__ = "0.1.0"

from .dynamics import (
    OrbitClassification,
    OrbitKind,
    PostcriticalCloud,
    UnicriticalMap,
    build_postcritical_cloud,
    classify_parameter,
    critical_orbit,
    julia_distance_estimate,
    orbit_derivative_magnitude,
    sample_julia_points,
)
from .metrics import (
    KoebeBounds,
    SingularMetric,
    Variant,
    comparison_F,
    comparison_F_closed_form,
    hyperbolic_density_disk,
    koebe_bounds,
    orbifold_density_disk,
    series_F_times_power,
)
from .backward import (
    BackwardDiskOrbit,
    CaseLabel,
    ExpansionReport,
    classify_level,
    expansion_ratios,
    pull_back,
    pull_back_orbits,
    shrink_fit,
)
from .gridmetric import (
    HoelderFit,
    PathMetricGrid,
    build_grid,
    grid_distance,
    holder_fit,
    uniform_upper_constant,
    verify_lower_bound,
)
from .rays import (
    ExternalRay,
    JohnReport,
    john_constant_along_ray,
    john_report,
    rho_length_of_ray,
    trace_ray,
    trace_rays,
)
