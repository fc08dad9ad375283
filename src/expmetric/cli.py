"""Command-line drivers: classification, expansion and shrinking experiments,
Hoelder-equivalence fits, external-ray reports, and raster renders.

Reports embed the full configuration, seed, tool version, and cloud size; with
a fixed seed repeated runs produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from . import __version__
from .backward import (
    MIN_FIT_LEVELS,
    BackwardDiskOrbit,
    expansion_ratios,
    pull_back,  # noqa: F401  not called here; bench/tracing.py wraps it by this name
    pull_back_orbits,
    shrink_fit,
)
from .dynamics import (
    MAX_ORBIT_N,
    MAX_SAMPLE_DEGREE,
    OrbitClassification,
    OrbitKind,
    PostcriticalCloud,
    UnicriticalMap,
    build_postcritical_cloud,
    classify_parameter,
    critical_orbit,
    julia_distance_estimate,
    sample_julia_points,
)
from .errors import InsideJuliaError, RayTracingError
from .gridmetric import (
    MAX_GRID_RES,
    MIN_RESOLUTION,
    build_grid,
    grid_distance,
    holder_fit,
    uniform_upper_constant,
    verify_lower_bound,
)
from .metrics import SingularMetric, Variant
from .rays import MAX_RAY_DEPTH, NO_POINT_INSIDE, john_constant_along_ray, john_report, rho_lengths, trace_rays
# not called here but importable: bench/tracing.py wraps them by these names
from .rays import rho_length_of_ray, trace_ray  # noqa: F401
from .render import LAYERS, RenderSpec, density_field, distance_field, escape_time_field, overlay_polyline, replacing, to_rgb, write_ppm

OUTPUT_DIR_ENV = "EXPMETRIC_OUT"
# Most disks expansion pulls back: at c = -2 and depth 30, 10000 orbits peak
# at 240-283 MB resident and take 15-19 s on two shared x86-64 cores, 2000 at
# 86 MB and 3-4 s (nine and six runs, each the child process's ru_maxrss and
# wall time).
MAX_ORBITS = 10_000
# Deepest expansion run.  Along a backward orbit |(f^n)'| grows like d^n (the
# equilibrium measure of a connected Julia set has Lyapunov exponent log d), so
# the expansion ratio leaves the float range near level 1024 at d = 2 (1025 at
# c = -2, 1047 at c = i), and every deeper level is pulled back only for the
# report to be refused: 2 orbits at depth 20000 took 8.9 s, at 1100 0.75 s, on
# two shared x86-64 cores.
MAX_EXPANSION_DEPTH = 1100
# Most disk-levels, orbits x depth, expansion pulls back: 10000 orbits at depth
# 30 peak at 240-283 MB resident and take 15-19 s (see MAX_ORBITS), 272 at depth
# 1100 at 70 MB and 17 s, on two shared x86-64 cores.
MAX_ORBIT_LEVELS = 300_000


@dataclass
class ExperimentConfig:
    d: int = 2
    c: complex = -2.0 + 0.0j
    orbit_n: int = 2000
    epsilon: Optional[float] = None
    grid_res: int = 256
    orbits: int = 50
    depth: int = 30
    seed: int = 0
    out_dir: Path = field(default_factory=lambda: Path(os.environ.get(OUTPUT_DIR_ENV, "out")))

    def to_dict(self) -> dict:
        out = asdict(self)
        out["c"] = [self.c.real, self.c.imag]
        out["out_dir"] = str(self.out_dir)
        return out


class Parameter(NamedTuple):
    """One c as every command sees it: the map, the classification of its
    critical orbit, and P(f) as the cloud of that orbit's first ``orbit_n``
    points, None exactly when the orbit escapes."""

    fmap: UnicriticalMap
    classification: OrbitClassification
    cloud: Optional[PostcriticalCloud]


def resolve_parameter(config: ExperimentConfig, gated: bool = False) -> Parameter:
    """The one place a command iterates the critical orbit, once: its
    classification and its cloud are both read from that orbit.  With
    ``gated``, a parameter outside the verified regime is refused before its
    cloud is built."""
    fmap = UnicriticalMap(config.d, config.c)
    orbit, escape_index = critical_orbit(fmap, config.orbit_n)
    cls = classify_parameter(orbit, escape_index)
    if gated and cls.kind is not OrbitKind.BOUNDED_NONRECURRENT:
        raise SystemExit(f"refusing to run: parameter classified {cls.kind.value} "
                         "(need bounded-nonrecurrent, the semihyperbolic regime)")
    cloud = None if cls.kind is OrbitKind.ESCAPING else build_postcritical_cloud(orbit)
    return Parameter(fmap, cls, cloud)


def _report_header(config: ExperimentConfig, cloud: Optional[PostcriticalCloud]) -> dict:
    return {
        "config": config.to_dict(),
        "seed": config.seed,
        "version": __version__,
        "cloud_size": len(cloud) if cloud is not None else None,
    }


def write_json(path: Path, obj) -> None:
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:  # NaN or infinity has no JSON form
        raise SystemExit(f"refusing to write {path}: {exc}")
    with replacing(path) as tmp:
        tmp.write_text(text + "\n")


def write_csv(path: Path, header: List[str], rows) -> None:
    with replacing(path) as tmp, open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                             for v in row])


def cmd_classify(config: ExperimentConfig) -> dict:
    fmap, cls, cloud = resolve_parameter(config)
    report = _report_header(config, cloud)
    report["classification"] = {
        "kind": cls.kind.value,
        "recurrence_gap": cls.recurrence_gap,
        "iterates_used": cls.iterates_used,
        "escape_index": cls.escape_index,
    }
    if cloud is not None:
        report["cloud_diameter"] = cloud.diameter()
    write_json(config.out_dir / "classify.json", report)
    return report


def cmd_expansion(config: ExperimentConfig) -> dict:
    fmap, _, cloud = resolve_parameter(config, gated=True)
    metric = SingularMetric(cloud, fmap.d, Variant.SIGMA)
    eps = config.epsilon
    if eps is None:
        diam = cloud.diameter()
        eps = 0.05 * diam if diam > 0 else 0.1
    rng = np.random.default_rng(config.seed)
    bases = sample_julia_points(fmap, config.orbits, rng)

    orbits = [BackwardDiskOrbit(fmap, z0, eps, cloud=cloud) for z0 in bases]
    rngs = [np.random.default_rng([config.seed, k]) for k in range(len(orbits))]
    refusal = pull_back_orbits(fmap, orbits, config.depth, rngs)
    if refusal:
        k, why = refusal
        raise SystemExit(f"refusing to continue: orbit {k} at epsilon {eps!r}: {why}; "
                         "try a smaller --epsilon")
    rows = []
    summaries = []
    case_totals = {}
    for k, (z0, orbit) in enumerate(zip(bases, orbits)):
        try:
            rep = expansion_ratios(orbit, metric)
        except ValueError as exc:
            raise SystemExit(f"refusing to report: orbit {k}: {exc}; try a smaller --depth")
        try:
            c0, theta = shrink_fit(orbit)
        except ValueError as exc:  # a diameter underflows
            raise SystemExit(f"refusing to report: orbit {k}: {exc}; "
                             "try a larger --epsilon or a smaller --depth")
        for lvl, ratio in zip(rep.levels, rep.ratios):
            rows.append((k, lvl, ratio))
        for lab, v in rep.case_counts.items():
            case_totals[lab] = case_totals.get(lab, 0) + v
        summaries.append(
            {
                "orbit": k,
                "z0": [z0.real, z0.imag],
                "lambda": rep.lam,
                "C": rep.constant,
                "theta": theta,
                "C0": c0,
                "skipped_levels": rep.skipped_levels,
                "case_counts": rep.case_counts,
            }
        )
    report = _report_header(config, cloud)
    report["epsilon"] = eps
    report["orbits"] = summaries
    report["case_histogram"] = dict(sorted(case_totals.items()))
    report["min_lambda"] = min(s["lambda"] for s in summaries)
    report["max_theta"] = max(s["theta"] for s in summaries)
    write_csv(config.out_dir / "expansion_ratios.csv", ["orbit", "level", "ratio"], rows)
    write_json(config.out_dir / "expansion.json", report)
    return report


# holder's pairs: PAIRS_PER_SCALE at each of HOLDER_SCALES log-spaced
# separations from HOLDER_SEPARATIONS[0] to HOLDER_SEPARATIONS[1]
HOLDER_SCALES = 10
PAIRS_PER_SCALE = 8
HOLDER_SEPARATIONS = (0.004, 0.8)


def holder_sample_pairs(cloud, rng: np.random.Generator) -> List[Tuple[complex, complex]]:
    """Pairs straddling cloud points at log-spaced separations."""
    s_min, s_max = HOLDER_SEPARATIONS
    scales = np.exp(np.linspace(math.log(s_min), math.log(s_max), HOLDER_SCALES))
    pairs = []
    for s in scales:
        for _ in range(PAIRS_PER_SCALE):
            p = complex(cloud.points[int(rng.integers(len(cloud)))])
            phi = rng.uniform(0.0, 2.0 * math.pi)
            u = cmath.exp(1j * phi)
            pairs.append((p - 0.5 * s * u, p + 0.5 * s * u))
    return pairs


def cmd_holder(config: ExperimentConfig) -> dict:
    fmap, _, cloud = resolve_parameter(config, gated=True)
    metric = SingularMetric(cloud, fmap.d, Variant.RHO)
    pts = cloud.points
    cx = (pts.real.min() + pts.real.max()) / 2.0
    cy = (pts.imag.min() + pts.imag.max()) / 2.0
    half = max(pts.real.max() - pts.real.min(), pts.imag.max() - pts.imag.min()) / 2.0 + 1.0
    grid = build_grid(metric, (complex(cx - half, cy - half), complex(cx + half, cy + half)),
                      config.grid_res)
    rng = np.random.default_rng(config.seed)
    # each endpoint lies within HOLDER_SEPARATIONS[1] / 2 of a cloud point, so well
    # inside the box's margin of 1: the grid holds every pair
    pairs = holder_sample_pairs(cloud, rng)
    seps = np.array([abs(b - a) for a, b in pairs])
    dists = np.array([grid_distance(grid, a, b) for a, b in pairs])
    try:
        fit = holder_fit(seps, dists)
    except ValueError as exc:
        raise SystemExit(f"refusing to report: {exc} at grid_res {config.grid_res}; "
                         "try a larger --grid-res")
    audit = verify_lower_bound(grid, pairs, dists)
    upper_c = uniform_upper_constant(seps, dists, metric.alpha)
    rows = [(a.real, a.imag, b.real, b.imag, s, d)
            for (a, b), s, d in zip(pairs, seps, dists)]
    report = _report_header(config, cloud)
    report["grid"] = {"resolution": config.grid_res, "h": grid.h,
                      "n_cols": grid.n_cols, "n_rows": grid.n_rows}
    report["fit"] = {"exponent": fit.exponent, "constant": fit.constant,
                     "r_squared": fit.r_squared, "samples": fit.sample_count}
    report["uniform_upper_constant"] = upper_c
    report["lower_bound_audit"] = {"checked": audit["checked"],
                                   "violations": len(audit["violations"])}
    write_csv(config.out_dir / "holder_pairs.csv",
              ["z0_re", "z0_im", "z1_re", "z1_im", "separation", "d_rho"], rows)
    write_json(config.out_dir / "holder.json", report)
    return report


RHO_LENGTH_RADII = (0.2, 0.1, 0.05, 0.025)


def cmd_rays(config: ExperimentConfig, angles: List[float]) -> dict:
    fmap, _, cloud = resolve_parameter(config)
    if cloud is None:
        raise SystemExit("refusing to run: critical orbit escapes; no bounded rays")
    metric = SingularMetric(cloud, fmap.d, Variant.RHO)

    poly_rows = []
    entries = []
    scaling_rows = []
    failures = []
    try:
        rays = trace_rays(fmap, angles, config.depth)
    except RayTracingError as exc:  # the Boettcher start overflows at a high degree
        raise SystemExit(f"refusing to trace rays: {exc}")
    # one array pass over the points of every landed ray, a row of depth + 1
    # a ray; the John ratio skips the points at arclength 0 from the landing,
    # which often lie on J and would iterate to the budget, so they are left NaN
    landed = [ray for ray in rays if ray.landing is not None]
    shape = (len(landed), config.depth + 1)
    points = np.array([ray.polyline for ray in landed], dtype=complex).reshape(shape)
    along = np.array([ray.arclengths_from_landing() for ray in landed]).reshape(shape) > 0.0
    dists = np.full(shape, math.nan)
    dists[along] = julia_distance_estimate(fmap, points[along])
    ray_dists = iter(dists)
    # one density pass for every landed ray at every radius, a column a ray
    ray_lengths = iter(rho_lengths(landed, metric, RHO_LENGTH_RADII).T)
    for ray in rays:
        theta = ray.theta
        for g, z in zip(ray.potentials, ray.polyline):
            poly_rows.append((theta, g, z.real, z.imag))
        if ray.landing is not None:
            try:
                entries.append(john_constant_along_ray(ray, next(ray_dists)))
            except InsideJuliaError as exc:  # a ray point within roundoff of J
                failures.append({"theta": theta, "error": str(exc)})
            for r, length in zip(RHO_LENGTH_RADII, next(ray_lengths)):
                if math.isnan(length):  # no ray point near the landing
                    failures.append({"theta": theta, "radius": r, "error": NO_POINT_INSIDE})
                else:
                    scaling_rows.append((theta, r, float(length)))
        else:
            failures.append({"theta": theta, "error": "no landing estimate"})

    report = _report_header(config, cloud)
    report["depth"] = config.depth
    report["failures"] = failures
    if entries:
        jr = john_report(entries)
        report["john"] = {
            "constant": jr.constant,
            "worst_point": [jr.worst_point.real, jr.worst_point.imag],
            "ray_count": len(entries),
            "per_ray": [
                {"theta": e.theta, "constant": e.constant} for e in entries
            ],
        }
    report["landings"] = {repr(ray.theta): [ray.landing.real, ray.landing.imag]
                          for ray in rays if ray.landing is not None}
    write_csv(config.out_dir / "rays.csv", ["theta", "potential", "re", "im"], poly_rows)
    write_csv(config.out_dir / "rho_length.csv", ["theta", "radius", "rho_length"],
              scaling_rows)
    write_json(config.out_dir / "rays.json", report)
    return report


def cmd_render(config: ExperimentConfig, spec: RenderSpec) -> Path:
    if spec.layer == "escape-time":
        fmap = UnicriticalMap(config.d, config.c)
        rgb = to_rgb(escape_time_field(fmap, spec))
    else:
        fmap, _, cloud = resolve_parameter(config)
        if cloud is None:
            raise SystemExit(f"refusing to render {spec.layer}: critical orbit escapes; "
                             "the postcritical set is unbounded")
        if spec.layer == "distance-to-P":
            rgb = to_rgb(distance_field(cloud, spec))
        else:
            variant = Variant.RHO if spec.layer == "density-rho" else Variant.SIGMA
            metric = SingularMetric(cloud, fmap.d, variant)
            rgb = to_rgb(density_field(metric, spec))
    try:
        for ray in trace_rays(fmap, spec.ray_angles, config.depth):
            overlay_polyline(rgb, spec, ray.polyline)
    except RayTracingError as exc:  # the Boettcher start overflows at a high degree
        raise SystemExit(f"refusing to render: {exc}")
    path = config.out_dir / "render.ppm"
    write_ppm(path, rgb)
    return path


class _FloatToken:
    """Matches a token that parses as a float.  argparse only asks about
    tokens that start with '-', and its own pattern for negative numbers
    knows no exponent, so ``--c-re -1e-3`` was an option with no value."""

    @staticmethod
    def match(token: str) -> bool:
        try:
            float(token)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and so each of its subparsers, that takes a
    negative float such as ``-1e-3`` as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a private argparse attribute; test_negative_floats_parse_as_values pins it
        self._negative_number_matcher = _FloatToken


def _build_parser() -> argparse.ArgumentParser:
    # the settings are accepted before or after the subcommand; they have no
    # defaults here, so only the flags given reach the namespace, a subcommand's
    # over the top level's, and ExperimentConfig fills in the rest
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", type=Path, help="JSON config overriding flags")
    common.add_argument("--d", type=int)
    common.add_argument("--c-re", type=float)
    common.add_argument("--c-im", type=float)
    common.add_argument("--orbit-n", type=int)
    common.add_argument("--epsilon", type=float)
    common.add_argument("--grid-res", type=int)
    common.add_argument("--orbits", type=int)
    common.add_argument("--depth", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--out", type=Path, dest="out_dir", metavar="OUT")

    parser = _Parser(
        prog="expmetric",
        description="Numerical verification of expanding singular metrics "
                    "for unicritical polynomials z^d + c",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("classify", "expansion", "holder"):
        sub.add_parser(name, parents=[common])
    p_rays = sub.add_parser("rays", parents=[common])
    p_rays.add_argument("--angles", type=str, default="0",
                        help="comma-separated external angles in turns")
    p_render = sub.add_parser("render", parents=[common])
    p_render.add_argument("--layer", choices=LAYERS, default="escape-time")
    p_render.add_argument("--width", type=int, default=512)
    p_render.add_argument("--height", type=int, default=512)
    p_render.add_argument("--bbox", type=float, nargs=4,
                          metavar=("XMIN", "XMAX", "YMIN", "YMAX"),
                          default=[-2.5, 2.5, -2.5, 2.5])
    p_render.add_argument("--rays", type=str, default="",
                          help="comma-separated ray angles to overlay")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    given = vars(args)
    cfg.c = complex(given.get("c_re", cfg.c.real), given.get("c_im", cfg.c.imag))
    names = {f.name for f in fields(cfg)}
    for name in names & given.keys():
        setattr(cfg, name, given[name])
    if "config" in given:
        try:
            overrides = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise SystemExit(f"config parse error in {args.config}: "
                             f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or a huge integer
            raise SystemExit(f"config parse error in {args.config}: {exc}")
        if not isinstance(overrides, dict):
            raise SystemExit(f"config parse error in {args.config}: "
                             f"expected a JSON object, got {type(overrides).__name__}")
        for key, value in overrides.items():
            if key == "c":
                if not (isinstance(value, list) and len(value) == 2
                        and all(_is_number(v) for v in value)):
                    raise SystemExit("invalid config: c must be a list of two numbers "
                                     f"[re, im], got {value!r}")
                try:
                    cfg.c = complex(value[0], value[1])
                except OverflowError:  # an integer beyond the float range
                    raise SystemExit(f"invalid config: c must be finite, got {value!r}")
            elif key == "out_dir":
                if not isinstance(value, str):
                    raise SystemExit(f"invalid config: out_dir must be a string, got {value!r}")
                cfg.out_dir = Path(value)
            elif key in names:
                setattr(cfg, key, value)
            else:
                raise SystemExit(f"config parse error: unknown field {key!r}")
    _validate(cfg, args.command)
    return cfg


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate(cfg: ExperimentConfig, command: str) -> None:
    """Reject malformed or out-of-range settings with a one-line message."""
    for name in ("d", "orbit_n", "grid_res", "orbits", "depth", "seed"):
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise SystemExit(f"invalid config: {name} must be an integer, got {value!r}")
    if not (math.isfinite(cfg.c.real) and math.isfinite(cfg.c.imag)):
        raise SystemExit("invalid config: c must be finite, got "
                         f"[{cfg.c.real!r}, {cfg.c.imag!r}]")
    eps = cfg.epsilon
    if eps is not None and not (_is_number(eps) and 0 < eps <= sys.float_info.max):
        raise SystemExit(f"invalid config: epsilon must be a positive number, got {eps!r}")
    if eps is not None and eps < sys.float_info.min:
        raise SystemExit("invalid config: epsilon must be at least the least normal float "
                         f"{sys.float_info.min!r}, got {eps!r}")
    if cfg.d < 2:
        raise SystemExit(f"invalid config: d must be at least 2, got {cfg.d}")
    for name in ("orbit_n", "orbits"):
        if getattr(cfg, name) < 1:
            raise SystemExit(f"invalid config: {name} must be at least 1, "
                             f"got {getattr(cfg, name)}")
    if cfg.orbit_n > MAX_ORBIT_N:
        raise SystemExit(f"invalid config: orbit_n must be <= {MAX_ORBIT_N}, got {cfg.orbit_n}")
    if cfg.orbits > MAX_ORBITS:
        raise SystemExit(f"invalid config: orbits must be <= {MAX_ORBITS}, got {cfg.orbits}")
    if cfg.seed < 0:
        raise SystemExit(f"invalid config: seed must be at least 0, got {cfg.seed}")
    if command == "holder" and not MIN_RESOLUTION <= cfg.grid_res <= MAX_GRID_RES:
        bound = (f">= {MIN_RESOLUTION}" if cfg.grid_res < MIN_RESOLUTION
                 else f"<= {MAX_GRID_RES}")
        raise SystemExit(f"invalid config: holder needs grid_res {bound}, "
                         f"got {cfg.grid_res}")
    if command in ("rays", "render") and not 1 <= cfg.depth <= MAX_RAY_DEPTH:
        bound = ">= 1" if cfg.depth < 1 else f"<= {MAX_RAY_DEPTH}"
        raise SystemExit(f"invalid config: rays need depth {bound}, got {cfg.depth}")
    if command == "expansion" and cfg.d > MAX_SAMPLE_DEGREE:
        raise SystemExit(f"invalid config: expansion needs d <= {MAX_SAMPLE_DEGREE}, "
                         f"got {cfg.d}")
    if command == "expansion" and cfg.depth < MIN_FIT_LEVELS:
        raise SystemExit(f"invalid config: expansion needs depth >= {MIN_FIT_LEVELS} "
                         f"for the shrink fit, got {cfg.depth}")
    if command == "expansion" and cfg.depth > MAX_EXPANSION_DEPTH:
        raise SystemExit(f"invalid config: expansion needs depth <= {MAX_EXPANSION_DEPTH}, "
                         f"got {cfg.depth}")
    if command == "expansion" and cfg.orbits * cfg.depth > MAX_ORBIT_LEVELS:
        raise SystemExit(f"invalid config: expansion needs orbits x depth <= "
                         f"{MAX_ORBIT_LEVELS}, got {cfg.orbits} x {cfg.depth}")


def _parse_angles(text: str) -> List[float]:
    """Comma-separated external angles, each a number in [0, 1) turns and
    given once."""
    angles = []
    for tok in filter(str.strip, text.split(",")):
        try:
            theta = float(tok)
        except ValueError:
            theta = math.nan
        if not 0.0 <= theta < 1.0:  # NaN fails too
            raise SystemExit(f"invalid external angle {tok.strip()}: "
                             "must be a number in [0, 1) turns")
        if theta in angles:  # the reports key each ray by its angle
            raise SystemExit(f"invalid external angle {tok.strip()}: given twice")
        angles.append(theta)
    return angles


def _run(args, config: ExperimentConfig) -> None:
    if args.command == "classify":
        report = cmd_classify(config)
        print(json.dumps(report["classification"], sort_keys=True))
    elif args.command == "expansion":
        report = cmd_expansion(config)
        print(f"min fitted lambda: {float(report['min_lambda'])!r}  "
              f"max fitted theta: {float(report['max_theta'])!r}")
    elif args.command == "holder":
        report = cmd_holder(config)
        print(f"fitted exponent: {float(report['fit']['exponent'])!r}  "
              f"lower-bound violations: {report['lower_bound_audit']['violations']}")
    elif args.command == "rays":
        angles = _parse_angles(args.angles)
        if not angles:  # render's --rays "" means no overlay; rays has nothing to trace
            raise SystemExit(f"invalid --angles {args.angles!r}: no external angle given")
        report = cmd_rays(config, angles)
        if "john" in report:
            print(f"john constant estimate: {float(report['john']['constant'])!r}")
        if report["failures"]:
            print(f"{len(report['failures'])} tracing failure(s) recorded",
                  file=sys.stderr)
    elif args.command == "render":
        x0, x1, y0, y1 = args.bbox
        try:
            spec = RenderSpec(
                bbox=(complex(x0, y0), complex(x1, y1)),
                width=args.width,
                height=args.height,
                layer=args.layer,
                ray_angles=_parse_angles(args.rays),
            )
        except ValueError as exc:
            raise SystemExit(f"invalid render: {exc}")
        path = cmd_render(config, spec)
        print(str(path))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = _config_from_args(args)
    try:
        _run(args, config)
    except OSError as exc:  # a writer's mkdir or write: --out is a file, or lies under one
        raise SystemExit(f"refusing to write: {exc}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
