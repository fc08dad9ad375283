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
from typing import List, Optional, Tuple

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
    OrbitKind,
    UnicriticalMap,
    build_postcritical_cloud,
    classify_parameter,
    julia_distance_estimate,
    sample_julia_points,
)
from .errors import DomainError, RayTracingError
from .gridmetric import (
    MIN_RESOLUTION,
    build_grid,
    grid_distance,
    holder_fit,
    uniform_upper_constant,
    verify_lower_bound,
)
from .metrics import SingularMetric, Variant
# trace_ray is not called here but stays importable: bench/tracing.py wraps it by this name
from .rays import MAX_RAY_DEPTH, john_constant_along_ray, john_report, rho_length_of_ray, trace_ray, trace_rays  # noqa: F401
from .render import RenderSpec, density_field, distance_field, escape_time_field, overlay_polyline, to_rgb, write_ppm

OUTPUT_DIR_ENV = "EXPMETRIC_OUT"


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

    def fmap(self) -> UnicriticalMap:
        return UnicriticalMap(self.d, self.c)

    def resolved_epsilon(self, cloud) -> float:
        if self.epsilon is not None:
            return self.epsilon
        diam = cloud.diameter()
        return 0.05 * diam if diam > 0 else 0.1

    def to_dict(self) -> dict:
        out = asdict(self)
        out["c"] = [self.c.real, self.c.imag]
        out["out_dir"] = str(self.out_dir)
        return out


def _report_header(config: ExperimentConfig, cloud=None) -> dict:
    return {
        "config": config.to_dict(),
        "seed": config.seed,
        "version": __version__,
        "cloud_size": len(cloud) if cloud is not None else None,
    }


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:  # NaN or infinity has no JSON form
        raise SystemExit(f"refusing to write {path}: {exc}")
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text + "\n")
    tmp.replace(path)


def write_csv(path: Path, header: List[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                             for v in row])
    tmp.replace(path)


def cmd_classify(config: ExperimentConfig) -> dict:
    fmap = config.fmap()
    cls = classify_parameter(fmap, config.orbit_n)
    report = _report_header(config)
    report["classification"] = {
        "kind": cls.kind.value,
        "recurrence_gap": cls.recurrence_gap,
        "iterates_used": cls.iterates_used,
        "escape_index": cls.escape_index,
    }
    if cls.kind is not OrbitKind.ESCAPING:
        cloud = build_postcritical_cloud(fmap, config.orbit_n)
        report["cloud_size"] = len(cloud)
        report["cloud_diameter"] = cloud.diameter()
    write_json(config.out_dir / "classify.json", report)
    return report


def _gate(config: ExperimentConfig):
    """Refuse to run expansion/Hoelder experiments outside the verified regime."""
    cls = classify_parameter(config.fmap(), config.orbit_n)
    if cls.kind is not OrbitKind.BOUNDED_NONRECURRENT:
        raise SystemExit(
            f"refusing to run: parameter classified {cls.kind.value} "
            "(need bounded-nonrecurrent, the semihyperbolic regime)"
        )


def cmd_expansion(config: ExperimentConfig) -> dict:
    _gate(config)
    fmap = config.fmap()
    cloud = build_postcritical_cloud(fmap, config.orbit_n)
    metric = SingularMetric.for_degree(cloud, fmap.d, Variant.SIGMA)
    eps = config.resolved_epsilon(cloud)
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
        rep = expansion_ratios(orbit, metric)
        c0, theta = shrink_fit(orbit)
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
    pts = cloud.points_complex
    s_min, s_max = HOLDER_SEPARATIONS
    scales = np.exp(np.linspace(math.log(s_min), math.log(s_max), HOLDER_SCALES))
    pairs = []
    for s in scales:
        for _ in range(PAIRS_PER_SCALE):
            p = complex(pts[int(rng.integers(len(pts)))])
            phi = rng.uniform(0.0, 2.0 * math.pi)
            u = cmath.exp(1j * phi)
            pairs.append((p - 0.5 * s * u, p + 0.5 * s * u))
    return pairs


def cmd_holder(config: ExperimentConfig) -> dict:
    _gate(config)
    fmap = config.fmap()
    cloud = build_postcritical_cloud(fmap, config.orbit_n)
    metric = SingularMetric.for_degree(cloud, fmap.d, Variant.RHO)
    pts = cloud.points_complex
    cx = (pts.real.min() + pts.real.max()) / 2.0
    cy = (pts.imag.min() + pts.imag.max()) / 2.0
    half = max(pts.real.max() - pts.real.min(), pts.imag.max() - pts.imag.min()) / 2.0 + 1.0
    grid = build_grid(metric, (complex(cx - half, cy - half), complex(cx + half, cy + half)),
                      config.grid_res)
    rng = np.random.default_rng(config.seed)
    pairs = holder_sample_pairs(cloud, rng)
    pairs = [
        (a, b) for a, b in pairs
        if grid.contains(a) and grid.contains(b) and 0 < abs(a - b) < 1
    ]
    fit = holder_fit(grid, pairs)
    audit = verify_lower_bound(grid, pairs)
    upper_c = uniform_upper_constant(grid, pairs, metric.alpha)
    rows = [
        (a.real, a.imag, b.real, b.imag, abs(b - a), grid_distance(grid, a, b))
        for a, b in pairs
    ]
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
    fmap = config.fmap()
    cls = classify_parameter(fmap, config.orbit_n)
    if cls.kind is OrbitKind.ESCAPING:
        raise SystemExit("refusing to run: critical orbit escapes; no bounded rays")
    cloud = build_postcritical_cloud(fmap, config.orbit_n)
    metric = SingularMetric.for_degree(cloud, fmap.d, Variant.RHO)

    poly_rows = []
    entries = []
    scaling_rows = []
    failures = []
    try:
        rays = trace_rays(fmap, angles, config.depth)
    except RayTracingError as exc:
        rays = []
        failures.extend({"theta": theta, "error": str(exc)} for theta in angles)
    for ray in rays:
        theta = ray.theta
        for g, z in zip(ray.potentials, ray.polyline):
            poly_rows.append((theta, g, z.real, z.imag))
        if ray.landing is not None:
            entries.append(john_constant_along_ray(
                ray, lambda z: julia_distance_estimate(fmap, z)))
            for r in RHO_LENGTH_RADII:
                try:
                    scaling_rows.append((theta, r, rho_length_of_ray(ray, metric, r)))
                except (DomainError, RayTracingError) as exc:  # no ray point near the landing
                    failures.append({"theta": theta, "radius": r, "error": str(exc)})
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
            "ray_count": jr.ray_count,
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
    fmap = config.fmap()
    if spec.layer == "escape-time":
        field_vals = escape_time_field(fmap, spec)
        rgb = to_rgb(field_vals)
    else:
        cloud = build_postcritical_cloud(fmap, config.orbit_n)
        if spec.layer == "distance-to-P":
            metric = SingularMetric.for_degree(cloud, fmap.d, Variant.RHO)
            rgb = to_rgb(distance_field(metric, spec))
        else:
            variant = Variant.RHO if spec.layer == "density-rho" else Variant.SIGMA
            metric = SingularMetric.for_degree(cloud, fmap.d, variant)
            rgb = to_rgb(density_field(metric, spec), log_scale=True)
    for ray in trace_rays(fmap, spec.ray_angles, config.depth):
        overlay_polyline(rgb, spec, ray.polyline)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    path = config.out_dir / "render.ppm"
    write_ppm(path, rgb)
    return path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expmetric",
        description="Numerical verification of expanding singular metrics "
                    "for unicritical polynomials z^d + c",
    )
    def add_common(target, suppress: bool) -> None:
        # the same flags are accepted before or after the subcommand; the
        # subparser copies use SUPPRESS defaults so they only override the
        # top-level values when given explicitly
        def dflt(v):
            return argparse.SUPPRESS if suppress else v

        target.add_argument("--config", type=Path, default=dflt(None),
                            help="JSON config overriding flags")
        target.add_argument("--d", type=int, default=dflt(2))
        target.add_argument("--c-re", type=float, default=dflt(-2.0))
        target.add_argument("--c-im", type=float, default=dflt(0.0))
        target.add_argument("--orbit-n", type=int, default=dflt(2000))
        target.add_argument("--epsilon", type=float, default=dflt(None))
        target.add_argument("--grid-res", type=int, default=dflt(256))
        target.add_argument("--orbits", type=int, default=dflt(50))
        target.add_argument("--depth", type=int, default=dflt(30))
        target.add_argument("--seed", type=int, default=dflt(0))
        target.add_argument("--out", type=Path, default=dflt(None))

    add_common(parser, suppress=False)

    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("classify", "expansion", "holder"):
        add_common(sub.add_parser(name), suppress=True)
    p_rays = sub.add_parser("rays")
    add_common(p_rays, suppress=True)
    p_rays.add_argument("--angles", type=str, default="0",
                        help="comma-separated external angles in turns")
    p_render = sub.add_parser("render")
    add_common(p_render, suppress=True)
    p_render.add_argument("--layer", choices=["escape-time", "density-rho",
                                              "density-sigma", "distance-to-P"],
                          default="escape-time")
    p_render.add_argument("--width", type=int, default=512)
    p_render.add_argument("--height", type=int, default=512)
    p_render.add_argument("--bbox", type=float, nargs=4,
                          metavar=("XMIN", "XMAX", "YMIN", "YMAX"),
                          default=[-2.5, 2.5, -2.5, 2.5])
    p_render.add_argument("--rays", type=str, default="",
                          help="comma-separated ray angles to overlay")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    cfg = ExperimentConfig(
        d=args.d,
        c=complex(args.c_re, args.c_im),
        orbit_n=args.orbit_n,
        epsilon=args.epsilon,
        grid_res=args.grid_res,
        orbits=args.orbits,
        depth=args.depth,
        seed=args.seed,
        out_dir=args.out if args.out is not None
        else Path(os.environ.get(OUTPUT_DIR_ENV, "out")),
    )
    if args.config is not None:
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
        names = {f.name for f in fields(cfg)}
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
    if eps is not None and not (_is_number(eps) and 0 < eps < math.inf):
        raise SystemExit(f"invalid config: epsilon must be a positive number, got {eps!r}")
    if cfg.d < 2:
        raise SystemExit(f"invalid config: d must be at least 2, got {cfg.d}")
    for name in ("orbit_n", "orbits"):
        if getattr(cfg, name) < 1:
            raise SystemExit(f"invalid config: {name} must be at least 1, "
                             f"got {getattr(cfg, name)}")
    if cfg.seed < 0:
        raise SystemExit(f"invalid config: seed must be at least 0, got {cfg.seed}")
    if command == "holder" and cfg.grid_res < MIN_RESOLUTION:
        raise SystemExit(f"invalid config: holder needs grid_res >= {MIN_RESOLUTION}, "
                         f"got {cfg.grid_res}")
    if command in ("rays", "render") and not 1 <= cfg.depth <= MAX_RAY_DEPTH:
        bound = ">= 1" if cfg.depth < 1 else f"<= {MAX_RAY_DEPTH}"
        raise SystemExit(f"invalid config: rays need depth {bound}, got {cfg.depth}")
    if command == "expansion" and cfg.depth < MIN_FIT_LEVELS:
        raise SystemExit(f"invalid config: expansion needs depth >= {MIN_FIT_LEVELS} "
                         f"for the shrink fit, got {cfg.depth}")


def _parse_angles(text: str) -> List[float]:
    """Comma-separated external angles, each a number in [0, 1) turns."""
    angles = []
    for tok in filter(str.strip, text.split(",")):
        try:
            theta = float(tok)
        except ValueError:
            theta = math.nan
        if not 0.0 <= theta < 1.0:  # NaN fails too
            raise SystemExit(f"invalid external angle {tok.strip()}: "
                             "must be a number in [0, 1) turns")
        angles.append(theta)
    return angles


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = _config_from_args(args)
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
        report = cmd_rays(config, _parse_angles(args.angles))
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
