"""Traced passes: spans and counts recorded around the calls into each layer.

Each public function of the program is wrapped at the name through which its
caller looks it up, so the wrapper sees every call the CLI makes: ``cli``
imports most functions by name, ``backward`` looks up ``classify_level`` and
``orbit_derivative_magnitude`` in its own namespace, ``gridmetric`` calls
SciPy's ``dijkstra`` as a module global, and the density methods live on the
``SingularMetric`` class.  A span is ``(name, start, end, parent)``; spans and
counts stay in memory and are written out by the caller when the run ends.

``preimages`` is deliberately not wrapped: the boundary lift calls it once per
sample (about 10^5 calls a pass), so a span per call would dominate the trace
and carve the lift's own work out of ``backward.lift_s``.
"""

from __future__ import annotations

import functools
import os
import statistics
from collections import defaultdict
from time import perf_counter


def _count(key, amount=lambda args, result: 1):
    def hook(tracer, args, result):
        tracer.counts[key] += amount(args, result)
    return hook


class Tracer:
    """Installs wrappers on the program's modules and removes them again."""

    def __init__(self, modules):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)
        self.last_grid = None
        self._saved = []
        self._sites = self._wrap_sites(modules)

    @staticmethod
    def _wrap_sites(m):
        cli, backward, gridmetric = m["cli"], m["backward"], m["gridmetric"]
        landing_tol = m["rays"].LANDING_TOL
        metric_cls = m["metrics"].SingularMetric
        critical = backward.CaseLabel.CRITICAL

        def new_levels(args):
            orbit, steps = args[1], args[2]
            return orbit.boundary[len(orbit.boundary) - steps:], orbit.labels[len(orbit.labels) - steps:]

        def extrapolated(ray):
            return int(ray.landing is not None
                       and abs(ray.polyline[-1] - ray.polyline[-2]) >= landing_tol)

        def sources(dist):
            dist = dist[0] if isinstance(dist, tuple) else dist  # (distances, predecessors)
            return dist.shape[0] if dist.ndim == 2 else 1

        def remember_grid(tracer, args, grid):
            tracer.last_grid = grid
            tracer.counts["gridmetric.graph_edges"] += grid.graph.nnz

        def cache_size(tracer, args, result):
            # the cached rows of the command's grid are what set its memory
            grid, tracer.last_grid = tracer.last_grid, None
            if grid is not None:
                mb = sum(row.nbytes for row in grid._dist_cache.values()) / 2**20
                key = "gridmetric.dist_cache_mb"
                tracer.counts[key] = max(tracer.counts[key], mb)

        written = _count("cli.report_bytes", lambda a, r: os.path.getsize(a[0]))
        # (owner, attribute, span name, count hooks); owners sharing one
        # function get one wrapper, so a call through either name is one span
        return [
            (cli, "cmd_holder", "cli.holder", [cache_size]),
            (cli, "cmd_expansion", "cli.expansion", []),
            (cli, "cmd_rays", "cli.rays", []),
            (cli, "cmd_render", "cli.render",
             [_count("render.pixels", lambda a, r: a[1].width * a[1].height)]),
            (cli, "write_json", "cli.write", [written]),
            (cli, "write_csv", "cli.write", [written]),
            (cli, "build_grid", "gridmetric.build_grid", [remember_grid]),
            (gridmetric, "dijkstra", "gridmetric.dijkstra",
             [_count("gridmetric.dijkstra_sources", lambda a, r: sources(r))]),
            ((cli, gridmetric), "grid_distance", "gridmetric.grid_distance",
             [_count("gridmetric.grid_distance_calls")]),
            (cli, "holder_fit", "gridmetric.holder_fit",
             [_count("gridmetric.pairs", lambda a, r: len(a[1]))]),
            (cli, "verify_lower_bound", "gridmetric.verify_lower_bound", []),
            (cli, "uniform_upper_constant", "gridmetric.uniform_upper_constant", []),
            (cli, "pull_back", "backward.pull_back",
             [_count("backward.levels", lambda a, r: a[2]),
              _count("backward.lift_samples",
                     lambda a, r: sum(len(b) for b in new_levels(a)[0])),
              _count("backward.critical_levels",
                     lambda a, r: sum(lab is critical for lab in new_levels(a)[1]))]),
            (backward, "classify_level", "backward.label", []),
            (cli, "expansion_ratios", "backward.expansion_ratios", []),
            (cli, "shrink_fit", "backward.shrink_fit", []),
            (cli, "classify_parameter", "dynamics.classify", []),
            (cli, "build_postcritical_cloud", "dynamics.cloud",
             [_count("dynamics.cloud_points", lambda a, r: len(r))]),
            (cli, "sample_julia_points", "dynamics.sample_julia", []),
            (backward, "orbit_derivative_magnitude", "dynamics.orbit_derivative",
             [_count("dynamics.orbit_derivative_steps", lambda a, r: a[2])]),
            (cli, "julia_distance_estimate", "dynamics.julia_distance",
             [_count("dynamics.julia_distance_calls")]),
            (metric_cls, "density_array", "metrics.density_array",
             [_count("metrics.density_array_points", lambda a, r: len(a[1]))]),
            (metric_cls, "density", "metrics.density", [_count("metrics.density_calls")]),
            (cli, "trace_ray", "rays.trace",
             [_count("rays.rays_traced"),
              _count("rays.ray_points", lambda a, r: len(r.polyline)),
              _count("rays.extrapolated_landings", lambda a, r: extrapolated(r))]),
            (cli, "john_constant_along_ray", "rays.john", []),
            (cli, "rho_length_of_ray", "rays.rho_length", []),
            (cli, "escape_time_field", "render.escape_time", []),
            (cli, "density_field", "render.density_field", []),
            (cli, "overlay_polyline", "render.overlay", []),
            (cli, "write_ppm", "render.write_ppm", [written]),
        ]

    def _wrap(self, fn, name, hooks):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[idx] = (name, start, end, parent)
            for hook in hooks:
                hook(tracer, args, result)
            return result
        return traced

    def install(self):
        for owners, attr, name, hooks in self._sites:
            owners = owners if isinstance(owners, tuple) else (owners,)
            wrapped = self._wrap(getattr(owners[0], attr), name, hooks)
            for owner in owners:
                self._saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take_pass(self):
        """Per-layer metrics of the spans and counts since the last call."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], defaultdict(float)
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent in spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(spans):
            self_time[name] += end - start - child[idx]
        out = dict(counts)
        for key in ("gridmetric.build_grid", "gridmetric.dijkstra", "backward.pull_back",
                    "backward.label", "backward.expansion_ratios",
                    "backward.shrink_fit", "dynamics.classify", "dynamics.cloud",
                    "dynamics.sample_julia", "dynamics.orbit_derivative",
                    "dynamics.julia_distance", "metrics.density_array", "metrics.density",
                    "rays.trace", "rays.john", "rays.rho_length", "render.escape_time",
                    "render.density_field", "render.overlay", "render.write_ppm",
                    "cli.write"):
            out[key + "_s"] = total[key]
        out["backward.lift_s"] = self_time["backward.pull_back"]
        out["gridmetric.grid_distance_self_s"] = self_time["gridmetric.grid_distance"]
        # cli.write_s covers every file a command writes, the pixmap included
        out["cli.write_s"] += out["render.write_ppm_s"]
        out["gridmetric.dijkstra_ms_per_source"] = _per(
            out["gridmetric.dijkstra_s"] * 1e3, counts["gridmetric.dijkstra_sources"])
        out["backward.us_per_level"] = _per(
            out["backward.pull_back_s"] * 1e6, counts["backward.levels"])
        out["rays.ms_per_ray_point"] = _per(out["rays.trace_s"] * 1e3, counts["rays.ray_points"])
        return out, spans


def _per(amount, count):
    return amount / count if count else 0.0


def median_metrics(passes):
    keys = set().union(*passes)
    return {k: statistics.median(p.get(k, 0.0) for p in passes) for k in keys}
