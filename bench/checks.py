"""Checks of the CLI's reports, computed apart from the program.

Every checker takes a report directory and the command's parameters, and
returns the names of the checks that failed (an empty list when all pass).
Each check either recomputes a value by its own means or tests a property the
mathematics guarantees; none compares against a stored copy of earlier
output.  bench/README.md derives every tolerance used here.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import re
from pathlib import Path

import numpy as np

# P(f) of the two parameters; both critical orbits are exact in floating point
# (0 -> -2 -> 2 -> 2 and 0 -> i -> -1+i -> -i -> -1+i).
POSTCRITICAL = {complex(-2, 0): (complex(-2, 0), complex(2, 0)),
                complex(0, 1): (complex(0, 1), complex(-1, 1), complex(0, -1))}

OCTILE_FACTOR = 1.082          # octile paths exceed straight length by at most this
BAND_SLACK = 1e-3              # forward re-iteration error allowance on R_n / 2^n
THETA_MAX = 0.95
LANDING_TOL = 1e-4             # tells landings apart; neighbours sit >= 1.7e-2 apart
EQUIVARIANCE_TOL = 5e-4        # |f'| <= 4 on J amplifies LANDING_TOL-sized errors
POTENTIAL_RTOL = 1e-6
POTENTIAL_ESCAPE = 1e10
ESCAPE_MAX_ITER = 128          # escape-time layer: iterations before a pixel counts as bounded

_NP_FLOAT = re.compile(r"np\.float64\((.*)\)")


def strict_json(path: Path):
    """json.loads that refuses NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-finite token {token}")
    return json.loads(path.read_text(), parse_constant=refuse)


def csv_float(text: str) -> float:
    """A CSV float, written plainly or as NumPy 2's ``np.float64(...)`` repr."""
    m = _NP_FLOAT.fullmatch(text)
    return float(m.group(1) if m else text)


def read_csv(path: Path, header):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != header:
        raise ValueError(f"header {rows[0]}")
    return [[csv_float(v) for v in row] for row in rows[1:]]


class _Checks:
    def __init__(self):
        self.failed = []

    def parse(self, name, load, *args):
        try:
            return load(*args)
        except (OSError, ValueError, IndexError):
            self.failed.append(name)
            return None

    def require(self, name, ok):
        if not ok:
            self.failed.append(name)


# -- holder ---------------------------------------------------------------

def bracket_bounds(s: float, h: float):
    """Lower and upper limits for the grid d_rho of a pair at separation s
    straddling a point of P, with the discretisation slack of the README."""
    rho_max = 1.0 + max(s / 2.0 - h, h / 2.0) ** -0.5
    slack = 4.0 * h * rho_max + 2.0 * math.sqrt(2.0 * h)
    lower = s + 2.0 * math.sqrt(s) - slack
    upper = OCTILE_FACTOR * (s + 2.0 * math.sqrt(2.0 * s)) + slack
    return lower, upper


def bracket_holds(rows, h: float, c: complex) -> bool:
    tested = 0
    for x0, y0, x1, y1, s, d in rows:
        z0, z1 = complex(x0, y0), complex(x1, y1)
        mid = (z0 + z1) / 2.0
        straddles = min(abs(mid - p) for p in POSTCRITICAL[c]) <= 1e-9
        if not straddles or abs(s - abs(z1 - z0)) > 1e-9 * s:
            return False
        if s >= 2.0 * h:
            lower, upper = bracket_bounds(s, h)
            if not lower <= d <= upper:
                return False
            tested += 1
    return tested > 0


def check_holder(out: Path, c: complex):
    ck = _Checks()
    report = ck.parse("holder.json strict parse", strict_json, out / "holder.json")
    rows = ck.parse("holder_pairs.csv parse", read_csv, out / "holder_pairs.csv",
                    ["z0_re", "z0_im", "z1_re", "z1_im", "separation", "d_rho"])
    if report is not None and rows is not None:
        ck.require("lower-bound audit",
                   report["lower_bound_audit"] == {"checked": len(rows), "violations": 0})
        ck.require("d_rho bracket", bracket_holds(rows, report["grid"]["h"], c))
    return ck.failed


# -- expansion ------------------------------------------------------------

def window_envelope(per_orbit, depth: int) -> np.ndarray:
    """E(k) = min log(R_b / R_a) over orbits and recorded levels b - a = k,
    with R_0 = 1; by the chain rule each window is an expansion ratio over k
    steps.  Returns E(1..depth); a length with no window stays +inf."""
    env = np.full(depth + 1, np.inf)
    for series in per_orbit.values():
        levels = np.array([0] + [lvl for lvl, _ in series])
        logs = np.log([1.0] + [r for _, r in series])
        gaps = levels[None, :] - levels[:, None]
        rises = logs[None, :] - logs[:, None]
        ahead = gaps > 0
        np.minimum.at(env, gaps[ahead], rises[ahead])
    return env[1:]


def uniform_half_bound(envelope: np.ndarray, fit_len: int):
    """(lambda, C, worst) of a least-squares fit log C + k log lambda to
    E(1..fit_len); worst is the least exp(E(k)) / (C lambda^k) over all k."""
    ks = np.arange(1, len(envelope) + 1)
    slope, intercept = np.polyfit(ks[:fit_len], envelope[:fit_len], 1)
    worst = float(np.exp(np.min(envelope - intercept - slope * ks)))
    return math.exp(slope), math.exp(intercept), worst


def envelope_holds(per_orbit, depth: int) -> bool:
    with np.errstate(divide="ignore", invalid="ignore"):
        lam, _, worst = uniform_half_bound(window_envelope(per_orbit, depth), depth // 3)
    return lam > 1.0 and worst >= 0.5


def chebyshev_band_holds(per_orbit) -> bool:
    lo = (1.0 - BAND_SLACK) / math.sqrt(2.0)
    hi = (1.0 + BAND_SLACK) * math.sqrt(2.0)
    return all(lo <= r / 2.0**lvl <= hi for series in per_orbit.values() for lvl, r in series)


def _ratio_series(path: Path):
    per_orbit = {}
    for orbit, level, ratio in read_csv(path, ["orbit", "level", "ratio"]):
        per_orbit.setdefault(int(orbit), []).append((int(level), ratio))
    return per_orbit


def check_expansion(out: Path, c: complex, depth: int):
    ck = _Checks()
    per_orbit = ck.parse("expansion_ratios.csv parse", _ratio_series,
                         out / "expansion_ratios.csv")
    report = ck.parse("expansion.json strict parse", strict_json, out / "expansion.json")
    if report is not None:
        ck.require("at most one critical label",
                   all(o["case_counts"]["critical"] <= 1 for o in report["orbits"]))
        ck.require("theta below 0.95", all(o["theta"] < THETA_MAX for o in report["orbits"]))
    if per_orbit is not None:
        if c == complex(-2, 0):
            ck.require("chebyshev band", chebyshev_band_holds(per_orbit))
        else:
            ck.require("uniform envelope", envelope_holds(per_orbit, depth))
    return ck.failed


# -- rays -----------------------------------------------------------------

def closed_form_landings(c: complex, n_angles: int):
    """Landing points known in closed form, keyed by the angle index k of k/n."""
    if c == complex(-2, 0):
        return {k: complex(2.0 * math.cos(2.0 * math.pi * k / n_angles), 0.0)
                for k in range(n_angles)}
    beta = (1.0 + cmath.sqrt(1.0 - 4.0 * c)) / 2.0
    known = {0: beta, 1 / 6: c, 1 / 3: c * c + c, 2 / 3: (c * c + c) ** 2 + c,
             1 / 12: 0j, 7 / 12: 0j}
    return {round(t * n_angles): z for t, z in known.items()}


def potential(z: complex, c: complex):
    """Escape potential log|f^n(z)| / 2^n at the first escape past 1e10, and
    a bound on its roundoff: |grad G| times the running backward error
    eps * sum_k (|w_k|^2 + |c|) / |(f^(k+1))'(z)| of the orbit."""
    w, dw = z, 1.0 + 0j
    back = abs(z)
    for k in range(4000):
        if abs(w) > POTENTIAL_ESCAPE:
            grad = abs(dw) / (2.0**k * abs(w))
            return math.log(abs(w)) / 2.0**k, 8.0 * 2.2e-16 * grad * back
        dw = 2.0 * w * dw
        w = w * w + c
        if dw == 0:
            break
        back += (abs(w - c) + abs(c)) / abs(dw)
    return 0.0, math.inf


def potentials_match(rows, c: complex) -> bool:
    for _, g, x, y in rows:
        recomputed, roundoff = potential(complex(x, y), c)
        if abs(recomputed - g) > POTENTIAL_RTOL * g + roundoff:
            return False
    return True


def check_rays(out: Path, c: complex, n_angles: int):
    ck = _Checks()
    report = ck.parse("rays.json strict parse", strict_json, out / "rays.json")
    rows = ck.parse("rays.csv parse", read_csv, out / "rays.csv",
                    ["theta", "potential", "re", "im"])
    if report is not None:
        keys = {k: repr(k / n_angles) for k in range(n_angles)}
        landed = {k: complex(*report["landings"][key]) for k, key in keys.items()
                  if report["landings"].get(key) is not None}
        ck.require("no tracing failures",
                   not report["failures"] and len(landed) == n_angles)
        ck.require("landings in closed form",
                   all(k in landed and abs(landed[k] - z) <= LANDING_TOL
                       for k, z in closed_form_landings(c, n_angles).items()))
        ck.require("landing of 2 theta is f(landing of theta)",
                   all(abs(z * z + c - landed[2 * k % n_angles]) <= EQUIVARIANCE_TOL
                       for k, z in landed.items() if 2 * k % n_angles in landed))
    if rows is not None:
        ck.require("rays.csv potentials", potentials_match(rows, c))
    return ck.failed


# -- render ---------------------------------------------------------------

def read_ppm(path: Path) -> np.ndarray:
    data = path.read_bytes()
    magic, dims, maxval, pixels = data.split(b"\n", 3)
    width, height = map(int, dims.split())
    if magic != b"P6" or maxval != b"255" or len(pixels) != 3 * width * height:
        raise ValueError("not a 255-level P6 pixmap of the stated size")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width, 3)


def pixel_rows(rows: slice, width: int, height: int, half: float) -> np.ndarray:
    """Pixel centres of the given rows; the top row has the largest imaginary part."""
    xs = np.linspace(-half, half, width)
    ys = np.linspace(half, -half, height)[rows]
    return xs[None, :] + 1j * ys[:, None]


def escape_counts(z: np.ndarray, c: complex) -> np.ndarray:
    """Iterations before |f^(k+1)(z)| exceeds max(2, |c|) + 1, by plain
    iteration of the points still bounded; ESCAPE_MAX_ITER when none is."""
    r_esc = max(2.0, abs(c)) + 1.0
    counts = np.full(z.size, ESCAPE_MAX_ITER, dtype=float)
    idx = np.arange(z.size)
    w = z.ravel().copy()
    for k in range(ESCAPE_MAX_ITER):
        w = w * w + c
        out = np.abs(w) > r_esc
        counts[idx[out]] = k
        idx, w = idx[~out], w[~out]
        if not idx.size:
            break
    return counts.reshape(z.shape)


def log_density(z: np.ndarray, c: complex) -> np.ndarray:
    """log(1 + rho) with rho = 1 + dist(z, P)^(-1/2) over the exact P(f)."""
    dist = np.min([np.abs(z - p) for p in POSTCRITICAL[c]], axis=0)
    return np.log1p(1.0 + dist**-0.5)


def pixels_match(rgb: np.ndarray, layer: str, c: complex, half: float) -> bool:
    """Compares every pixel not covered by a ray overlay with the heat map of
    the recomputed field.  The field is built in row blocks so that the
    check's memory stays below the program's own."""
    height, width, _ = rgb.shape
    field, tol = (escape_counts, 0) if layer == "escape-time" else (log_density, 1)
    values = np.empty((height, width))
    for top in range(0, height, 64):
        rows = slice(top, top + 64)
        values[rows] = field(pixel_rows(rows, width, height, half), c)
    lo, hi = values.min(), values.max()
    span = hi - lo if hi > lo else 1.0
    overlay = 0
    for top in range(0, height, 64):
        rows = slice(top, top + 64)
        # red: the field scaled from its least value (0) to its largest (255)
        want = ((values[rows] - lo) / span * 255.0).astype(np.int64)
        got = rgb[rows].astype(np.int64)
        heat = ~np.all(got == 255, axis=-1)  # white pixels are ray overlays
        red = got[..., 0][heat]
        overlay += heat.size - np.count_nonzero(heat)
        if not (np.all(np.abs(red - want[heat]) <= tol)
                and np.all(got[..., 1][heat] == (red * 0.6).astype(np.int64))
                and np.all(got[..., 2][heat] == 255 - red)):
            return False
    return overlay <= 0.01 * height * width


def check_render(out: Path, c: complex, layer: str, size: int, half: float):
    ck = _Checks()
    rgb = ck.parse("render.ppm header", read_ppm, out / "render.ppm")
    if rgb is not None:
        ck.require("render.ppm size", rgb.shape == (size, size, 3))
        ck.require("render.ppm pixels",
                   rgb.shape == (size, size, 3) and pixels_match(rgb, layer, c, half))
    return ck.failed
