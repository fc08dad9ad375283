"""Acceptance gate: ten desk-scale criteria, one pass/fail line each.

Each criterion prints a single summary line (bypassing capture) and then
asserts, so the verdicts are visible in any pytest run.  Criteria 4-9 are
driven through the command-line entry point so that criterion 10 can check
byte-identical report files across reruns.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

import expmetric as em
from expmetric import cli
from expmetric.backward import (
    BackwardDiskOrbit, expansion_ratios, pull_back, shrink_fit,
)
from expmetric.metrics import SingularMetric, Variant

SQRT2 = math.sqrt(2.0)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _allow_verdict_lines(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _line(num, name, ok, detail=""):
    msg = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        msg += f" -- {detail}"
    with _CAPTURE.disabled():
        print(msg, flush=True)
    return ok


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """All command-line runs backing criteria 4-9, with timings recorded."""
    root = tmp_path_factory.mktemp("acceptance")
    registry = {}

    def run(name, argv):
        out = root / name
        full = argv + ["--out", str(out)]
        t0 = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            assert cli.main(full) == 0
        registry[name] = {
            "argv": full, "dir": out, "seconds": time.perf_counter() - t0,
        }

    run("expansion-cheb",
        ["expansion", "--c-re", "-2", "--orbits", "50", "--depth", "30",
         "--seed", "0"])
    run("expansion-i",
        ["expansion", "--c-re", "0", "--c-im", "1", "--orbits", "50",
         "--depth", "30", "--seed", "0"])
    run("holder-cheb", ["holder", "--c-re", "-2", "--grid-res", "512",
                        "--seed", "0"])
    run("holder-i", ["holder", "--c-re", "0", "--c-im", "1",
                     "--grid-res", "512", "--seed", "0"])
    eighths = ",".join(str(k / 8) for k in range(8))
    run("rays-circle", ["rays", "--c-re", "0", "--angles", eighths,
                        "--depth", "35"])
    for tag, c_flags in (("cheb", ["--c-re", "-2"]),
                         ("i", ["--c-re", "0", "--c-im", "1"])):
        for depth in (40, 50):
            run(f"rays-{tag}-{depth}",
                ["rays", *c_flags, "--angles", "0.1,0.3",
                 "--depth", str(depth)])
    run("rays-landing", ["rays", "--c-re", "-2", "--angles", "0,0.5",
                         "--depth", "30"])
    return registry


def _report(runs, name):
    d = runs[name]["dir"]
    for fname in ("expansion.json", "holder.json", "rays.json"):
        if (d / fname).exists():
            return json.loads((d / fname).read_text())
    raise AssertionError(f"no report in {d}")


def _ratio_rows(runs, name):
    rows = (runs[name]["dir"] / "expansion_ratios.csv").read_text().splitlines()
    per = {}
    for row in rows[1:]:
        k, lvl, ratio = row.split(",")
        per.setdefault(int(k), []).append((int(lvl), float(ratio)))
    return per


# ---------------------------------------------------------------------------


def test_criterion_1_comparison_function_sandwich():
    t0 = time.perf_counter()
    ts = np.linspace(0.0, 1.0, 10_000, endpoint=False)
    sandwich_bad = 0
    agree_bad = 0
    for d in range(2, 9):
        for t in ts:
            v = em.series_F_times_power(d, float(t))
            if not (1.0 / d - 1e-15 <= v <= 1.0 + 1e-15):
                sandwich_bad += 1
            if 0.0 < t <= 0.999:
                closed = em.comparison_F_closed_form(d, float(t))
                series = em.comparison_F(d, float(t))
                if abs(closed - series) > 1e-9 * abs(series):
                    agree_bad += 1
    secs = time.perf_counter() - t0
    ok = sandwich_bad == 0 and agree_bad == 0 and secs < 1.0
    assert _line(1, "F_d sandwich", ok,
                 f"{sandwich_bad} sandwich / {agree_bad} agreement violations "
                 f"on 7x10^4 points, {secs:.2f}s")


def test_criterion_2_orbifold_ratio_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for d in (2, 3, 4):
        for _ in range(1000):
            t = rng.uniform(1e-3, 1.0 - 1e-3)
            z = t * np.exp(2j * np.pi * rng.uniform())
            ratio = (em.orbifold_density_disk(d, z)
                     / em.hyperbolic_density_disk(1.0, z))
            worst = max(worst, abs(ratio - em.comparison_F(d, t)))
    secs = time.perf_counter() - t0
    ok = worst <= 1e-10 and secs < 1.0
    assert _line(2, "orbifold ratio identity", ok,
                 f"max deviation {worst:.2e} on 3x10^3 samples, {secs:.2f}s")


def test_criterion_3_koebe_distortion():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    violations = 0
    for _ in range(10_000):
        r = rng.uniform(0.3, 3.0)
        s = rng.uniform(1e-3, 0.99) * r
        z = s * np.exp(2j * np.pi * rng.uniform())
        g = r * z / (r - z)  # univalent on B(0, r), g'(0) = 1
        ratio = abs(g) / abs(z)
        kb = em.koebe_bounds(1.0, r, s)
        if not (kb.lower - 1e-12 <= ratio <= kb.upper + 1e-12):
            violations += 1
    secs = time.perf_counter() - t0
    ok = violations == 0 and secs < 1.0
    assert _line(3, "Koebe bounds", ok,
                 f"{violations} violations on 10^4 samples, {secs:.2f}s")


def _window_envelope(per_orbit, depth):
    """Lower envelope E(k) = min log(R_b / R_a) over orbits and levels b - a = k.

    With R_0 = 1, the chain rule makes R_b / R_a the expansion ratio at z_b
    over b - a steps, so every pair of recorded levels of an orbit samples the
    uniform bound R >= C lambda^n.  Skipped levels drop out of the pairs.
    Returns E(1), ..., E(depth); a length with no window stays +inf.
    """
    env = np.full(depth + 1, np.inf)
    for series in per_orbit.values():
        levels = np.array([0] + [lvl for lvl, _ in series])
        logs = np.log([1.0] + [ratio for _, ratio in series])
        gaps = levels[None, :] - levels[:, None]
        rises = logs[None, :] - logs[:, None]
        ahead = gaps > 0
        np.minimum.at(env, gaps[ahead], rises[ahead])
    return env[1:]


# The fitted log lambda must exceed 0 by this many standard errors.  The
# envelope takes its minimum over fewer windows at longer lengths, so it rises
# a little even without expansion: over seeds 0-9, flat U[0.7, 1.3] ratios fit
# lambda up to 1.0018, at most 1.7 standard errors above 1, while the runs of
# criterion 4 stand 41 or more standard errors above 1.
LAMBDA_MARGIN_SE = 3.0


def _uniform_half_bound(envelope, fit_len):
    """Fit log C + k log lambda to E(1..fit_len) by least squares.

    Returns (lambda, C, worst, lambda_low), where worst is the least
    exp(E(k)) / (C lambda^k) over every length k, and lambda_low is lambda
    lowered by LAMBDA_MARGIN_SE standard errors of the fitted log lambda.
    """
    ks = np.arange(1, len(envelope) + 1)
    (slope, intercept), cov = np.polyfit(ks[:fit_len], envelope[:fit_len], 1, cov=True)
    worst = float(np.exp(np.min(envelope - intercept - slope * ks)))
    low = slope - LAMBDA_MARGIN_SE * math.sqrt(cov[0, 0])
    return math.exp(slope), math.exp(intercept), worst, math.exp(low)


def _half_bound_holds(lam_low, worst):
    """Expansion beyond the fit's spread, and every window within half the bound."""
    return lam_low > 1.0 and worst >= 0.5


def _noisy_geometric(lam, orbits, depth, seed):
    rng = np.random.default_rng(seed)
    return {k: [(n, lam**n * rng.uniform(0.7, 1.3)) for n in range(1, depth + 1)]
            for k in range(orbits)}


def _dip(per_orbit, orbit, level, factor):
    """Copy of ``per_orbit`` with one orbit's ratio at ``level`` scaled."""
    out = {k: list(series) for k, series in per_orbit.items()}
    out[orbit] = [(n, r * factor if n == level else r) for n, r in out[orbit]]
    return out


def test_uniform_half_bound_accepts_noisy_geometric_and_rejects_dips():
    depth, fit_len = 30, 10
    data = _noisy_geometric(1.5, 50, depth, seed=3)
    lam, c, worst, lam_low = _uniform_half_bound(_window_envelope(data, depth), fit_len)
    assert _half_bound_holds(lam_low, worst)
    assert lam == pytest.approx(1.5, rel=0.02)
    assert c == pytest.approx(0.7 / 1.3, rel=0.05)  # the worst noise window

    # a x0.01 dip at level 5 lowers only windows of length <= 5, bending the
    # envelope inside the fitted range: no single C, lambda fits every length
    _, _, worst, lam_low = _uniform_half_bound(
        _window_envelope(_dip(data, 7, 5, 0.01), depth), fit_len)
    assert not _half_bound_holds(lam_low, worst)

    # the same dip at the last level lowers windows of every length alike:
    # still a uniform bound, with C lowered by the dip
    _, c, worst, lam_low = _uniform_half_bound(
        _window_envelope(_dip(data, 7, depth, 0.01), depth), fit_len)
    assert _half_bound_holds(lam_low, worst) and c < 0.02

    # lengths past the fitted range are checked too: one long window at x0.3
    envelope = np.arange(1, depth + 1) * math.log(1.5)
    envelope[24] += math.log(0.3)
    lam, _, worst, _ = _uniform_half_bound(envelope, fit_len)
    assert lam == pytest.approx(1.5) and worst == pytest.approx(0.3)

    flat = {k: [(n, 1.0) for n in range(1, depth + 1)] for k in range(50)}
    lam, _, worst, lam_low = _uniform_half_bound(_window_envelope(flat, depth), fit_len)
    assert lam <= 1.0 and not _half_bound_holds(lam_low, worst)

    # flat noisy ratios, no expansion at all: the envelope fits lambda just
    # above 1 at four of these seeds, but not by the margin
    for seed in range(5):
        lam, _, worst, lam_low = _uniform_half_bound(
            _window_envelope(_noisy_geometric(1.0, 50, depth, seed), depth), fit_len)
        assert lam == pytest.approx(1.0, abs=0.003) and worst >= 0.5
        assert not _half_bound_holds(lam_low, worst)


def test_criterion_4_metric_expansion(runs):
    # The theorem's C and lambda are uniform over z and n, so the half-bound is
    # tested against one lower envelope per run, not each orbit's own fit.
    # The fit stops at depth // 3, where every length still has at least
    # orbits x (2 depth / 3 + 1) windows; the bound is checked at every length.
    lam_bad = []
    bounds = {}
    for tag, name in (("c=-2", "expansion-cheb"), ("c=i", "expansion-i")):
        report = _report(runs, name)
        for summary in report["orbits"]:
            if summary["lambda"] <= 1.0:
                lam_bad.append((name, summary["orbit"]))
        depth = report["config"]["depth"]
        envelope = _window_envelope(_ratio_rows(runs, name), depth)
        bounds[tag] = _uniform_half_bound(envelope, depth // 3)
    # hand oracle: R_1 = |f'(sqrt 2)| sigma(0)/sigma(sqrt 2) = 2 sqrt(2 - sqrt 2)
    fmap = em.UnicriticalMap(2, -2)
    cloud = em.build_postcritical_cloud(em.critical_orbit(fmap, 50)[0])
    orbit = BackwardDiskOrbit(fmap, 0.0, 0.1, cloud=cloud)
    pull_back(fmap, orbit, 1, 0)
    spot = expansion_ratios(
        np.array([orbit.points]), SingularMetric(cloud, 2, Variant.SIGMA))[0][0, 1]
    spot_ok = abs(spot - 2.0 * math.sqrt(2.0 - SQRT2)) < 1e-12
    secs = runs["expansion-cheb"]["seconds"] + runs["expansion-i"]["seconds"]
    ok = (not lam_bad
          and all(_half_bound_holds(lam_low, worst)
                  for _, _, worst, lam_low in bounds.values())
          and spot_ok and secs < 10.0)
    assert _line(4, "metric expansion", ok,
                 f"lambda<=1 on {len(lam_bad)} orbits; uniform bound "
                 + ", ".join(f"{tag}: lambda {lam:.3f} (>= {lam_low:.3f}) C {c:.3f} "
                             f"worst x{worst:.3f}"
                             for tag, (lam, c, worst, lam_low) in bounds.items())
                 + f"; spot R_1 {'ok' if spot_ok else 'off'}; {secs:.1f}s")


def test_criterion_5_pullback_shrinking(runs):
    theta_bad = []
    for name in ("expansion-cheb", "expansion-i"):
        for summary in _report(runs, name)["orbits"]:
            if summary["theta"] >= 0.95:
                theta_bad.append((name, summary["orbit"]))
    # calibration stub: z^2 on the unit circle halves diameters each pullback
    t0 = time.perf_counter()
    fmap = em.UnicriticalMap(2, 0)
    orbit = BackwardDiskOrbit(fmap, 1.0, 0.05,
                              cloud=em.build_postcritical_cloud(em.critical_orbit(fmap, 5)[0]))
    pull_back(fmap, orbit, 12, 0)
    _, [theta_stub] = shrink_fit(np.array([orbit.diams]))
    stub_ok = abs(theta_stub - 0.5) <= 0.05
    secs = (runs["expansion-cheb"]["seconds"] + runs["expansion-i"]["seconds"]
            + time.perf_counter() - t0)
    ok = not theta_bad and stub_ok and secs < 30.0
    assert _line(5, "pullback shrinking", ok,
                 f"theta>=0.95 on {len(theta_bad)} orbits; "
                 f"stub theta {theta_stub:.4f}; {secs:.1f}s")


def test_criterion_6_single_critical_pass(runs, tmp_path):
    multi = []
    for name in ("expansion-cheb", "expansion-i"):
        for summary in _report(runs, name)["orbits"]:
            if summary["case_counts"]["critical"] > 1:
                multi.append((name, summary["orbit"]))
    # the command itself refuses an orbit's second critical level: a disk
    # holding the whole Julia set of z^2 - 2 meets the critical value twice
    refusal = ""
    try:
        with redirect_stdout(io.StringIO()):
            cli.main(["expansion", "--c-re", "-2", "--epsilon", "3", "--orbits", "1",
                      "--depth", "10", "--seed", "4", "--out", str(tmp_path)])
    except SystemExit as exc:
        refusal = str(exc.code)
    refused = "second critical level" in refusal and "\n" not in refusal
    assert _line(6, "single critical pass", not multi and refused,
                 f"{len(multi)} orbits with two critical labels "
                 f"across 100 orbits; epsilon 3 {'refused' if refused else 'NOT refused'}")


def test_criterion_7_hoelder_equivalence():
    t0 = time.perf_counter()
    # node-aligned box: 0, 0.1, and the cloud points of both parameters sit
    # on lattice points at resolution 512 (h = 0.01), removing snapping error
    bbox = (complex(-2.55, -2.55), complex(2.56, 2.56))
    details = []
    ok = True
    spot = None
    for c in (-2.0 + 0.0j, 1j):
        fmap = em.UnicriticalMap(2, c)
        cloud = em.build_postcritical_cloud(em.critical_orbit(fmap, 2000)[0])
        metric = SingularMetric(cloud, 2, Variant.RHO)
        grid = em.build_grid(metric, bbox, 512)
        rng = np.random.default_rng(6)
        pairs = [(a, b) for a, b in cli.holder_sample_pairs(cloud, rng)
                 if grid.contains(a) and grid.contains(b) and 0 < abs(a - b) < 1]
        seps = np.array([abs(b - a) for a, b in pairs])
        dists = np.array([em.grid_distance(grid, a, b) for a, b in pairs])
        fit = em.holder_fit(seps, dists)
        audit = em.verify_lower_bound(grid, pairs, dists)
        upper_c = em.uniform_upper_constant(seps, dists, metric.alpha)
        single_c_ok = all(d <= upper_c * s ** metric.alpha + 1e-9
                          for s, d in zip(seps, dists))
        ok &= (0.45 <= fit.exponent <= 1.0 and not audit["violations"]
               and math.isfinite(upper_c) and single_c_ok)
        details.append(f"c={c}: exp {fit.exponent:.3f}, "
                       f"{len(audit['violations'])} lb violations")
        if c == -2.0:
            spot = em.grid_distance(grid, 0.0 + 0.0j, 0.1 + 0.0j)
    spot_ok = 0.1 <= spot <= 1.09 * 0.171618
    secs = time.perf_counter() - t0
    ok = ok and spot_ok and secs < 60.0
    assert _line(7, "Hoelder equivalence", ok,
                 "; ".join(details) + f"; spot d_rho(0,0.1)={spot:.6f}; "
                 f"{secs:.1f}s")


def test_criterion_8_john_geometry(runs):
    circle = _report(runs, "rays-circle")
    circle_ok = abs(circle["john"]["constant"] - 1.0) <= 0.05
    stable_ok = True
    floor_ok = True
    details = [f"c=0 john {circle['john']['constant']:.4f}"]
    for tag in ("cheb", "i"):
        per40 = {e["theta"]: e["constant"]
                 for e in _report(runs, f"rays-{tag}-40")["john"]["per_ray"]}
        per50 = {e["theta"]: e["constant"]
                 for e in _report(runs, f"rays-{tag}-50")["john"]["per_ray"]}
        for theta, c40 in per40.items():
            c50 = per50[theta]
            floor_ok &= min(c40, c50) >= 0.01
            stable_ok &= abs(c40 - c50) <= 0.25 * c40
        details.append(f"{tag}: " + ", ".join(
            f"{c:.3f}" for c in per40.values()))
    secs = sum(runs[n]["seconds"]
               for n in ("rays-circle", "rays-cheb-40", "rays-cheb-50",
                         "rays-i-40", "rays-i-50"))
    ok = circle_ok and stable_ok and floor_ok and secs < 30.0
    assert _line(8, "John geometry", ok, "; ".join(details) + f"; {secs:.1f}s")


def test_criterion_9_ray_landing(runs):
    report = _report(runs, "rays-landing")
    z0 = complex(*report["landings"]["0.0"])
    z5 = complex(*report["landings"]["0.5"])
    secs = runs["rays-landing"]["seconds"]
    ok = abs(z0 - 2.0) < 1e-4 and abs(z5 + 2.0) < 1e-4 and secs < 5.0
    assert _line(9, "ray landing", ok,
                 f"theta=0 -> {z0:.6f}, theta=1/2 -> {z5:.6f}; {secs:.1f}s")


def test_criterion_10_determinism(runs):
    mismatches = []
    for name, info in runs.items():
        before = {p.name: p.read_bytes() for p in sorted(info["dir"].iterdir())}
        with redirect_stdout(io.StringIO()):
            assert cli.main(info["argv"]) == 0
        for fname, blob in before.items():
            if (info["dir"] / fname).read_bytes() != blob:
                mismatches.append(f"{name}/{fname}")
    assert _line(10, "determinism", not mismatches,
                 f"{len(mismatches)} changed files across "
                 f"{len(runs)} rerun commands")
