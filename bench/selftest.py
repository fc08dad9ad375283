"""Self-test of the output checks: each must pass the CLI's real reports and
reject a deliberately corrupted copy.

    python3 bench/selftest.py

Corruptions: holder distances scaled by x1.5 and x0.5; expansion ratios with
the density term dropped (the Euclidean derivative); ray landings moved by
1e-3; one pixel of each render altered.  Exits 1 if any check misjudges.
"""

from __future__ import annotations

import csv
import io
import json
import random
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import checks
from run import OUT, SRC
from workloads import C_CHEB, C_I, PARAMS, expansion_ops, holder_ops, rays_render_ops

sys.path.insert(0, str(SRC))
from expmetric import cli, metrics  # noqa: E402

HERE = OUT / "selftest"


def run_op(op, name: str) -> Path:
    out = HERE / name
    shutil.rmtree(out, ignore_errors=True)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        cli.main(op.argv + ["--out", str(out)])
    return out


def copy_of(out: Path, name: str) -> Path:
    dest = HERE / name
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(out, dest)
    return dest


class Verdicts:
    def __init__(self):
        self.wrong = 0

    def expect(self, what: str, failed, check: str, rejected: bool):
        ok = (check in failed) == rejected
        self.wrong += not ok
        word = "rejected" if check in failed else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {what}: {check!r} {word}  (failed: {failed})")


def scale_distances(out: Path, factor: float) -> None:
    path = out / "holder_pairs.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        for row in rows[1:]:
            values = [checks.csv_float(v) for v in row]
            values[5] *= factor
            writer.writerow([repr(v) for v in values])


def move_landings(out: Path, step: float) -> None:
    path = out / "rays.json"
    report = json.loads(path.read_text())
    report["landings"] = {k: (None if v is None else [v[0] + step, v[1]])
                          for k, v in report["landings"].items()}
    path.write_text(json.dumps(report))


def alter_pixel(out: Path, seed: int) -> None:
    path = out / "render.ppm"
    data = bytearray(path.read_bytes())
    rgb = checks.read_ppm(path)
    header = len(data) - rgb.size
    rng = random.Random(seed)
    while True:
        j, i = rng.randrange(rgb.shape[0]), rng.randrange(rgb.shape[1])
        red = int(rgb[j, i, 0])
        if not np.all(rgb[j, i] == 255):
            break
    red = (red + 64) % 256  # a consistent heat colour, so only the recomputation can tell
    at = header + 3 * (j * rgb.shape[1] + i)
    data[at:at + 3] = bytes([red, int(red * 0.6), 255 - red])
    path.write_bytes(bytes(data))


def main() -> int:
    v = Verdicts()

    for (c, _), op in zip(PARAMS, holder_ops(seed=0)):
        out = run_op(op, f"holder-{c}")
        v.expect(f"holder c={c} as written", checks.check_holder(out, c), "d_rho bracket", False)
        for factor in (1.5, 0.5):
            bad = copy_of(out, f"holder-{c}-x{factor}")
            scale_distances(bad, factor)
            v.expect(f"holder c={c} distances x{factor}", checks.check_holder(bad, c),
                     "d_rho bracket", True)

    density = metrics.SingularMetric.density
    for c, op, check in zip((C_CHEB, C_I), expansion_ops(seed=0)[:2],
                            ("chebyshev band", "uniform envelope")):
        out = run_op(op, f"expansion-{c}")
        v.expect(f"expansion c={c} as written", checks.check_expansion(out, c, 30), check, False)
        metrics.SingularMetric.density = lambda self, z: 1.0
        try:
            bad = run_op(op, f"expansion-{c}-euclidean")
        finally:
            metrics.SingularMetric.density = density
        v.expect(f"expansion c={c} Euclidean derivative", checks.check_expansion(bad, c, 30),
                 check, True)

    for n, op in enumerate(rays_render_ops(seed=0)):
        c = C_I if "--c-im" in op.argv else C_CHEB
        out = run_op(op, f"rays-render-{n}")
        if op.argv[0] == "rays":
            v.expect(f"rays c={c} as written", checks.check_rays(out, c, 48),
                     "landings in closed form", False)
            bad = copy_of(out, out.name + "-moved")
            move_landings(bad, 1e-3)
            v.expect(f"rays c={c} landings moved by 1e-3", checks.check_rays(bad, c, 48),
                     "landings in closed form", True)
        else:
            layer = op.argv[op.argv.index("--layer") + 1]
            args = dict(c=c, layer=layer, size=1024, half=2.5)
            v.expect(f"render c={c} {layer} as written", checks.check_render(out, **args),
                     "render.ppm pixels", False)
            bad = copy_of(out, out.name + "-pixel")
            alter_pixel(bad, seed=1)
            v.expect(f"render c={c} {layer} one pixel altered",
                     checks.check_render(bad, **args), "render.ppm pixels", True)

    print("self-test:", "all checks judged right" if not v.wrong else f"{v.wrong} misjudged")
    return 1 if v.wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
