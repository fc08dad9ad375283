"""Benchmark of the expmetric command line.

    python3 bench/run.py --workload holder|expansion|rays-render
                         [--seed N] [--seconds S] [--trace 0|1]

Runs the workload's CLI commands in this one process, pass after pass, for
``--seconds`` seconds, checks every report, and prints as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones, taken from traced passes.  The line
before it gives the details: every pass time, the set-up samples, the
reference-loop timings and the checks that failed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from refloop import reference_loop_ms

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
REFERENCE_LOOPS = 3            # timed before and after each command
REFERENCE_MS = 18.0            # reference-loop time that defines a reference second
TIME_UNITS = ("s", "ms/source", "us/level", "ms/point")
# A fresh interpreter times the reference loop, imports expmetric.cli and
# builds its parser, and times the loop again.
CHILD_CODE = f"""
import sys, time
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from refloop import reference_loop_ms
loops = [reference_loop_ms() for _ in range({REFERENCE_LOOPS})]
t = time.perf_counter()
import expmetric.cli
expmetric.cli._build_parser()
seconds = time.perf_counter() - t
loops += [reference_loop_ms() for _ in range({REFERENCE_LOOPS})]
print(seconds, *loops)
"""


def to_reference(loops) -> float:
    """The factor that turns seconds into reference seconds: seconds on a
    machine whose reference loop takes REFERENCE_MS.  The mean, not the
    median, of the loop timings: a command pays for short slow spells too."""
    return REFERENCE_MS / statistics.fmean(loops)


def fresh_import(*flags):
    """(seconds, factor, loop timings, stderr) of one import in a fresh interpreter."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    res = subprocess.run([sys.executable, *flags, "-c", CHILD_CODE], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    seconds, *loops = map(float, res.stdout.split())
    return seconds, to_reference(loops), loops, res.stderr


def topmost_cumulative(importtime: str, package: str) -> float:
    """Seconds of cumulative import time of ``package``'s outermost modules in
    ``-X importtime`` output, whose lines list children before their parent."""
    entries = []
    for line in importtime.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            name = fields[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), int(fields[1]), name.strip()))
    total, stack = 0, []
    for indent, cumulative, name in reversed(entries):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        mine = name == package or name.startswith(package + ".")
        if mine and not inside:
            total += cumulative
        stack.append((indent, inside or mine))
    return total / 1e6


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


class Runner:
    """Runs operations, checks their reports and keeps the tallies of a run."""

    def __init__(self, cli, workload: str):
        self.cli = cli
        self.out = OUT / workload
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.verdicts = {}
        self.deterministic = True

    def run_pass(self, ops, tally=True):
        """Runs each operation once.  Returns the seconds spent in the CLI, the
        same in reference seconds (each command scaled by the reference loops
        timed just before and just after it), and the loop timings."""
        spent = spent_ref = 0.0
        before = [reference_loop_ms() for _ in range(REFERENCE_LOOPS)]
        loops = list(before)
        for i, op in enumerate(ops):
            out = self.out / f"op{i}"
            shutil.rmtree(out, ignore_errors=True)
            argv = op.argv + ["--out", str(out)]
            sink = io.StringIO()
            with redirect_stdout(sink), redirect_stderr(sink):
                t0 = perf_counter()
                try:
                    status = self.cli.main(argv)
                except SystemExit as exc:
                    status = exc.code
                except Exception as exc:  # a crash fails the operation, not the run
                    status = f"{type(exc).__name__}: {exc}"
                seconds = perf_counter() - t0
            after = [reference_loop_ms() for _ in range(REFERENCE_LOOPS)]
            spent += seconds
            spent_ref += seconds * to_reference(before + after)
            loops += after
            before = after
            if tally:
                self._tally(op, out, status)
        return spent, spent_ref, loops

    def _tally(self, op, out: Path, status):
        self.attempted += 1
        if status not in (0, None):
            failed = [f"command exited: {status}"]
        else:
            digest = hashlib.sha256()
            for path in sorted(out.rglob("*")):
                digest.update(path.name.encode() + path.read_bytes())
            # reports identical to ones already checked need no second check
            seen = self.verdicts.setdefault(op.label, {})
            if seen and digest.digest() not in seen:
                self.deterministic = False
            if digest.digest() not in seen:
                try:
                    seen[digest.digest()] = op.check(out)
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    seen[digest.digest()] = [
                        f"report unreadable by the checks: {type(exc).__name__}: {exc}"]
            failed = seen[digest.digest()]
        if failed:
            self.failed += 1
            entry = self.failures.setdefault(op.label, {"checks": failed, "count": 0})
            entry["count"] += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "expmetric" / "cli.py").is_file():
        print(f"bench: {SRC / 'expmetric'} not found; run from a checkout of expmetric",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from expmetric import backward, cli, gridmetric, metrics, rays
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    ops = workloads.WORKLOADS[args.workload](args.seed)
    runner = Runner(cli, args.workload)
    runner.run_pass(workloads.WARMUP[args.workload](args.seed), tally=False)
    gc.collect()

    # raw seconds, and the same in reference seconds, of passes and set-up samples
    plain, plain_ref, traced, traced_ref, setups, setups_ref = [], [], [], [], [], []
    layer_passes, span_passes, refs = [], [], []
    tracer = tracing.Tracer({"cli": cli, "backward": backward, "gridmetric": gridmetric,
                             "metrics": metrics, "rays": rays})

    def measure(raw, scaled):
        seconds, seconds_ref, loops = runner.run_pass(ops)
        raw.append(seconds)
        scaled.append(seconds_ref)
        refs.extend(loops)
        return seconds_ref / seconds

    def setup_sample():
        seconds, factor, loops, _ = fresh_import()
        setups.append(seconds)
        setups_ref.append(seconds * factor)
        refs.extend(loops)

    t_start = perf_counter()
    while True:
        measure(plain, plain_ref)
        if args.trace:
            tracer.install()
            try:
                factor = measure(traced, traced_ref)
            finally:
                tracer.uninstall()
            layers, spans = tracer.take_pass()
            layer_passes.append({k: v * factor if units.get(k) in TIME_UNITS else v
                                 for k, v in layers.items()})
            span_passes.append(spans)
        elif len(setups) < SETUP_SAMPLES:
            setup_sample()
        gc.collect()
        # the run lasts --seconds rounded to a whole number of passes
        cycle = statistics.median(plain) + (statistics.median(traced) if traced else 0.0)
        if perf_counter() - t_start + cycle / 2.0 > args.seconds:
            break

    if args.trace:
        values = tracing.median_metrics(layer_passes)
        imports = []
        for _ in range(3):
            _, factor, loops, importtime = fresh_import("-X", "importtime")
            imports.append({f"import.{p}_s": topmost_cumulative(importtime, p) * factor
                            for p in ("expmetric", "scipy")})
            refs.extend(loops)
        for key in imports[0]:
            values[key] = statistics.median(i[key] for i in imports)
        values["trace.overhead_s"] = statistics.median(traced_ref) - statistics.median(plain_ref)
        wanted = spec["per_layer"]
        with open(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            for n, (spans, layers) in enumerate(zip(span_passes, layer_passes)):
                fh.write(json.dumps({"pass": n, "spans": spans, "metrics": layers}) + "\n")
    else:
        while len(setups) < SETUP_SAMPLES:
            setup_sample()
        values = {"wall_s": statistics.median(plain_ref),
                  "setup_s": statistics.median(setups_ref),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        wanted = spec["end_to_end"]

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "pass_s": plain, "pass_ref_s": plain_ref, "traced_pass_s": traced,
              "traced_pass_ref_s": traced_ref, "setup_s": setups, "setup_ref_s": setups_ref,
              "reference_loop_ms": {"median": statistics.median(refs),
                                    "quartiles": quartiles(refs), "samples": len(refs)},
              "failures": runner.failures}
    print(json.dumps(detail))
    metrics_out = {}
    for m in wanted:
        value = values.get(m["name"], 0.0)
        if m["unit"] in ("count", "bytes") and float(value).is_integer():
            value = int(value)
        metrics_out[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": runner.deterministic, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
