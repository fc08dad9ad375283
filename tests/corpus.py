"""The report corpus: CLI commands whose every output byte is pinned.

``corpus.json`` holds, for each command, its argv, exit code, stdout and
stderr, and the SHA-256 of each file it writes, together with the NumPy and
Python versions and the machine it was made with.  ``test_corpus.py`` reruns
the commands and compares.  A change that declares a number change rewrites
the manifest with

    PYTHONPATH=src python tests/corpus.py

which first prints each command added or removed and, for each command kept,
which of its exit code, stdout, stderr and files moved; the change lists them.
A change that claims its reports stay byte-identical leaves the manifest
untouched.
"""

from __future__ import annotations

import hashlib
import io
import json
import platform
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

from expmetric import cli

MANIFEST = Path(__file__).with_name("corpus.json")
# the output directory, as stdout, stderr and the reports read it
OUT = "<out>"

PARAMS = (["--c-re", "-2"], ["--c-re", "0", "--c-im", "1"])
ANGLES_48 = ",".join(repr(k / 48) for k in range(48))
LAYERS = ("escape-time", "density-rho", "density-sigma", "distance-to-P")

COMMANDS = (
    [["classify", *c] for c in PARAMS]
    + [["expansion", *c, "--orbits", "8", "--depth", "30"] for c in PARAMS]
    + [["holder", *c, "--grid-res", "256"] for c in PARAMS]
    # refused: level 2 is the orbit's second critical level
    + [["expansion", "--c-re", "-2", "--epsilon", "3", "--orbits", "1", "--depth", "10",
        "--seed", "4"],
       # refused: orbit 0 stops at level 9
       ["expansion", "--c-re", "0", "--c-im", "1", "--orbits", "8", "--epsilon", "1.2",
        "--seed", "11", "--depth", "10"],
       # refused: orbit 0's diameter underflows at level 997, and orbit 0 is
       # named although orbit 2's ratio overflows a float at level 996
       ["expansion", "--c-re", "0", "--c-im", "1", "--orbits", "3", "--depth", "1000",
        "--epsilon", "0.01", "--seed", "1"],
       # refused: orbit 0's diameter underflows at level 27
       ["expansion", "--c-re", "-2", "--orbits", "2", "--depth", "30", "--epsilon", "1e-300",
        "--seed", "1"]]
    + [["rays", *c, "--depth", "50", "--angles", ANGLES_48] for c in PARAMS]
    # landed and unlanded rays in one report
    + [["rays", "--c-re", "-2", "--depth", "10", "--angles", "0.0,0.125,0.25,0.375"],
       # -0 is the angle 0
       ["rays", "--c-re", "-2", "--depth", "10", "--angles=-0,0.5"]]
    + [["render", *c, "--layer", layer, "--width", "257", "--height", "257",
        "--depth", "30", "--rays", "0.125,0.25,0.625"]
       for c in PARAMS for layer in LAYERS]
    # zoomed, and pixels more than twice as tall as they are wide
    + [["render", "--c-re", "0", "--c-im", "1", "--layer", "density-rho", "--width", "150",
        "--height", "40", "--bbox", "-0.3", "0.2", "0.8", "1.1", "--rays", "0.25,0.5"],
       # c = 1/4 keeps more cloud points than the direct search takes: the KD-tree
       ["render", "--c-re", "0.25", "--layer", "distance-to-P", "--width", "96",
        "--height", "64"],
       # no --rays: nothing is traced or overlaid
       ["render", "--c-re", "-2", "--layer", "escape-time", "--width", "64",
        "--height", "64"],
       # a box 2e-9 wide around the ray of angle 1/4
       ["render", "--c-re", "-2", "--bbox", "-1e-9", "1e-9", "-2", "2", "--width", "8",
        "--height", "8", "--rays", "0.25", "--depth", "10"],
       # refused: the Boettcher start of the ray overflows at degree 100
       ["render", "--d", "100", "--c-re", "0", "--width", "8", "--height", "8",
        "--rays", "0.5"]]
    # two landed rays and one with no distance to J at a ray point
    + [["rays", "--c-re", "0", "--c-im", "0.5", "--depth", "50", "--angles", "0.0,0.0625"]]
    + [[command, "--d", "3", "--c-re", "0", "--c-im", "0.2", *sizes]
       for command, sizes in (("expansion", ["--orbits", "8", "--depth", "30"]),
                              ("holder", ["--grid-res", "128"]))]
    # c = 1/4 keeps a cloud of 2000 points: the KD-tree
    + [["expansion", "--c-re", "0.25", "--orbits", "8", "--depth", "30"],
       ["holder", "--c-re", "0.25", "--grid-res", "128"]]
    # a zoom near the landing of the 0-ray at c = -2: 12 segments are longer
    # than the overlay's cap, 11 of them miss the widened box, and the one
    # of ray 0 is clipped and marks 64 pixels
    + [["render", "--c-re", "-2", "--layer", "escape-time", "--width", "64", "--height", "48",
        "--bbox", "2.49", "2.51", "-0.01", "0.01", "--rays", "0,0.25,0.5", "--depth", "30"],
       # 48 rays of 60 segments each in one overlay
       ["render", "--c-re", "0", "--c-im", "1", "--layer", "escape-time", "--width", "128",
        "--height", "128", "--rays", ANGLES_48, "--depth", "60"]]
)


def environment() -> dict:
    """What the bytes may depend on besides the program: NumPy's version, the
    SIMD extensions it found on this CPU, Python's version and the machine."""
    return {"numpy": np.__version__,
            "simd": np.show_config(mode="dicts")["SIMD Extensions"]["found"],
            "python": platform.python_version(),
            "machine": platform.machine()}


def run(argv, out_dir: Path) -> dict:
    """One command run in this process, as ``expmetric`` would run it: its
    exit code, stdout and stderr, and the SHA-256 of each file it wrote under
    ``out_dir``, all with ``out_dir`` read as ``<out>`` (reports record it)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = cli.main([*argv, "--out", str(out_dir)])
        except SystemExit as exc:  # read as the interpreter reads it
            code = exc.code
            if code is None:
                code = 0
            elif not isinstance(code, int):
                print(code, file=sys.stderr)
                code = 1
    files = {}
    if out_dir.is_dir():
        for path in sorted(out_dir.rglob("*")):
            if path.is_file():
                data = path.read_bytes().replace(str(out_dir).encode(), OUT.encode())
                files[path.relative_to(out_dir).as_posix()] = hashlib.sha256(data).hexdigest()
    return {"argv": list(argv), "exit": code,
            "stdout": stdout.getvalue().replace(str(out_dir), OUT),
            "stderr": stderr.getvalue().replace(str(out_dir), OUT),
            "files": files}


def changes(old, new) -> list:
    """A line for each command of the entries ``new`` that is not among
    ``old``, each of ``old`` not among ``new``, and each in both whose exit
    code, stdout, stderr or files differ, naming those."""
    before = {tuple(entry["argv"]): entry for entry in old}
    after = {tuple(entry["argv"]): entry for entry in new}
    lines = [f"removed: {shlex.join(argv)}" for argv in before if argv not in after]
    for argv, entry in after.items():
        if argv not in before:
            lines.append(f"added: {shlex.join(argv)}")
            continue
        was = before[argv]
        moved = [key for key in ("exit", "stdout", "stderr") if was[key] != entry[key]]
        moved += [name for name in sorted(was["files"].keys() | entry["files"].keys())
                  if was["files"].get(name) != entry["files"].get(name)]
        if moved:
            lines.append(f"changed: {shlex.join(argv)}: {', '.join(moved)}")
    return lines


if __name__ == "__main__":
    with TemporaryDirectory() as root:
        entries = [run(argv, Path(root) / str(k)) for k, argv in enumerate(COMMANDS)]
    old = json.loads(MANIFEST.read_text())["commands"] if MANIFEST.exists() else []
    for line in changes(old, entries):
        print(line)
    MANIFEST.write_text(json.dumps({"environment": environment(), "commands": entries},
                                   indent=1) + "\n")
    print(f"wrote {len(entries)} commands to {MANIFEST}")
