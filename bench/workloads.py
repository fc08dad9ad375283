"""The benchmark's workloads: CLI commands with the checks of their outputs.

An operation is one CLI command together with all its output checks.  Each
pass runs a workload's operations in order with the run's seed, except the
kept failing operation, whose inputs are fixed so that it fails the same way
in every run.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, List

import checks

C_CHEB = complex(-2, 0)
C_I = complex(0, 1)
PARAMS = ((C_CHEB, ["--c-re", "-2"]), (C_I, ["--c-re", "0", "--c-im", "1"]))
N_ANGLES = 48
RAY_DEPTH = 50
RENDER_SIZE = 1024
RENDER_HALF = 2.5              # the CLI's default bbox is [-2.5, 2.5]^2
OVERLAY_RAYS = 3


@dataclass(frozen=True)
class Operation:
    label: str
    argv: List[str]
    check: Callable  # check(out_dir) -> names of the failed checks


def holder_ops(seed: int, grid_res: int = 512):
    return [Operation(f"holder c={c} --grid-res {grid_res}",
                      ["holder", *flags, "--grid-res", str(grid_res), "--seed", str(seed)],
                      functools.partial(checks.check_holder, c=c))
            for c, flags in PARAMS]


def expansion_ops(seed: int, orbits: int = 50, depth: int = 30, deep: int = 50):
    ops = [Operation(f"expansion c={c} --depth {depth}",
                     ["expansion", *flags, "--orbits", str(orbits), "--depth", str(depth),
                      "--seed", str(seed)],
                     functools.partial(checks.check_expansion, c=c, depth=depth))
           for c, flags in PARAMS]
    # fails every time (forward re-iteration error and diameter underflow);
    # seed 0 whatever the run's seed, so its failure does not depend on it
    ops.append(Operation(f"expansion c={C_CHEB} --depth {deep} --seed 0",
                         ["expansion", "--c-re", "-2", "--orbits", str(orbits),
                          "--depth", str(deep), "--seed", "0"],
                         functools.partial(checks.check_expansion, c=C_CHEB, depth=deep)))
    return ops


def rays_render_ops(seed: int, n_angles: int = N_ANGLES, size: int = RENDER_SIZE,
                    depth: int = RAY_DEPTH):
    angles = ",".join(repr(k / n_angles) for k in range(n_angles))
    # the seed picks which of the traced angles the renders overlay
    overlay = random.Random(seed).sample(range(n_angles), OVERLAY_RAYS)
    overlay_arg = ",".join(repr(k / n_angles) for k in sorted(overlay))
    ops = []
    for c, flags in PARAMS:
        ops.append(Operation(f"rays c={c} --depth {depth}",
                             ["rays", *flags, "--depth", str(depth), "--angles", angles,
                              "--seed", str(seed)],
                             functools.partial(checks.check_rays, c=c, n_angles=n_angles)))
        for layer in ("escape-time", "density-rho"):
            ops.append(Operation(
                f"render c={c} {layer} {size}x{size}",
                ["render", *flags, "--layer", layer, "--width", str(size),
                 "--height", str(size), "--depth", str(depth), "--rays", overlay_arg,
                 "--seed", str(seed)],
                functools.partial(checks.check_render, c=c, layer=layer, size=size,
                                  half=RENDER_HALF)))
    return ops


WORKLOADS = {"holder": holder_ops, "expansion": expansion_ops,
             "rays-render": rays_render_ops}

# Small versions of the same commands, run once before timing so that lazy
# imports and first-call costs inside NumPy and SciPy are paid outside passes.
WARMUP = {"holder": lambda seed: holder_ops(seed, grid_res=64),
          "expansion": lambda seed: expansion_ops(seed, orbits=2, depth=10, deep=10),
          "rays-render": lambda seed: rays_render_ops(seed, n_angles=4, size=64, depth=8)}
