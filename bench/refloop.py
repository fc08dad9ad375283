"""The reference loop: a fixed pure-Python loop that gauges the machine's speed.

Kept in a module of its own, with no imports beyond ``time``, so that a fresh
interpreter can time it before importing expmetric without importing anything
expmetric needs.
"""

from time import perf_counter

REFERENCE_LOOP_N = 200_000


def reference_loop_ms() -> float:
    t0 = perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP_N):
        acc = (acc + i * i) % 1_000_003
    return (perf_counter() - t0) * 1e3
