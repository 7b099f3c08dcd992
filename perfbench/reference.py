"""Speed references: fixed chunks of work that do not touch ccfom.

The speed of a small shared machine drifts by 25% or more within seconds,
and every timing of a run moves with it.  A reference chunk timed right
before and after an operation moves the same way when it does the same kind
of work, so dividing the operation's time by the chunk's *slowness* (its
time over its nominal time) leaves the program's own cost.  Each workload
names the kind of work that dominates it (see the traced split in
README.md):

* ``interpreter``: per-k Python loops of scalar numpy operations, dicts and
  17-digit formatting (smooth-long, lasso-probe, cli-roundtrip, set-up);
* ``lp``: small HiGHS linear programs through ``scipy.optimize.linprog``,
  one per k in the maxaff conjugate (maxaff-lp).

Neither chunk keeps anything alive between iterations, so neither depends
on how much memory the program holds or has just freed.  The cyclic GC is
held off while a chunk runs, and each chunk is run once briefly, untimed,
to bring its code and data back into cache.
"""

from __future__ import annotations

import gc
import math
import time

import numpy
import scipy.optimize


def _interpreter_chunk(n: int) -> str:
    x = numpy.array([0.3, -0.7])
    z = numpy.zeros(2)
    acc = 0.0
    line = ""
    for k in range(n):
        z = 0.9 * z + 0.1 * x
        acc += float(z @ x) - math.sqrt(abs(acc) + 1.0)
        row = {"k": k, "acc": acc, "z0": float(z[0])}
        line = ",".join(f"{row[c]:.17g}" for c in ("acc", "z0"))
    return line


# A fixed max-of-6-affine-pieces conjugate LP in 3 dimensions (the last slope
# is minus the sum of the others, as in ccfom's maxaff family).
_LP_SLOPES = numpy.array([
    [0.35, -1.20, 0.80],
    [-0.90, 0.40, 1.10],
    [1.30, 0.25, -0.60],
    [-0.45, -0.85, -0.30],
    [0.20, 1.05, -0.75],
])
_LP_SLOPES = numpy.vstack([_LP_SLOPES, -_LP_SLOPES.sum(axis=0)])
_LP_OFFSETS = numpy.array([0.10, -0.40, 0.25, 0.60, -0.15, 0.05])
_LP_EQ = numpy.vstack([_LP_SLOPES.T, numpy.ones((1, 6))])


def _lp_chunk(n: int) -> float:
    total = 0.0
    for i in range(n):
        z = numpy.array([0.05 * (i % 5), -0.05, 0.02, 1.0])
        res = scipy.optimize.linprog(-_LP_OFFSETS, A_eq=_LP_EQ, b_eq=z, bounds=(0, None),
                                     method="highs")
        total += res.fun
    return total


# kind -> (chunk, iterations timed, untimed warm-up iterations, nominal seconds)
KINDS = {
    "interpreter": (_interpreter_chunk, 700, 50, 0.005),
    "lp": (_lp_chunk, 3, 1, 0.005),
}


def slowness(kind: str) -> float:
    """Time of one chunk of ``kind`` over its nominal time (1.0 = nominal)."""
    chunk, n, warm, nominal = KINDS[kind]
    gc.disable()
    try:
        chunk(warm)
        t0 = time.perf_counter()
        chunk(n)
        return (time.perf_counter() - t0) / nominal
    finally:
        gc.enable()
