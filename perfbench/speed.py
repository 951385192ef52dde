"""How fast the machine runs right now, from a fixed reference kernel.

On a shared machine the same work takes up to 1.5 times as long from one
minute to the next, and both vCPUs slow down independently.  The kernel
is a fixed piece of exact rational arithmetic, the kind of work loopdual
does, that takes about REFERENCE_S at the machine's fast speed.  A worker
runs it between queries, in its own process, so the kernel meets the same
machine as the queries around it; run.py divides every timing by the
mean kernel time over REFERENCE_S.  The kernel is the benchmark's own code
and uses no loopdual function, so a change to loopdual does not move it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REFERENCE_S = 0.004

# A fixed nonsingular 7x7 rational matrix; Gauss-Jordan elimination on it
# mixes Fraction products, sums and normalisations as loopdual's lattice
# code does.
_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(7)]
           for i in range(7)]


def kernel_s() -> float:
    """Wall time of one run of the kernel.  The garbage collector is off
    while it runs, so its time does not depend on the size of the heap
    the program around it keeps."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    for _ in range(3):
        rows = [row[:] for row in _MATRIX]
        for col in range(len(rows)):
            pivot = next(r for r in range(col, len(rows)) if rows[r][col])
            rows[col], rows[pivot] = rows[pivot], rows[col]
            for r in range(len(rows)):
                if r != col and rows[r][col]:
                    f = rows[r][col] / rows[col][col]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed
