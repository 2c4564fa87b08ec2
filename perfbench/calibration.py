"""Machine-speed calibration for wall times measured on a shared host.

On a host whose cores are shared with other tenants, the speed of one
Python thread drifts by a third and more over tens of seconds, and every
wall time in a run moves with it.  The benchmark runs `kernel` (a fixed
amount of pure-Python work of the program's own kind: Fraction elimination,
big-integer products, tuple hashing) right before every timed command and
every set-up.  The ratio of the kernel's time to `REFERENCE_S` is the
machine factor of that moment; dividing a wall time by it gives the time
the work would take where the kernel takes `REFERENCE_S`.

The kernel is benchmark code and shares nothing with `rzero`, so a change
to the program cannot move it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# Kernel time, rounded, on the 2-CPU x86-64 VM (CPython 3.11) where the
# baseline was measured, in its faster phases.
REFERENCE_S = 0.010


def _work() -> int:
    rng = random.Random(7)
    n = 11
    m = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[c], m[pivot] = m[pivot], m[c]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    table = {tuple(sorted((i * 7919 + j * j) % 211 for j in range(5))): i
             for i in range(3000)}
    return len(table) + sum(x.denominator for row in m for x in row)


def kernel() -> float:
    """Seconds taken by one fixed run of the calibration work."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def factor(samples) -> float:
    """Machine factor of a list of kernel times: 1 at reference speed,
    above 1 when the machine runs slow."""
    return sum(samples) / (len(samples) * REFERENCE_S)
