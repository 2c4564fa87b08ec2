"""The pointed bottleneck distance by the direct route: a binary search over
the sorted `ExactRadius` candidates, each probe a `feasible_matching` under
the relaxed (closed) length rule, which recomputes every comparison in exact
arithmetic.  The test oracle for `matching.bottleneck`, which probes ranks."""

import functools
from fractions import Fraction

from rzero.exact import ZERO_RADIUS
from rzero.matching import cost_matrix, feasible_matching

_key = functools.cmp_to_key(lambda a, b: a.cmp(b))


def candidates(b1, b2, costs):
    """Zero, every pair's cost and every half-length, sorted, with equal
    values (by exact comparison) kept once."""
    values = [ZERO_RADIUS] + [c for row in costs for c in row]
    values += [iv.length().scale(Fraction(1, 2)) for iv in b1.expand() + b2.expand()]
    values.sort(key=_key)
    return [v for i, v in enumerate(values) if i == 0 or values[i - 1].cmp(v) != 0]


def bottleneck(b1, b2):
    """The least candidate at which a closed matching exists."""
    costs = cost_matrix(b1.expand(), b2.expand())
    values = candidates(b1, b2, costs)

    def feasible(delta):
        return feasible_matching(b1, b2, delta, closed=True, costs=costs) is not None

    lo, hi = 0, len(values) - 1
    if feasible(values[lo]):
        return values[lo]
    assert feasible(values[hi]), "no feasible tolerance among candidates"
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(values[mid]):
            hi = mid
        else:
            lo = mid
    return values[hi]
