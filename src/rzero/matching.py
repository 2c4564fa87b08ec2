"""Pointed bottleneck distance between barcodes.

A matching at tolerance delta pairs intervals whose endpoints differ by at
most delta (sup metric on endpoint pairs), leaves an interval unmatched only
when its length is below 2*delta, and never pairs a distinguished interval
with an ordinary one: either both distinguished intervals are matched to
each other or each is unmatched (subject to the same length rule).

The distance is the infimum of feasible tolerances.  Feasibility can only
change at a candidate value (an endpoint difference or a half-length), and
just above a candidate c the strict length rule relaxes to `length <= 2c`,
so the infimum is the least candidate feasible under the relaxed rule; the
strict rule at the infimum itself may well be infeasible, which is the
usual open-infimum behaviour.  All comparisons are exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .barcode import Interval, PointedBarcode
from .errors import InputError
from .exact import ExactRadius, ZERO_RADIUS, radius_max

_key = functools.cmp_to_key(lambda a, b: a.cmp(b))


def interval_cost(u: Interval, v: Interval) -> ExactRadius:
    """Sup distance between endpoint pairs (exact)."""
    try:
        return radius_max([u.birth.gap(v.birth), u.death.gap(v.death)])
    except ValueError as exc:
        raise InputError(f"incomparable endpoint families: {exc}") from exc


@dataclass
class Matching:
    """A witness matching between two pointed barcodes."""

    delta: ExactRadius
    pairs: list              # list of (Interval, Interval)
    unmatched_left: list
    unmatched_right: list
    distinguished_matched: bool


def _expand(barcode: PointedBarcode):
    """Intervals as a list, with the index of the distinguished copy."""
    bars = barcode.expand()
    if barcode.distinguished is None:
        return bars, None
    return bars, bars.index(barcode.distinguished)


def _unmatch_ok(interval: Interval, delta: ExactRadius, closed: bool) -> bool:
    doubled = delta.scale(2)
    cmp = interval.length().cmp(doubled)
    return cmp <= 0 if closed else cmp < 0


def cost_matrix(left: list, right: list) -> list[list[ExactRadius]]:
    """`interval_cost` of every pair of a left and a right interval."""
    return [[interval_cost(u, v) for v in right] for u in left]


def _bipartite_feasible(left, right, within, delta, closed):
    """Perfect matching in the dummy-augmented bipartite graph, or None.

    `left` and `right` list (index, interval) pairs, and within[i][j] says
    whether the intervals of indices i and j are at cost <= delta.
    Left nodes: the left intervals then one dummy per right interval;
    right nodes: the right intervals then one dummy per left interval.
    A real pair needs cost <= delta; a real-dummy edge exists only between
    an interval and its own dummy, and only when the interval may stay
    unmatched; dummy-dummy edges are free.
    """
    n_left, n_right = len(left), len(right)
    size = n_left + n_right

    cost_ok = [[within[i][j] for j, _ in right] for i, _ in left]
    left_skip = [_unmatch_ok(u, delta, closed) for _, u in left]
    right_skip = [_unmatch_ok(v, delta, closed) for _, v in right]

    def neighbours(i):
        if i < n_left:  # real left interval
            for j in range(n_right):
                if cost_ok[i][j]:
                    yield j
            if left_skip[i]:
                yield n_right + i
        else:  # dummy standing for right interval (i - n_left)
            j = i - n_left
            if right_skip[j]:
                yield j
            for dum in range(n_right, size):
                yield dum

    match_right = [-1] * size

    def augment(i, seen):
        for j in neighbours(i):
            if j in seen:
                continue
            seen.add(j)
            if match_right[j] == -1 or augment(match_right[j], seen):
                match_right[j] = i
                return True
        return False

    matched = 0
    for i in range(size):
        if augment(i, set()):
            matched += 1
    if matched != size:
        return None
    pairs = []
    unmatched_left = []
    unmatched_right = []
    for j in range(size):
        i = match_right[j]
        if j < n_right:
            if i < n_left:
                pairs.append((left[i][1], right[j][1]))
            else:
                unmatched_right.append(right[j][1])
        elif i < n_left:
            unmatched_left.append(left[i][1])
    return pairs, unmatched_left, unmatched_right


def feasible_matching(b1: PointedBarcode, b2: PointedBarcode,
                      delta: ExactRadius, closed: bool = False,
                      costs: list | None = None) -> Matching | None:
    """A matching witnessing feasibility at `delta`, or None.

    With `closed=False` the unmatch rule is the strict `length < 2*delta`;
    `closed=True` relaxes it to `length <= 2*delta`, which captures
    feasibility at tolerances just above `delta`.  `costs`, when given, is
    the `cost_matrix` of the expanded intervals of b1 and b2, so that a
    caller probing many tolerances evaluates each pair's cost once.
    """
    if delta.sign() < 0:
        raise InputError("tolerance must be nonnegative")
    left, dist_left = _expand(b1)
    right, dist_right = _expand(b2)
    if costs is None:
        costs = cost_matrix(left, right)
    within = [[c.cmp(delta) <= 0 for c in row] for row in costs]
    left = list(enumerate(left))
    right = list(enumerate(right))

    # Case: distinguished matched to distinguished.
    if dist_left is not None and dist_right is not None:
        if within[dist_left][dist_right]:
            rest = _bipartite_feasible(
                left[:dist_left] + left[dist_left + 1:],
                right[:dist_right] + right[dist_right + 1:],
                within, delta, closed,
            )
            if rest is not None:
                pairs, ul, ur = rest
                u, v = left[dist_left][1], right[dist_right][1]
                return Matching(delta, [(u, v)] + pairs, ul, ur, True)

    # Case: all distinguished intervals unmatched.
    rest_left, rest_right = list(left), list(right)
    out_left, out_right = [], []
    if dist_left is not None:
        if not _unmatch_ok(left[dist_left][1], delta, closed):
            return None
        out_left.append(rest_left.pop(dist_left)[1])
    if dist_right is not None:
        if not _unmatch_ok(right[dist_right][1], delta, closed):
            return None
        out_right.append(rest_right.pop(dist_right)[1])
    rest = _bipartite_feasible(rest_left, rest_right, within, delta, closed)
    if rest is None:
        return None
    pairs, ul, ur = rest
    return Matching(delta, pairs, out_left + ul, out_right + ur, False)


def _candidates(b1: PointedBarcode, b2: PointedBarcode, costs: list) -> list[ExactRadius]:
    """Tolerances at which feasibility can change: pairwise endpoint costs
    (the `cost_matrix` of the expanded intervals) and half-lengths (the
    unmatching thresholds), plus zero."""
    values = {ZERO_RADIUS}
    for row in costs:
        values.update(row)
    for iv in b1.expand() + b2.expand():
        values.add(iv.length().scale(Fraction(1, 2)))
    return sorted(values, key=_key)


def bottleneck(b1: PointedBarcode, b2: PointedBarcode) -> ExactRadius:
    """The pointed bottleneck distance (exact infimum of feasible deltas).

    The returned value is feasible for every strictly larger tolerance; the
    strict matching rules at the value itself may be infeasible when the
    infimum is set by a half-length.  Each pair's cost is evaluated once,
    and every probe reads it.
    """
    costs = cost_matrix(b1.expand(), b2.expand())
    candidates = _candidates(b1, b2, costs)

    def feasible(delta):
        return feasible_matching(b1, b2, delta, closed=True, costs=costs) is not None

    lo, hi = 0, len(candidates) - 1
    if feasible(candidates[0]):
        return candidates[0]
    if not feasible(candidates[hi]):
        raise InputError("no feasible tolerance among candidates")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            hi = mid
        else:
            lo = mid
    return candidates[hi]
