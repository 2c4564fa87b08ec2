"""Pointed bottleneck distance between barcodes.

A matching at tolerance delta pairs intervals whose endpoints differ by at
most delta (sup metric on endpoint pairs), leaves an interval unmatched only
when its length is below 2*delta, and never pairs a distinguished interval
with an ordinary one: either both distinguished intervals are matched to
each other or each is unmatched (subject to the same length rule).

The distance is the infimum of feasible tolerances.  Feasibility can only
change at a candidate value (a pair's cost or a bar's half-length), and
just above a candidate c the strict length rule relaxes to `length <= 2c`,
so the infimum is the least candidate feasible under the relaxed rule; the
strict rule at the infimum itself may well be infeasible, which is the
usual open-infimum behaviour.

`bottleneck` evaluates each pair's cost and each bar's half-length once and
sorts the distinct candidates once.  Every cost and half-length then stands
for its rank among them: a probe at rank k decides "cost <= delta" and the
relaxed length rule by comparing ranks with k, and runs the matching core
that `feasible_matching` shares.  No exact arithmetic happens inside the
binary search, and every comparison is exact.

Feasibility is one matching of the bars themselves, at cost <= delta, that
covers every bar not allowed to stay unmatched.  This is the perfect
matching of the textbook graph that adds one dummy per bar (Edelsbrunner
and Harer, *Computational Topology*, 2010): an unmatched bar takes its own
dummy and the leftover dummies pair off.  Each bar that must be matched is
placed by one alternating-path search that ends at a free bar or takes the
partner of a bar that may stay unmatched.  The search never fails while a
covering matching exists (Mendelsohn and Dulmage, 1958): in the symmetric
difference of the current matching and a covering one, the path from the
bar to place ends at one of those two kinds of bar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .barcode import Interval, PointedBarcode
from .errors import InputError
from .exact import ExactRadius, ZERO_RADIUS

_HALF = Fraction(1, 2)


def interval_cost(u: Interval, v: Interval) -> ExactRadius:
    """Sup distance between endpoint pairs (exact)."""
    births, deaths = u.birth.gap(v.birth), u.death.gap(v.death)
    return deaths if deaths.cmp(births) > 0 else births


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


def cost_matrix(left: list, right: list) -> list[list[ExactRadius]]:
    """`interval_cost` of every pair of a left and a right interval."""
    return [[interval_cost(u, v) for v in right] for u in left]


def _place(x, side, adjacent, mates, skips) -> bool:
    """Match bar x of `side` (0 left, 1 right) along one alternating path,
    or return False when no such path exists.

    The search runs breadth first from x, with no recursion.  A bar y of
    the other side, reached by an edge outside the matching, ends the path
    when y is free or when y's partner may stay unmatched; that partner is
    then set free.  Otherwise the search continues from y's partner.  The
    path is flipped, so every bar that was matched stays matched but the
    partner set free.
    """
    other = 1 - side
    parent: dict = {}
    queue = [x]
    for u in queue:
        for y in adjacent[side][u]:
            if y in parent:
                continue
            parent[y] = u
            z = mates[other][y]
            if z is not None and not skips[side][z]:
                queue.append(z)
                continue
            if z is not None:
                mates[side][z] = None
            while y is not None:
                u = parent[y]
                mates[side][u], mates[other][y], y = y, u, mates[side][u]
            return True
    return False


def _match(within, left_skip, right_skip, dist_left, dist_right):
    """The matching core on interval indices, or None when infeasible.

    within[i][j] says whether the intervals of indices i and j are at cost
    <= delta, and left_skip[i] (right_skip[j]) whether interval i (j) may
    stay unmatched.  The distinguished intervals are matched to each other
    when their cost allows, and must otherwise both stay unmatched; either
    way the other intervals are matched among themselves.  Those that must
    be matched are placed one at a time (`_place`).  Returns (pairs,
    unmatched_left, unmatched_right, distinguished_matched).
    """
    mates = ([None] * len(left_skip), [None] * len(right_skip))
    paired = dist_left is not None and dist_right is not None and within[dist_left][dist_right]
    if paired:
        mates[0][dist_left], mates[1][dist_right] = dist_right, dist_left
    elif ((dist_left is not None and not left_skip[dist_left])
          or (dist_right is not None and not right_skip[dist_right])):
        return None
    adjacent = ([[j for j, ok in enumerate(row) if ok and j != dist_right]
                 if i != dist_left else [] for i, row in enumerate(within)],
                [[] for _ in right_skip])
    for i, partners in enumerate(adjacent[0]):
        for j in partners:
            adjacent[1][j].append(i)
    skips = (left_skip, right_skip)
    for side in (0, 1):
        for x, mate in enumerate(mates[side]):
            if mate is None and not skips[side][x] and not _place(x, side, adjacent, mates, skips):
                return None
    pairs = [(i, j) for i, j in enumerate(mates[0]) if j is not None]
    return (pairs, [i for i, j in enumerate(mates[0]) if j is None],
            [j for j, i in enumerate(mates[1]) if i is None], paired)


def feasible_matching(b1: PointedBarcode, b2: PointedBarcode,
                      delta: ExactRadius, closed: bool = False,
                      costs: list | None = None) -> Matching | None:
    """A matching witnessing feasibility at `delta`, or None.

    With `closed=False` the unmatch rule is the strict `length < 2*delta`;
    `closed=True` relaxes it to `length <= 2*delta`, which captures
    feasibility at tolerances just above `delta`.  `costs`, when given, is
    the `cost_matrix` of the expanded intervals of b1 and b2.
    """
    left, dist_left = _expand(b1)
    right, dist_right = _expand(b2)
    if costs is None:
        costs = cost_matrix(left, right)
    within = [[c.cmp(delta) <= 0 for c in row] for row in costs]
    doubled = delta.scale(2)

    def skip(interval):
        cmp = interval.length().cmp(doubled)
        return cmp <= 0 if closed else cmp < 0

    found = _match(within, [skip(u) for u in left], [skip(v) for v in right],
                   dist_left, dist_right)
    if found is None:
        return None
    pairs, ul, ur, distinguished_matched = found
    return Matching(delta, [(left[i], right[j]) for i, j in pairs],
                    [left[i] for i in ul], [right[j] for j in ur],
                    distinguished_matched)


def _candidates(costs: list, halves: list) -> list[ExactRadius]:
    """Tolerances at which feasibility can change, sorted and distinct:
    pairwise endpoint costs (a `cost_matrix`), half-lengths (the unmatching
    thresholds) and zero."""
    values = {ZERO_RADIUS}
    for row in costs:
        values.update(row)
    values.update(halves)
    return sorted(values)


def bottleneck(b1: PointedBarcode, b2: PointedBarcode) -> ExactRadius:
    """The pointed bottleneck distance (exact infimum of feasible deltas).

    The returned value is feasible for every strictly larger tolerance; the
    strict matching rules at the value itself may be infeasible when the
    infimum is set by a half-length.  The probes of the binary search run
    on the ranks of the costs and half-lengths among the sorted candidates.
    """
    left, dist_left = _expand(b1)
    right, dist_right = _expand(b2)
    costs = cost_matrix(left, right)
    halves = [interval.length().scale(_HALF) for interval in left + right]
    candidates = _candidates(costs, halves)
    rank = {value: k for k, value in enumerate(candidates)}
    cost_ranks = [[rank[c] for c in row] for row in costs]
    half_ranks = [rank[h] for h in halves]
    left_halves, right_halves = half_ranks[:len(left)], half_ranks[len(left):]

    def feasible(k):
        # At delta = candidates[k]: cost <= delta and length <= 2*delta.
        within = [[r <= k for r in row] for row in cost_ranks]
        return _match(within, [h <= k for h in left_halves],
                      [h <= k for h in right_halves],
                      dist_left, dist_right) is not None

    lo, hi = 0, len(candidates) - 1
    if feasible(lo):
        return candidates[lo]
    if not feasible(hi):
        raise InputError("no feasible tolerance among candidates")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return candidates[hi]
