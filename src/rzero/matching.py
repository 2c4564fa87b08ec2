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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .barcode import Interval, PointedBarcode
from .errors import InputError
from .exact import ExactRadius, ZERO_RADIUS

_key = functools.cmp_to_key(lambda a, b: a.cmp(b))
_HALF = Fraction(1, 2)


def interval_cost(u: Interval, v: Interval) -> ExactRadius:
    """Sup distance between endpoint pairs (exact)."""
    try:
        births, deaths = u.birth.gap(v.birth), u.death.gap(v.death)
    except ValueError as exc:
        raise InputError(f"incomparable endpoint families: {exc}") from exc
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


def _bipartite_feasible(left, right, within, left_skip, right_skip):
    """Perfect matching in the dummy-augmented bipartite graph, or None.

    `left` and `right` list interval indices; within[i][j] says whether the
    intervals of indices i and j are at cost <= delta, and left_skip[i]
    (right_skip[j]) whether interval i (j) may stay unmatched.
    Left nodes: the left intervals then one dummy per right interval;
    right nodes: the right intervals then one dummy per left interval.
    A real pair needs cost <= delta; a real-dummy edge exists only between
    an interval and its own dummy, and only when the interval may stay
    unmatched; dummy-dummy edges are free.  Returns the matched index pairs
    and the unmatched indices of each side.
    """
    n_left, n_right = len(left), len(right)
    size = n_left + n_right

    cost_ok = [[within[i][j] for j in right] for i in left]
    lone_left = [left_skip[i] for i in left]
    lone_right = [right_skip[j] for j in right]

    def neighbours(i):
        if i < n_left:  # real left interval
            for j in range(n_right):
                if cost_ok[i][j]:
                    yield j
            if lone_left[i]:
                yield n_right + i
        else:  # dummy standing for right interval (i - n_left)
            j = i - n_left
            if lone_right[j]:
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
                pairs.append((left[i], right[j]))
            else:
                unmatched_right.append(right[j])
        elif i < n_left:
            unmatched_left.append(left[i])
    return pairs, unmatched_left, unmatched_right


def _match(within, left_skip, right_skip, dist_left, dist_right):
    """The matching core on interval indices, or None when infeasible.

    Either the distinguished intervals are matched to each other, or each
    is unmatched; the other intervals take a dummy-augmented perfect
    matching.  Returns (pairs, unmatched_left, unmatched_right,
    distinguished_matched).
    """
    rest_left = [i for i in range(len(left_skip)) if i != dist_left]
    rest_right = [j for j in range(len(right_skip)) if j != dist_right]

    # Case: distinguished matched to distinguished.
    if dist_left is not None and dist_right is not None and within[dist_left][dist_right]:
        rest = _bipartite_feasible(rest_left, rest_right, within, left_skip, right_skip)
        if rest is not None:
            pairs, ul, ur = rest
            return [(dist_left, dist_right)] + pairs, ul, ur, True

    # Case: all distinguished intervals unmatched.
    out_left, out_right = [], []
    if dist_left is not None:
        if not left_skip[dist_left]:
            return None
        out_left.append(dist_left)
    if dist_right is not None:
        if not right_skip[dist_right]:
            return None
        out_right.append(dist_right)
    rest = _bipartite_feasible(rest_left, rest_right, within, left_skip, right_skip)
    if rest is None:
        return None
    pairs, ul, ur = rest
    return pairs, out_left + ul, out_right + ur, False


def feasible_matching(b1: PointedBarcode, b2: PointedBarcode,
                      delta: ExactRadius, closed: bool = False,
                      costs: list | None = None) -> Matching | None:
    """A matching witnessing feasibility at `delta`, or None.

    With `closed=False` the unmatch rule is the strict `length < 2*delta`;
    `closed=True` relaxes it to `length <= 2*delta`, which captures
    feasibility at tolerances just above `delta`.  `costs`, when given, is
    the `cost_matrix` of the expanded intervals of b1 and b2.
    """
    if delta.sign() < 0:
        raise InputError("tolerance must be nonnegative")
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
    return sorted(values, key=_key)


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
