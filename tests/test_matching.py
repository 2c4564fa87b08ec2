"""Pointed bottleneck matchings and distances."""

from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import bottleneck_oracle
from rzero.barcode import Interval, PointedBarcode
from rzero.exact import ExactRadius
from rzero.matching import _match, bottleneck, feasible_matching, interval_cost
from rzero.rng import RationalSampler, child_seed


def iv(b, d):
    return Interval(ExactRadius.of(Fraction(b)), ExactRadius.of(Fraction(d)))


def bc(bars, distinguished=None):
    counter = Counter()
    for interval in bars:
        counter[interval] += 1
    return PointedBarcode.from_multiset(counter, distinguished)


def test_identity_matching_at_zero():
    one = iv(0, 1)
    b = bc([one, iv(1, 2)], distinguished=one)
    m = feasible_matching(b, b, ExactRadius.of(0))
    assert m is not None
    assert m.distinguished_matched
    assert sorted(m.pairs, key=lambda p: p[0].sort_key()) == [(one, one), (iv(1, 2), iv(1, 2))]
    assert not m.unmatched_left and not m.unmatched_right


def test_lone_distinguished_needs_strictly_larger_delta():
    one = iv(0, 1)
    left = bc([one], distinguished=one)
    right = bc([])
    half = ExactRadius.of(Fraction(1, 2))
    assert feasible_matching(left, right, half) is None
    assert feasible_matching(left, right, half, closed=True) is not None
    assert feasible_matching(left, right, ExactRadius.of(Fraction(51, 100))) is not None
    assert bottleneck(left, right) == half


def test_distinguished_cannot_cross_match():
    one = iv(0, 1)
    left = bc([one], distinguished=one)
    right = bc([one])
    half = ExactRadius.of(Fraction(1, 2))
    assert feasible_matching(left, right, half) is None
    assert feasible_matching(left, right, ExactRadius.of(Fraction(3, 5))) is not None
    assert bottleneck(left, right) == half


def test_bottleneck_examples():
    assert bottleneck(bc([iv(0, 1)]), bc([iv(0, 1)])) == ExactRadius.of(0)
    assert bottleneck(bc([]), bc([])) == ExactRadius.of(0)
    assert bottleneck(bc([iv(0, 1)]), bc([iv(0, 2)])) == ExactRadius.of(1)


def test_matching_witness_is_valid():
    left = bc([iv(0, 1), iv(0, 3), iv(2, 4)])
    right = bc([iv(0, 3), iv(1, 4)])
    delta = bottleneck(left, right)
    m = feasible_matching(left, right, delta, closed=True)
    assert m is not None
    doubled = delta.scale(2)
    for u, v in m.pairs:
        assert interval_cost(u, v).cmp(delta) <= 0
    for u in m.unmatched_left + m.unmatched_right:
        assert u.length().cmp(doubled) <= 0


def random_barcode(seed):
    sampler = RationalSampler(seed)
    bars = []
    for _ in range(sampler.integer(0, 4)):
        b = Fraction(sampler.integer(0, 6), 2)
        d = b + Fraction(sampler.integer(1, 6), 2)
        bars.append(iv(b, d))
    distinguished = None
    if bars and sampler.integer(0, 1):
        distinguished = bars[0]
    return bc(bars, distinguished)


def test_symmetry_and_triangle():
    for t in range(30):
        a = random_barcode(child_seed(900, 3 * t))
        b = random_barcode(child_seed(900, 3 * t + 1))
        c = random_barcode(child_seed(900, 3 * t + 2))
        dab = bottleneck(a, b)
        dba = bottleneck(b, a)
        assert dab == dba
        dac = bottleneck(a, c)
        dcb = bottleneck(c, b)
        # Triangle inequality for the infimum distances, compared as
        # rationals (every value is rational here).
        assert dab.as_fraction() <= dac.as_fraction() + dcb.as_fraction()
        assert bottleneck(a, a) == ExactRadius.of(0)


def test_feasibility_monotone():
    for t in range(20):
        a = random_barcode(child_seed(901, 2 * t))
        b = random_barcode(child_seed(901, 2 * t + 1))
        deltas = [ExactRadius.of(Fraction(n, 4)) for n in range(0, 9)]
        feas = [feasible_matching(a, b, d) is not None for d in deltas]
        for i in range(len(feas) - 1):
            if feas[i]:
                assert feas[i + 1], (t, i)


def test_sqrt_endpoint_bottleneck():
    # l2-flavoured endpoints: exact comparisons through radical arithmetic.
    s2 = Interval(ExactRadius.of(0), ExactRadius.sqrt(2))
    s3 = Interval(ExactRadius.of(0), ExactRadius.sqrt(3))
    d = bottleneck(bc([s2]), bc([s3]))
    assert d == ExactRadius(3, 2)  # sqrt(3) - sqrt(2)
    # Asymmetric: sqrt bar versus nothing falls back to the half-length.
    d2 = bottleneck(bc([s2]), bc([]))
    assert d2 == ExactRadius.sqrt(Fraction(1, 2))


def _assert_witness(a, b, m, delta):
    """m is a closed matching of a and b at delta, checked bar by bar."""
    assert m is not None
    left, right = Counter(a.expand()), Counter(b.expand())
    assert Counter(u for u, _ in m.pairs) + Counter(m.unmatched_left) == left
    assert Counter(v for _, v in m.pairs) + Counter(m.unmatched_right) == right
    for u, v in m.pairs:
        assert interval_cost(u, v).cmp(delta) <= 0
    doubled = delta.scale(2)
    for u in m.unmatched_left + m.unmatched_right:
        assert u.length().cmp(doubled) <= 0
    # The distinguished bars are matched to each other, or each is unmatched
    # (an ordinary copy of the same interval may still be matched).
    if m.distinguished_matched:
        assert (a.distinguished, b.distinguished) in m.pairs
    else:
        assert a.distinguished is None or a.distinguished in m.unmatched_left
        assert b.distinguished is None or b.distinguished in m.unmatched_right


def _endpoint(sampler, kind):
    """A nonnegative endpoint: a rational, the root of a rational (often
    irrational, as for l2 critical values), or either at random."""
    if kind == "mixed":
        kind = ("rational", "sqrt")[sampler.integer(0, 1)]
    value = Fraction(sampler.integer(0, 24), sampler.integer(1, 4))
    return ExactRadius.of(value) if kind == "rational" else ExactRadius.sqrt(value)


def _random_pointed_barcode(sampler, kind):
    bars, count = [], sampler.integer(0, 4)  # a count of 0 leaves a side empty
    while len(bars) < count:
        a, b = _endpoint(sampler, kind), _endpoint(sampler, kind)
        if a.cmp(b) != 0:
            bars.append(Interval(a, b) if a.cmp(b) < 0 else Interval(b, a))
    if bars and sampler.integer(0, 2):  # repeat a bar
        bars.append(bars[sampler.integer(0, len(bars) - 1)])
    distinguished = None
    if bars and sampler.integer(0, 1):
        distinguished = bars[sampler.integer(0, len(bars) - 1)]
    return bc(bars, distinguished)


def test_ranked_bottleneck_matches_the_exact_search_oracle():
    """On seeded random pointed barcodes with rational, square-root and
    mixed endpoints, the ranked probes find the oracle's value, and a
    closed matching exists at it."""
    seen = Counter()
    for t, kind in enumerate(["rational", "sqrt", "mixed"] * 60):
        sampler = RationalSampler(child_seed(902, t))
        a = _random_pointed_barcode(sampler, kind)
        b = _random_pointed_barcode(sampler, kind)
        d = bottleneck(a, b)
        assert d == bottleneck_oracle.bottleneck(a, b), (kind, a, b)
        _assert_witness(a, b, feasible_matching(a, b, d, closed=True), d)
        seen["empty side"] += not (a.expand() and b.expand())
        seen["both distinguished"] += a.distinguished is not None and b.distinguished is not None
        seen["irrational"] += d.as_fraction() is None
        seen["positive"] += d.sign() > 0
    assert min(seen.values()) >= 10, seen


def _every_partial_matching_fails(within, left_skip, right_skip, dist_left, dist_right):
    """True when no partial matching of the bars at cost <= delta leaves
    only skippable bars unmatched and pairs a distinguished bar with the
    other distinguished bar alone, trying every partial matching."""
    def extend(i, used):
        if i == len(left_skip):
            return all(skip for j, skip in enumerate(right_skip) if j not in used)
        if left_skip[i] and extend(i + 1, used):
            return True
        return any(extend(i + 1, used | {j}) for j in range(len(right_skip))
                   if j not in used and within[i][j] and (i == dist_left) == (j == dist_right))
    return not extend(0, frozenset())


@st.composite
def _match_tables(draw):
    """Up to 6 x 6 bars: which pairs are within the tolerance, which bars
    may stay unmatched, and the distinguished index of each side or None."""
    n_left, n_right = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    # One pair in 1 to 4 is within the tolerance and one bar in 2 to 4 may
    # stay unmatched, so that free partners are scarce and placing a bar
    # often takes the partner of a skippable bar.
    edge = st.integers(0, draw(st.integers(0, 3))).map(lambda x: x == 0)
    within = [draw(st.lists(edge, min_size=n_right, max_size=n_right))
              for _ in range(n_left)]
    skip = st.integers(0, draw(st.integers(1, 3))).map(lambda x: x != 0)
    left_skip = draw(st.lists(skip, min_size=n_left, max_size=n_left))
    right_skip = draw(st.lists(skip, min_size=n_right, max_size=n_right))
    dist_left = draw(st.none() | st.integers(0, n_left - 1)) if n_left else None
    dist_right = draw(st.none() | st.integers(0, n_right - 1)) if n_right else None
    return within, left_skip, right_skip, dist_left, dist_right


def _assert_covering(table, found):
    """found is a matching of the table's bars at cost <= delta that leaves
    only skippable bars unmatched and pairs the distinguished bars only
    with each other."""
    within, left_skip, right_skip, dist_left, dist_right = table
    pairs, unmatched_left, unmatched_right, distinguished_matched = found
    assert sorted([i for i, _ in pairs] + unmatched_left) == list(range(len(left_skip)))
    assert sorted([j for _, j in pairs] + unmatched_right) == list(range(len(right_skip)))
    for i, j in pairs:
        assert within[i][j] and (i == dist_left) == (j == dist_right)
    assert all(left_skip[i] for i in unmatched_left)
    assert all(right_skip[j] for j in unmatched_right)
    assert distinguished_matched == ((dist_left, dist_right) in pairs)


@settings(max_examples=400)
@given(_match_tables())
def test_covering_matching_agrees_with_trying_every_partial_matching(table):
    found = _match(*table)
    assert (found is None) == _every_partial_matching_fails(*table)
    if found is not None:
        _assert_covering(table, found)


def test_placing_a_bar_takes_the_partner_of_a_skippable_bar():
    # Left bar 0 must be matched, first to right bar 0, which may stay
    # unmatched; right bar 1 may not, and left bar 0 is its only partner.
    table = ([[True, True]], [False], [True, False], None, None)
    found = _match(*table)
    _assert_covering(table, found)
    assert found == ([(0, 1)], [], [0], False)


def test_a_chain_of_1500_bars_is_matched_without_recursion():
    # Bar i may pair with bar i - 1 or i and no bar may stay unmatched, so
    # the one covering matching pairs each bar with its own index.  When
    # the last left bar may pair with bar 0 alone and every other left bar
    # i with i or i + 1, placing it takes one alternating path through all
    # 1,500 bars.
    n = 1500
    chain = ([[j in (i - 1, i) for j in range(n)] for i in range(n)],
             [False] * n, [False] * n, None, None)
    found = _match(*chain)
    _assert_covering(chain, found)
    assert found[0] == [(i, i) for i in range(n)]
    cycle = ([[j in (i, i + 1) for j in range(n)] for i in range(n - 1)]
             + [[j == 0 for j in range(n)]], [False] * n, [False] * n, None, None)
    found = _match(*cycle)
    _assert_covering(cycle, found)
    assert found[0] == [(i, (i + 1) % n) for i in range(n)]
