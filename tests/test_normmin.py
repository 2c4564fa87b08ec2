"""Exact norm minimization over simplices."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from lp_oracle import in_hull, lp_norm_min
import normmin_reference
from normmin_reference import reference_norm_min
from rzero.exact import ExactRadius
from rzero.normmin import NORMS, _candidates, _edge_min, scaled, simplex_norm_min, vector_norm
from rzero.rng import RationalSampler

# Small integers make ties between vertices, edges and faces common.
_COORD = st.one_of(st.integers(-3, 3).map(Fraction),
                   st.fractions(-5, 5, max_denominator=8))


# Plain ints and eighths as well, for the comparison with the reference.
_MIXED = st.one_of(_COORD, st.integers(-3, 3), st.integers(-24, 24).map(lambda x: Fraction(x, 8)))


@st.composite
def simplices(draw, min_k=2, coord=_COORD):
    """Vertex values of a simplex with 2..4 (or min_k..4) vertices in R^1..R^3,
    sometimes with two vertices sharing a value, and sometimes n + 1
    vertices whose images are affinely dependent (a repeated value, or the
    last on the line through the first two), so that the zero system of
    l1 and linf is singular."""
    k = draw(st.integers(min_k, 4))
    n = draw(st.integers(1, 3))
    if n + 1 >= max(min_k, 2) and draw(st.booleans()):
        k = n + 1
    values = [tuple(draw(coord) for _ in range(n)) for _ in range(k)]
    kind = draw(st.sampled_from(["any", "repeated", "collinear"]))
    if k > 1 and kind == "repeated":
        values[draw(st.integers(1, k - 1))] = values[0]
    elif k > 2 and kind == "collinear":
        t = draw(coord)
        values[-1] = tuple(a + t * (b - a) for a, b in zip(values[0], values[1]))
    return values


def _point(values, bary):
    return tuple(sum(b * v[i] for b, v in zip(bary, values))
                 for i in range(len(values[0])))


def _facets(values):
    return [values[:j] + values[j + 1:] for j in range(len(values))]


def test_single_vertex():
    r = simplex_norm_min([(3, 4)], "l2")
    assert r.minimum == ExactRadius.of(5)
    assert r.barycentric == (1,)
    assert r.at_vertex


def test_edge_l2():
    r = simplex_norm_min([(1, 0), (0, 1)], "l2")
    assert r.minimum == ExactRadius.sqrt(Fraction(1, 2))
    assert r.barycentric == (Fraction(1, 2), Fraction(1, 2))
    assert not r.at_vertex


def test_edge_linf():
    r = simplex_norm_min([(1, 0), (0, 1)], "linf")
    assert r.minimum == ExactRadius.of(Fraction(1, 2))
    assert r.barycentric == (Fraction(1, 2), Fraction(1, 2))
    assert not r.at_vertex


def test_scalar_zero_crossing():
    for norm in ("l1", "l2", "linf"):
        r = simplex_norm_min([(-1,), (1,)], norm)
        assert r.minimum == ExactRadius.of(0)
        assert r.barycentric == (Fraction(1, 2), Fraction(1, 2))
        assert not r.at_vertex


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        simplex_norm_min([(1, 0), (1,)], "linf")


def test_triangle_interior_zero():
    # Image triangle surrounds the origin: minimum 0 strictly inside.
    vals = [(2, 0), (-1, 1), (-1, -1)]
    for norm in ("l1", "l2", "linf"):
        r = simplex_norm_min(vals, norm)
        assert r.minimum == ExactRadius.of(0)
        assert all(c > 0 for c in r.barycentric)
        assert not r.at_vertex


@settings(max_examples=100)
@given(simplices(), st.sampled_from(["l1", "linf"]))
def test_minimum_matches_lp_oracle(values, norm):
    # Minimum and at_vertex against the LP over the whole simplex; the
    # support is the whole simplex exactly when every proper face (every
    # facet suffices) has a strictly larger minimum.
    got = simplex_norm_min(values, norm)
    ref = lp_norm_min(values, norm)
    assert got.minimum == ExactRadius.of(ref)
    assert vector_norm(_point(values, got.barycentric), norm) == got.minimum
    assert got.at_vertex == any(vector_norm(v, norm) == got.minimum for v in values)
    whole = not got.at_vertex and all(b != 0 for b in got.barycentric)
    assert whole == all(lp_norm_min(f, norm) > ref for f in _facets(values))


@settings(max_examples=150)
@given(simplices(min_k=1))
def test_l2_optimality_certificate(values):
    # p = g(λ) is the point of the hull nearest 0 iff <p, w_j - p> >= 0 for
    # every vertex value w_j; it is unique, so at_vertex means p is a vertex
    # value, and the support is the whole simplex iff no facet's hull holds p.
    got = simplex_norm_min(values, "l2")
    bary = got.barycentric
    assert all(b >= 0 for b in bary) and sum(bary) == 1
    p = _point(values, bary)
    assert got.minimum == ExactRadius.sqrt(sum(x * x for x in p))
    for w in values:
        assert sum(x * (y - x) for x, y in zip(p, w)) >= 0
    assert got.at_vertex == (p in values)
    if len(values) > 1:
        whole = not got.at_vertex and all(b != 0 for b in bary)
        assert whole == (not any(in_hull(p, f) for f in _facets(values)))


@settings(max_examples=400)
@given(simplices(min_k=1, coord=_MIXED), st.sampled_from(NORMS))
def test_pruned_search_matches_unpruned_reference(values, norm):
    # Face floors only skip faces that cannot strictly improve on the best
    # point, so the minimizer, the flag and the minimum are unchanged.
    got = simplex_norm_min(values, norm)
    minimum, barycentric, at_vertex = reference_norm_min(values, norm)
    assert got.barycentric == barycentric
    assert got.at_vertex == at_vertex
    assert got.minimum == minimum


@settings(max_examples=300)
@given(simplices(min_k=3, coord=_MIXED), st.sampled_from(NORMS))
def test_sign_prune_keeps_every_candidate_in_order(values, norm):
    # A row set that holds a row which cannot be active with every λ > 0
    # has no candidate, so leaving those rows out of the choices changes
    # nothing, and on a face of n + 1 vertices every row set's candidate is
    # the zero of g, which the closed form yields once: every face of three
    # or more vertices yields the reference's distinct candidate points, in
    # the order first seen.  Edges take the closed form (`_edge_min`).
    _, ints = scaled(values)
    n = len(values[0])
    for size in range(3, len(values) + 1):
        for face in combinations(range(len(values)), size):
            assert (_distinct_points(_candidates(ints, face, n, norm))
                    == _distinct_points(normmin_reference._candidates(ints, face, n, norm)))


def _distinct_points(candidates) -> list:
    """(|g|, λ) of each candidate as exact fractions, repeats dropped."""
    points = []
    for value, den, lam in candidates:
        point = (Fraction(value, den), tuple(Fraction(x, den) for x in lam))
        if point not in points:
            points.append(point)
    return points


@st.composite
def edges(draw):
    """Vertex values of an edge in R^1..R^3 with mixed denominators: any
    edge, a constant one (d = 0), or one whose minimum may be flat, with
    two coordinates of opposite slopes (l1) or a constant coordinate
    (linf)."""
    n = draw(st.integers(1, 3))
    a = [draw(_MIXED) for _ in range(n)]
    b = [draw(_MIXED) for _ in range(n)]
    kind = draw(st.sampled_from(["any", "constant", "opposite", "level"]))
    if kind == "constant":
        b = list(a)
    elif kind == "opposite" and n > 1:
        b[1] = a[1] - (b[0] - a[0])
    elif kind == "level":
        b[-1] = a[-1]
    return [a, b]


def _edge_outcome(found, best):
    """The best point after an edge offers `found` candidates in order, from
    the best (value, den, λ numerators or None), as exact fractions."""
    for value, den, lam in found:
        if value * best[1] < best[0] * den:
            best = (value, den, lam)
    value, den, lam = best
    return Fraction(value, den), lam and tuple(Fraction(x, den) for x in lam)


@settings(max_examples=400)
@given(edges(), st.sampled_from(NORMS), st.integers(0, 8))
@example([(-1, 2, 0), (-2, -1, -2)], "l1", 8)     # |g| = 3 for t in [0, 2/3]
@example([(-2, -1), (2, -1)], "linf", 8)          # |g| = 1 for t in [1/4, 3/4]
@example([(1, -1), (-1, 1)], "l1", 8)             # |g| = 2 on the whole edge
@example([(Fraction(1, 3), 2), (Fraction(1, 3), 2)], "l2", 8)
def test_edge_route_matches_the_reference_candidates(values, norm, eighths):
    # The search hands an edge a best no larger than either vertex norm:
    # the least vertex norm, or less after an earlier edge.  From any such
    # best, the closed form moves it exactly where the reference's row-set
    # candidates, visited by increasing t, move it.
    _, ints = scaled(values)
    n = len(values[0])
    least = min(normmin_reference._MEASURE[norm](w) for w in ints)
    best = (least * eighths, 8, None)
    found = _edge_min(ints[0], ints[1], norm)
    if found is not None:
        value, den, (l1, l2) = found
        assert den > 0 and l1 > 0 and l2 > 0 and l1 + l2 == den
    assert (_edge_outcome([] if found is None else [found], best)
            == _edge_outcome(normmin_reference._candidates(ints, (0, 1), n, norm), best))


def test_ties_go_to_the_lowest_face_and_smallest_t():
    # Subdivision stars a simplex only at an argmin interior to it, so a
    # tie must keep the vertex, or the lower face, or on an edge the
    # smallest t = λ_2 of a flat minimum.
    r = simplex_norm_min([(-1, 2, 0), (-2, -1, -2)], "l1")  # |g| = 3 for t in [0, 2/3]
    assert r.at_vertex and r.barycentric == (1, 0)
    r = simplex_norm_min([(1, -1, -2), (-2, -1, -1), (2, -1, 0)], "linf")
    assert r.minimum == ExactRadius.of(1)  # also attained inside the triangle
    assert not r.at_vertex and r.barycentric[0] == 0
    r = simplex_norm_min([(-2, -1), (2, -1)], "linf")  # |g| = 1 for t in [1/4, 3/4]
    assert not r.at_vertex and r.barycentric == (Fraction(3, 4), Fraction(1, 4))


def test_minimum_is_global_lower_bound():
    # |f| >= minimum at many random interior points, and the reported
    # argmin attains it exactly.
    sampler = RationalSampler(17)
    cases = [
        ([(1, 0), (0, 1), (3, 3)], "l2"),
        ([(2, 1), (-1, 2), (1, -3)], "linf"),
        ([(1, 1, 0), (0, -2, 1)], "l1"),
        ([(-5,), (3,)], "l2"),
    ]
    for vals, norm in cases:
        k = len(vals)
        n = len(vals[0])
        result = simplex_norm_min(vals, norm)
        point = [sum(b * Fraction(v[i]) for b, v in zip(result.barycentric, vals))
                 for i in range(n)]
        assert vector_norm(point, norm).cmp(result.minimum) == 0
        assert sum(result.barycentric) == 1
        assert all(b >= 0 for b in result.barycentric)
        for _ in range(2500):
            weights = [Fraction(sampler.integer(0, 64), 64) for _ in range(k)]
            total = sum(weights)
            if total == 0:
                continue
            bary = [w / total for w in weights]
            sample = [sum(b * Fraction(v[i]) for b, v in zip(bary, vals))
                      for i in range(n)]
            assert vector_norm(sample, norm).cmp(result.minimum) >= 0


@settings(max_examples=300)
@given(st.lists(_MIXED, min_size=2, max_size=4), st.booleans(), st.sampled_from(NORMS))
def test_one_signed_simplex_on_r_has_a_vertex_minimum(xs, negative, norm):
    # For n = 1 with no two vertices of strictly opposite sign, |f| is
    # affine on the simplex, so its minimum is at a vertex: the lemma that
    # lets `star_subdivide` split a map to R at its zeros alone.
    values = [(-abs(x) if negative else abs(x),) for x in xs]
    result = simplex_norm_min(values, norm)
    assert result.at_vertex
    assert result.minimum == vector_norm((min(map(abs, xs)),), norm)


def test_at_vertex_flag():
    # Minimum attained both at a vertex and along an edge: still a vertex hit.
    r = simplex_norm_min([(1,), (1,)], "linf")
    assert r.at_vertex
    r = simplex_norm_min([(0,), (1,)], "l1")
    assert r.at_vertex
    assert r.minimum == ExactRadius.of(0)
