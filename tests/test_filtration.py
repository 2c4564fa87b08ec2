"""Critical values, sample radii, superlevel filtrations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rzero.complexes import Complex, PLMap, star_subdivide
from rzero.errors import InternalError
from rzero.exact import ExactRadius
from rzero.filtration import (
    CriticalSet,
    _ranked_vertices,
    build_filtration,
    check_face_order,
    sample_radii,
)
from rzero.normmin import norm_key, norm_radius, vector_norm
from rzero.rng import RationalSampler

from inputs import edge_map, grid_identity_map, octagon_winding2_map, superlevel


def critical_values(f):
    return build_filtration(f).criticals


def test_critical_values_edge():
    f = star_subdivide(edge_map())
    crit = critical_values(f)
    assert [c.as_fraction() for c in crit.values] == [1]
    assert crit.has_zero_min


def test_critical_values_constant():
    c = edge_map().complex
    f = PLMap(c, {"p": (3, 4), "q": (3, 4)}, 2, "l2")
    crit = critical_values(star_subdivide(f))
    assert crit.values == (ExactRadius.of(5),)
    assert not crit.has_zero_min


def test_critical_values_grid():
    crit = critical_values(star_subdivide(grid_identity_map()))
    assert [c.as_fraction() for c in crit.values] == [1]
    assert crit.has_zero_min


def test_critical_values_of_an_unsubdivided_map_are_its_simplex_minima():
    # The edge's minimum, 1/sqrt(2) at its midpoint, is no vertex norm.
    f = PLMap(edge_map().complex, {"p": (1, 0), "q": (0, 1)}, 2, "l2")
    filt = build_filtration(f)
    assert filt.criticals.values == (ExactRadius.sqrt(Fraction(1, 2)), ExactRadius.of(1))
    assert not filt.criticals.has_zero_min
    assert filt.entry == {("p",): 2, ("q",): 2, ("p", "q"): 1}


def test_sample_radii():
    one = ExactRadius.of(1)
    half = ExactRadius.of(Fraction(1, 2))
    assert sample_radii(CriticalSet((one,), True)) == [one, ExactRadius.of(2)]
    assert sample_radii(CriticalSet((half, one), False)) == [half, one, ExactRadius.of(2)]
    assert sample_radii(CriticalSet((), False)) == [one]


def test_filtration_edge_levels():
    filt = build_filtration(star_subdivide(edge_map()))
    assert len(filt.levels) == 2
    assert set(filt.levels[0].vertices) == {"p", "q"}
    assert not filt.levels[0].edges()
    assert len(filt.levels[1].vertices) == 0


def test_filtration_grid_levels():
    filt = build_filtration(star_subdivide(grid_identity_map()))
    assert len(filt.levels) == 2
    assert len(filt.levels[0].vertices) == 8
    assert len(filt.levels[0].edges()) == 8
    assert len(filt.levels[1].vertices) == 0


def test_filtration_octagon_levels():
    filt = build_filtration(star_subdivide(octagon_winding2_map()))
    assert [c.as_fraction() for c in filt.criticals.values] == [Fraction(1, 2), 1]
    assert len(filt.levels) == 3
    assert len(filt.levels[0].vertices) == 16
    assert len(filt.levels[0].edges()) == 16
    assert len(filt.levels[1].vertices) == 8
    assert not filt.levels[1].edges()
    assert len(filt.levels[2].vertices) == 0


def test_nesting_and_tail():
    filt = build_filtration(star_subdivide(octagon_winding2_map()))
    for small, large in zip(filt.levels[1:], filt.levels):
        for s in small.simplices:
            assert s in large
    assert len(filt.levels[-1]) == 0


def test_representative_radii():
    # The level is constant on each interval between critical values.
    f = star_subdivide(octagon_winding2_map())
    filt = build_filtration(f)
    sampler = RationalSampler(4)
    boundaries = [Fraction(0)] + [c.as_fraction() for c in filt.criticals.values]
    for i, level in enumerate(filt.levels[:-1]):
        lo, hi = boundaries[i], boundaries[i + 1]
        for _ in range(8):
            t = Fraction(sampler.integer(1, 63), 64)
            r = lo + t * (hi - lo)
            if r <= lo:
                continue
            probe_level = superlevel(f, r)
            assert probe_level.simplices == level.simplices


def test_identically_zero_map():
    # No positive vertex norms: no critical values, a single empty level,
    # and (nothing is robust) radius zero in every applicable mode.
    from rzero.pipeline import analyze, Mode
    from inputs import edge_map

    f = edge_map()
    zero = f.with_values({v: (Fraction(0),) for v in f.complex.vertices})
    analysis = analyze(zero, Mode.SIGNS, 3)
    assert analysis.criticals == ()
    assert analysis.filtration.criticals.has_zero_min
    assert len(analysis.filtration.levels) == 1
    assert len(analysis.filtration.levels[0]) == 0
    assert analysis.robust.radius == ExactRadius.of(0)


def test_constant_planar_map():
    from rzero.pipeline import analyze, Mode
    from inputs import edge_map

    f = edge_map()
    const = PLMap(f.complex, {v: (Fraction(3), Fraction(4)) for v in f.complex.vertices}, 2, "l2")
    analysis = analyze(const, Mode.CIRCLE, 3)
    assert list(analysis.criticals) == [ExactRadius.of(5)]
    assert not analysis.filtration.criticals.has_zero_min
    assert analysis.robust.radius == ExactRadius.of(0)


def _random_map(sampler, dim, n, norm):
    """A small random 1- or 2-complex with values in {-2..2}^n: norms tie,
    and some vertices (or all, or none) have norm zero."""
    vertices = sampler.integer(3, 7)
    simplices = []
    for _ in range(sampler.integer(2, 8)):
        s = set()
        while len(s) < dim + 1:
            s.add(sampler.integer(0, vertices - 1))
        simplices.append(sorted(s))
    c = Complex.build(simplices)
    kind = sampler.integer(0, 5)
    if kind == 0:
        const = tuple(Fraction(sampler.integer(-2, 2)) for _ in range(n))
        values = {v: const for v in c.vertices}
    elif kind == 1:
        values = {v: (Fraction(0),) * n for v in c.vertices}
    else:
        values = {v: tuple(Fraction(sampler.integer(-2, 2)) for _ in range(n))
                  for v in c.vertices}
    return PLMap(c, values, n, norm)


def test_levels_match_full_subcomplex_oracle():
    sampler = RationalSampler(4242)
    seen = set()
    for t in range(36):
        norm = ("l1", "l2", "linf")[t % 3]
        dim = 1 + (t // 3) % 2
        n = 1 + (t // 6) % 2
        f = star_subdivide(_random_map(sampler, dim, n, norm))
        filt = build_filtration(f)
        assert filt.level_count() == len(filt.levels) == len(filt.samples)
        for r, level in zip(filt.samples, filt.levels):
            oracle = superlevel(f, r)
            assert level.simplices == oracle.simplices
            assert level.vertices == oracle.vertices
            assert level.dim == oracle.dim
            for q in range(-1, f.complex.dim + 2):
                assert level.simplices_of_dim(q) == oracle.simplices_of_dim(q)
            assert level.all_simplices() == oracle.all_simplices()
            assert level.parent is f.complex
        for small, large in zip(filt.levels[1:], filt.levels):
            assert small.simplices <= large.simplices
        seen.add((len(filt.levels), filt.criticals.has_zero_min, len(filt.levels[0]) > 0))
    # The draws cover one and several levels, zero minima, and empty first levels.
    assert {k for k, _, _ in seen} >= {1, 2, 3}
    assert {z for _, z, _ in seen} == {True, False}
    assert {e for _, _, e in seen} == {True, False}


def test_face_order_check_rejects_corrupted_order():
    f = star_subdivide(octagon_winding2_map())
    norms = {v: vector_norm(f.values[v], f.norm) for v in f.complex.vertices}
    crit = critical_values(f)
    exits = {v: next((k for k, r in enumerate(crit.values, 1) if r == norms[v]), 0)
             for v in f.complex.vertices}
    entry = {s: min(exits[v] for v in s) for s in f.complex.simplices}
    check_face_order(entry)
    edge = f.complex.edges()[0]
    bad = dict(entry)
    bad[(edge[0],)] = entry[edge] - 1  # the vertex now enters after its edge
    with pytest.raises(InternalError):
        check_face_order(bad)
    missing = {s: e for s, e in entry.items() if s != (edge[1],)}
    with pytest.raises(InternalError):
        check_face_order(missing)


def test_build_filtration_rejects_a_complex_that_is_not_face_closed():
    # The subdivided complex is assembled from its simplex set with no
    # re-closing; a missing face must stop the filtration, not yield
    # levels that are not subcomplexes.
    f = star_subdivide(grid_identity_map())
    triangle = f.complex.simplices_of_dim(2)[0]
    broken = Complex.from_closed(f.complex.simplices - {triangle[1:]})
    g = PLMap(broken, f.values, f.n, f.norm, minima_at_vertices=True)
    with pytest.raises(InternalError):
        build_filtration(g)


@st.composite
def subdivided_maps(draw):
    """A random complex of dimension <= 2 on at most five vertices with a
    map to R^n (n <= 3) of small rationals, some vertices at zero, in one
    of the three norms, after subdivision."""
    names = [f"x{i}" for i in range(draw(st.integers(2, 5)))]
    simplices = [draw(st.permutations(names))[:draw(st.integers(1, 3))]
                 for _ in range(draw(st.integers(1, 5)))]
    complex_ = Complex.build(simplices)
    n = draw(st.integers(1, 3))
    coordinate = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    values = {v: tuple(draw(coordinate) if draw(st.booleans()) or draw(st.booleans()) else 0
                       for _ in range(n))
              for v in complex_.vertices}
    return star_subdivide(PLMap(complex_, values, n, draw(st.sampled_from(["l1", "l2", "linf"]))))


@settings(max_examples=60)
@given(subdivided_maps())
def test_integer_ranking_matches_rational_norm_keys(f):
    # Ranking the vertex norms as integers over one LCM gives the exit
    # indices and critical values of ranking each vertex's rational key.
    keys = {v: norm_key(f.values[v], f.norm) for v in f.complex.vertices}
    positive = sorted(set(keys.values()) - {0})
    crit, exit_index = _ranked_vertices(f)
    assert exit_index == {v: positive.index(key) + 1 if key else 0 for v, key in keys.items()}
    assert crit.values == tuple(norm_radius(key, f.norm) for key in positive)
    assert crit.has_zero_min == (0 in keys.values())
