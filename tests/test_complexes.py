"""Complex construction, subdivision, subcomplexes, components."""

from fractions import Fraction

import pytest

from rzero.complexes import (
    Complex,
    PLMap,
    connected_components,
    star_subdivide,
    vertex_minima_ok,
)
from rzero.errors import InputError
from rzero.rng import RationalSampler

from inputs import (
    edge_map,
    expansion,
    full_subcomplex,
    grid_identity_map,
    octagon_winding2_map,
    superlevel,
)


def test_build_complex_counts():
    assert len(Complex.build([["a", "b"]])) == 3
    assert len(Complex.build([["a", "b", "c"]])) == 7
    assert len(Complex.build([["a", "b", "c"], ["b", "c", "d"]])) == 11


def test_build_complex_errors():
    with pytest.raises(InputError):
        Complex.build([["a", "a"]])
    with pytest.raises(InputError):
        Complex.build([])


def test_star_subdivide_edge():
    f = star_subdivide(edge_map())
    assert len(f.complex.vertices) == 3
    new = [v for v in f.complex.vertices if v not in ("p", "q")][0]
    assert f.values[new] == (0,)
    assert len(f.complex.edges()) == 2


def test_star_subdivide_fixpoint():
    # Grid identity already satisfies both conditions: no starring happens.
    f = grid_identity_map()
    g = star_subdivide(f)
    assert set(g.complex.vertices) == set(f.complex.vertices)
    assert g.complex.simplices == f.complex.simplices


def test_star_subdivide_l2_edge():
    c = Complex.build([["a", "b"]])
    f = PLMap(c, {"a": (1, 0), "b": (0, 1)}, 2, "l2")
    g = star_subdivide(f)
    new = [v for v in g.complex.vertices if v not in ("a", "b")][0]
    assert g.values[new] == (Fraction(1, 2), Fraction(1, 2))


def test_subdivision_postconditions_and_realization():
    sampler = RationalSampler(12)
    f = octagon_winding2_map()
    g = star_subdivide(f)
    assert vertex_minima_ok(g)
    # Component zeros meet edges only at vertices.
    for u, v in g.complex.edges():
        for i in range(g.n):
            assert g.values[u][i] * g.values[v][i] >= 0
    # The subdivided map agrees with the original pointwise: evaluate at
    # random points of subdivided simplices through the vertex expansions
    # that the new vertex ids spell out.
    simplices = g.complex.all_simplices()
    for _ in range(1000):
        simplex = simplices[sampler.integer(0, len(simplices) - 1)]
        weights = [Fraction(sampler.integer(1, 16)) for _ in simplex]
        total = sum(weights)
        bary = [w / total for w in weights]
        via_new = tuple(sum(b * g.values[v][i] for b, v in zip(bary, simplex))
                        for i in range(g.n))
        # Express the same point in original vertex coordinates.
        combo = {}
        for b, vert in zip(bary, simplex):
            for orig, weight in expansion(vert, f.complex.vertices).items():
                combo[orig] = combo.get(orig, Fraction(0)) + b * weight
        support = tuple(sorted(k for k, w in combo.items() if w != 0))
        assert support in f.complex
        via_old = tuple(
            sum(w * f.values[o][i] for o, w in combo.items()) for i in range(f.n)
        )
        assert via_new == via_old


def test_full_subcomplex_examples():
    tri = Complex.build([["a", "b", "c"]])
    sub = full_subcomplex(tri, lambda v: v in ("a", "b"))
    assert set(sub.simplices) == {("a",), ("b",), ("a", "b")}
    whole = full_subcomplex(tri, lambda v: True)
    assert whole.simplices == tri.simplices


def test_full_subcomplex_grid_boundary():
    f = grid_identity_map()
    sub = superlevel(f, 1)
    assert len(sub.vertices) == 8
    assert len(sub.edges()) == 8
    assert not sub.simplices_of_dim(2)
    assert len(connected_components(sub)) == 1


def test_full_subcomplex_idempotent_monotone():
    f = grid_identity_map()
    keep1 = lambda v: v.startswith("v0")
    keep2 = lambda v: v.startswith("v0") or v.startswith("v1")
    s1 = full_subcomplex(f.complex, keep1)
    s2 = full_subcomplex(f.complex, keep2)
    assert set(s1.simplices) <= set(s2.simplices)
    again = full_subcomplex(s1, keep1)
    assert again.simplices == s1.simplices


def test_connected_components():
    two = Complex.build([["a", "b"], ["c", "d"]])
    assert len(connected_components(two)) == 2
    empty = full_subcomplex(two, lambda v: False)
    assert connected_components(empty) == []
    cycle = Complex.build([[f"x{i}", f"x{(i + 1) % 5}"] for i in range(5)])
    comps = connected_components(cycle)
    assert len(comps) == 1
    assert comps[0] == tuple(sorted(cycle.vertices))


def test_component_ids_deterministic():
    c = Complex.build([["b", "z"], ["a", "b"]])
    comps = connected_components(c)
    assert comps == [("a", "b", "z")]


def test_subdivider_coface_index_matches_recomputed():
    # The vertex -> simplices index that star uses for coface lookup stays
    # equal to one recomputed from the simplex set, through a whole
    # subdivision of every sample input (and a map needing several stars).
    # At the fixpoint no simplex waits for a visit or a split, every kept
    # face point has been starred, exactly the surviving simplices of
    # dim >= 1 carry a minimizing vertex of their own, and the simplex set
    # is already face-closed, as `Complex.from_closed` assumes.  Every
    # vertex record is its value in lowest terms, with the norm the floor
    # certificate reads.
    import pathlib

    from rzero.complexes import _Subdivider
    from rzero.io import parse_input
    from rzero.normmin import norm_key, scaled_vector

    root = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"
    maps = [parse_input(p.read_text()) for p in sorted(root.glob("*.json"))]
    c = Complex.build([["a", "b", "c"], ["b", "c", "d"]])
    maps.append(PLMap(c, {"a": (3, -1), "b": (-2, 2), "c": (1, 3), "d": (-1, -2)}, 2, "l2"))
    assert len(maps) == 5
    for f in maps:
        state = _Subdivider(f)
        while state.argmin_pass() | state.zero_split_pass():
            pass
        recomputed = {}
        for s in state.simplices:
            for v in s:
                recomputed.setdefault(v, set()).add(s)
        assert state.by_vertex == recomputed
        assert not state.unvisited and not state.unsplit and not state.kept
        assert state.minimizer.keys() == {s for s in state.simplices if len(s) > 1}
        assert all(v in s for s, v in state.minimizer.items())
        assert Complex(state.simplices).simplices == state.simplices
        assert state.simplices == star_subdivide(f).complex.simplices
        assert state.values.keys() == {v for s in state.simplices for v in s}
        for den, nums, measure in state.values.values():
            value = tuple(Fraction(x, den) for x in nums)
            assert scaled_vector(value) == (den, nums)
            assert Fraction(measure, den * den if f.norm == "l2" else den) == norm_key(value, f.norm)
