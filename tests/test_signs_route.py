"""Signs mode filters the input complex itself; the filtration of the
zero-split subdivision, which signs mode used to analyze, is the oracle.

For a map to R the zero split adds only vertices of value 0 and removes
exactly the simplices whose vertices take both strict signs, so both
routes must agree on the critical set, every level's simplex set, the
flags, the robust radius and its witness, the bars and the modules.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rzero.complexes import Complex, PLMap, star_subdivide
from rzero.filtration import build_filtration
from rzero.modes import Mode
from rzero.pipeline import _analyze_filtered, analyze, assemble_pointed_module, field_barcode

from inputs import edge_map, signs_mixed_map

FIELDS = ("f2", "f3", "q")


@st.composite
def scalar_maps(draw):
    """A random complex of dimension 1 to 3 on at most seven vertices, with
    isolated vertices, and a map to R drawn from a small pool of values
    (so norms tie and vertices sit at zero) with denominators up to 97, in
    one of the three norms."""
    names = [f"x{i}" for i in range(draw(st.integers(2, 7)))]
    dim = draw(st.integers(1, 3))
    simplices = [draw(st.permutations(names))[:draw(st.integers(2, dim + 1))]
                 for _ in range(draw(st.integers(1, 5)))]
    simplices.append([draw(st.sampled_from(names))])
    complex_ = Complex.build(simplices + [[f"i{k}"] for k in range(draw(st.integers(0, 2)))])
    pool = draw(st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 97)),
                         min_size=1, max_size=5))
    values = {v: (draw(st.sampled_from(pool + [Fraction(0)])),) for v in complex_.vertices}
    return PLMap(complex_, values, 1, draw(st.sampled_from(["l1", "l2", "linf"])))


def _compare(f: PLMap, seed: int) -> None:
    got = analyze(f, Mode.SIGNS, seed)
    want = _analyze_filtered(f, build_filtration(star_subdivide(f)), Mode.SIGNS, seed)
    assert got.f is f
    assert got.criticals == want.criticals
    assert got.filtration.criticals.has_zero_min == want.filtration.criticals.has_zero_min
    assert got.samples == want.samples
    for mine, theirs in zip(got.filtration.levels, want.filtration.levels, strict=True):
        assert mine.simplices == theirs.simplices
    assert [lv.nontrivial for lv in got.levels] == [lv.nontrivial for lv in want.levels]
    assert got.robust.radius == want.robust.radius
    assert got.robust.witness == want.robust.witness
    for field in FIELDS:
        assert field_barcode(got, field) == field_barcode(want, field)
        mine, theirs = assemble_pointed_module(got, field), assemble_pointed_module(want, field)
        assert (mine.dims, mine.transitions, mine.distinguished) == (
            theirs.dims, theirs.transitions, theirs.distinguished)
        assert mine.meta["sign_vectors"] == theirs.meta["sign_vectors"]


@settings(max_examples=200)
@given(scalar_maps(), st.integers(0, 2**16))
def test_signs_route_matches_the_subdivided_route(f, seed):
    _compare(f, seed)


@pytest.mark.parametrize("make", [edge_map, signs_mixed_map])
def test_signs_route_on_the_fixtures(make):
    _compare(make(), 7)


def test_a_simplex_of_both_signs_never_enters():
    # The edge's values are -1 and 1: f vanishes inside it, so the
    # critical set has a zero minimum although no vertex is zero.
    filt = build_filtration(edge_map())
    assert filt.entry == {("p",): 1, ("q",): 1, ("p", "q"): 0}
    assert filt.criticals.has_zero_min


def test_an_unsubdivided_planar_map_enters_at_its_simplex_minima():
    # The minimum of |f| over the edge is 0, at its midpoint.
    f = PLMap(Complex.build([["p", "q"]]), {"p": (-1, 0), "q": (1, 0)}, 2, "linf")
    filt = build_filtration(f)
    assert filt.entry == {("p",): 1, ("q",): 1, ("p", "q"): 0}
    assert filt.criticals.has_zero_min
