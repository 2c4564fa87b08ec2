"""`fuzz` and `bottleneck` filter the input complex by exact simplex
minima; `analyze`, which filters the subdivision, is the oracle.

f is affine on each simplex, so |f| is convex there and {|f| >= r}
deformation retracts onto the simplices whose minimum of |f| is at least r
(`filtration`).  Both routes therefore give isomorphic pointed modules:
the same robust radius and the same bars, distinguished bar included,
over every field.  The critical values, samples, probes and rays differ,
so nothing else is compared.  The faces-first minima themselves are
checked against `simplex_norm_min` and the unpruned reference search on
every simplex.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rzero.complexes import Complex, PLMap
from rzero.filtration import _simplex_minima, build_filtration
from rzero.harness import PerturbSpec, check_stability, perturb
from rzero.modes import Mode, applicable
from rzero.normmin import norm_radius, simplex_norm_min
from rzero.pipeline import analyze, analyze_input_complex, field_barcode
from rzero.rng import child_seed

from inputs import grid_identity_map, octagon_winding2_map, seeded_grid_map
from normmin_reference import reference_norm_min
from test_pipeline_fuzz import (
    moebius_odd_winding_map,
    planar_inputs,
    projective_plane_map,
    three_dimensional_inputs,
)

FIELDS = ("q", "f2", "f3")
MODES = (Mode.SIGNS, Mode.CIRCLE, Mode.HOPF)


def _compare(f: PLMap, mode: Mode, seed: int, fields=FIELDS) -> None:
    got = analyze_input_complex(f, mode, seed)
    want = analyze(f, mode, seed)
    assert got.f is f
    assert got.robust.radius == want.robust.radius
    for field in fields:
        assert field_barcode(got, field) == field_barcode(want, field)


def _check_minima(f: PLMap):
    """The faces-first minima (d, minima), each checked on its simplex."""
    den, minima = _simplex_minima(f)
    assert minima.keys() == f.complex.simplices
    for s, key in minima.items():
        values = [f.values[v] for v in s]
        found = simplex_norm_min(values, f.norm)
        assert Fraction(key, den) == Fraction(found.num, found.den)
        assert norm_radius(Fraction(key, den), f.norm) == reference_norm_min(values, f.norm)[0]
    return den, minima


def _fixed_inputs():
    """(name, map, circle fields).  Circle mode over F_p builds the
    integral module of the subdivision; on the k = 4 grids that takes up
    to 8 s, so there circle mode is compared over Q only."""
    for t, f in planar_inputs():
        yield f"planar-{t}", f, FIELDS
    for t, f in three_dimensional_inputs():
        yield f"3d-{t}", f, FIELDS
    for k in (2, 3, 4):
        for i, norm in enumerate(("l1", "l2", "linf")):
            yield (f"grid{k}-{norm}", seeded_grid_map(20 + 3 * k + i, k, 2, norm),
                   FIELDS if k < 4 else ("q",))
    yield "moebius", moebius_odd_winding_map(), FIELDS
    yield "rp2", projective_plane_map(), FIELDS


FIXED = {name: (f, circle_fields) for name, f, circle_fields in _fixed_inputs()}


@pytest.mark.parametrize("name", sorted(FIXED))
def test_input_complex_route_matches_analyze(name):
    f, circle_fields = FIXED[name]
    _check_minima(f)
    modes = [mode for mode in MODES if applicable(mode, f.n, f.complex.dim)]
    assert modes
    for mode in modes:
        _compare(f, mode, child_seed(4711, len(name)),
                 circle_fields if mode == Mode.CIRCLE else FIELDS)


PLANAR = {"grid_identity": grid_identity_map, "octagon_winding2": octagon_winding2_map,
          "moebius": moebius_odd_winding_map, "rp2": projective_plane_map}


@settings(max_examples=30)
@given(st.sampled_from(sorted(PLANAR)), st.sampled_from(["1/10", "1/2", "1"]),
       st.integers(0, 2**16), st.sampled_from([Mode.CIRCLE, Mode.HOPF]))
def test_perturbed_planar_maps(name, delta, seed, mode):
    # The traffic of `fuzz`: seeded perturbations of the planar fixtures.
    g = perturb(PLANAR[name](), PerturbSpec(Fraction(delta), seed))
    _compare(g, mode, seed)


@st.composite
def one_complex_maps(draw):
    """A random complex of dimension at most 1 on at most seven vertices
    with a map to R drawn from a small pool (norms tie, vertices sit at 0),
    in one of the three norms: hopf mode applies, with n = 1."""
    names = [f"x{i}" for i in range(draw(st.integers(2, 7)))]
    simplices = [draw(st.permutations(names))[:draw(st.integers(1, 2))]
                 for _ in range(draw(st.integers(1, 8)))]
    complex_ = Complex.build(simplices)
    pool = draw(st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
                         min_size=1, max_size=4))
    values = {v: (draw(st.sampled_from(pool + [Fraction(0)])),) for v in complex_.vertices}
    return PLMap(complex_, values, 1, draw(st.sampled_from(["l1", "l2", "linf"])))


@settings(max_examples=60)
@given(one_complex_maps(), st.integers(0, 2**16))
def test_hopf_on_maps_to_r(f, seed):
    # Hopf mode with n = 1: the upper-star filtration of the input against
    # the zero-split subdivision that `analyze` filters.
    _compare(f, Mode.HOPF, seed)


@st.composite
def small_maps(draw):
    """A random complex of dimension at most 3 on at most five vertices
    with a map to R^2 or R^3 of small rationals, some vertices at zero."""
    names = [f"x{i}" for i in range(draw(st.integers(1, 5)))]
    simplices = [draw(st.permutations(names))[:draw(st.integers(1, 4))]
                 for _ in range(draw(st.integers(1, 4)))]
    complex_ = Complex.build(simplices)
    n = draw(st.integers(2, 3))
    coordinate = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    values = {v: tuple(draw(coordinate) if draw(st.booleans()) or draw(st.booleans()) else 0
                       for _ in range(n))
              for v in complex_.vertices}
    return PLMap(complex_, values, n, draw(st.sampled_from(["l1", "l2", "linf"])))


@settings(max_examples=80)
@given(small_maps())
def test_faces_first_minima_match_the_minimizers(f):
    den, minima = _check_minima(f)
    filt = build_filtration(f)
    rank = {r: i for i, r in enumerate(filt.criticals.values, 1)}
    for s, key in minima.items():
        assert filt.entry[s] == (rank[norm_radius(Fraction(key, den), f.norm)] if key else 0)
    assert filt.criticals.has_zero_min == (0 in minima.values())


# ---------------------------------------------------------------------------
# stability at scale
# ---------------------------------------------------------------------------

def _scale_inputs():
    yield "moebius", moebius_odd_winding_map(), 3
    yield "rp2", projective_plane_map(), 3
    for t, f in three_dimensional_inputs():
        yield f"3d-{t}", f, 3
    for k, trials in ((4, 2), (8, 1)):
        for i, norm in enumerate(("l1", "l2", "linf")):
            yield f"grid{k}-{norm}", seeded_grid_map(40 + 3 * k + i, k, 2, norm), trials


SCALE = {name: (f, trials) for name, f, trials in _scale_inputs()}


@pytest.mark.parametrize("name", sorted(SCALE))
def test_stability_at_scale(name):
    # Both stability inequalities, and the distinguished bar's, on every
    # applicable mode at two perturbation bounds.
    f, trials = SCALE[name]
    for mode in (Mode.CIRCLE, Mode.HOPF):
        if not applicable(mode, f.n, f.complex.dim):
            continue
        for delta in (Fraction(1, 10), Fraction(1, 2)):
            report = check_stability(f, mode, delta, trials, 11)
            assert report.passed, report.to_dict()
