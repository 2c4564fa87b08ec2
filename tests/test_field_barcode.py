"""`field_barcode` reads the bars of signs, circle and hopf modules from one
pass over the filtration order where that gives the module's bars, and
builds the module everywhere else.  Both routes must agree exactly, with
each other and with the rank-formula oracle, and the fast route must build
no per-level module."""

import contextlib
import io
import json
import pathlib
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import rzero.cli as cli
import rzero.cohomology as cohomology
import rzero.harness as harness
import rzero.modes as modes
import rzero.pipeline as pipeline
from rzero.barcode import ORACLE_DIMENSION_CAP, barcode, decompose_oracle
from rzero.cohomology import CochainComplex, filtration_field_dims, integral_cohomology
from rzero.complexes import Complex, PLMap
from rzero.errors import InternalError
from rzero.filtration import Filtration
from rzero.io import parse_input
from rzero.linalg import PresentedGroup
from rzero.modes import Mode, applicable
from rzero.persistence import LevelEchelon, circle_bars
from rzero.pipeline import analyze, assemble_pointed_module, field_barcode

from inputs import as_document
from test_perfbench_targets import _load
from test_pipeline_fuzz import (
    RP2_FACES,
    moebius_odd_winding_map,
    planar_inputs,
    projective_plane_map,
    three_dimensional_inputs,
)

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"
FIELDS = ("q", "f2", "f3")


def _agree(analysis, fields=FIELDS):
    rho = analysis.robust.radius
    for field in fields:
        got = field_barcode(analysis, field)
        module = assemble_pointed_module(analysis, field)
        assert got == barcode(module, signs_robust_radius=rho), field
        if sum(module.dims) <= ORACLE_DIMENSION_CAP:
            assert got == decompose_oracle(module, signs_robust_radius=rho), field


def _modes(f):
    return [m for m in Mode if applicable(m, f.n, f.complex.dim)]


@pytest.mark.parametrize("name", sorted(p.stem for p in SAMPLES.glob("*.json")))
def test_sample_inputs_agree_in_every_mode(name):
    f = parse_input((SAMPLES / f"{name}.json").read_text(encoding="utf-8"))
    for mode in _modes(f):
        _agree(analyze(f, mode, 11))


def test_planar_and_three_dimensional_maps_agree():
    for t, f in planar_inputs():
        for mode in _modes(f):
            _agree(analyze(f, mode, 100 + t))
    for t, f in three_dimensional_inputs():
        _agree(analyze(f, Mode.HOPF, 200 + t), ("q", "f2"))


def test_moebius_agrees_in_both_modes():
    # Hopf over F_2 sees the 2-torsion of the strip; circle over F_2 takes
    # the module route.
    f = moebius_odd_winding_map()
    for mode in (Mode.HOPF, Mode.CIRCLE):
        _agree(analyze(f, mode, 23), ("q", "f2"))


def test_hopf_and_circle_agree_where_h1_vanishes(monkeypatch):
    # With H^1(X; Z) = 0 the connecting map H^1(A) -> ker j* is a natural
    # isomorphism that carries the winding class to the degree class, so
    # the two modes have one pointed barcode.  The routes share no code:
    # hopf reads the analysis's integer echelon, circle reduces boundaries
    # over Q and builds the module over F_p.
    grid = _load(monkeypatch, "inputs").grid
    maps = [f for _, f in planar_inputs()]
    maps += [parse_input(json.dumps(grid(random.Random(5), k, 2, norm, True)))
             for k in (2, 3, 4) for norm in ("l1", "l2", "linf")]
    for t, f in enumerate(maps):
        assert integral_cohomology(CochainComplex(f.complex), 1).group.is_trivial()
        hopf, circle = (analyze(f, mode, 300 + t) for mode in (Mode.HOPF, Mode.CIRCLE))
        for field in FIELDS:
            assert field_barcode(hopf, field) == field_barcode(circle, field), (t, field)


@st.composite
def small_maps(draw, n=2):
    """A random complex of dimension <= 2 on at most five vertices with a
    map to R^n of small integer values, zeros and tied norms included, in
    one of the three norms."""
    names = [f"x{i}" for i in range(draw(st.integers(3, 5)))]
    simplices = []
    for _ in range(draw(st.integers(1, 5))):
        size = draw(st.integers(2, 3))
        simplices.append(draw(st.permutations(names))[:size])
    values = {v: tuple(Fraction(draw(st.integers(-3, 3))) for _ in range(n)) for v in names}
    complex_ = Complex.build(simplices)
    values = {v: values[v] for v in complex_.vertices}
    return PLMap(complex_, values, n, draw(st.sampled_from(["l1", "l2", "linf"])))


@settings(max_examples=25)
@given(small_maps(), st.sampled_from([Mode.CIRCLE, Mode.HOPF]), st.integers(0, 1 << 20))
def test_random_small_complexes_agree(f, mode, seed):
    _agree(analyze(f, mode, seed))


@settings(max_examples=25)
@given(small_maps(n=1))
def test_random_signs_maps_agree(f):
    # Signs mode reads its bars from one union-find, with no module.
    _agree(analyze(f, Mode.SIGNS))


def test_torsion_trap_takes_the_module_route(monkeypatch):
    # H^1(RP^2; Z) = 0 but H^1(RP^2; F_2) = F_2: with the map pushed away
    # from zero the first level is all of RP^2, where the module H^1(.; Z) ⊗ F_2
    # has dim 0 and a plain F_2 reduction would find a bar.
    f = projective_plane_map()
    shifted = f.with_values({v: (x + 10, y) for v, (x, y) in f.values.items()})
    analysis = analyze(shifted, Mode.CIRCLE, 5)
    assert analysis.filtration.levels[0].simplices == analysis.f.complex.simplices
    filt = analysis.filtration
    dims = filtration_field_dims(analysis.f.complex, filt.entry, filt.level_count(), 2)
    assert dims[0][1] == dims[1][1] == 1  # X, and A_0 = X
    module = assemble_pointed_module(analysis, "f2")
    assert module.dims[0] == 0 and module.dims[1] == 1
    calls = _count(monkeypatch, pipeline, "assemble_pointed_module")
    assert field_barcode(analysis, "f2") == barcode(module)
    assert len(calls) == 1


def _count(monkeypatch, holder, name, calls=None) -> list:
    """Record every call of holder.name, which still runs, in `calls`."""
    calls = [] if calls is None else calls
    original = getattr(holder, name)

    def counted(*args, **kwargs):
        calls.append((name, args))
        return original(*args, **kwargs)

    monkeypatch.setattr(holder, name, counted)
    return calls


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([str(a) for a in argv]) == 0


def _results(monkeypatch, holder, name, results) -> list:
    """Record the result of every call of holder.name in `results`."""
    original = getattr(holder, name)

    def recorded(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(holder, name, recorded)
    return results


@pytest.mark.parametrize("name, mode", [("octagon_winding2", "circle"), ("grid_identity", "hopf"),
                                        ("edge", "signs"), ("rectangle_y", "signs")])
def test_fast_route_builds_no_module(monkeypatch, name, mode):
    path = SAMPLES / f"{name}.json"
    calls = []
    for holder, name in [(pipeline, "assemble_pointed_module"), (pipeline, "induced_int_matrix"),
                         (cohomology, "induced_int_matrix"), (PresentedGroup, "tensor")]:
        _count(monkeypatch, holder, name, calls)
    # A level's components are built by `sign_vector` only.
    components = _count(monkeypatch, modes, "connected_components")
    analyses = []
    for holder in (cli, harness):
        _results(monkeypatch, holder, "analyze", analyses)
    _run("barcode", path, "--mode", mode, "--field", "q")
    _run("fuzz", path, "--mode", mode, "--delta", "1/10", "--trials", 2, "--seed", 3)
    assert calls == []
    # At most the robust witness's level reads its components.
    assert len(components) <= len(analyses) < sum(len(a.levels) for a in analyses)


@pytest.mark.parametrize("field", FIELDS)
def test_projective_plane_hopf_builds_no_module(monkeypatch, field):
    # The ambient H^2(RP^2; Z) = Z/2 is not trivial, so ker j* is a proper
    # subgroup at some level; its generators come from one integer echelon
    # of the ambient coboundary, with no per-level kernel or tensoring.
    analysis = analyze(projective_plane_map(), Mode.HOPF, 17)
    assert not analysis.levels[0].ambient.trivial
    calls = []
    for holder, name in [(pipeline, "assemble_pointed_module"), (pipeline, "kernel_subgroup"),
                         (cohomology, "kernel_subgroup"), (PresentedGroup, "tensor")]:
        _count(monkeypatch, holder, name, calls)
    field_barcode(analysis, field)
    assert calls == []
    monkeypatch.undo()
    _agree(analysis, (field,))


def test_hopf_bars_checks_the_degree_vector():
    # A single triangle of RP^2 spans H^2(RP^2; Z) = Z/2, so it is no
    # ambient coboundary and cannot be written in the kernel's generators.
    analysis = analyze(projective_plane_map(), Mode.HOPF, 17)
    filt, ambient = analysis.filtration, analysis.levels[0].ambient
    row = next(r for r, s in enumerate(ambient.top) if filt.entry[s] == 0)
    echelon = LevelEchelon(filt, ambient.top, ambient.columns, {row: 1})
    for char in (0, 2, 3):
        with pytest.raises(InternalError, match="ambient coboundary"):
            echelon.bars(char)


TETRAHEDRON_BOUNDARY = [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]]
GRAPH = [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"], ["a", "c"], ["d", "e"]]
NONZERO_TOP = {
    # H^2 = Z/2, H^2 = Z, and dim X < n = 2 (no 2-simplex at all).
    "rp2": [[f"p{v}" for v in face] for face in RP2_FACES],
    "s2": TETRAHEDRON_BOUNDARY,
    "graph": GRAPH,
}


@st.composite
def fixed_complex_maps(draw):
    """A map to R^2 of small integer values, zeros and tied norms included,
    in one of the three norms, on RP^2, S^2 or a graph."""
    complex_ = Complex.build(NONZERO_TOP[draw(st.sampled_from(sorted(NONZERO_TOP)))])
    values = {v: (Fraction(draw(st.integers(-3, 3))), Fraction(draw(st.integers(-3, 3))))
              for v in complex_.vertices}
    return PLMap(complex_, values, 2, draw(st.sampled_from(["l1", "l2", "linf"])))


@settings(max_examples=20)
@given(fixed_complex_maps(), st.integers(0, 1 << 20))
def test_random_hopf_maps_with_nonzero_ambient_agree(f, seed):
    _agree(analyze(f, Mode.HOPF, seed))


def test_reduction_checks_the_distinguished_bar():
    # A winding "cocycle" that is no cocycle on the first level breaks the
    # argument that places the distinguished bar; the route must notice.
    tri = Complex.build([["a", "b", "c"]])
    f = PLMap(tri, {"a": (Fraction(5), Fraction(0)), "b": (Fraction(6), Fraction(1)),
                    "c": (Fraction(5), Fraction(2))}, 2, "linf")
    analysis = analyze(f, Mode.CIRCLE, 1)
    assert analysis.filtration.levels[0].simplices == analysis.f.complex.simplices
    edge = analysis.f.complex.edges()[0]
    with pytest.raises(InternalError):
        circle_bars(analysis.filtration, {edge: 1})


def rp2_zero_pivot_map():
    """The 6-vertex RP^2 under l2 where a ker j* relation coefficient of
    the integer echelon vanishes mod 2."""
    values = {"p0": (2, -4), "p1": (-3, -3), "p2": (1, -4), "p3": (-2, 0), "p4": (-2, -3),
              "p5": (3, 4)}
    complex_ = Complex.build(NONZERO_TOP["rp2"])
    return PLMap(complex_, {v: tuple(map(Fraction, xy)) for v, xy in values.items()}, 2, "l2")


def test_hopf_relation_coefficients_zero_mod_p_agree():
    _agree(analyze(rp2_zero_pivot_map(), Mode.HOPF, 7), ("q", "f2", "f3", "f5"))


def test_rp2_zero_pivot_barcode_cli(tmp_path):
    path = tmp_path / "rp2.json"
    path.write_text(as_document(rp2_zero_pivot_map()))
    for field in ("q", "f2", "f3"):
        _run("barcode", path, "--mode", "hopf", "--field", field)


def test_hopf_bars_drops_relation_coefficients_zero_mod_p():
    # One row, born at 0; the relation {row: 2} leaves A at level 1 and
    # {row: 1} at level 2.  Over F_2 the first is zero and meets no pivot:
    # it ends no bar, and the degree vector {row: 1} dies with the second.
    # Over Q the first relation already kills it.
    filt = SimpleNamespace(entry={("t",): 0, ("a",): 1, ("b",): 2}, samples=[0, 1, 2])
    filt.leaving = lambda simplices: Filtration.leaving(filt, simplices)
    columns = {("a",): {0: 2}, ("b",): {0: 1}}
    bars = {char: LevelEchelon(filt, [("t",)], columns, {0: 1}).bars(char) for char in (2, 0)}
    assert bars[2] == (Counter({(0, 1): 1}), 2)
    assert bars[0] == (Counter({(0, 0): 1}), 1)
