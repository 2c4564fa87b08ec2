"""Per-level data is built only where it is read, and the routes that
replace per-level work agree with it: the one-sweep hopf flags with a
triviality test at each level, the one-pass signs flags with each level's
sign witness, and the restricted winding cocycles with one computed on
each level."""

import contextlib
import io
import pathlib
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings

import rzero.cli as cli
import rzero.cohomology as cohomology
import rzero.harness as harness
import rzero.pipeline as pipeline
from rzero.cohomology import (
    CochainComplex,
    induced_int_matrix,
    integral_cohomology,
    restriction_transfer,
)
from rzero.complexes import (
    Complex,
    PLMap,
    Subcomplex,
    component_index,
    connected_components,
    star_subdivide,
)
from rzero.errors import InternalError
from rzero.exact import ExactRadius
from rzero.filtration import build_filtration
from rzero.linalg import columns
from rzero.modes import Mode, SignVector, applicable, sign_vector, sign_witness, winding_cocycle
from rzero.pipeline import SignsLevel, analyze
from rzero.rng import child_seed

from inputs import (
    as_document,
    grid_identity_map,
    image_subgroup,
    octagon_winding2_map,
    rectangle_map,
    seeded_grid_map,
)
from test_field_barcode import small_maps
from test_pipeline_fuzz import (
    moebius_odd_winding_map,
    planar_inputs,
    projective_plane_map,
    three_dimensional_inputs,
)

GRID = str(pathlib.Path(__file__).resolve().parent.parent / "sample_inputs" / "grid_identity.json")


def _count(monkeypatch, module, name) -> list:
    """Record every call of module.name, which still runs."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _run(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def test_hopf_runs_build_no_cochain_complex(monkeypatch):
    # Hopf mode is presented from the ambient's sparse coboundary alone: no
    # cochain complex, integral cohomology or induced map, at any level.
    calls = [_count(monkeypatch, module, name)
             for module in (pipeline, cohomology)
             for name in ("CochainComplex", "integral_cohomology",
                          "induced_int_matrix", "restriction_transfer")]
    analyses = _count(monkeypatch, cli, "analyze")
    _run("barcode", GRID, "--mode", "hopf", "--field", "q")
    _run("module", GRID, "--mode", "hopf", "--field", "z")
    _run("robust-radius", GRID, "--mode", "hopf")
    assert len(analyses) == 3
    assert calls == [[]] * len(calls)


def test_circle_analysis_computes_one_winding_cocycle(monkeypatch):
    winding = _count(monkeypatch, pipeline, "winding_cocycle")
    analysis = analyze(grid_identity_map(), Mode.CIRCLE, 7)
    assert len(winding) == 1
    assert analysis.robust.radius.sign() > 0


def _hopf_cases():
    for t, f in planar_inputs():
        if applicable(Mode.HOPF, 2, f.complex.dim):
            yield f, child_seed(271828, 2000 + t)
    for t, f in three_dimensional_inputs():
        yield f, child_seed(999, 1000 + t)
    yield moebius_odd_winding_map(), 23
    yield projective_plane_map(), 17


def test_hopf_sweep_matches_per_level_triviality():
    seen = set()
    for f, seed in _hopf_cases():
        analysis = analyze(f, Mode.HOPF, seed)
        space, n = analysis.f.complex, analysis.f.n
        ambient = analysis.levels[0].ambient
        hn = integral_cohomology(CochainComplex(space), n)
        assert ambient.group.gens == hn.gens
        assert ambient.group.relations == hn.group.relations
        assert ambient.trivial == (hn.gens == 0 or hn.group.is_trivial())
        for level in analysis.levels:
            # The oracle: the relative H^n(X, A) of this level alone, from
            # its own cochain complex.
            cc = CochainComplex(space, level.level)
            group = integral_cohomology(cc, n).group
            degree = cc.vector(ambient.cocycle, n)
            assert level.rel.gens == group.gens
            assert level.rel.relations == group.relations
            assert level.degree_coords == degree
            assert level.nontrivial == (not group.is_zero_class(degree))
            seen.add(level.nontrivial)
    assert seen == {True, False}


def test_circle_sweep_matches_per_level_image_test():
    # The oracle: the winding class on A against the image of H^1(X) in
    # H^1(A), from the two integral groups and the induced map.
    cases = [(f, child_seed(271828, 1000 + t)) for t, f in planar_inputs()]
    cases += [(moebius_odd_winding_map(), 23), (projective_plane_map(), 17),
              (octagon_winding2_map(), 7), (grid_identity_map(), 7)]
    seen = set()
    for f, seed in cases:
        analysis = analyze(f, Mode.CIRCLE, seed)
        ambient_cc = CochainComplex(analysis.f.complex)
        ambient = integral_cohomology(ambient_cc, 1)
        for level in analysis.levels:
            image = columns(induced_int_matrix(
                ambient, level.coh, restriction_transfer(ambient_cc, level.cc, 1)))
            outside = image_subgroup(image, level.group).member_coords(level.coords) is None
            assert level.nontrivial == outside
            seen.add(outside)
    assert seen == {True, False}


def test_restricted_winding_cocycles_match_per_level():
    cases = [(f, child_seed(271828, 1000 + t)) for t, f in planar_inputs()]
    cases += [(moebius_odd_winding_map(), 23), (projective_plane_map(), 17),
              (octagon_winding2_map(), 7)]
    crossings = 0
    for f, seed in cases:
        analysis = analyze(f, Mode.CIRCLE, seed)
        ray = analysis.meta["ray"]
        for level in analysis.levels:
            assert level.winding == winding_cocycle(level.level, analysis.f, ray)
            crossings += len(level.winding)
    assert crossings


def test_hopf_same_class_builds_no_kernel():
    # Probe independence compares degree classes in H^n(X, A); it must not
    # build ker j* (a kernel and its coordinates) at every level.
    f = moebius_odd_winding_map()
    base = analyze(f, Mode.HOPF, 23)
    other = analyze(f, Mode.HOPF, 24)
    assert all(a.same_class(b) for a, b in zip(base.levels, other.levels))
    for level in base.levels + other.levels:
        assert "kernel" not in vars(level) and "kernel_coords" not in vars(level)


def test_circle_resamples_build_no_integral_cohomology(monkeypatch):
    # Ray independence writes each resample's winding cocycle in the base
    # level's H^1: the base module's one H^1 per level serves all 20
    # resamples, which once built their own.
    f = moebius_odd_winding_map()
    levels = analyze(f, Mode.CIRCLE, 23).filtration.level_count()
    calls = _count(monkeypatch, pipeline, "integral_cohomology")
    report = harness.check_invariances(f, Mode.CIRCLE, 23)
    assert report.passed
    assert len(calls) == levels


def test_ray_independence_fails_on_a_shifted_winding_class(monkeypatch):
    # Each resample's winding cocycle is shifted by itself, a cocycle that
    # is no coboundary on the levels where the class is nonzero.
    original = harness._analyze_filtered

    def shifted(f, filt, mode, seed):
        analysis = original(f, filt, mode, seed)
        for level in analysis.levels:
            level.cocycle = {e: 2 * v for e, v in level.cocycle.items()}
        return analysis

    monkeypatch.setattr(harness, "_analyze_filtered", shifted)
    f = moebius_odd_winding_map()
    assert any(level.nontrivial for level in analyze(f, Mode.CIRCLE, 23).levels)
    results = {r.name: r.passed for r in harness.check_invariances(f, Mode.CIRCLE, 23).results}
    assert results.pop("ray independence") is False
    assert all(results.values())


def test_signs_levels_are_free_on_their_components():
    analysis = analyze(rectangle_map(), Mode.SIGNS, 3)
    level = analysis.levels[0]
    count = len(level.signs.components)
    assert count >= 2
    assert level.group.gens == count and level.group.relations == []
    assert level.coords == [1] * count
    unit = [1] + [0] * (count - 1)
    assert level.group.classes_equal(unit, unit)
    assert not level.group.classes_equal(unit, unit[::-1])
    # The inclusion of a level into itself is the identity; a component
    # whose sign changed along an inclusion is an internal error.
    assert level.transition(level) == [
        [int(i == j) for j in range(count)] for i in range(count)]
    f = analysis.f
    negated = build_filtration(f.with_values({v: (-x,) for v, (x,) in f.values.items()}))
    flipped = SignsLevel(negated, level.index, level.ambient, level.nontrivial)
    assert flipped.signs == SignVector(level.signs.components,
                                       tuple(-s for s in level.signs.signs))
    with pytest.raises(InternalError):
        level.transition(flipped)


def _assert_signs_flags_match_per_level(analysis) -> set:
    # The oracle: the sign vector of each level alone, against the ambient
    # components.
    ambient = component_index(connected_components(analysis.f.complex))
    flags = set()
    for level in analysis.levels:
        witness = sign_witness(sign_vector(analysis.f, level.level), ambient)
        assert level.nontrivial == bool(witness)
        flags.add(level.nontrivial)
    return flags


def test_signs_flags_match_per_level_witness():
    assert _assert_signs_flags_match_per_level(analyze(rectangle_map(), Mode.SIGNS)) == {True, False}


@settings(max_examples=25)
@given(small_maps(n=1))
def test_random_signs_flags_match_per_level_witness(f):
    _assert_signs_flags_match_per_level(analyze(f, Mode.SIGNS))


def test_mixed_sign_edge_in_the_first_level_is_an_internal_error():
    # Both ends of the edge lie in A_0; flipping one end's sign keeps the
    # norms, and so the filtration, but breaks the constant sign.
    f = star_subdivide(PLMap(Complex.build([["a", "b"]]),
                             {"a": (Fraction(1),), "b": (Fraction(2),)}, 1, "l1"))
    filt = build_filtration(f)
    assert filt.entry[("a", "b")] > 0
    flipped = f.with_values({"a": (Fraction(1),), "b": (Fraction(-2),)})
    with pytest.raises(InternalError):
        pipeline._analyze_signs(flipped, filt)


def _count_level_builds(monkeypatch) -> list:
    """Record every level subcomplex built from here on."""
    built = []
    original = Subcomplex.from_closed.__func__

    def counting(cls, *args):
        level = original(cls, *args)
        built.append(level)
        return level

    monkeypatch.setattr(Subcomplex, "from_closed", classmethod(counting))
    return built


@pytest.mark.parametrize("mode,f", [
    ("signs", seeded_grid_map(1, 8, 1, "linf")),
    ("circle", seeded_grid_map(2, 3, 2, "l2")),
    ("hopf", seeded_grid_map(2, 3, 2, "l2")),
], ids=["signs", "circle", "hopf"])
def test_barcode_builds_only_the_levels_it_reads(mode, f, monkeypatch, tmp_path):
    # A one-pass barcode reads the subcomplex of the witness level and, in
    # circle and hopf mode, of level 0 (the ray and the winding cocycle);
    # every other level is decided from the entry indices alone.
    path = tmp_path / "map.json"
    path.write_text(as_document(f))
    built = _count_level_builds(monkeypatch)
    _run("barcode", str(path), "--mode", mode, "--field", "q", "--seed", "5")
    built = [level.simplices for level in built]
    monkeypatch.undo()
    analysis = analyze(f, Mode(mode), 5)
    levels = analysis.filtration.levels
    assert len(levels) > 10 and analysis.robust.radius.sign() > 0
    witness = levels[analysis.samples.index(analysis.robust.radius)].simplices
    allowed = [witness] if mode == "signs" else [levels[0].simplices, witness]
    assert len(built) <= len(allowed)
    assert all(simplices in allowed for simplices in built)


def test_levels_are_a_sequence_built_on_first_read():
    filt = build_filtration(star_subdivide(octagon_winding2_map()))
    levels = filt.levels
    assert len(levels) == filt.level_count() == 3
    assert levels[-1] is levels[2] and levels[0] is levels[0]
    assert [len(level) for level in levels] == [len(level) for level in levels[0:3]]
    assert list(levels)[1:] == levels[1:]
    with pytest.raises(IndexError):
        levels[3]
    for i, level in enumerate(levels):
        assert level.simplices == {s for s, e in filt.entry.items() if e > i}
        assert level.parent is filt.f.complex


def test_robust_radius_reads_the_last_nontrivial_flag():
    # The radius is the sample of the last level whose flag is set; flags
    # that are not a run of Trues from the first level are an internal error.
    analysis = analyze(grid_identity_map(), Mode.HOPF, 31)
    flags = [level.nontrivial for level in analysis.levels]
    last = flags.count(True) - 1
    assert last >= 0 and flags == [True] * (last + 1) + [False] * (len(flags) - last - 1)
    robust = pipeline._robust_from_levels(analysis.filtration, analysis.levels)
    assert robust.radius == analysis.samples[last] == analysis.robust.radius

    def levels(*flags):
        return [types.SimpleNamespace(nontrivial=flag) for flag in flags]

    zero = pipeline._robust_from_levels(analysis.filtration, levels(False, False))
    assert zero.radius == ExactRadius.of(0) and zero.witness == {}
    with pytest.raises(InternalError, match="beyond the largest critical value"):
        pipeline._robust_from_levels(analysis.filtration, levels(True, True))
    for gap in (levels(True, False, True, False), levels(False, True, False)):
        with pytest.raises(InternalError, match="after it vanished"):
            pipeline._robust_from_levels(analysis.filtration, gap)
