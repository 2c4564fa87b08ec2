"""Perturbations, stability checks, invariance checks, determinism."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import rzero.harness as harness
import rzero.pipeline as pipeline
from rzero.cohomology import filtration_field_dims
from rzero.complexes import Complex, PLMap
from rzero.errors import InputError
from rzero.exact import ExactRadius
from rzero.harness import (
    PerturbSpec,
    check_invariances,
    check_stability,
    exactness_checks,
    perturb,
)
from rzero.modes import Mode, applicable
from rzero.normmin import NORMS, scaled_vector, vector_norm
from rzero.barcode import Interval, PointedBarcode, barcode
from rzero.pipeline import analyze, assemble_pointed_module
from rzero.rng import RationalSampler

from inputs import edge_map, grid_identity_map, octagon_winding2_map, rectangle_map, seeded_grid_map
from test_cohomology import _dense_dims
from test_field_barcode import small_maps
from test_pipeline_fuzz import (
    moebius_odd_winding_map,
    planar_inputs,
    projective_plane_map,
    signs_inputs,
    three_dimensional_inputs,
)


def test_perturb_zero_delta():
    f = edge_map()
    g = perturb(f, PerturbSpec(Fraction(0), 1))
    assert g.values == f.values


def test_perturb_bound_exact():
    f = grid_identity_map()
    delta = Fraction(3, 7)
    g = perturb(f, PerturbSpec(delta, 123))
    bound = ExactRadius.of(delta)
    changed = 0
    for v in f.complex.vertices:
        gap = tuple(a - b for a, b in zip(g.values[v], f.values[v]))
        assert vector_norm(gap, f.norm).cmp(bound) <= 0
        if any(x != 0 for x in gap):
            changed += 1
    assert changed > 0


# The largest integer k that `perturb` may draw for every coordinate, at
# D = 2^16: k <= D for linf, l1 and one-dimensional l2; for l2 with n = 2
# the offsets are k/D * delta/2 in both coordinates, and their norm is at
# most delta while 2k^2 <= 4D^2, that is up to k = floor(sqrt(2) D) = 92681.
@pytest.mark.parametrize("norm, n, largest", [
    ("linf", 2, 1 << 16), ("l1", 2, 1 << 16), ("l2", 1, 1 << 16), ("l2", 2, 92681),
])
def test_perturb_checks_its_bound_on_the_integer_offsets(monkeypatch, norm, n, largest):
    """Offsets that reach the bound pass; one more unit raises, exactly
    where the exact norm of the offsets first exceeds delta."""
    f = seeded_grid_map(3, 1, n, norm)
    spec = PerturbSpec(Fraction(3, 7), 5)
    scale = spec.delta if norm == "linf" else spec.delta / n
    bound = ExactRadius.of(spec.delta)
    for k in (largest, largest + 1):
        class Drawn(RationalSampler):
            def integer(self, low, high):
                return k

        monkeypatch.setattr(harness, "RationalSampler", Drawn)
        offsets = (Fraction(k, spec.denominator) * scale,) * n
        if vector_norm(offsets, norm).cmp(bound) > 0:
            assert k == largest + 1
            with pytest.raises(InputError, match="perturbation exceeded its bound"):
                perturb(f, spec)
        else:
            assert k == largest
            g = perturb(f, spec)
            for v in f.complex.vertices:
                assert tuple(a - b for a, b in zip(g.values[v], f.values[v])) == offsets


@st.composite
def _maps_to_perturb(draw):
    """A map on one simplex of one to four vertices to R^n, n = 1..3, in
    any norm, with denominators up to 97."""
    n = draw(st.integers(1, 3))
    names = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    value = st.builds(Fraction, st.integers(-200, 200), st.integers(1, 97))
    values = {v: tuple(draw(value) for _ in range(n)) for v in names}
    return PLMap(Complex.build([names]), values, n, draw(st.sampled_from(NORMS)))


@settings(max_examples=60)
@given(_maps_to_perturb(), st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(1, 2)]),
       st.integers(0, 1 << 32))
def test_perturb_moves_each_value_by_its_drawn_offset(f, delta, seed):
    # g = f + k * step with k drawn from the same sampler stream, computed
    # here with Fractions; g's integer records are those of its values, and
    # offsets past the bound still raise.
    spec = PerturbSpec(delta, seed)
    g = perturb(f, spec)
    sampler = RationalSampler(seed, spec.denominator)
    step = (delta if f.norm == "linf" else delta / f.n) / spec.denominator
    for v in f.complex.vertices:
        ks = [sampler.integer(-spec.denominator, spec.denominator) for _ in range(f.n)]
        want = tuple(x + k * step for x, k in zip(f.values[v], ks))
        assert g.values[v] == want
        assert g.scaled_values[v] == scaled_vector(want)
        assert vector_norm([b - a for a, b in zip(f.values[v], want)], f.norm).cmp(
            ExactRadius.of(delta)) <= 0
    if delta:
        class TooFar(RationalSampler):
            def integer(self, low, high):
                return f.n * spec.denominator + 1

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "RationalSampler", TooFar)
            with pytest.raises(InputError, match="perturbation exceeded its bound"):
                perturb(f, spec)


def test_edge_seed_42_robust_radius_within_bound():
    f = edge_map()
    g = perturb(f, PerturbSpec(Fraction(1, 10), 42))
    an = analyze(g, Mode.SIGNS, 42)
    rho = an.robust.radius
    assert rho.cmp(Fraction(9, 10)) >= 0
    assert rho.cmp(Fraction(11, 10)) <= 0


def test_stability_smoke_all_examples():
    cases = [
        (edge_map(), Mode.SIGNS),
        (rectangle_map(), Mode.SIGNS),
        (grid_identity_map(), Mode.HOPF),
        (octagon_winding2_map(), Mode.CIRCLE),
    ]
    for f, mode in cases:
        report = check_stability(f, mode, Fraction(1, 10), 3, 2024)
        assert report.passed, report.to_dict()


@pytest.mark.parametrize("delta", [Fraction(1, 10), Fraction(1, 2)])
def test_stability_on_random_planar_maps(delta):
    # Both inequalities under random perturbations of random complexes:
    # the twelve planar maps, in circle mode and, where it applies, hopf.
    runs = 0
    for t, f in planar_inputs():
        for mode in (Mode.CIRCLE, Mode.HOPF):
            if applicable(mode, f.n, f.complex.dim):
                report = check_stability(f, mode, delta, 2, 4000 + t)
                assert report.passed, (t, mode, report.to_dict())
                runs += 1
    assert runs == 24


def test_stability_rejects_a_negative_trial_count(monkeypatch):
    # range(-3) runs no trial, so a negative count would pass unchecked;
    # it is refused before the base analysis runs.
    monkeypatch.setattr(harness, "_pipeline_barcode", None)
    with pytest.raises(InputError, match="trials must be nonnegative"):
        check_stability(edge_map(), Mode.SIGNS, Fraction(1, 10), -3, 2024)


@pytest.mark.parametrize("trials", [0, 3])
def test_stability_rejects_a_negative_delta(monkeypatch, trials):
    # With no trial, no perturbation would check the bound; it is refused
    # before the base analysis runs, whatever the trial count.
    monkeypatch.setattr(harness, "_pipeline_barcode", None)
    with pytest.raises(InputError, match="perturbation bound must be nonnegative"):
        check_stability(edge_map(), Mode.SIGNS, Fraction(-1, 10), trials, 2024)


def test_invariances_all_examples():
    cases = [
        (edge_map(), Mode.SIGNS),
        (rectangle_map(), Mode.SIGNS),
        (grid_identity_map(), Mode.HOPF),
        (octagon_winding2_map(), Mode.CIRCLE),
    ]
    for f, mode in cases:
        report = check_invariances(f, mode, 31)
        assert report.passed, report.to_dict()


def test_random_maps_pass_the_invariance_and_exactness_checks():
    # `rzero check`'s two reports on the random maps of the pipeline fuzz:
    # the twelve planar maps in circle mode and, where it applies, hopf,
    # and the 25 maps to R in signs mode.  The 3-D hopf maps are left
    # out: two of them take over 4 s each.
    runs = 0
    cases = [(t, f, mode) for t, f in planar_inputs() for mode in (Mode.CIRCLE, Mode.HOPF)]
    cases += [(t, f, Mode.SIGNS) for t, f in signs_inputs()]
    for t, f, mode in cases:
        if applicable(mode, f.n, f.complex.dim):
            for report in (check_invariances(f, mode, 5000 + t), exactness_checks(f, mode, 5000 + t)):
                assert report.passed, (t, mode, report.to_dict())
            runs += 1
    assert runs == 49


def test_exactness_all_examples():
    # RP^2 is the one fixture with torsion, H^2 = Z/2, so the only one whose
    # universal-coefficient torsion terms are not zero.
    cases = [
        (edge_map(), Mode.SIGNS),
        (grid_identity_map(), Mode.HOPF),
        (octagon_winding2_map(), Mode.CIRCLE),
        (projective_plane_map(), Mode.HOPF),
    ]
    for f, mode in cases:
        report = exactness_checks(f, mode, 31)
        assert report.passed, report.to_dict()


def _failed(report) -> list[str]:
    return [r.name for r in report.results if not r.passed]


def test_uct_check_fails_on_a_wrong_field_dim(monkeypatch):
    # One dimension off by one, over F_3 only: H^2 of the last pair.
    real = harness.filtration_field_dims

    def one_wrong(space, entry, levels, char):
        dims = real(space, entry, levels, char)
        if char == 3:
            dims[-1][2] += 1
        return dims

    monkeypatch.setattr(harness, "filtration_field_dims", one_wrong)
    assert _failed(exactness_checks(grid_identity_map(), Mode.HOPF, 31)) == [
        "universal coefficients"]


def test_d_squared_check_fails_on_one_flipped_entry():
    analysis = analyze(grid_identity_map(), Mode.HOPF, 31)
    ccs = harness._all_cochain_complexes(analysis)
    dim = analysis.f.complex.dim
    assert harness._check_d_squared(ccs, dim).passed
    d0, d1 = ccs[0].columns(0), ccs[0].columns(1)
    c, r = next((c, r) for c, col in d0.items() for r in col if r in d1)
    col = d0[c]
    # A whole column negated is still a coboundary: d^2 stays zero.
    d0[c] = {k: -v for k, v in col.items()}
    assert harness._check_d_squared(ccs, dim).passed
    d0[c] = {**col, r: -col[r]}
    result = harness._check_d_squared(ccs, dim)
    assert result.name == "d^2 = 0" and not result.passed


def test_exactness_checks_share_integral_cohomology(monkeypatch):
    # The delta and universal-coefficient checks both read H^{n-1} of every
    # level and H^n of X and of every pair: each is computed once.  The
    # field dimensions of all complexes come from one call per field.
    computed = []
    real = harness.integral_cohomology

    def counting(cc, q):
        computed.append((id(cc), q))
        return real(cc, q)

    fields = []
    real_dims = harness.filtration_field_dims

    def counting_dims(space, entry, levels, char):
        fields.append(char)
        return real_dims(space, entry, levels, char)

    monkeypatch.setattr(harness, "integral_cohomology", counting)
    monkeypatch.setattr(harness, "filtration_field_dims", counting_dims)
    f = grid_identity_map()
    report = exactness_checks(f, Mode.HOPF, 31)
    assert report.passed
    analysis = analyze(f, Mode.HOPF, 31)
    complexes = 1 + 2 * len(analysis.filtration.levels)
    assert len(computed) == len(set(computed)) == complexes * (analysis.f.complex.dim + 2)
    assert sorted(fields) == [0, 2, 3, 5]


def test_delta_check_fails_on_a_zero_kernel(monkeypatch):
    monkeypatch.setattr(harness, "_kernel_rank", lambda *args: 0)
    assert _failed(exactness_checks(grid_identity_map(), Mode.HOPF, 31)) == [
        "im(delta) = ker(j*) (rational ranks)"]


def test_delta_check_fails_when_jstar_misses_the_kernel(monkeypatch):
    # H^2(RP^2) = Z/2 has rational rank 0, so adding the class of one
    # triangle to the first column of j* leaves both ranks as they were;
    # the integral membership test alone sees a delta class with an odd
    # first coordinate leave ker j*.
    real = harness.induced_columns

    def shifted(src, dst, transfer):
        cols = real(src, dst, transfer)
        if cols:
            cols[0] = [x + (i == 0) for i, x in enumerate(cols[0])]
        return cols

    monkeypatch.setattr(harness, "induced_columns", shifted)
    assert _failed(exactness_checks(projective_plane_map(), Mode.HOPF, 31)) == [
        "im(delta) = ker(j*) (rational ranks)"]


@settings(max_examples=15)
@given(st.sampled_from([1, 2]).flatmap(lambda n: small_maps(n=n)), st.integers(0, 1 << 20))
def test_random_complexes_pass_the_exactness_checks(f, seed):
    # Every applicable mode passes, and the prefix dimensions equal the
    # dense field ranks of each complex's own coboundaries.
    modes = [m for m in Mode if applicable(m, f.n, f.complex.dim)]
    for mode in modes:
        report = exactness_checks(f, mode, seed)
        assert report.passed, report.to_dict()
    analysis = analyze(f, modes[0], seed)
    filt, dim = analysis.filtration, analysis.f.complex.dim
    ccs = harness._all_cochain_complexes(analysis)
    for p in (2, 3, 5, 0):
        dims = filtration_field_dims(analysis.f.complex, filt.entry, filt.level_count(), p)
        assert dims == [_dense_dims(cc, p, dim) for cc in ccs]


def test_reports_are_deterministic():
    f = edge_map()
    a = check_stability(f, Mode.SIGNS, Fraction(1, 2), 5, 77).to_dict()
    b = check_stability(f, Mode.SIGNS, Fraction(1, 2), 5, 77).to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = check_stability(f, Mode.SIGNS, Fraction(1, 2), 5, 78).to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(a, sort_keys=True)
    assert c["seed"] != a["seed"]


def test_scaling_example():
    # Tripling the edge map scales criticals and the robust radius by 3.
    f = edge_map()
    tripled = f.with_values({v: tuple(3 * x for x in val) for v, val in f.values.items()})
    an = analyze(tripled, Mode.SIGNS, 9)
    assert [c.as_fraction() for c in an.criticals] == [3]
    assert an.robust.radius == ExactRadius.of(3)


def _trivial_ambient_hopf_maps():
    # Hopf inputs whose ambient H^n is zero, so every ker j* is the whole
    # relative group, with at least three levels: the functoriality check
    # then compares direct and composed transitions.
    planar = dict(planar_inputs())
    spatial = dict(three_dimensional_inputs())
    return {
        "moebius": moebius_odd_winding_map(),
        "planar-0": planar[0],
        "planar-4": planar[4],
        "3d-1": spatial[1],
    }


@pytest.mark.parametrize("name", ["moebius", "planar-0", "planar-4", "3d-1"])
def test_hopf_invariances_with_trivial_ambient(name):
    f = _trivial_ambient_hopf_maps()[name]
    analysis = analyze(f, Mode.HOPF, 5)
    assert analysis.levels[0].ambient.trivial
    assert len(analysis.levels) >= 3
    report = check_invariances(f, Mode.HOPF, 5)
    assert report.passed, report.to_dict()
    names = [r.name for r in report.results]
    assert "functoriality of transitions" in names and "probe independence" in names


def test_invariances_assemble_no_module_per_level(monkeypatch):
    # Only the functoriality check reads a module, the base map's; the
    # scaled, rotated and negated maps' barcodes come from `field_barcode`,
    # which reads these maps' bars in one pass and assembles no module.
    harness_calls, pipeline_calls = [], []

    def counting(calls, original):
        def counted(analysis, coefficients):
            calls.append(coefficients)
            return original(analysis, coefficients)
        return counted

    monkeypatch.setattr(harness, "assemble_pointed_module",
                        counting(harness_calls, harness.assemble_pointed_module))
    monkeypatch.setattr(pipeline, "assemble_pointed_module",
                        counting(pipeline_calls, pipeline.assemble_pointed_module))
    planar = _trivial_ambient_hopf_maps()["planar-4"]
    assert len(analyze(planar, Mode.HOPF, 5).levels) > 5
    cases = [(edge_map(), Mode.SIGNS), (octagon_winding2_map(), Mode.CIRCLE),
             (planar, Mode.HOPF)]
    for f, mode in cases:
        del harness_calls[:], pipeline_calls[:]
        assert check_invariances(f, mode, 5).passed
        assert harness_calls == [harness.DEFAULT_FIELD[mode]]
        assert pipeline_calls == []


def test_resamples_share_the_base_subdivision(monkeypatch):
    # The probe/ray resamples differ from the base analysis only in the
    # seed, which neither the subdivision nor the filtration reads, so they
    # reuse the base's filtration: only the base, the three scaled maps and
    # the rotated map are subdivided, not 20 more, and the resampled levels
    # are those of a fresh analysis with the same seed.
    maps = []
    original = pipeline.star_subdivide

    def counting(f):
        maps.append(f)
        return original(f)

    monkeypatch.setattr(pipeline, "star_subdivide", counting)
    f = octagon_winding2_map()
    report = check_invariances(f, Mode.CIRCLE, 5)
    assert report.passed
    assert "ray independence" in [r.name for r in report.results]
    assert len(maps) == 1 + len(harness.SCALES) + 1
    base = analyze(f, Mode.CIRCLE, 5)
    seed = harness.child_seed(5, 1000)
    shared = pipeline._analyze_filtered(f, base.filtration, Mode.CIRCLE, seed)
    fresh = analyze(f, Mode.CIRCLE, seed)
    assert [a.coords for a in shared.levels] == [a.coords for a in fresh.levels]
    assert shared.robust == fresh.robust


def test_scaling_check_compares_scaled_bars(monkeypatch):
    # Shift one bar of every scaled map's barcode: criticals, radius and
    # bar count still agree, so only the bar comparison can catch it.
    f = grid_identity_map()
    base = analyze(f, Mode.HOPF, 5)
    original = harness.field_barcode

    def shifted(analysis, field):
        bc = original(analysis, field)
        if analysis.criticals == base.criticals:
            return bc
        (iv, mult), *rest = bc.bars
        moved = Interval(iv.birth, iv.death.scale(Fraction(3, 2)))
        return PointedBarcode(((moved, mult), *rest),
                              moved if bc.distinguished == iv else bc.distinguished)

    monkeypatch.setattr(harness, "field_barcode", shifted)
    report = check_invariances(f, Mode.HOPF, 5)
    scaling = next(r for r in report.results if r.name == "scaling equivariance")
    assert not scaling.passed
    assert scaling.details["what"] == "barcode"
    rotation = next(r for r in report.results if r.name == "rotation invariance")
    assert rotation.passed


def test_rotation_compares_dims_as_functions_of_r():
    # Rotating the RP^2 map moves a critical value (9/14 becomes 9/20), so
    # the two sample lists differ, though both maps have the same barcode
    # and with it the same dims at every radius.
    f = projective_plane_map()
    seed = 20177
    base = analyze(f, Mode.HOPF, seed)
    rotated = analyze(harness._rotate_map(f), Mode.HOPF, seed)
    assert base.samples != rotated.samples
    module = assemble_pointed_module(base, "q")
    result = harness._check_rotation(f, Mode.HOPF, seed, "q", base, barcode(module))
    assert result.passed
