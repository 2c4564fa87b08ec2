"""`LevelEchelon` against the routes it replaced (`hopf_oracle`): the
integral flags of hopf and circle mode, whether the ambient H^n is trivial,
and the hopf bars and support over Q and F_p, from one integer echelon
filled level by level."""

from fractions import Fraction

import pytest

import rzero.cli as cli
import rzero.persistence as persistence
import rzero.pipeline as pipeline
from rzero.cohomology import _sparse_coboundary, coboundary_of
from rzero.harness import PerturbSpec, perturb
from rzero.modes import Mode, applicable
from rzero.pipeline import analyze, field_barcode
from rzero.rng import child_seed

import hopf_oracle
from inputs import as_document, grid_identity_map
from test_field_barcode import rp2_zero_pivot_map
from test_pipeline_fuzz import moebius_odd_winding_map, planar_inputs, projective_plane_map


def _planar_hopf():
    for t, f in planar_inputs():
        if applicable(Mode.HOPF, 2, f.complex.dim):
            yield f, child_seed(271828, 2000 + t)


def _perturbed_grids():
    for t in range(6):
        spec = PerturbSpec(Fraction(1, 10 * (t + 1)), child_seed(1507, t))
        yield perturb(grid_identity_map(), spec), child_seed(1507, 100 + t)


def _fixtures():
    yield moebius_odd_winding_map(), 23
    yield projective_plane_map(), 17


def _flags_oracle(analysis):
    """(flags, inserted) of the replaced route for a hopf or circle analysis."""
    if analysis.mode == Mode.HOPF:
        ambient = analysis.levels[0].ambient
        columns, target = ambient.columns, ambient.degree
    else:
        _, columns = _sparse_coboundary(analysis.f.complex, 1)
        target = coboundary_of(columns, analysis.levels[0].cocycle)
    return hopf_oracle.obstructed(columns, target, analysis.filtration)


def _barcode(filt, bars, support):
    return pipeline.pointed_barcode(filt.samples, filt.criticals.values, bars, support)


def test_echelon_bars_match_the_replaced_route():
    # Trivial and nontrivial ambients alike: the Moebius strip retracts onto
    # a circle, so H^2(X) = 0 there, and RP^2 has H^2(X) = Z/2.
    cases = list(_planar_hopf()) + list(_perturbed_grids()) + list(_fixtures())
    cases.append((rp2_zero_pivot_map(), 7))
    trivial = 0
    for f, seed in cases:
        analysis = analyze(f, Mode.HOPF, seed)
        filt, ambient = analysis.filtration, analysis.levels[0].ambient
        flags, _ = _flags_oracle(analysis)
        assert [level.nontrivial for level in analysis.levels] == flags
        assert ambient.trivial == hopf_oracle.ambient_trivial(ambient.top, ambient.columns)
        trivial += ambient.trivial
        for char, field in ((0, "q"), (2, "f2"), (3, "f3")):
            bars, support = hopf_oracle.bars(filt, ambient, char)
            assert ambient.echelon.bars(char) == (bars, support), (seed, char)
            assert field_barcode(analysis, field) == _barcode(filt, bars, support)
    assert 7 <= trivial <= len(cases) - 2


def test_each_column_enters_one_lattice_once(monkeypatch):
    # RP^2 over every field: the flags, `trivial` and the bars all read the
    # analysis's one echelon, so no column is put into a lattice twice.
    inserted = []
    original = persistence._lattice_insert

    def counting(lattice, vec):
        inserted.append(1)
        return original(lattice, vec)

    monkeypatch.setattr(persistence, "_lattice_insert", counting)
    analysis = analyze(projective_plane_map(), Mode.HOPF, 17)
    ambient = analysis.levels[0].ambient
    for field in ("q", "f2", "f3"):
        field_barcode(analysis, field)
    assert not ambient.trivial
    assert 0 < len(inserted) <= len(ambient.columns)


def test_circle_flags_match_the_replaced_route():
    cases = [(f, child_seed(271828, 1000 + t)) for t, f in planar_inputs()]
    cases += [(moebius_odd_winding_map(), 23), (projective_plane_map(), 17)]
    seen = set()
    for f, seed in cases:
        analysis = analyze(f, Mode.CIRCLE, seed)
        flags, _ = _flags_oracle(analysis)
        assert [level.nontrivial for level in analysis.levels] == flags
        seen.update(flags)
    assert seen == {True, False}


@pytest.mark.parametrize("mode", ["hopf", "circle"])
def test_robust_radius_inserts_no_more_columns(mode, tmp_path, monkeypatch):
    # The flags stop the filling where they are decided: `robust-radius`
    # puts in no more columns than the per-level route did, and reads
    # neither `trivial` nor any bar.
    inserted = []
    original = persistence._lattice_insert

    def counting(lattice, vec):
        inserted.append(1)
        return original(lattice, vec)

    cases = [(grid_identity_map(), 7)] + list(_perturbed_grids())[:2] + list(_fixtures())
    for f, seed in cases:
        _, expected = _flags_oracle(analyze(f, Mode(mode), seed))
        path = tmp_path / "map.json"
        path.write_text(as_document(f))
        inserted.clear()
        monkeypatch.setattr(persistence, "_lattice_insert", counting)
        assert cli.main(["robust-radius", str(path), "--mode", mode, "--seed", str(seed)]) == 0
        monkeypatch.setattr(persistence, "_lattice_insert", original)
        assert len(inserted) <= expected
