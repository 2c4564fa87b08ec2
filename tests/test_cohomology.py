"""Cochain complexes, integral and field cohomology, induced maps."""

import json
import random
import types
from fractions import Fraction

import pytest

import rzero.cohomology as cohomology
from rzero.cohomology import (
    CochainComplex,
    Subgroup,
    connecting_delta,
    filtration_field_dims,
    induced_int_matrix,
    integral_cohomology,
    kernel_subgroup,
    restriction_transfer,
)
from rzero.complexes import Complex, Subcomplex, star_subdivide
from rzero.errors import InternalError
from rzero.io import parse_input
from rzero.linalg import (
    FieldSolver,
    PresentedGroup,
    columns,
    field_rank,
    from_columns,
    mat_mul,
    mat_vec,
    smith_normal_form,
)
from rzero.modes import Mode
from rzero.pipeline import analyze
from rzero.rng import RationalSampler

import snf_oracle
from inputs import full_subcomplex, grid_identity_map, image_subgroup, octagon_winding2_map, superlevel
from test_perfbench_targets import _load


def circle_complex(k=6):
    return Complex.build([[f"c{i}", f"c{(i + 1) % k}"] for i in range(k)])


def _field_dims(space, sub=None, char=0):
    """dim H^q over the field, q = 0 .. dim, of X, of A and of (X, A), read
    by the prefix route off the one-level filtration with A_0 = A (empty
    when no A is given)."""
    entry = {s: int(sub is not None and s in sub) for s in space.simplices}
    return filtration_field_dims(space, entry, 1, char)


def _vertex_filtration(space, vertex_entry):
    """Simplex entries from vertex entries: each simplex enters with its
    least vertex, so every level is face-closed."""
    return {s: min(vertex_entry[v] for v in s) for s in space.simplices}


def _filtration_complexes(space, entry, levels):
    """X, then A_i and (X, A_i) for every level, as `filtration_field_dims`
    lists them."""
    ccs = [CochainComplex(space)]
    for i in range(levels):
        level = Subcomplex(space, [s for s, e in entry.items() if e > i])
        ccs += [CochainComplex(level), CochainComplex(space, level)]
    return ccs


def _dense_dims(cc, char, dim=2):
    """dim H^q, q = 0 .. dim, from dense field ranks of the complex's own
    coboundaries."""
    return [cc.size(q) - field_rank(cc.coboundary(q), char)
            - field_rank(cc.coboundary(q - 1), char) for q in range(dim + 1)]


def test_d_squared_zero():
    for c in (circle_complex(), grid_identity_map().complex):
        cc = CochainComplex(c)
        for q in range(c.dim + 1):
            prod = mat_mul(cc.coboundary(q + 1), cc.coboundary(q))
            assert all(all(x == 0 for x in row) for row in prod)


def test_circle_h1():
    cc = CochainComplex(circle_complex())
    h1 = integral_cohomology(cc, 1)
    assert h1.free_rank == 1
    assert h1.torsion == ()


def test_two_points_h0_f2():
    c = Complex.build([["a"], ["b"]])
    assert _field_dims(c, char=2)[0] == [2]


def test_grid_relative_h2():
    f = grid_identity_map()
    boundary = superlevel(f, 1)
    rel = integral_cohomology(CochainComplex(f.complex, boundary), 2)
    assert rel.free_rank == 1
    assert rel.torsion == ()
    # The absolute H^2 of the contractible grid is trivial.
    absolute = integral_cohomology(CochainComplex(f.complex), 2)
    assert absolute.group.is_trivial()


def test_projective_plane_torsion():
    # Minimal 6-vertex triangulation of the projective plane: top cohomology
    # is pure 2-torsion, and the field dimensions follow the coefficients.
    faces = [
        [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
        [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
    ]
    rp2 = Complex.build([[str(v) for v in face] for face in faces])
    assert len(rp2.simplices_of_dim(1)) == 15  # closed surface sanity check
    cc = CochainComplex(rp2)
    h2 = integral_cohomology(cc, 2)
    assert h2.free_rank == 0
    assert h2.torsion == (2,)
    h1 = integral_cohomology(cc, 1)
    assert h1.free_rank == 0 and h1.torsion == ()
    assert _field_dims(rp2, char=2)[0] == [1, 1, 1]  # torsion appears one degree down too
    assert _field_dims(rp2, char=3)[0] == [1, 0, 0]
    assert _field_dims(rp2, char=0)[0] == [1, 0, 0]


def test_restriction_identity_and_zero():
    f = octagon_winding2_map()
    g = star_subdivide(f)
    circle = full_subcomplex(g.complex, lambda v: True)
    points = full_subcomplex(g.complex, lambda v: v in set(f.complex.vertices))
    cc_circle = CochainComplex(circle)
    cc_points = CochainComplex(points)
    h_circle = integral_cohomology(cc_circle, 1)
    h_points = integral_cohomology(cc_points, 1)
    same = induced_int_matrix(h_circle, h_circle,
                              restriction_transfer(cc_circle, cc_circle, 1))
    for j in range(h_circle.gens):
        col = [same[i][j] for i in range(h_circle.gens)]
        unit = [1 if i == j else 0 for i in range(h_circle.gens)]
        assert h_circle.group.classes_equal(col, unit)
    zero = induced_int_matrix(h_circle, h_points,
                              restriction_transfer(cc_circle, cc_points, 1))
    assert h_points.gens == 0 or all(all(x == 0 for x in row) for row in zero)


def test_relative_restriction_to_empty_is_jstar():
    f = grid_identity_map()
    boundary = superlevel(f, 1)
    empty = full_subcomplex(f.complex, lambda v: False)
    rel = CochainComplex(f.complex, boundary)
    rel_empty = CochainComplex(f.complex, empty)
    absolute = CochainComplex(f.complex)
    h_rel = integral_cohomology(rel, 2)
    h_rel_empty = integral_cohomology(rel_empty, 2)
    h_abs = integral_cohomology(absolute, 2)
    via_empty = induced_int_matrix(h_rel, h_rel_empty,
                                   restriction_transfer(rel, rel_empty, 2))
    jstar = induced_int_matrix(h_rel, h_abs,
                               restriction_transfer(rel, absolute, 2))
    assert via_empty == jstar


def test_connecting_delta_edge_pair():
    from rzero.complexes import Subcomplex

    c = Complex.build([["v0", "v1"]])
    ends = Subcomplex(c, [("v0",), ("v1",)])  # the two endpoints only
    space = CochainComplex(c)
    sub_cc = CochainComplex(ends)
    pair_rel = CochainComplex(c, ends)
    out = connecting_delta(space, sub_cc, pair_rel, {("v1",): 1}, 0)
    assert out == {("v0", "v1"): 1}
    assert connecting_delta(space, sub_cc, pair_rel, {}, 0) == {}
    # The image of a cocycle on the ends meets the edge, which a pair over
    # the whole edge has no relative cochain on.
    with pytest.raises(InternalError):
        connecting_delta(space, sub_cc, CochainComplex(c, c), {("v1",): 1}, 0)
    # 1 on one end is no cocycle on the whole edge.
    with pytest.raises(InternalError):
        connecting_delta(space, space, pair_rel, {("v1",): 1}, 0)


def test_connecting_delta_grid_winding():
    from rzero.modes import winding_cocycle, degree_cocycle

    f = grid_identity_map()
    boundary = superlevel(f, 1)
    space = CochainComplex(f.complex)
    sub = CochainComplex(boundary)
    rel = CochainComplex(f.complex, boundary)
    wind = winding_cocycle(boundary, f, (Fraction(3), Fraction(1)))
    out = connecting_delta(space, sub, rel, wind, 1)
    # Pair against the fundamental 2-chain: all triangles, oriented by the
    # sorted-vertex convention with a consistent geometric sign.
    total = 0
    for simplex, value in out.items():
        vals = [f.values[v] for v in simplex]
        base = vals[0]
        det = ((vals[1][0] - base[0]) * (vals[2][1] - base[1])
               - (vals[2][0] - base[0]) * (vals[1][1] - base[1]))
        orient = 1 if det > 0 else -1
        total += orient * value
    assert abs(total) == 1
    # Cross-check with the degree cocycle of the identity map.
    deg = degree_cocycle(f, (Fraction(1, 7), Fraction(1, 13)))
    h_rel = integral_cohomology(rel, 2)
    assert h_rel.group.classes_equal(
        h_rel.coords(rel.vector(out, 2)),
        h_rel.coords(rel.vector(deg, 2)),
    ) or h_rel.group.classes_equal(
        h_rel.coords(rel.vector(out, 2)),
        [-x for x in h_rel.coords(rel.vector(deg, 2))],
    )


def test_kernel_subgroup_cases():
    f = grid_identity_map()
    boundary = superlevel(f, 1)
    rel = integral_cohomology(CochainComplex(f.complex, boundary), 2)
    h_abs = integral_cohomology(CochainComplex(f.complex), 2)
    jmat = induced_int_matrix(
        rel, h_abs,
        restriction_transfer(CochainComplex(f.complex, boundary),
                             CochainComplex(f.complex), 2),
    )
    kernel = kernel_subgroup(jmat, rel.group, h_abs.group)
    assert kernel.group.free_rank == 1  # whole group: H^2(X) = 0
    assert kernel.group.torsion == ()

    # Zero map: kernel is the whole group.
    whole = kernel_subgroup(None, rel.group, integral_cohomology(
        CochainComplex(Complex.build([["z"]])), 2).group)
    assert whole.group.free_rank == rel.free_rank

    # Identity-like map: trivial kernel.
    circle = circle_complex()
    h1 = integral_cohomology(CochainComplex(circle), 1)
    ident = [[1 if i == j else 0 for j in range(h1.gens)] for i in range(h1.gens)]
    trivial = kernel_subgroup(ident, h1.group, h1.group)
    assert trivial.group.free_rank == 0
    assert trivial.group.torsion == ()


def test_class_coordinates():
    from rzero.modes import winding_cocycle

    # A coboundary has zero coordinates.
    circle = circle_complex()
    cc = CochainComplex(circle)
    h1 = integral_cohomology(cc, 1)
    d0 = cc.coboundary(0)
    cob = [row[0] for row in d0]
    assert h1.group.is_zero_class(h1.coords(cob))

    # The winding-2 cocycle on the octagon has coordinate +-2.
    f = octagon_winding2_map()
    a = full_subcomplex(f.complex, lambda v: True)
    cc_a = CochainComplex(a)
    h1a = integral_cohomology(cc_a, 1)
    wind = winding_cocycle(a, f, (Fraction(-1), Fraction(-1)))
    coords = h1a.coords(cc_a.vector(wind, 1))
    normal = h1a.group.normalized_coords(coords)
    assert normal in ([2], [-2])


def test_functoriality_of_restrictions():
    f = star_subdivide(octagon_winding2_map())
    from rzero.filtration import build_filtration

    filt = build_filtration(f)
    ccs = [CochainComplex(level) for level in filt.levels]
    groups = [integral_cohomology(cc, 1) for cc in ccs]
    m01 = induced_int_matrix(groups[0], groups[1], restriction_transfer(ccs[0], ccs[1], 1))
    m12 = induced_int_matrix(groups[1], groups[2], restriction_transfer(ccs[1], ccs[2], 1))
    m02 = induced_int_matrix(groups[0], groups[2], restriction_transfer(ccs[0], ccs[2], 1))
    assert mat_mul(m12, m01) == m02


def test_image_subgroup_ranks():
    circle = circle_complex()
    h1 = integral_cohomology(CochainComplex(circle), 1)
    doubled = [[2 * (1 if i == j else 0) for j in range(h1.gens)] for i in range(h1.gens)]
    img = image_subgroup([mat_vec(doubled, [1 if i == j else 0 for i in range(h1.gens)])
                          for j in range(h1.gens)], h1.group)
    assert img.group.free_rank == 1


def test_universal_coefficients_grid():
    f = grid_identity_map()
    boundary = superlevel(f, 1)
    ccs = (CochainComplex(f.complex), CochainComplex(boundary),
           CochainComplex(f.complex, boundary))
    for p in (2, 3, 5, 0):
        for cc, dims in zip(ccs, _field_dims(f.complex, boundary, p), strict=True):
            integral = {q: integral_cohomology(cc, q) for q in range(4)}
            for q in range(3):
                predicted = integral[q].free_rank
                if p:
                    predicted += (sum(1 for d in integral[q].torsion if d % p == 0)
                                  + sum(1 for d in integral[q + 1].torsion if d % p == 0))
                assert dims[q] == predicted


MOEBIUS_FACES = [[1, 2, 3], [2, 3, 4], [3, 4, 5], [4, 5, 1], [5, 1, 2]]
RP2_FACES = [
    [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
    [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
]


def _random_two_complex(sampler, vertices=7, faces=8):
    tris = []
    for _ in range(faces):
        tri = set()
        while len(tri) < 3:
            tri.add(sampler.integer(0, vertices - 1))
        tris.append(sorted(tri))
    # An isolated vertex gives d_0 a zero column, which is no relation.
    return Complex.build(tris + [[vertices]])


def _check_coordinates(cc, sampler):
    """coords inverts represent and rejects non-cocycles in every non-top
    degree; the relations are the nonzero columns of d_{q-1}, solved over Q
    in the kernel basis below the top degree.  The kernel basis is v[:, r:]
    of the dense oracle's Smith form of d_q, and the coordinates of a
    cocycle z, and of each column of d_{q-1} (the relations), are
    (v^-1 z)[r:]."""
    checked = 0
    for q in range(cc.space.dim + 1):
        if cc.size(q) == 0:
            continue
        h = integral_cohomology(cc, q)
        image = [col for col in columns(cc.coboundary(q - 1)) if any(col)] if q else []
        if cc.size(q + 1) == 0:
            assert h.kernel is None and h.group.relations == image
            continue
        checked += 1
        d_q = cc.coboundary(q)
        oracle = snf_oracle.smith_normal_form(d_q)
        r = oracle.rank
        assert h.kernel == columns(oracle.v)[r:]

        def smith_inverse_coords(z):
            y = mat_vec(oracle.vinv, z)
            assert not any(y[:r])
            return y[r:]

        c = []
        for _ in range(4):
            c = [sampler.integer(-3, 3) for _ in range(h.gens)]
            assert h.coords(h.represent(c)) == c
            # A cocycle not built from the kernel basis: add a coboundary.
            z = h.represent(c)
            if q:
                x = [sampler.integer(-2, 2) for _ in range(cc.size(q - 1))]
                z = [a + b for a, b in zip(z, mat_vec(cc.coboundary(q - 1), x))]
            assert h.coords(z) == smith_inverse_coords(z)
        if h.gens:
            assert h.group.relations == [smith_inverse_coords(col) for col in image]
        j = next((j for j in range(cc.size(q)) if any(row[j] for row in d_q)), None)
        if j is not None:
            off = [x + (1 if i == j else 0) for i, x in enumerate(h.represent(c))]
            with pytest.raises(InternalError):
                h.coords(off)
        expected = []
        if image and h.gens:
            solver = FieldSolver(from_columns(h.kernel, cc.size(q)), 0)
            for col in image:
                sol = solver.solve(col)
                assert sol is not None and all(x.denominator == 1 for x in sol)
                expected.append([int(x) for x in sol])
        assert h.group.relations == expected
    return checked


def test_field_dim_matches_dense_ranks_and_uct():
    # Two routes besides the prefix reductions: dense field ranks of each
    # complex's own coboundary matrices, and the universal-coefficient
    # prediction from the integral Smith route.  Each filtration has two
    # levels from random vertex entries in 0..2.
    sampler = RationalSampler(53)
    spaces = [Complex.build(MOEBIUS_FACES), Complex.build(RP2_FACES)]
    spaces += [_random_two_complex(sampler) for _ in range(8)]
    torsion = 0
    for c in spaces:
        for _ in range(2):
            entry = _vertex_filtration(c, {v: sampler.integer(0, 2) for v in c.vertices})
            ccs = _filtration_complexes(c, entry, 2)
            by_field = {p: filtration_field_dims(c, entry, 2, p) for p in (2, 3, 5, 0)}
            for k, cc in enumerate(ccs):
                integral = {q: integral_cohomology(cc, q) for q in range(4)}
                for q in range(3):
                    torsion += len(integral[q].torsion)
                for p, dims in by_field.items():
                    predicted = [integral[q].free_rank for q in range(3)]
                    if p:
                        predicted = [predicted[q]
                                     + sum(1 for d in integral[q].torsion if d % p == 0)
                                     + sum(1 for d in integral[q + 1].torsion if d % p == 0)
                                     for q in range(3)]
                    assert dims[k] == _dense_dims(cc, p) == predicted
    assert torsion  # RP^2's H^2 = Z/2 at least


def _count_echelons(monkeypatch) -> list:
    """The field of every `FieldEchelon` the prefix route makes, in order."""
    made = []

    class Counting(cohomology.FieldEchelon):
        def __init__(self, char):
            made.append(char)
            super().__init__(char)

    monkeypatch.setattr(cohomology, "FieldEchelon", Counting)
    return made


def test_field_dim_reduces_each_coboundary_once(monkeypatch):
    # One echelon per order (the levels' boundaries by decreasing entry,
    # the pairs' coboundaries by increasing entry) and per nonzero d_q
    # (q = 0, 1) serves X and every level and pair: on a Moebius filtration
    # with three levels, four echelons per field.
    made = _count_echelons(monkeypatch)
    space = Complex.build(MOEBIUS_FACES)
    entry = _vertex_filtration(space, {"1": 3, "2": 1, "3": 2, "4": 0, "5": 3})
    chars = (2, 3, 5, 0)
    dims = {p: filtration_field_dims(space, entry, 3, p) for p in chars}
    assert sorted(made) == sorted(4 * chars)
    ccs = _filtration_complexes(space, entry, 3)
    for p in chars:
        assert dims[p] == [_dense_dims(cc, p) for cc in ccs]
        assert dims[p][0] == [1, 1, 0]


def test_field_dims_take_one_reduction_per_order_degree_and_field(monkeypatch):
    # On the 4 x 4 generic grid (86 levels) a reduction of each d_q of X,
    # of every level and of every pair once per field took
    # (2 * 86 + 1) * 4 * 4 = 2768 echelons.
    doc = _load(monkeypatch, "inputs").grid(random.Random(5), 4, 2, "l2", True)
    analysis = analyze(parse_input(json.dumps(doc)), Mode.HOPF, 5)
    filt, dim = analysis.filtration, analysis.f.complex.dim
    assert filt.level_count() == 86 and dim == 2
    made = _count_echelons(monkeypatch)
    for p in (2, 3, 5, 0):
        dims = filtration_field_dims(analysis.f.complex, filt.entry, filt.level_count(), p)
        assert len(dims) == 2 * 86 + 1
    assert len(made) <= 2 * (dim + 2) * 4


def test_integral_coordinates_from_smith_inverse():
    sampler = RationalSampler(31)
    moebius = Complex.build(MOEBIUS_FACES)
    rp2 = Complex.build(RP2_FACES)
    ccs = [CochainComplex(moebius), CochainComplex(rp2),
           CochainComplex(rp2, full_subcomplex(rp2, lambda v: v in {"0", "1", "2"}))]
    for _ in range(12):
        c = _random_two_complex(sampler)
        ccs.append(CochainComplex(c))
        kept = {v for v in c.vertices if sampler.integer(0, 2) == 0}
        ccs.append(CochainComplex(c, full_subcomplex(c, lambda v: v in kept)))
    assert sum(_check_coordinates(cc, sampler) for cc in ccs) >= 2 * len(ccs)


def test_cohomology_module_not_shadowed():
    import rzero
    import rzero.cohomology as cohomology_module

    assert isinstance(rzero.cohomology, types.ModuleType)
    assert cohomology_module is rzero.cohomology
    assert callable(cohomology_module.integral_cohomology)


def test_member_coords_match_full_solve():
    # On an arbitrary span, subgroup coordinates are the span's entries of
    # one solution over the span and the relations: None exactly when the
    # dense oracle finds no solution, and otherwise a combination of the
    # span in the class.  An image subgroup's span is a lattice basis that
    # holds the relations, so there the solution over the span alone is
    # unique, and it must be returned exactly.
    sampler = RationalSampler(77)
    members = outsiders = 0
    for _ in range(60):
        gens = sampler.integer(1, 4)
        relations = [[sampler.integer(-3, 3) * sampler.integer(0, 1) for _ in range(gens)]
                     for _ in range(sampler.integer(0, 3))]
        group = PresentedGroup(gens, relations)
        span = [[sampler.integer(-2, 2) * sampler.integer(1, 3) for _ in range(gens)]
                for _ in range(sampler.integer(1, 3))]
        sub = Subgroup(group, span, PresentedGroup(len(span), []))
        stacked = from_columns(span + relations, gens)
        image = image_subgroup(span, group)
        basis = from_columns(image.span, gens)
        assert snf_oracle.smith_normal_form(basis).rank == len(image.span)
        for _ in range(6):
            b = [sampler.integer(-4, 4) for _ in range(gens)]
            coords = sub.member_coords(b)
            assert (coords is None) == (snf_oracle.solve(stacked, b) is None)
            unique = image.member_coords(b)
            assert unique == snf_oracle.solve(basis, b)
            assert (coords is None) == (unique is None)
            if coords is None:
                outsiders += 1
                continue
            members += 1
            combination = [sum(c * v[i] for c, v in zip(coords, span)) for i in range(gens)]
            assert group.classes_equal(combination, b)
    assert members > 20 and outsiders > 20
