"""Cochain complexes, integral and field cohomology, induced maps."""

import types
from fractions import Fraction

import pytest

from rzero.cohomology import (
    CochainComplex,
    connecting_delta,
    field_cohomology,
    image_subgroup,
    induced_int_matrix,
    integral_cohomology,
    kernel_subgroup,
    restriction_map,
    restriction_transfer,
)
from rzero.complexes import Complex, full_subcomplex, star_subdivide
from rzero.errors import InternalError
from rzero.exact import ExactRadius
from rzero.linalg import FieldSolver, columns, from_columns, mat_mul, mat_vec
from rzero.rng import RationalSampler

from inputs import grid_identity_map, octagon_winding2_map


def circle_complex(k=6):
    return Complex.build([[f"c{i}", f"c{(i + 1) % k}"] for i in range(k)])


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
    h0 = field_cohomology(CochainComplex(c), 0, 2)
    assert h0.dim == 2


def test_grid_relative_h2():
    f = grid_identity_map()
    boundary = full_subcomplex(f.complex, lambda v: f.norm_at(v).cmp(ExactRadius.of(1)) >= 0)
    rel = integral_cohomology(CochainComplex(f.complex, boundary), 2)
    assert rel.free_rank == 1
    assert rel.torsion == ()
    # The absolute H^2 of the contractible grid is trivial.
    absolute = integral_cohomology(CochainComplex(f.complex), 2)
    assert absolute.is_trivial()


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
    assert field_cohomology(cc, 2, 2).dim == 1
    assert field_cohomology(cc, 2, 3).dim == 0
    assert field_cohomology(cc, 2, 0).dim == 0
    assert field_cohomology(cc, 1, 2).dim == 1  # torsion appears one degree down


def test_restriction_identity_and_zero():
    f = octagon_winding2_map()
    g = star_subdivide(f)
    circle = full_subcomplex(g.complex, lambda v: True)
    points = full_subcomplex(g.complex, lambda v: v in set(f.complex.vertices))
    cc_circle = CochainComplex(circle)
    cc_points = CochainComplex(points)
    h_circle = integral_cohomology(cc_circle, 1)
    h_points = integral_cohomology(cc_points, 1)
    same = restriction_map(h_circle, h_circle)
    for j in range(h_circle.gens):
        col = [same[i][j] for i in range(h_circle.gens)]
        unit = [1 if i == j else 0 for i in range(h_circle.gens)]
        assert h_circle.group.classes_equal(col, unit)
    zero = restriction_map(h_circle, h_points)
    assert h_points.gens == 0 or all(all(x == 0 for x in row) for row in zero)


def test_relative_restriction_to_empty_is_jstar():
    f = grid_identity_map()
    boundary = full_subcomplex(f.complex, lambda v: f.norm_at(v).cmp(ExactRadius.of(1)) >= 0)
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


def test_connecting_delta_grid_winding():
    from rzero.modes import winding_cocycle, degree_cocycle

    f = grid_identity_map()
    boundary = full_subcomplex(f.complex, lambda v: f.norm_at(v).cmp(ExactRadius.of(1)) >= 0)
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
    boundary = full_subcomplex(f.complex, lambda v: f.norm_at(v).cmp(ExactRadius.of(1)) >= 0)
    rel = integral_cohomology(CochainComplex(f.complex, boundary), 2)
    h_abs = integral_cohomology(CochainComplex(f.complex), 2)
    jmat = induced_int_matrix(
        rel, h_abs,
        restriction_transfer(CochainComplex(f.complex, boundary),
                             CochainComplex(f.complex), 2),
    )
    kernel = kernel_subgroup(jmat, rel, h_abs)
    assert kernel.free_rank == 1  # whole group: H^2(X) = 0
    assert kernel.torsion == ()

    # Zero map: kernel is the whole group.
    whole = kernel_subgroup(None, rel, integral_cohomology(
        CochainComplex(Complex.build([["z"]])), 2))
    assert whole.free_rank == rel.free_rank

    # Identity-like map: trivial kernel.
    circle = circle_complex()
    h1 = integral_cohomology(CochainComplex(circle), 1)
    ident = [[1 if i == j else 0 for j in range(h1.gens)] for i in range(h1.gens)]
    trivial = kernel_subgroup(ident, h1, h1)
    assert trivial.free_rank == 0
    assert trivial.torsion == ()


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
                          for j in range(h1.gens)], h1)
    assert img.free_rank == 1


def test_universal_coefficients_grid():
    f = grid_identity_map()
    boundary = full_subcomplex(f.complex, lambda v: f.norm_at(v).cmp(ExactRadius.of(1)) >= 0)
    for cc in (CochainComplex(f.complex), CochainComplex(boundary),
               CochainComplex(f.complex, boundary)):
        integral = {q: integral_cohomology(cc, q) for q in range(4)}
        for q in range(3):
            for p in (2, 3, 5):
                predicted = (integral[q].free_rank
                             + sum(1 for d in integral[q].torsion if d % p == 0)
                             + sum(1 for d in integral[q + 1].torsion if d % p == 0))
                assert field_cohomology(cc, q, p).dim == predicted
            assert field_cohomology(cc, q, 0).dim == integral[q].free_rank


def test_restriction_map_rejects_non_nested():
    import pytest
    from rzero.errors import InputError

    a = Complex.build([["a", "b"]])
    b = Complex.build([["c", "d"]])
    ha = integral_cohomology(CochainComplex(a), 0)
    hb = integral_cohomology(CochainComplex(b), 0)
    with pytest.raises(InputError):
        restriction_map(ha, hb)


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
    in the kernel basis below the top degree."""
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
        c = []
        for _ in range(4):
            c = [sampler.integer(-3, 3) for _ in range(h.gens)]
            assert h.coords(h.represent(c)) == c
        d_q = cc.coboundary(q)
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
    assert callable(cohomology_module.cohomology)
