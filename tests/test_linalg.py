"""Integer and field linear algebra: Smith form, solvers, presentations."""

from fractions import Fraction

import pytest

from rzero.linalg import (
    FieldSolver,
    PresentedGroup,
    QuotientSpace,
    field_kernel,
    field_rank,
    field_solve,
    from_columns,
    identity,
    int_det,
    integer_kernel,
    lattice_basis,
    mat_mul,
    mat_vec,
    smith_normal_form,
    solve_integer,
    solve_modulo,
    subgroup_presentation,
    unimodular_inverse,
)
from rzero.rng import RationalSampler


def check_snf(m):
    snf = smith_normal_form(m)
    assert mat_mul(mat_mul(snf.u, m), snf.v) == snf.s
    assert abs(int_det(snf.u)) == 1
    assert abs(int_det(snf.v)) == 1
    assert mat_mul(snf.u, snf.uinv) == identity(len(m))
    assert mat_mul(snf.v, snf.vinv) == identity(len(m[0]))
    diag = [d for d in snf.diagonal if d != 0]
    assert all(d > 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    # off-diagonal entries vanish
    for i, row in enumerate(snf.s):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    return snf


def test_snf_examples():
    assert check_snf([[0]]).diagonal == [0]
    assert check_snf([[2, 4], [6, 8]]).diagonal == [2, 4]
    assert check_snf(identity(3)).diagonal == [1, 1, 1]


def test_snf_random():
    sampler = RationalSampler(5)
    for _ in range(60):
        rows = sampler.integer(1, 5)
        cols = sampler.integer(1, 5)
        m = [[sampler.integer(-6, 6) for _ in range(cols)] for _ in range(rows)]
        check_snf(m)


def test_solve_integer_examples():
    assert solve_integer([[2]], [4]) == [2]
    assert solve_integer([[2]], [3]) is None
    x = solve_integer([[1, 2], [0, 3]], [5, 6])
    assert x == [1, 2]


def test_solve_integer_brute_force():
    sampler = RationalSampler(11)
    box = 6
    for _ in range(40):
        m = [[sampler.integer(-3, 3) for _ in range(3)] for _ in range(3)]
        b = [sampler.integer(-4, 4) for _ in range(3)]
        got = solve_integer(m, b)
        brute = None
        for x0 in range(-box, box + 1):
            for x1 in range(-box, box + 1):
                for x2 in range(-box, box + 1):
                    if mat_vec(m, [x0, x1, x2]) == b:
                        brute = [x0, x1, x2]
                        break
                if brute:
                    break
            if brute:
                break
        if got is not None:
            assert mat_vec(m, got) == b
        elif brute is not None:
            raise AssertionError(f"solver missed solution {brute} of {m} x = {b}")


def test_field_rank_examples():
    assert field_rank([[0, 0, 0]] * 3, 0) == 0
    assert field_rank([[1, 1], [1, 1]], 2) == 1
    assert field_rank([[2, 0], [0, 3]], 3) == 1
    assert field_rank([[Fraction(1, 2), 1], [1, 2]], 0) == 1


def test_field_solver_matches_field_solve():
    sampler = RationalSampler(21)
    for char in (0, 2, 5):
        for _ in range(25):
            rows = sampler.integer(1, 4)
            cols = sampler.integer(1, 4)
            m = [[sampler.integer(-4, 4) for _ in range(cols)] for _ in range(rows)]
            solver = FieldSolver(m, char)
            for _ in range(3):
                b = [sampler.integer(-4, 4) for _ in range(rows)]
                a = solver.solve(b)
                c = field_solve(m, b, char)
                assert (a is None) == (c is None)
                if a is not None:
                    if char == 0:
                        assert mat_vec(m, a) == [Fraction(x) for x in b]
                    else:
                        assert [x % char for x in mat_vec(m, a)] == [x % char for x in b]


def test_integer_kernel_saturated():
    m = [[2, 4, 0], [1, 2, 0]]
    kern = integer_kernel(m)
    assert len(kern) == 2
    for vec in kern:
        assert mat_vec(m, vec) == [0, 0]
    # (−2, 1, 0) must be an integer combination of the basis
    matrix = from_columns(kern, 3)
    assert solve_integer(matrix, [-2, 1, 0]) is not None


def test_field_kernel():
    kern = field_kernel([[1, 1, 0]], 2)
    assert len(kern) == 2
    for vec in kern:
        assert sum(vec[:2]) % 2 == 0


def test_presented_group_invariants():
    # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3 = Z/6 in invariant factors (1 then 6)
    g = PresentedGroup(2, [[2, 0], [0, 3]])
    assert g.free_rank == 0
    assert g.torsion == (6,)
    assert g.is_zero_class([2, 0])
    assert g.is_zero_class([2, 3])
    assert not g.is_zero_class([1, 0])
    free = PresentedGroup(2, [])
    assert free.invariants() == (2, ())
    assert not PresentedGroup(2, []).is_trivial()
    assert PresentedGroup(0, []).is_trivial()

    # Non-diagonal torsion: <(2,1),(0,2)> has index 4 and content 1, so Z/4.
    g = PresentedGroup(2, [[2, 1], [0, 2]])
    assert not g.is_trivial()
    assert g.invariants() == (0, (4,))
    for vec in ([2, 1], [0, 2], [2, 3], [4, 0], [-2, -1]):
        assert g.is_zero_class(vec)
    for vec in ([1, 0], [0, 1], [2, 0], [1, 1]):
        assert not g.is_zero_class(vec)

    # Dependent and duplicated relations: the lattice has rank 2 in Z^3.
    rels = [[1, 2, 0], [1, 2, 0], [2, 4, 0], [0, 1, 3], [1, 3, 3]]
    g = PresentedGroup(3, rels)
    assert not g.is_trivial()
    assert g.invariants() == (1, ())
    assert g.is_zero_class([2, 5, 3])
    assert g.is_zero_class([-1, -3, -3])
    assert not g.is_zero_class([0, 0, 3])
    assert not g.is_zero_class([0, 0, 1])

    # Negative entries: Z^2 / <(-3,0),(0,-1)> = Z/3.
    g = PresentedGroup(2, [[-3, 0], [0, -1]])
    assert not g.is_trivial()
    assert g.torsion == (3,)
    assert g.is_zero_class([3, 5])
    assert g.is_zero_class([-6, 1])
    assert not g.is_zero_class([1, 0])
    assert not g.is_zero_class([-4, 0])

    # A unimodular relation lattice that is not the identity (det 1); the
    # second needs a gcd step on its first pivot.
    for rels in ([[2, 1], [1, 1]], [[2, 3], [3, 5]], [[0, 1, 0], [1, 0, 0], [5, -7, -1]]):
        g = PresentedGroup(len(rels[0]), rels)
        assert g.is_trivial()  # before invariants() is cached
        assert g.invariants() == (0, ())
        assert g.is_zero_class([1] + [0] * (len(rels[0]) - 1))
        assert g.is_zero_class([-3, 7] + [0] * (len(rels[0]) - 2))

    # An index-2 lattice: <(1,1),(1,-1)> = {x + y even}.
    g = PresentedGroup(2, [[1, 1], [1, -1]])
    assert not g.is_trivial()
    assert g.invariants() == (0, (2,))
    assert g.is_zero_class([2, 0])
    assert g.is_zero_class([0, 2])
    assert g.is_zero_class([3, -1])
    assert not g.is_zero_class([1, 0])
    assert not g.is_zero_class([2, 1])


def _snf_member(relations, gens, vec):
    """Membership oracle from the Smith form: u m v = s, so vec is in the
    column lattice of m iff s y = u vec is solvable with y integral."""
    if not relations:
        return all(x == 0 for x in vec)
    snf = smith_normal_form(from_columns(relations, gens))
    image = mat_vec(snf.u, vec)
    for i in range(gens):
        d = snf.s[i][i] if i < len(relations) else 0
        if (image[i] != 0) if d == 0 else (image[i] % d != 0):
            return False
    return True


def test_presented_group_echelon_matches_smith_form():
    sampler = RationalSampler(2_718)
    for _ in range(150):
        gens = sampler.integer(0, 4)
        relations = [[sampler.integer(-5, 5) for _ in range(gens)]
                     for _ in range(sampler.integer(0, 5))]
        if relations:
            snf = smith_normal_form(from_columns(relations, gens))
            trivial = snf.rank == gens and all(d == 1 for d in snf.diagonal[:gens])
        else:
            trivial = gens == 0
        assert PresentedGroup(gens, relations).is_trivial() == trivial, relations
        g = PresentedGroup(gens, relations)
        # Echelon invariant: each vector is stored without zero entries and
        # starts at its row with a positive pivot.
        for row, vec in g._echelon().items():
            assert min(vec) == row and vec[row] > 0 and all(vec.values()), relations
        for _ in range(6):
            vec = [sampler.integer(-6, 6) for _ in range(gens)]
            assert g.is_zero_class(vec) == _snf_member(relations, gens, vec), (relations, vec)
            # An integer combination of the relations is always a zero class.
            combo = [0] * gens
            for rel in relations:
                c = sampler.integer(-3, 3)
                combo = [x + c * y for x, y in zip(combo, rel)]
            assert g.is_zero_class(combo)
            span = [[sampler.integer(-3, 3) for _ in range(gens)]
                    for _ in range(sampler.integer(0, 2))]
            assert g.in_subgroup(span, vec) == (solve_modulo(span, g, vec) is not None)
        assert g.is_trivial() == trivial
        known = PresentedGroup(gens, relations)
        known.invariants()
        assert known.is_trivial() == trivial


def test_presented_group_normalized():
    g = PresentedGroup(2, [[2, 0]])
    assert g.normal_basis_size() == 2  # one free, one torsion Z/2
    z = g.normalized_coords([0, 0])
    assert all(x == 0 for x in z)
    a = g.normalized_coords([2, 0])
    assert all(x == 0 for x in a)  # relation collapses to zero
    rep = g.normalized_representative(0)
    assert not g.is_zero_class(rep)
    for group in (g, PresentedGroup(2, []), PresentedGroup(3, [[1, 2, 3], [0, 2, 4]])):
        size = group.normal_basis_size()
        for j in range(size):
            unit = [1 if i == j else 0 for i in range(size)]
            assert group.normalized_coords(group.normalized_representative(j)) == unit


def test_quotient_space():
    q = QuotientSpace(3, [[1, 1, 0]], 0)
    assert q.dim == 2
    assert q.project([1, 1, 0]) == [Fraction(0), Fraction(0)]
    assert q.project([0, 1, 0]) != [Fraction(0), Fraction(0)]
    # Z^2/<(2,0)> = Z/2 + Z: two dimensions over F_2, one over F_5.
    assert QuotientSpace(2, [[2, 0]], 2).dim == 2
    assert QuotientSpace(2, [[2, 0]], 5).dim == 1

    # Over Q, relations as Fractions and as their integer multiples give
    # the same quotient and the same coordinates.
    as_fractions = QuotientSpace(
        3, [[Fraction(1, 2), Fraction(1, 3), 0], [0, Fraction(2, 5), Fraction(-1, 7)]], 0)
    as_integers = QuotientSpace(3, [[3, 2, 0], [0, 14, -5]], 0)
    assert as_fractions.dim == as_integers.dim == 1
    for vec in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [Fraction(5, 3), -2, Fraction(1, 4)]):
        assert as_fractions.project(vec) == as_integers.project(vec)
    assert as_integers.project([0, 0, 1]) == [Fraction(1)]
    assert as_integers.project([1, 0, 0]) == [Fraction(-5, 21)]

    # Relations out of pivot order: the coordinates are those of the unique
    # representative vanishing on the pivot rows 0, 1, 2.
    shuffled = QuotientSpace(4, [[0, 0, 1, 1], [1, 2, 0, 0], [0, 1, 1, 0]], 0)
    ordered = QuotientSpace(4, [[1, 2, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], 0)
    assert shuffled.dim == ordered.dim == 1
    assert shuffled.project([1, 0, 0, 0]) == ordered.project([1, 0, 0, 0]) == [Fraction(-2)]
    assert shuffled.project([0, 0, 0, 1]) == [Fraction(1)]
    assert shuffled.project([1, 2, 0, 0]) == [Fraction(0)]

    # project and induced_matrix on Fraction inputs.
    assert q.project([Fraction(1, 2), Fraction(1, 3), 0]) == [Fraction(-1, 6), Fraction(0)]
    m = [[0, Fraction(1, 2), 0], [1, 0, 0], [0, 0, Fraction(2, 3)]]
    assert q.induced_matrix(m, q) == [[Fraction(-1, 2), 0], [0, Fraction(2, 3)]]
    target = QuotientSpace(3, [[0, 0, 3]], 0)
    induced = q.induced_matrix(m, target)
    assert induced == [[Fraction(1, 2), 0], [0, 0]]
    assert all(type(x) is Fraction for row in induced for x in row)


def test_quotient_space_canonical_random():
    """Over Q, projections are the canonical representative's entries: the
    difference to the input lies in the relation span, and the result does
    not depend on the order or the scaling of the relations."""
    sampler = RationalSampler(31_415)
    for _ in range(60):
        ambient = sampler.integer(1, 5)
        relations = [[Fraction(sampler.integer(-4, 4), sampler.integer(1, 3))
                      for _ in range(ambient)] for _ in range(sampler.integer(0, 4))]
        q = QuotientSpace(ambient, relations, 0)
        reordered = QuotientSpace(
            ambient, [[3 * x for x in rel] for rel in reversed(relations)], 0)
        assert q.dim == reordered.dim == ambient - field_rank(relations, 0)
        assert q.coord_rows == reordered.coord_rows
        vec = [Fraction(sampler.integer(-5, 5), sampler.integer(1, 4)) for _ in range(ambient)]
        coords = q.project(vec)
        assert coords == reordered.project(vec)
        rest = list(vec)
        for j, c in enumerate(coords):
            rest[q.coord_rows[j]] -= c
        if relations:
            assert field_solve(from_columns(relations, ambient), rest, 0) is not None
        else:
            assert all(x == 0 for x in rest)


def test_tensor_dimensions():
    g = PresentedGroup(3, [[2, 0, 0], [0, 3, 0]])  # Z/2 + Z/3 + Z
    assert g.tensor(0).dim == 1
    assert g.tensor(2).dim == 2
    assert g.tensor(3).dim == 2
    assert g.tensor(5).dim == 1


def test_lattice_basis_and_subgroup():
    vectors = [[2, 0], [0, 2], [1, 1]]
    basis = lattice_basis(vectors, 2)
    matrix = from_columns(basis, 2)
    # (1,1) and (2,0) generate the index-2 sublattice {x + y even}
    assert solve_integer(matrix, [1, 1]) is not None
    assert solve_integer(matrix, [2, 0]) is not None
    assert solve_integer(matrix, [1, 0]) is None

    ambient = PresentedGroup(2, [])
    span, presented = subgroup_presentation(basis, ambient)
    assert presented.invariants() == (2, ())
    coords = solve_modulo(span, ambient, [1, 1])
    assert coords is not None


def test_unimodular_inverse():
    u = [[1, 2], [0, 1]]
    assert mat_mul(u, unimodular_inverse(u)) == identity(2)
    w = [[0, 1, 0], [2, 3, -1], [1, 1, 0]]  # determinant -1
    inv = unimodular_inverse(w)
    assert mat_mul(w, inv) == identity(3) and mat_mul(inv, w) == identity(3)
    assert unimodular_inverse([]) == []
    for bad in ([[2, 0], [0, 1]], [[1, 2], [3, 4]], [[1, 1], [1, 1]], [[1, 0]]):
        with pytest.raises(ValueError):
            unimodular_inverse(bad)
