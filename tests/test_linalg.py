"""Integer and field linear algebra: Smith form, solvers, presentations."""

import itertools
import random
from fractions import Fraction

import pytest

import echelon_oracle
import snf_oracle

from rzero.linalg import (
    DenseAdapter,
    FieldEchelon,
    FieldSolver,
    IntegerSolver,
    PresentedGroup,
    QuotientSpace,
    columns,
    field_rank,
    field_solve,
    from_columns,
    identity,
    integer_kernel,
    lattice_basis,
    mat_mul,
    mat_vec,
    smith_normal_form,
    solve_square,
    subgroup_presentation,
    unimodular_inverse,
)
from rzero.rng import RationalSampler

from inputs import image_subgroup


def solve_modulo(span, group, target):
    """Oracle: coefficients a with sum a_i span_i = target modulo the
    group's relations, by one dense integer solve (`snf_oracle.solve`);
    None when target is outside the subgroup generated by span."""
    cols = [list(v) for v in span] + [list(r) for r in group.relations]
    sol = snf_oracle.solve(from_columns(cols, group.gens), list(target))
    return None if sol is None else sol[:len(span)]


def check_snf(m):
    snf = smith_normal_form(m)
    assert mat_mul(mat_mul(snf.u, m), snf.v) == snf.s
    assert mat_mul(snf.u, snf.uinv) == identity(len(m))
    assert mat_mul(snf.v, snf_oracle.smith_normal_form(m).vinv) == identity(len(m[0]))
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
    assert IntegerSolver([[2]], 1).solve([4]) == [2]
    assert IntegerSolver([[2]], 1).solve([3]) is None
    x = IntegerSolver(columns([[1, 2], [0, 3]]), 2).solve([5, 6])
    assert x == [1, 2]
    assert IntegerSolver([], 2).solve([0, 0]) == []
    assert IntegerSolver([], 2).solve([0, 1]) is None
    assert IntegerSolver([], 0).solve([]) == []
    # Sparse right-hand sides, {row: entry}, give the same answers.
    assert IntegerSolver(columns([[1, 2], [0, 3]]), 2).solve({0: 5, 1: 6}) == [1, 2]
    assert IntegerSolver([[2, 0]], 2).solve({1: 1}) is None
    with pytest.raises(ValueError):
        IntegerSolver([[1, 0]], 2).solve([1])
    with pytest.raises(ValueError):
        IntegerSolver([[1, 0], [1]], 2)


def test_solve_integer_brute_force():
    sampler = RationalSampler(11)
    box = 6
    for _ in range(40):
        m = [[sampler.integer(-3, 3) for _ in range(3)] for _ in range(3)]
        b = [sampler.integer(-4, 4) for _ in range(3)]
        got = IntegerSolver(columns(m), 3).solve(b)
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


def _combination(vectors, x):
    return [sum(c * v[i] for c, v in zip(x, vectors)) for i in range(len(vectors[0]))]


def test_integer_solver_dependent_zero_and_duplicate_vectors():
    vectors = [[1, 2], [2, 4], [0, 0], [1, 2]]
    solver = IntegerSolver(vectors, 2)
    x = solver.solve([3, 6])
    assert _combination(vectors, x) == [3, 6]
    assert solver.solve([1, 3]) is None
    zeros = IntegerSolver([[0, 0], [0, 0]], 2)
    assert zeros.solve([0, 0]) == [0, 0]
    assert zeros.solve([1, 0]) is None
    duplicates = [[2, 0], [2, 0], [0, 3], [0, 3]]
    solver = IntegerSolver(duplicates, 2)
    assert _combination(duplicates, solver.solve([4, -3])) == [4, -3]
    assert solver.solve([1, 0]) is None and solver.solve([0, 1]) is None
    # Random spanning sets with zero, repeated and dependent vectors: a
    # solution exactly when the dense oracle finds one.
    rng = random.Random(41)
    answers = {"solved": 0, "none": 0}
    for _ in range(200):
        rows = rng.randint(1, 4)
        base = [[rng.randint(-3, 3) for _ in range(rows)] for _ in range(rng.randint(0, 3))]
        vectors = base + [[0] * rows]
        for _ in range(rng.randint(0, 3)):
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            vectors.append([a * x + b * y for x, y in zip(rng.choice(vectors), rng.choice(vectors))])
        rng.shuffle(vectors)
        target = [rng.randint(-5, 5) for _ in range(rows)]
        x = IntegerSolver(vectors, rows).solve(target)
        assert (x is None) == (snf_oracle.solve(from_columns(vectors, rows), target) is None)
        if x is not None:
            assert _combination(vectors, x) == target
        answers["none" if x is None else "solved"] += 1
    assert min(answers.values()) > 40, answers


def test_integer_solver_matches_the_oracle_on_independent_vectors():
    # On independent vectors the solution is unique, so the echelon's and
    # the dense Smith transforms' must be the same vector.
    rng = random.Random(19)
    answers = {"solved": 0, "none": 0}
    while min(answers.values()) < 60:
        rows = rng.randint(1, 6)
        count = rng.randint(0, rows)
        vectors = [[rng.choice([0, 0, rng.randint(-4, 4)]) for _ in range(rows)]
                   for _ in range(count)]
        m = from_columns(vectors, rows)
        if snf_oracle.smith_normal_form(m).rank < count:
            continue
        if rng.random() < 0.5:
            b = [rng.randint(-5, 5) for _ in range(rows)]
        else:
            b = mat_vec(m, [rng.randint(-3, 3) for _ in range(count)]) if count else [0] * rows
        x = IntegerSolver(vectors, rows).solve(b)
        assert x == snf_oracle.solve(m, b), (vectors, b)
        answers["none" if x is None else "solved"] += 1


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


def _leibniz_det(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def test_solve_square_cramer_form():
    # (numerators, det): det is det(A) with its sign, A x = b for x =
    # numerators / det, and None exactly when A is singular.
    sampler = RationalSampler(23)
    singular = 0
    for _ in range(300):
        n = sampler.integer(1, 4)
        a = [[sampler.integer(-2, 2) for _ in range(n)] for _ in range(n)]
        b = [sampler.integer(-4, 4) for _ in range(n)]
        det = _leibniz_det(a)
        got = solve_square([row + [x] for row, x in zip(a, b)])
        if det == 0:
            assert got is None
            singular += 1
            continue
        numerators, got_det = got
        assert got_det == det
        assert mat_vec(a, numerators) == [det * x for x in b]
    assert singular


def test_integer_kernel_saturated():
    m = [[2, 4, 0], [1, 2, 0]]
    kern = integer_kernel(m)
    assert len(kern) == 2
    for vec in kern:
        assert mat_vec(m, vec) == [0, 0]
    # (−2, 1, 0) must be an integer combination of the basis
    assert IntegerSolver(kern, 3).solve([-2, 1, 0]) is not None


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
            inside = image_subgroup(span, g).member_coords(vec) is not None
            assert inside == (solve_modulo(span, g, vec) is not None)
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
    # Over F_p coordinates are ints in [0, p): (1,0,0) = (0,-1,0) mod (1,1,0).
    assert QuotientSpace(3, [[1, 1, 0]], 2).project([1, 0, 0]) == [1, 0]
    assert QuotientSpace(3, [[1, 1, 0]], 3).project([1, 0, 0]) == [2, 0]

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


def test_field_echelon_insert():
    # insert returns the stored, normalized vector, or None inside the span.
    for char, first, second in ((0, [0, -4, 6], [0, 2, -3]), (5, [0, 2, 4], [0, 3, 1])):
        echelon = DenseAdapter(char)
        stored = echelon.insert(first)
        assert stored == ([0, 2, -3] if char == 0 else [0, 1, 2])
        assert echelon.insert(second) is None
        assert echelon.insert([1, 0, 0]) == [1, 0, 0]
        assert echelon.pivot_rows == {0, 1}
        assert sorted(-key for key in echelon.echelon.pivots) == [0, 1]


def test_sparse_field_echelon_maps_its_input_into_the_field():
    # Over F_p entries are taken mod p and zeros dropped, so an entry that
    # vanishes mod p is never a pivot.
    echelon = FieldEchelon(2)
    assert echelon.insert({0: 1, 3: 2}) == 0
    assert echelon.pivots == {0: {0: 1}}
    assert echelon.insert({5: 4, 0: 3}) is None
    assert echelon.insert({1: 3, 2: -1}) == 2
    assert echelon.pivots[2] == {1: 1, 2: 1}
    # Over F_3 a stored column is 1 at its pivot, its highest key.
    echelon = FieldEchelon(3)
    assert echelon.insert({0: 1, 4: 2}) == 4
    assert echelon.pivots[4] == {0: 2, 4: 1}
    # Over Q Fractions are cleared by their common denominator, and a
    # stored column is primitive and positive at its pivot.
    echelon = FieldEchelon(0)
    assert echelon.insert({1: Fraction(1, 2), 2: Fraction(-2, 3), 3: 0}) == 2
    assert echelon.pivots[2] == {1: -3, 2: 4}
    assert echelon.reduce({1: 6, 2: -8}) == {}
    assert echelon.reduce({1: 1, 2: Fraction(1, 3)}) == {1: 15}
    assert echelon.reduce_fully({1: 1, 2: Fraction(1, 3)}) == ({1: 15}, 12)


def _random_vector(rng, n, char, fractions):
    """A short vector with many zeros; over Q with Fraction entries when
    asked."""
    entries = []
    for _ in range(n):
        x = rng.choice([0, 0, 0, 1, -1, 2, -2, 3]) if rng.random() < 0.8 else rng.randint(-9, 9)
        if fractions and x:
            x = Fraction(x, rng.randint(1, 4))
        entries.append(x)
    return entries


def _typed(vec):
    return [(type(x), x) for x in vec]


@pytest.mark.parametrize("char, fractions", [(0, False), (0, True), (2, False), (3, False),
                                             (5, False)])
def test_dense_adapter_matches_the_dense_oracle(char, fractions):
    """The sparse echelon behind `DenseAdapter` stores, refuses and projects
    exactly as the dense echelon it replaced (`echelon_oracle.py`), and so
    does `QuotientSpace`."""
    rng = random.Random(20 + char + fractions)
    for _ in range(80):
        n = rng.randint(1, 6)
        draw = lambda: _random_vector(rng, n, char, fractions)
        vectors = [draw() for _ in range(rng.randint(0, 7))]
        if vectors and rng.random() < 0.5:
            # A combination of earlier vectors, so some inserts are refused.
            vectors.append([sum(x) for x in zip(*vectors[: rng.randint(1, len(vectors))])])
        adapter, oracle = DenseAdapter(char), echelon_oracle.FieldEchelon(char)
        for vec in vectors:
            stored = adapter.insert(vec)
            expected = oracle.insert(vec)
            assert (stored is None) == (expected is None)
            if stored is not None:
                assert _typed(stored) == _typed(expected)
            assert adapter.pivot_rows == oracle.pivot_rows
        probes = [draw() for _ in range(3)] + [[int(r == j) for r in range(n)] for j in range(n)]
        for vec in probes:
            rows = sorted(rng.sample(range(n), rng.randint(0, n)))
            assert _typed(adapter.project(vec, rows)) == _typed(oracle.project(vec, rows))

        space = QuotientSpace(n, vectors, char)
        expected_space = echelon_oracle.QuotientSpace(n, vectors, char)
        assert space.coord_rows == expected_space.coord_rows
        for vec in probes:
            assert _typed(space.project(vec)) == _typed(expected_space.project(vec))
        m = [draw() for _ in range(n)]
        for target, expected_target in ((space, expected_space),
                                        (QuotientSpace(n, vectors[:1], char),
                                         echelon_oracle.QuotientSpace(n, vectors[:1], char))):
            got = space.induced_matrix(m, target)
            assert list(map(_typed, got)) == list(map(_typed, expected_space.induced_matrix(
                m, expected_target)))


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
    # (1,1) and (2,0) generate the index-2 sublattice {x + y even}
    solver = IntegerSolver(basis, 2)
    assert solver.solve([1, 1]) is not None
    assert solver.solve([2, 0]) is not None
    assert solver.solve([1, 0]) is None

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
