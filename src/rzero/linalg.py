"""Exact integer and field linear algebra.

Integer matrices are plain lists of lists of Python ints; field matrices use
Fraction entries (characteristic 0) or ints reduced mod p.  The Smith normal
form drives the integer side where coefficients or torsion are needed:
kernels, linear Diophantine solving, and presentations of finitely generated
abelian groups.  Its pivots are chosen by minimal absolute value (ties by
position) to limit entry growth.  It returns both transforms u, v and both
inverses u^-1, v^-1, tracked as it eliminates, so lattice bases and
coordinates are read off integer matrices with no Fraction inverse or solve.  Yes/no questions about a relation lattice
(is a class zero, is the group trivial) use a transform-free integer column
echelon instead, and rational quotients use a fraction-free echelon.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

IntMatrix = list[list[int]]
IntVector = list[int]


# ---------------------------------------------------------------------------
# basic integer matrix helpers
# ---------------------------------------------------------------------------

def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> IntMatrix:
    return [[0] * cols for _ in range(rows)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if not a:
        return []
    inner = len(a[0])
    if inner != len(b):
        raise ValueError("dimension mismatch in mat_mul")
    cols = len(b[0]) if b else 0
    out = zeros(len(a), cols)
    for i, row in enumerate(a):
        out_row = out[i]
        for k, aik in enumerate(row):
            if aik == 0:
                continue
            brow = b[k]
            for j in range(cols):
                out_row[j] += aik * brow[j]
    return out


def mat_vec(a: IntMatrix, v: IntVector) -> IntVector:
    if a and len(a[0]) != len(v):
        raise ValueError("dimension mismatch in mat_vec")
    return [sum(aij * vj for aij, vj in zip(row, v)) for row in a]


def transpose(a: IntMatrix) -> IntMatrix:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def columns(a: IntMatrix) -> list[IntVector]:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def from_columns(cols: list[IntVector], rows: int) -> IntMatrix:
    if not cols:
        return [[] for _ in range(rows)]
    return [[col[i] for col in cols] for i in range(rows)]


def int_det(a: IntMatrix) -> int:
    """Exact determinant via fraction-free elimination (Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmithForm:
    """u * m * v = s with u, v unimodular; uinv and vinv are their inverses,
    so m = uinv * s * vinv."""

    s: IntMatrix
    u: IntMatrix
    v: IntMatrix
    uinv: IntMatrix
    vinv: IntMatrix
    rank: int

    @property
    def diagonal(self) -> list[int]:
        return [self.s[i][i] for i in range(min(len(self.s), len(self.s[0]) if self.s else 0))]


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Smith normal form u*m*v = s with u, v unimodular, and their inverses.

    The diagonal of s is nonnegative and satisfies the divisibility chain
    d1 | d2 | ... ; pivots are picked by minimal absolute value, ties broken
    by (row, column) position so the result is deterministic.  The inverses
    are tracked alongside: a row op on u is the inverse column op on u^-1,
    and a column op on v is the inverse row op on v^-1.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [row[:] for row in m]
    u = identity(rows)
    # u^-1 and v are changed by column ops; they are kept transposed, so
    # that every transform update is a row op on a list.
    uinv_t = identity(rows)
    v_t = identity(cols)
    vinv = identity(cols)

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]
            uinv_t[i], uinv_t[j] = uinv_t[j], uinv_t[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            v_t[i], v_t[j] = v_t[j], v_t[i]
            vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_row(src, dst, factor):
        # row[dst] += factor * row[src]; on u^-1, column[src] -= factor * column[dst]
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]
        uinv_t[src] = [x - factor * y for x, y in zip(uinv_t[src], uinv_t[dst])]

    def add_col(src, dst, factor):
        # column[dst] += factor * column[src]; on v^-1, row[src] -= factor * row[dst]
        for row in a:
            x = row[src]
            if x:
                row[dst] += factor * x
        v_t[dst] = [x + factor * y for x, y in zip(v_t[dst], v_t[src])]
        vinv[src] = [x - factor * y for x, y in zip(vinv[src], vinv[dst])]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        uinv_t[i] = [-x for x in uinv_t[i]]

    def find_pivot(t):
        best = None
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                x = row[j]
                if x != 0:
                    ax = -x if x < 0 else x
                    if best is None or ax < best[0]:
                        best = (ax, i, j)
                        if ax == 1:
                            return best
        return best

    t = 0
    while t < min(rows, cols):
        pivot = find_pivot(t)
        if pivot is None:
            break
        _, pi, pj = pivot
        swap_rows(t, pi)
        swap_cols(t, pj)
        if a[t][t] < 0:
            negate_row(t)

        while True:
            # Clear the pivot column.
            restart = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        # Remainder is a strictly smaller positive pivot.
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # Row and column are clear; enforce divisibility of the rest
            # (a unit pivot divides everything).
            d = a[t][t]
            if d == 1:
                break
            offender = None
            for i in range(t + 1, rows):
                row = a[i]
                for j in range(t + 1, cols):
                    if row[j] % d != 0:
                        offender = (i, j)
                        break
                if offender:
                    break
            if offender is None:
                break
            add_row(offender[0], t, 1)
        t += 1

    rank = sum(1 for i in range(min(rows, cols)) if a[i][i] != 0)
    return SmithForm(a, u, transpose(v_t), transpose(uinv_t), vinv, rank)


class SmithSolver:
    """Cached Smith form of one matrix for solving many systems m x = b."""

    def __init__(self, m: IntMatrix):
        self.rows = len(m)
        self.cols = len(m[0]) if self.rows else 0
        self._snf = smith_normal_form(m) if self.cols else None

    def solve(self, b: IntVector) -> IntVector | None:
        if len(b) != self.rows:
            raise ValueError("dimension mismatch in SmithSolver.solve")
        if self.cols == 0:
            return [] if all(x == 0 for x in b) else None
        snf = self._snf
        y = mat_vec(snf.u, b)
        z = [0] * self.cols
        for i in range(self.rows):
            d = snf.s[i][i] if i < self.cols else 0
            if d != 0:
                if y[i] % d != 0:
                    return None
                z[i] = y[i] // d
            elif y[i] != 0:
                return None
        return mat_vec(snf.v, z)


def solve_integer(m: IntMatrix, b: IntVector) -> IntVector | None:
    """Some integer solution x of m x = b, or None when none exists."""
    return SmithSolver(m).solve(b)


def integer_kernel(m: IntMatrix) -> list[IntVector]:
    """Basis of the integer kernel lattice of m (a saturated sublattice)."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    snf = smith_normal_form(m)
    vcols = columns(snf.v)
    return [vcols[j] for j in range(snf.rank, cols)]


def lattice_basis(vectors: list[IntVector], dim: int) -> list[IntVector]:
    """Basis of the integer lattice spanned by the given vectors.

    Uses the Smith decomposition M = U^-1 S V^-1: the column lattice of M
    equals the lattice spanned by d_i times the i-th column of U^-1.
    """
    vectors = [v for v in vectors if any(x != 0 for x in v)]
    if not vectors:
        return []
    m = from_columns(vectors, dim)
    snf = smith_normal_form(m)
    basis = []
    for i in range(snf.rank):
        d = snf.s[i][i]
        basis.append([snf.uinv[r][i] * d for r in range(dim)])
    return basis


def unimodular_inverse(u: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix (again integral).

    With U u V = I from the Smith form, the inverse is V U.
    """
    n = len(u)
    if any(len(row) != n for row in u):
        raise ValueError("matrix is not square")
    snf = smith_normal_form(u)
    if any(d != 1 for d in snf.diagonal):
        raise ValueError("matrix is not unimodular")
    return mat_mul(snf.v, snf.u)


# ---------------------------------------------------------------------------
# field linear algebra (char 0 = rationals, char p = prime field)
# ---------------------------------------------------------------------------

def _fnorm(x, char: int):
    if char == 0:
        return Fraction(x)
    return int(x) % char


def _finv(x, char: int):
    if char == 0:
        return Fraction(1) / x
    return pow(x, char - 2, char)


def to_field_matrix(m, char: int):
    return [[_fnorm(x, char) for x in row] for row in m]


def field_mat_mul(a, b, char: int):
    if not a:
        return []
    cols = len(b[0]) if b else 0
    out = [[_fnorm(0, char) for _ in range(cols)] for _ in range(len(a))]
    for i, row in enumerate(a):
        for k, aik in enumerate(row):
            if aik == 0:
                continue
            brow = b[k]
            orow = out[i]
            for j in range(cols):
                orow[j] = _fnorm(orow[j] + aik * brow[j], char)
    return out


def field_mat_vec(a, v, char: int):
    return [_fnorm(sum(x * y for x, y in zip(row, v)), char) for row in a]


def _row_echelon(m, char: int):
    """Row echelon form; returns (rows, pivot column list)."""
    work = [[_fnorm(x, char) for x in row] for row in m]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = _finv(work[r][c], char)
        work[r] = [_fnorm(x * inv, char) for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [_fnorm(x - f * y, char) for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work, pivots


def field_rank(m, char: int) -> int:
    if not m or not m[0]:
        return 0
    _, pivots = _row_echelon(m, char)
    return len(pivots)


def field_solve(a, b, char: int):
    """Some solution of a x = b over the field, or None."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    aug = [list(row) + [bv] for row, bv in zip(a, b)]
    if not aug:
        return [ _fnorm(0, char) ] * ncols if ncols else []
    work, pivots = _row_echelon(aug, char)
    x = [_fnorm(0, char)] * ncols
    for r, c in enumerate(pivots):
        if c == ncols:
            return None  # pivot in the constant column: inconsistent
        x[c] = work[r][ncols]
    return x


class FieldSolver:
    """Cached reduced row echelon of a matrix for many solves a x = b.

    Stores the row transform t with t a = r (r reduced); a solve is then one
    matrix-vector product plus a consistency check on the zero rows.
    """

    def __init__(self, a, char: int):
        self.char = char
        self.rows = len(a)
        self.cols = len(a[0]) if self.rows else 0
        work = [[_fnorm(x, char) for x in row]
                + [_fnorm(1 if i == j else 0, char) for j in range(self.rows)]
                for i, row in enumerate(a)]
        pivots = []
        r = 0
        for c in range(self.cols):
            piv = next((i for i in range(r, self.rows) if work[i][c] != 0), None)
            if piv is None:
                continue
            work[r], work[piv] = work[piv], work[r]
            inv = _finv(work[r][c], char)
            work[r] = [_fnorm(x * inv, char) for x in work[r]]
            for i in range(self.rows):
                if i != r and work[i][c] != 0:
                    f = work[i][c]
                    work[i] = [_fnorm(x - f * y, char) for x, y in zip(work[i], work[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        self.rank = r
        self.pivots = pivots
        self.transform = [row[self.cols:] for row in work]

    def solve(self, b):
        if len(b) != self.rows:
            raise ValueError("dimension mismatch in FieldSolver.solve")
        b = [_fnorm(x, self.char) for x in b]
        y = [_fnorm(sum(t * bv for t, bv in zip(row, b)), self.char)
             for row in self.transform]
        for i in range(self.rank, self.rows):
            if y[i] != 0:
                return None
        x = [_fnorm(0, self.char)] * self.cols
        for r, c in enumerate(self.pivots):
            x[c] = y[r]
        return x


def field_kernel(a, char: int):
    """Basis of the kernel of a over the field (list of vectors)."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if ncols == 0:
        return []
    if nrows == 0:
        return [[_fnorm(1 if i == j else 0, char) for i in range(ncols)]
                for j in range(ncols)]
    work, pivots = _row_echelon(a, char)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [_fnorm(0, char)] * ncols
        vec[fc] = _fnorm(1, char)
        for r, pc in enumerate(pivots):
            vec[pc] = _fnorm(-work[r][fc], char)
        basis.append(vec)
    return basis


class RationalEchelon:
    """Column echelon of a subspace of Q^n kept in integers (fraction-free).

    Each basis vector is primitive with a positive pivot, its first nonzero
    entry; vectors are kept sorted by pivot row.  A reduced vector comes with
    the scale it was multiplied by, so Fractions appear only when a caller
    divides it out.
    """

    def __init__(self):
        self.basis: list[tuple[int, list[int], int]] = []  # (pivot row, vector, pivot)

    @property
    def pivot_rows(self) -> set[int]:
        return {piv for piv, _, _ in self.basis}

    def reduce(self, vec) -> tuple[list[int], int]:
        """(w, scale) with w = scale * vec - (span element), zero on pivots.

        Fraction entries are cleared by the common denominator first.
        """
        scale = 1
        fractions = [x for x in vec if type(x) is not int]
        if fractions:
            scale = math.lcm(*(x.denominator for x in fractions))
            vec = [int(x * scale) for x in vec]
        for piv, basis, pval in self.basis:
            c = vec[piv]
            if c:
                if pval == 1:
                    vec = [x - c * y for x, y in zip(vec, basis)]
                else:
                    vec = [x * pval - c * y for x, y in zip(vec, basis)]
                    scale *= pval
        return vec, scale

    def insert(self, vec) -> None:
        """Add a vector to the spanned subspace (ignored when already in it)."""
        vec, _ = self.reduce(vec)
        piv = next((i for i, x in enumerate(vec) if x != 0), None)
        if piv is None:
            return
        g = 0
        for x in vec:
            g = math.gcd(g, x)
        if vec[piv] < 0:
            g = -g
        vec = [x // g for x in vec]   # a fresh list: callers keep theirs
        bisect.insort(self.basis, (piv, vec, vec[piv]), key=lambda item: item[0])

    def project(self, vec, coord_rows) -> list[Fraction]:
        """Entries at coord_rows of the representative of vec that vanishes
        on the pivot rows."""
        reduced, scale = self.reduce(vec)
        return [Fraction(reduced[r], scale) for r in coord_rows]


class QuotientSpace:
    """F^n modulo the span of given relation vectors, with canonical coords.

    Quotient coordinates are taken at the non-pivot positions of the column
    echelon form of the relation set: they are the entries of the unique
    representative that vanishes on the pivot rows, so they do not depend on
    the order of the relations.  Over Q the echelon is a RationalEchelon.
    """

    def __init__(self, ambient: int, relations, char: int):
        self.ambient = ambient
        self.char = char
        if char == 0:
            self._rational = RationalEchelon()
            for rel in relations:
                self._rational.insert(rel)
            pivot_rows = self._rational.pivot_rows
        else:
            echelon = []   # list of (pivot_row, vector with pivot 1)
            for rel in relations:
                vec = self._reduce([_fnorm(x, char) for x in rel], echelon, char)
                piv = next((i for i, x in enumerate(vec) if x != 0), None)
                if piv is None:
                    continue
                inv = _finv(vec[piv], char)
                echelon.append((piv, [_fnorm(x * inv, char) for x in vec]))
            self._echelon = echelon
            pivot_rows = {piv for piv, _ in echelon}
        self.coord_rows = [i for i in range(ambient) if i not in pivot_rows]
        self.dim = len(self.coord_rows)

    @staticmethod
    def _reduce(vec, echelon, char):
        for piv, basis_vec in echelon:
            if vec[piv] != 0:
                f = vec[piv]
                vec = [_fnorm(x - f * y, char) for x, y in zip(vec, basis_vec)]
        return vec

    def project(self, vec):
        """Canonical quotient coordinates of an ambient vector."""
        if len(vec) != self.ambient:
            raise ValueError("ambient dimension mismatch")
        if self.char == 0:
            return self._rational.project(vec, self.coord_rows)
        vec = self._reduce([_fnorm(x, self.char) for x in vec], self._echelon, self.char)
        return [vec[i] for i in self.coord_rows]

    def induced_matrix(self, m, target: "QuotientSpace"):
        """Matrix of an ambient-level map between two quotients."""
        # The j-th quotient basis vector is represented by the unit vector at
        # coord_rows[j]; its image is that column of m.
        cols = [target.project([row[r] for row in m]) for r in self.coord_rows]
        return [[cols[j][i] for j in range(self.dim)] for i in range(target.dim)]


# ---------------------------------------------------------------------------
# finitely presented abelian groups
# ---------------------------------------------------------------------------

# Integer lattices for yes/no questions (membership, index one) are kept as a
# column echelon on sparse vectors: a dict from pivot row to a lattice vector
# (dict row -> nonzero entry) whose first nonzero entry, the pivot, is
# positive and sits at that row.  Building one is a gcd reduction with no
# transforms; vectors are never mutated, so a shallow copy of the dict can be
# extended without touching the original.

def _sparse(vec) -> dict[int, int]:
    return {i: int(x) for i, x in enumerate(vec) if x}


def _combine(a: int, x: dict[int, int], b: int, y: dict[int, int]) -> dict[int, int]:
    """a * x + b * y on sparse vectors (no zero entries are stored)."""
    if a == 1:
        out = dict(x)
    else:
        out = {i: a * v for i, v in x.items()} if a else {}
    for i, v in y.items():
        w = out.get(i, 0) + b * v
        if w:
            out[i] = w
        else:
            out.pop(i, None)
    return out


def _lattice_insert(lattice: dict[int, dict[int, int]], vec: dict[int, int]) -> None:
    """Add vec to the lattice, keeping the echelon (unimodular column ops)."""
    while vec:
        row = min(vec)
        basis = lattice.get(row)
        if basis is None:
            lattice[row] = vec if vec[row] > 0 else {i: -v for i, v in vec.items()}
            return
        a, b = basis[row], vec[row]
        q, r = divmod(b, a)
        if r == 0:
            vec = _combine(1, vec, -q, basis)
            continue
        # [basis, vec] -> [x basis + y vec, (b/g) basis - (a/g) vec]: a
        # unimodular change of generators with pivots g and 0.
        g, x, y = _ext_gcd(a, b)
        lattice[row] = _combine(x, basis, y, vec)
        vec = _combine(b // g, basis, -(a // g), vec)


def _lattice_contains(lattice: dict[int, dict[int, int]], vec: dict[int, int]) -> bool:
    while vec:
        row = min(vec)
        basis = lattice.get(row)
        if basis is None:
            return False
        q, r = divmod(vec[row], basis[row])
        if r:
            return False
        vec = _combine(1, vec, -q, basis)
    return True


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x a + y b = g = gcd(a, b) > 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


class PresentedGroup:
    """Z^gens modulo the integer column span of a relation matrix."""

    def __init__(self, gens: int, relations: list[IntVector]):
        self.gens = gens
        for rel in relations:
            if len(rel) != gens:
                raise ValueError("relation length mismatch")
        self.relations = [list(map(int, rel)) for rel in relations]
        self._rel_matrix = None
        self._invariants = None
        self._lattice = None
        self._trivial = None

    @property
    def relation_matrix(self) -> IntMatrix:
        """The relations as columns (dense; built for the Smith form)."""
        if self._rel_matrix is None:
            self._rel_matrix = from_columns(self.relations, self.gens)
        return self._rel_matrix

    def _echelon(self) -> dict[int, dict[int, int]]:
        """Integer column echelon of the relation lattice (built once)."""
        if self._lattice is None:
            lattice: dict[int, dict[int, int]] = {}
            for rel in self.relations:
                _lattice_insert(lattice, _sparse(rel))
            self._lattice = lattice
        return self._lattice

    def invariants(self) -> tuple[int, tuple[int, ...]]:
        """(free rank, torsion divisors > 1 in divisibility order)."""
        if self._invariants is None:
            if not self.relations:
                self._invariants = (self.gens, ())
            else:
                snf = smith_normal_form(self.relation_matrix)
                diag = [d for d in snf.diagonal if d != 0]
                torsion = tuple(d for d in diag if d > 1)
                self._invariants = (self.gens - len(diag), torsion)
        return self._invariants

    @property
    def free_rank(self) -> int:
        return self.invariants()[0]

    @property
    def torsion(self) -> tuple[int, ...]:
        return self.invariants()[1]

    def is_trivial(self) -> bool:
        if self._trivial is None:
            if self._invariants is not None:
                free, tors = self._invariants
                self._trivial = free == 0 and not tors
            else:
                # The relations span Z^gens iff their echelon has a unit
                # pivot in every row.
                lattice = self._echelon()
                self._trivial = len(lattice) == self.gens and all(
                    vec[row] == 1 for row, vec in lattice.items())
        return self._trivial

    def is_zero_class(self, vec: IntVector) -> bool:
        if len(vec) != self.gens:
            raise ValueError("coordinate length mismatch")
        return _lattice_contains(self._echelon(), _sparse(vec))

    def in_subgroup(self, span: list[IntVector], vec: IntVector) -> bool:
        """Whether the class of vec lies in the subgroup generated by the
        classes of span."""
        if len(vec) != self.gens:
            raise ValueError("coordinate length mismatch")
        lattice = dict(self._echelon())
        for v in span:
            _lattice_insert(lattice, _sparse(v))
        return _lattice_contains(lattice, _sparse(vec))

    def classes_equal(self, a: IntVector, b: IntVector) -> bool:
        return self.is_zero_class([x - y for x, y in zip(a, b)])

    def tensor(self, char: int) -> QuotientSpace:
        """The group tensored with F: a quotient vector space over F.

        char 0 keeps only the free part; char p also keeps Z/p^k summands.
        """
        return QuotientSpace(self.gens, self.relations, char)

    # -- SNF-normalized coordinates (deterministic reporting basis) --------

    def _normal_data(self):
        if not hasattr(self, "_normal_cache"):
            diag = [0] * self.gens
            if not self.relations:
                u = uinv = identity(self.gens)
            else:
                snf = smith_normal_form(self.relation_matrix)
                u, uinv = snf.u, snf.uinv
                for i in range(min(self.gens, len(self.relations))):
                    diag[i] = snf.s[i][i]
            free = [i for i in range(self.gens) if diag[i] == 0]
            torsion = [(i, diag[i]) for i in range(self.gens) if diag[i] > 1]
            self._normal_cache = (u, uinv, free, torsion)
        return self._normal_cache

    def normal_basis_size(self) -> int:
        _, _, free, torsion = self._normal_data()
        return len(free) + len(torsion)

    def normalized_coords(self, vec: IntVector) -> list[int]:
        """Coordinates in the SNF basis: free entries, then torsion entries
        reduced mod their divisors.  Canonical for each class."""
        u, _, free, torsion = self._normal_data()
        y = mat_vec(u, list(vec))
        return [y[i] for i in free] + [y[i] % d for i, d in torsion]

    def normalized_representative(self, j: int) -> IntVector:
        """Generator coordinates of the j-th normalized basis vector."""
        _, uinv, free, torsion = self._normal_data()
        index = (free + [i for i, _ in torsion])[j]
        return [uinv[r][index] for r in range(self.gens)]


def solve_modulo(span: list[IntVector], group: PresentedGroup, target: IntVector) -> IntVector | None:
    """Coefficients a with sum a_i span_i = target modulo group relations.

    Returns None when target is not in the subgroup generated by span.
    """
    gens = group.gens
    if len(target) != gens:
        raise ValueError("target length mismatch")
    cols = [list(v) for v in span] + [list(r) for r in group.relations]
    matrix = from_columns(cols, gens)
    sol = solve_integer(matrix, list(target))
    if sol is None:
        return None
    return sol[: len(span)]


def subgroup_presentation(span: list[IntVector], group: PresentedGroup):
    """Present the subgroup of `group` generated by `span` classes.

    Returns (generators, presented) where generators are ambient coordinate
    vectors (one per abstract generator) and `presented` is the subgroup as an
    abstract PresentedGroup: relations are all integer combinations of the
    generators that land in the relation lattice of the ambient group.
    """
    t = len(span)
    gens = group.gens
    if t == 0:
        return [], PresentedGroup(0, [])
    cols = [list(v) for v in span] + [list(r) for r in group.relations]
    matrix = from_columns(cols, gens)
    kernel = integer_kernel(matrix)
    relations = [vec[:t] for vec in kernel]
    relations = [rel for rel in relations if any(x != 0 for x in rel)]
    return [list(v) for v in span], PresentedGroup(t, relations)
