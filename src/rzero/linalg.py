"""Exact integer and field linear algebra.

Integer matrices are plain lists of lists of Python ints; field matrices use
Fraction entries (characteristic 0) or ints reduced mod p.  The Smith normal
form defines the presentations: the invariants of a finitely generated
abelian group and its normalized basis (u and u^-1), integer kernels (v)
and lattice bases (u^-1).  Its pivots are chosen by minimal absolute value
(ties by position) to limit entry growth.  The elimination computes only
the diagonal form and logs its operations; each transform is built from the
log, on sparse rows, when a caller first reads it.  Every other integer
question is answered by one transform-free integer column echelon on sparse
vectors (`_lattice_insert`): whether a vector lies in a lattice (is a class
zero, is the group trivial) and, through `IntegerSolver`, the integer
coordinates of a vector in given vectors.  Small square integer systems
(the norm minimizer's faces, the degree cocycle's simplices) are solved
fraction-free by `solve_square`, in Cramer form.

Every field elimination in the package runs in one sparse column echelon
over Q or F_p, `FieldEchelon`: columns {key: entry} pivot on their highest
key, fraction-free over Q and with unit pivots mod p, and the echelon maps
its own input into the field.  The persistence reductions, the field
ranks along a filtration and the rational ranks of `rzero check` reduce a
column only until its highest key is no pivot.  Dense vectors reach it
through `DenseAdapter`, which keys row r as -r and reduces fully: it gives
the canonical quotient coordinates of `QuotientSpace` (the tensored field
modules), the elder-rule barcode sweep and the degree cocycle's degeneracy
test.  Dense Gauss-Jordan (`_row_echelon`) is left for `field_rank` (the
rank-formula oracle), `field_solve` (the sweep's direct-summand check) and
`FieldSolver`.
"""

from __future__ import annotations

import math
from functools import cached_property
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


def columns(a: IntMatrix) -> list[IntVector]:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def from_columns(cols: list[IntVector], rows: int) -> IntMatrix:
    if not cols:
        return [[] for _ in range(rows)]
    return [[col[i] for col in cols] for i in range(rows)]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

class SmithForm:
    """u * m * v = s with u, v unimodular, and uinv the inverse of u: the
    column lattice of m is that of uinv * s.

    Only s and rank are computed by the elimination.  It logs its row and
    column operations, and each transform is built from that log on first
    read: identity rows replayed as sparse rows, then made dense.  A caller
    pays only for the transforms it reads.
    """

    def __init__(self, s: IntMatrix, rank: int, row_ops: list, col_ops: list):
        self.s = s
        self.rank = rank
        self._rows = len(s)
        self._cols = len(s[0]) if s else 0
        self._row_ops = row_ops
        self._col_ops = col_ops

    @property
    def diagonal(self) -> list[int]:
        return [self.s[i][i] for i in range(min(self._rows, self._cols))]

    @cached_property
    def u(self) -> IntMatrix:
        return _dense(_replay(self._rows, self._row_ops, True))

    @cached_property
    def uinv(self) -> IntMatrix:
        return _dense(_replay(self._rows, self._row_ops, False), transposed=True)

    @cached_property
    def v(self) -> IntMatrix:
        return _dense(_replay(self._cols, self._col_ops, True), transposed=True)


# Logged operations: (_SWAP, i, j), (_ADD, src, dst, factor) for
# line[dst] += factor * line[src], and (_NEGATE, i).
_SWAP, _ADD, _NEGATE = 0, 1, 2


def _replay(n: int, ops: list, forward: bool) -> list[dict[int, int]]:
    """Apply logged operations to the n x n identity, as sparse rows.

    forward=True applies each operation to the rows: this gives u from the
    row log, and v transposed from the column log.  forward=False applies
    the inverse operation with the roles of the lines exchanged, which is
    the same operation on the other side of the inverse: an add becomes
    row[src] -= factor * row[dst].  This gives u^-1 transposed from the row
    log.
    """
    rows = [{i: 1} for i in range(n)]
    for op in ops:
        kind = op[0]
        if kind == _SWAP:
            _, i, j = op
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == _ADD:
            _, src, dst, factor = op
            if not factor:
                # The elimination logs adds of 0 times a line; skip them
                # rather than delete keys the target does not hold.
                continue
            if forward:
                target, source = rows[dst], rows[src]
            else:
                target, source, factor = rows[src], rows[dst], -factor
            for k, x in source.items():
                y = target.get(k, 0) + factor * x
                if y:
                    target[k] = y
                else:
                    del target[k]
        else:
            i = op[1]
            rows[i] = {k: -x for k, x in rows[i].items()}
    return rows


def _dense(rows: list[dict[int, int]], transposed: bool = False) -> IntMatrix:
    """The n x n dense matrix with the given sparse rows (or columns)."""
    n = len(rows)
    out = zeros(n, n)
    for i, row in enumerate(rows):
        for k, x in row.items():
            if transposed:
                out[k][i] = x
            else:
                out[i][k] = x
    return out


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Smith normal form u*m*v = s with u, v unimodular, and u^-1.

    The diagonal of s is nonnegative and satisfies the divisibility chain
    d1 | d2 | ... ; pivots are picked by minimal absolute value, ties broken
    by (row, column) position so the result is deterministic.  The
    elimination runs on m alone and logs its row and column operations; the
    transforms are built from the log when first read (see `SmithForm`).
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [row[:] for row in m]
    row_ops: list = []
    col_ops: list = []

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            row_ops.append((_SWAP, i, j))

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            col_ops.append((_SWAP, i, j))

    def add_row(src, dst, factor):
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
        row_ops.append((_ADD, src, dst, factor))

    def add_col(src, dst, factor):
        for row in a:
            x = row[src]
            if x:
                row[dst] += factor * x
        col_ops.append((_ADD, src, dst, factor))

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        row_ops.append((_NEGATE, i))

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
    return SmithForm(a, rank, row_ops, col_ops)


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


def solve_square(augmented) -> tuple[IntVector, int] | None:
    """Cramer form of the square integer system [A | b]: (numerators, det)
    with det = det(A) and x_i = numerators[i] / det, or None when A is
    singular.

    Fraction-free (Bareiss) Gauss-Jordan: after the step on column c every
    entry is a minor of the row-permuted input, so the division by the
    previous pivot is exact, and at the end the matrix is d [I | x] with d
    the determinant of the permuted A.  Rows are replaced, never changed in
    place.
    """
    m = list(augmented)
    size = len(m)
    prev = 1
    sign = 1
    for c in range(size):
        pivot = next((r for r in range(c, size) if m[r][c]), None)
        if pivot is None:
            return None
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        top = m[c]
        p = top[c]
        for r in range(size):
            if r != c:
                row = m[r]
                f = row[c]
                m[r] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    return [sign * row[size] for row in m], sign * prev


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


def _row_echelon(m, char: int, pivot_cols: int | None = None):
    """Reduced row echelon form, with pivots sought in the first pivot_cols
    columns (all of them by default); returns (rows, pivot column list)."""
    work = [[_fnorm(x, char) for x in row] for row in m]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols if pivot_cols is None else pivot_cols):
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

    Stores the row transform t with t a = r (r reduced), read off the
    echelon of [a | I] with its pivots in a's columns; a solve is then one
    matrix-vector product plus a consistency check on the zero rows.
    """

    def __init__(self, a, char: int):
        self.char = char
        self.rows = len(a)
        self.cols = len(a[0]) if self.rows else 0
        augmented = [list(row) + [int(i == j) for j in range(self.rows)]
                     for i, row in enumerate(a)]
        work, self.pivots = _row_echelon(augmented, char, self.cols)
        self.rank = len(self.pivots)
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


class FieldEchelon:
    """Sparse columns {key: entry} over Q (char 0) or F_p, reduced so that
    the stored columns have pairwise distinct pivots, their highest keys.

    Every column is first mapped into the field: over F_p its integer
    entries are taken mod p, and over Q its Fraction entries are cleared by
    their common denominator; zero entries are dropped.  A stored column
    over F_p has its entries in [1, p) and is 1 at its pivot; over Q it is a
    primitive integer column, positive at its pivot, so the reduction is
    fraction-free.
    """

    def __init__(self, char: int):
        self.char = char
        self.pivots: dict[int, dict[int, int]] = {}

    def copy(self) -> "FieldEchelon":
        """An echelon with the same stored columns, which neither changes,
        to take further columns on its own."""
        other = FieldEchelon(self.char)
        other.pivots = dict(self.pivots)
        return other

    def _field(self, col: dict) -> tuple[dict[int, int], int]:
        """col in the field, and the scale it was multiplied by (1 over
        F_p): the common denominator of its entries over Q."""
        p = self.char
        if p:
            return {k: x for k, v in col.items() if (x := v % p)}, 1
        for v in col.values():
            if type(v) is not int or not v:
                break
        else:
            return col, 1   # nonzero integers already, the common case
        scale = math.lcm(*(v.denominator for v in col.values()))
        return {k: int(v * scale) for k, v in col.items() if v}, scale

    def reduce(self, col: dict) -> dict[int, int]:
        """A nonzero multiple of col minus a combination of stored columns
        whose highest key is not a pivot, or {} when col is in their span."""
        col, _ = self._field(col)
        p = self.char
        while col:
            top = max(col)
            pivot = self.pivots.get(top)
            if pivot is None:
                break
            a, b = pivot[top], col[top]
            if not p:
                g = math.gcd(a, b)
                a, b = a // g, b // g
            col = _combine(a, col, -b, pivot, p)
        return col

    def reduce_fully(self, col: dict) -> tuple[dict[int, int], int]:
        """(w, scale) with w = scale * col minus a combination of stored
        columns, and w zero at every pivot; the scale is 1 over F_p.

        The pivots are taken by decreasing key: a stored column has no key
        above its pivot, so clearing one pivot leaves the higher ones clear.
        """
        col, scale = self._field(col)
        p = self.char
        for top in sorted(self.pivots, reverse=True):
            b = col.get(top)
            if b:
                pivot = self.pivots[top]
                a = pivot[top]
                if not p:
                    g = math.gcd(a, b)
                    a, b = a // g, b // g
                    scale *= a
                col = _combine(a, col, -b, pivot, p)
        return col, scale

    def insert(self, col: dict, full: bool = False) -> int | None:
        """Reduce col (fully, when asked) and store it; its pivot, or None
        when it lies in the span of the stored columns."""
        col = self.reduce_fully(col)[0] if full else self.reduce(col)
        if not col:
            return None
        top = max(col)
        p = self.char
        if p:
            inv = pow(col[top], -1, p)
            if inv != 1:
                col = {k: v * inv % p for k, v in col.items()}
        else:
            g = math.gcd(*col.values())
            if col[top] < 0:
                g = -g
            if g != 1:
                col = {k: v // g for k, v in col.items()}
        self.pivots[top] = col
        return top


class DenseAdapter:
    """Dense vectors in one `FieldEchelon`, row r keyed as -r, so that the
    pivot of a vector is its first nonzero row, and reduced fully: a stored
    vector is zero on every pivot row stored before it, and a projection
    reads the one representative that is zero on every pivot row."""

    def __init__(self, char: int):
        self.echelon = FieldEchelon(char)

    @property
    def pivot_rows(self) -> set[int]:
        return {-k for k in self.echelon.pivots}

    def insert(self, vec) -> list[int] | None:
        """Add a vector to the spanned subspace.

        Returns the stored basis vector (vec reduced and normalized), or None
        when vec already lies in the span.
        """
        top = self.echelon.insert({-r: x for r, x in enumerate(vec) if x}, full=True)
        if top is None:
            return None
        stored = [0] * len(vec)
        for k, x in self.echelon.pivots[top].items():
            stored[-k] = x
        return stored

    def project(self, vec, coord_rows) -> list:
        """Entries at coord_rows of the representative of vec that vanishes
        on the pivot rows (Fractions over Q, ints in [0, p) over F_p)."""
        reduced, scale = self.echelon.reduce_fully({-r: x for r, x in enumerate(vec) if x})
        if self.echelon.char:
            return [reduced.get(-r, 0) for r in coord_rows]
        return [Fraction(reduced.get(-r, 0), scale) for r in coord_rows]


class QuotientSpace:
    """F^n modulo the span of given relation vectors, with canonical coords.

    Quotient coordinates are taken at the non-pivot positions of the column
    echelon form of the relation set: they are the entries of the unique
    representative that vanishes on the pivot rows, so they do not depend on
    the order of the relations.
    """

    def __init__(self, ambient: int, relations, char: int):
        self.ambient = ambient
        self.char = char
        self._echelon = DenseAdapter(char)
        for rel in relations:
            self._echelon.insert(rel)
        pivot_rows = self._echelon.pivot_rows
        self.coord_rows = [i for i in range(ambient) if i not in pivot_rows]
        self.dim = len(self.coord_rows)

    def project(self, vec):
        """Canonical quotient coordinates of an ambient vector."""
        if len(vec) != self.ambient:
            raise ValueError("ambient dimension mismatch")
        return self._echelon.project(vec, self.coord_rows)

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


def _combine(a: int, x: dict[int, int], b: int, y: dict[int, int], p: int = 0) -> dict[int, int]:
    """a * x + b * y on sparse vectors (no zero entries are stored); modulo
    p when p is nonzero, for x already reduced mod p and a == 1."""
    if a == 1:
        out = dict(x)
    else:
        out = {i: a * v for i, v in x.items()} if a else {}
    for i, v in y.items():
        w = out.get(i, 0) + b * v
        if p:
            w %= p
        if w:
            out[i] = w
        else:
            out.pop(i, None)
    return out


def _lattice_insert(lattice: dict[int, dict[int, int]], vec: dict[int, int]) -> int | None:
    """Add vec to the lattice, keeping the echelon (unimodular column ops);
    the new pivot row, or None when vec is in the span of the lattice over
    Q, so that the pivot rows stay those of the span."""
    while vec:
        row = min(vec)
        basis = lattice.get(row)
        if basis is None:
            lattice[row] = vec if vec[row] > 0 else {i: -v for i, v in vec.items()}
            return row
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
    return None


def _lattice_reduce(lattice: dict[int, dict[int, int]], vec: dict[int, int],
                    rows: int | None = None) -> tuple[dict[int, int], dict[int, int]]:
    """(coords, rest): vec less the combination {pivot row: coefficient} of
    echelon vectors that exact division takes off it, from its first key
    on.  The division stops at the first key with no pivot or a remainder,
    or at the first key not below `rows` when given; rest is empty exactly
    when vec is the combination."""
    coords = {}
    while vec:
        row = min(vec)
        if rows is not None and row >= rows:
            break
        basis = lattice.get(row)
        if basis is None:
            break
        q, r = divmod(vec[row], basis[row])
        if r:
            break
        coords[row] = q
        vec = _combine(1, vec, -q, basis)
    return coords, vec


def _span_reduce(lattice: dict[int, dict[int, int]], vec: dict[int, int]) -> dict[int, int]:
    """A nonzero multiple of vec less a combination of echelon vectors, cut
    down while its first key is a pivot row: {} exactly when vec lies in
    the lattice's span over Q (fraction-free, as `FieldEchelon.reduce`)."""
    while vec:
        row = min(vec)
        basis = lattice.get(row)
        if basis is None:
            break
        a, b = basis[row], vec[row]
        g = math.gcd(a, b)
        vec = _combine(a // g, vec, -(b // g), basis)
    return vec


def _lattice_coords(lattice: dict[int, dict[int, int]],
                    vec: dict[int, int]) -> dict[int, int] | None:
    """vec in the echelon basis, {pivot row: coefficient}; None when vec is
    off the lattice."""
    coords, rest = _lattice_reduce(lattice, vec)
    return None if rest else coords


def _lattice_contains(lattice: dict[int, dict[int, int]], vec: dict[int, int]) -> bool:
    return not _lattice_reduce(lattice, vec)[1]


def _lattice_is_full(lattice: dict[int, dict[int, int]], dim: int) -> bool:
    """Whether the lattice is all of Z^dim: a unit pivot in every row."""
    return len(lattice) == dim and all(vec[row] == 1 for row, vec in lattice.items())


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


class IntegerSolver:
    """Integer solutions x of sum_j x_j vectors[j] = b, for vectors of
    length `rows`, from one integer echelon of the vectors.

    Vector j enters the echelon with a tag 1 at key rows + j, past every
    row, so each stored vector carries on the tag keys the combination of
    the inputs that it is.  A solve divides b exactly by the stored vectors
    on the rows; when the rows are cleared, what is left is -x on the tags.
    x is unique when the vectors are independent, and one solution
    otherwise.
    """

    def __init__(self, vectors, rows: int):
        self.rows = rows
        self.count = len(vectors)
        self._lattice: dict[int, dict[int, int]] = {}
        for j, vec in enumerate(vectors):
            if len(vec) != rows:
                raise ValueError("vector length mismatch in IntegerSolver")
            tagged = _sparse(vec)
            tagged[rows + j] = 1
            _lattice_insert(self._lattice, tagged)

    def solve(self, b) -> IntVector | None:
        """x with sum_j x_j vectors[j] = b, or None when b is off their
        lattice.  b is a dense vector, or sparse as {row: entry}."""
        if isinstance(b, dict):
            vec = b
        elif len(b) != self.rows:
            raise ValueError("dimension mismatch in IntegerSolver.solve")
        else:
            vec = _sparse(b)
        rows = self.rows
        _, rest = _lattice_reduce(self._lattice, vec, rows)
        if rest and min(rest) < rows:
            return None
        x = [0] * self.count
        for k, v in rest.items():
            x[k - rows] = -v
        return x


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

    @cached_property
    def _smith(self) -> SmithForm:
        """The Smith form of the relation matrix, shared by the invariants
        and the normalized coordinates."""
        return smith_normal_form(self.relation_matrix)

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
                diag = [d for d in self._smith.diagonal if d != 0]
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
                self._trivial = _lattice_is_full(self._echelon(), self.gens)
        return self._trivial

    def is_zero_class(self, vec: IntVector) -> bool:
        if len(vec) != self.gens:
            raise ValueError("coordinate length mismatch")
        return _lattice_contains(self._echelon(), _sparse(vec))

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
                snf = self._smith
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
