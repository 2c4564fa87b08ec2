"""Test oracle: the dense column echelon over a field.

Each basis vector is a full-length list, kept sorted by its pivot row, the
row of its first nonzero entry, and every vector is reduced against all of
them in that order.  `rzero.linalg.DenseAdapter` reaches the sparse
`FieldEchelon` with row r keyed as -r and reduces fully, so its stored
vectors, its `None` answers, its pivot rows and its projections must equal
this one's exactly.  `QuotientSpace` is kept here as it reads this
echelon, to compare with the package's, and `field_kernel` for the
reference degree cocycle (`cocycle_oracle.py`).
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

from rzero.linalg import _fnorm


class FieldEchelon:
    """Column echelon of a subspace of F^n, F = Q (char 0) or F_p (char p).

    Basis vectors are kept sorted by pivot row, the row of their first
    nonzero entry, so one pass in that order reduces a vector to zero on
    every pivot row.  Over Q the echelon is fraction-free: each basis vector
    is a primitive integer vector with a positive pivot, and a reduced vector
    comes with the scale it was multiplied by, so Fractions appear only when
    a caller divides it out.  Over F_p entries lie in [0, p) and each pivot
    is 1.
    """

    def __init__(self, char: int):
        self.char = char
        self.basis: list[tuple[int, list[int]]] = []  # (pivot row, vector)

    @property
    def pivot_rows(self) -> set[int]:
        return {piv for piv, _ in self.basis}

    def reduce(self, vec) -> tuple[list[int], int]:
        """(w, scale) with w = scale * vec - (span element), zero on the
        pivot rows; the scale is 1 over F_p.

        Over Q, Fraction entries are cleared by the common denominator first.
        """
        p = self.char
        if p:
            vec = [int(x) % p for x in vec]
            for piv, basis in self.basis:
                c = vec[piv]
                if c:
                    vec = [(x - c * y) % p for x, y in zip(vec, basis)]
            return vec, 1
        scale = 1
        fractions = [x for x in vec if type(x) is not int]
        if fractions:
            scale = math.lcm(*(x.denominator for x in fractions))
            vec = [int(x * scale) for x in vec]
        for piv, basis in self.basis:
            c = vec[piv]
            if c:
                pval = basis[piv]
                if pval == 1:
                    vec = [x - c * y for x, y in zip(vec, basis)]
                else:
                    vec = [x * pval - c * y for x, y in zip(vec, basis)]
                    scale *= pval
        return vec, scale

    def insert(self, vec) -> list[int] | None:
        """Add a vector to the spanned subspace.

        Returns the stored basis vector (vec reduced and normalized), or None
        when vec already lies in the span.
        """
        vec, _ = self.reduce(vec)
        piv = next((i for i, x in enumerate(vec) if x != 0), None)
        if piv is None:
            return None
        if self.char:
            inv = pow(vec[piv], -1, self.char)
            if inv != 1:
                vec = [x * inv % self.char for x in vec]
        else:
            g = 0
            for x in vec:
                g = math.gcd(g, x)
            if vec[piv] < 0:
                g = -g
            if g != 1:
                vec = [x // g for x in vec]
        bisect.insort(self.basis, (piv, vec), key=lambda item: item[0])
        return vec

    def project(self, vec, coord_rows) -> list:
        """Entries at coord_rows of the representative of vec that vanishes
        on the pivot rows (Fractions over Q, ints in [0, p) over F_p)."""
        reduced, scale = self.reduce(vec)
        if self.char:
            return [reduced[r] for r in coord_rows]
        return [Fraction(reduced[r], scale) for r in coord_rows]


def field_kernel(a, char: int):
    """Basis of the kernel of a over the field (list of vectors).

    One vector per free (non-pivot) column of the reduced row echelon form:
    1 at that column, its last nonzero entry, and 0 at every other free
    column.  The rows go into one `FieldEchelon`; at a pivot column the
    vectors hold the unit vector there, reduced to vanish on the pivot
    columns, read at the free columns.
    """
    ncols = len(a[0]) if a else 0
    if ncols == 0:
        return []
    echelon = FieldEchelon(char)
    for row in a:
        echelon.insert(row)
    pivots = echelon.pivot_rows
    free = [c for c in range(ncols) if c not in pivots]
    basis = [[_fnorm(0, char)] * ncols for _ in free]
    for pc in sorted(pivots):
        unit = [0] * ncols
        unit[pc] = 1
        for vec, x in zip(basis, echelon.project(unit, free)):
            vec[pc] = x
    for vec, fc in zip(basis, free):
        vec[fc] = _fnorm(1, char)
    return basis


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
        self._echelon = FieldEchelon(char)
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
