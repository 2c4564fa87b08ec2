"""Test oracle: the eager Smith normal form.

It runs the pivot rule and the operations of
`rzero.linalg.smith_normal_form`, and keeps u, u^-1, v and v^-1 up to date
as dense lists while it eliminates.  The package's form logs the same
operations and builds each transform from the log when it is first read,
so every field must agree with this one exactly.  `solve` reads an integer
solution of m x = b off the dense transforms; v^-1 is kept as the oracle
for the kernel coordinates of integral cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass

from rzero.linalg import IntMatrix, identity


def transpose(a: IntMatrix) -> IntMatrix:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


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


def solve(m: IntMatrix, b: list[int]) -> list[int] | None:
    """Some integer x with m x = b, as v z where s z = u b, from the dense
    transforms; None when there is none.  x is unique when m has full
    column rank."""
    snf = smith_normal_form(m)
    cols = len(m[0]) if m else 0
    z = [0] * cols
    for i, row in enumerate(snf.u):
        y = sum(x * c for x, c in zip(row, b))
        d = snf.s[i][i] if i < snf.rank else 0
        if d:
            if y % d:
                return None
            z[i] = y // d
        elif y:
            return None
    return [sum(x * c for x, c in zip(row, z)) for row in snf.v]
