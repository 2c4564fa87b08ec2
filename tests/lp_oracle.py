"""Test oracle: exact LP by basic-point enumeration, and the norm LPs.

The polytopes here live in a handful of dimensions, so a vertex of the
feasible region is found by enumerating active constraint sets and solving
the square systems over the rationals.  Exponential in general, adequate
for the small simplices the tests draw, and independent of the face search
in `rzero.normmin`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def _solve_square(a, b):
    """Unique solution of a (possibly overdetermined) consistent system,
    or None when it is inconsistent or underdetermined."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    aug = [row[:] + [bv] for row, bv in zip(a, b)]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        scale = aug[r][c]
        aug[r] = [x / scale for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if any(aug[i][ncols] != 0 for i in range(r, nrows)) or len(pivots) < ncols:
        return None
    x = [Fraction(0)] * ncols
    for row_idx, c in enumerate(pivots):
        x[c] = aug[row_idx][ncols]
    return x


def _rank(rows) -> int:
    work = [row[:] for row in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, nrows) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(rank + 1, nrows):
            if work[i][c] != 0:
                f = work[i][c] / work[rank][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def lp_minimize(objective, a_ub, b_ub, a_eq, b_eq):
    """Exact minimum of objective . x over {a_ub x <= b_ub, a_eq x = b_eq}
    as (value, point), or None when the region has no vertex.

    Assumes the minimum, if the region is nonempty, is attained at a vertex
    (true for the pointed polytopes used here).
    """
    objective = [Fraction(x) for x in objective]
    a_ub = [[Fraction(x) for x in row] for row in a_ub]
    b_ub = [Fraction(x) for x in b_ub]
    a_eq = [[Fraction(x) for x in row] for row in a_eq]
    b_eq = [Fraction(x) for x in b_eq]
    need = max(len(objective) - (_rank(a_eq) if a_eq else 0), 0)
    best = None
    for active in combinations(range(len(a_ub)), need):
        x = _solve_square(a_eq + [a_ub[i] for i in active],
                          b_eq + [b_ub[i] for i in active])
        if x is None:
            continue
        if any(sum(c * xv for c, xv in zip(row, x)) > bound
               for row, bound in zip(a_ub, b_ub)):
            continue
        value = sum(c * xv for c, xv in zip(objective, x))
        if best is None or value < best[0]:
            best = (value, x)
    return best


def lp_norm_min(values, norm: str) -> Fraction:
    """Minimum of |g| over the simplex with the given vertex values, for
    l1 (variables λ, u_1..u_n; u_i >= ±g_i) or linf (variables λ, z;
    z >= ±g_i), with λ >= 0 and sum λ = 1."""
    k, n = len(values), len(values[0])
    extra = 1 if norm == "linf" else n
    dim = k + extra
    a_ub = []
    for j in range(k):
        row = [0] * dim
        row[j] = -1
        a_ub.append(row)
    for i in range(n):
        for sign in (1, -1):
            row = [sign * Fraction(values[j][i]) for j in range(k)] + [0] * extra
            row[k if norm == "linf" else k + i] = -1
            a_ub.append(row)
    objective = [0] * k + [1] * extra
    a_eq = [[1] * k + [0] * extra]
    result = lp_minimize(objective, a_ub, [0] * len(a_ub), a_eq, [1])
    if result is None:  # cannot happen: the region is a nonempty polytope
        raise RuntimeError("norm LP unexpectedly infeasible")
    return result[0]


def in_hull(point, values) -> bool:
    """Whether the rational point is a convex combination of `values`."""
    k, n = len(values), len(point)
    a_eq = [[Fraction(values[j][i]) for j in range(k)] for i in range(n)]
    a_eq.append([1] * k)
    b_eq = list(point) + [1]
    a_ub = [[-1 if col == j else 0 for col in range(k)] for j in range(k)]
    return lp_minimize([0] * k, a_ub, [0] * k, a_eq, b_eq) is not None
