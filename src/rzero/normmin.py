"""Exact minimization of |f| over a closed simplex for affine f.

On a simplex with vertex values w_1 .. w_k the map is g(λ) = sum λ_j w_j.
The minimum of |g| is attained in the relative interior of some face, so
one search serves all three norms: the vertices, then the faces by
increasing dimension, each offering its interior candidates (every λ > 0).

- l2: the unique solution of the face's critical system
  [2G 1; 1ᵀ 0] (λ, μ) = (0, 1), G the Gram matrix; there |g|² = -μ/2.
- l1, linf: the basic solutions of the face's norm LP, with variables λ
  and z (linf) or u_1 .. u_n (l1) and rows ±g_i - z <= 0 or
  ±g_i - u_i <= 0 (i-major, + first).  Every choice of `size + extra - 1`
  rows, in lexicographic order, is solved with sum λ = 1; a candidate is
  a unique solution satisfying every row.  An edge's candidates are
  visited by increasing t = λ_2.

Tie rule: the best point is replaced only on a strict improvement, so a
vertex beats any face and a lower-dimensional face a higher one.
`star_subdivide` relies on it: an argmin interior to a proper face is left
to that face's own visit.  A floor certificate settles most calls first:
|g_i| is at least 0 where the i-th vertex values change sign and their
smallest magnitude otherwise, and a vertex attaining the norm of that
floor is the minimum.

Values are scaled to integers by the LCM of their denominators, which
moves no argmin; the systems (at most 7 x 7) are solved fraction-free and
Fractions are built only for the chosen point.  The l2 minimum is returned
as the square root of a rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import lcm

from .exact import ExactRadius

NORMS = ("l1", "l2", "linf")

# |v| of an integer vector, squared for l2 so that it stays an integer.
_MEASURE = {
    "l1": lambda v: sum(abs(x) for x in v),
    "l2": lambda v: sum(x * x for x in v),
    "linf": lambda v: max((abs(x) for x in v), default=0),
}


@dataclass(frozen=True)
class NormMin:
    minimum: ExactRadius
    barycentric: tuple[Fraction, ...]
    at_vertex: bool


def vector_norm(vector, norm: str) -> ExactRadius:
    """Exact |v| for a rational vector under l1, l2 or linf."""
    coords = [Fraction(x) for x in vector]
    if norm == "l1":
        return ExactRadius.of(sum(abs(x) for x in coords))
    if norm == "linf":
        return ExactRadius.of(max((abs(x) for x in coords), default=Fraction(0)))
    if norm == "l2":
        return ExactRadius.sqrt(sum(x * x for x in coords))
    raise ValueError(f"unknown norm {norm!r}")


def simplex_norm_min(values, norm: str) -> NormMin:
    """Exact minimum of |g| over the closed simplex, with one minimizer.

    `values` lists one rational n-vector per simplex vertex.  The reported
    minimizer is deterministic; `at_vertex` is True iff some vertex attains
    the minimum (equality tested exactly).
    """
    if norm not in NORMS:
        raise ValueError(f"unknown norm {norm!r}")
    values = [tuple(Fraction(x) for x in v) for v in values]
    if not values:
        raise ValueError("a simplex needs at least one vertex")
    n = len(values[0])
    if any(len(v) != n for v in values):
        raise ValueError("vertex values have mixed dimensions")
    k = len(values)
    scale = lcm(*(x.denominator for v in values for x in v))
    ints = [[x.numerator * (scale // x.denominator) for x in v] for v in values]

    measure = _MEASURE[norm]
    norms = [measure(w) for w in ints]
    vertex = norms.index(min(norms))
    # The best value so far as a fraction num / den of scaled units, with
    # its face and the numerators of λ over that den.
    best = (norms[vertex], 1, (vertex,), (1,))
    floor = [0 if min(c) <= 0 <= max(c) else min(map(abs, c)) for c in zip(*ints)]
    if measure(floor) < best[0]:
        for size in range(2, k + 1):
            for face in combinations(range(k), size):
                for value, den, lam in _candidates(ints, face, n, norm):
                    if value * best[1] < best[0] * den:
                        best = (value, den, face, lam)

    value, den, face, lam = best
    bary = [Fraction(0)] * k
    for j, num in zip(face, lam):
        bary[j] = Fraction(num, den)
    if norm == "l2":
        minimum = ExactRadius.sqrt(Fraction(value, den * scale * scale))
    else:
        minimum = ExactRadius.of(Fraction(value, den * scale))
    return NormMin(minimum, tuple(bary), len(face) == 1)


def _candidates(ints, face, n, norm):
    """(value, den, λ numerators) of the candidates interior to `face`, in
    visiting order; the value is |g| (squared for l2) times den."""
    size = len(face)
    if norm == "l2":
        gram = [[2 * sum(a * b for a, b in zip(ints[i], ints[j])) for j in face] + [1, 0]
                for i in face]
        solution = _solve(gram + [[1] * size + [0, 1]])
        if solution is not None:
            sol, det = solution
            if all(x > 0 for x in sol[:size]):
                yield -sol[size], 2 * det, [2 * x for x in sol[:size]]
        return

    extra = 1 if norm == "linf" else n
    rows = []
    for i in range(n):
        slack = [0] * extra
        slack[0 if norm == "linf" else i] = -1
        for sign in (1, -1):
            rows.append([sign * ints[j][i] for j in face] + slack)
    found = []
    for active in combinations(rows, size + extra - 1):
        solution = _solve([[1] * size + [0] * extra + [1]] + [row + [0] for row in active])
        if solution is None:
            continue
        sol, det = solution
        if all(x > 0 for x in sol[:size]) and all(
            sum(a * x for a, x in zip(row, sol)) <= 0 for row in rows
        ):
            found.append((sum(sol[size:]), det, sol[:size]))
    if size == 2:
        found.sort(key=cmp_to_key(lambda a, b: a[2][1] * b[1] - b[2][1] * a[1]))
    yield from found


def _solve(augmented):
    """Unique solution of the square integer system [A | b] as (numerators,
    den) with den > 0, or None when A is singular.

    Fraction-free (Bareiss) Gauss-Jordan: after the step on column c every
    entry is a minor of the input, so the division by the previous pivot is
    exact, and at the end the matrix is ±det(A) [I | x].  Rows are
    replaced, never changed in place.
    """
    m = list(augmented)
    size = len(m)
    prev = 1
    for c in range(size):
        pivot = next((r for r in range(c, size) if m[r][c]), None)
        if pivot is None:
            return None
        m[c], m[pivot] = m[pivot], m[c]
        top = m[c]
        p = top[c]
        for r in range(size):
            if r != c:
                row = m[r]
                f = row[c]
                m[r] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    sign = 1 if prev > 0 else -1
    return [sign * row[size] for row in m], sign * prev
