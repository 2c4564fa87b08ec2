"""Reference norm minimizer for the tests: the unpruned face search.

The same search as `rzero.normmin.simplex_norm_min`, with no per-face floor
pruning, every input rebuilt as a Fraction, its own copy of the
fraction-free solver and the minimum built eagerly.  A face whose floor
cannot beat the best so far holds no candidate that replaces it, so the
pruned search must return exactly the same minimizer and minimum.
"""

from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import lcm

from rzero.exact import ExactRadius

_MEASURE = {
    "l1": lambda v: sum(abs(x) for x in v),
    "l2": lambda v: sum(x * x for x in v),
    "linf": lambda v: max((abs(x) for x in v), default=0),
}


def reference_norm_min(values, norm):
    """(minimum, barycentric, at_vertex) of |g| over the closed simplex."""
    values = [tuple(Fraction(x) for x in v) for v in values]
    n = len(values[0])
    k = len(values)
    scale = lcm(*(x.denominator for v in values for x in v))
    ints = [[x.numerator * (scale // x.denominator) for x in v] for v in values]

    measure = _MEASURE[norm]
    norms = [measure(w) for w in ints]
    vertex = norms.index(min(norms))
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
    return minimum, tuple(bary), len(face) == 1


def _candidates(ints, face, n, norm):
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
    den) with den > 0, or None when A is singular (Bareiss)."""
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
