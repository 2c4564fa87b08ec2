"""Exact minimization of |f| over a closed simplex for affine f.

On a simplex with vertex values w_1 .. w_k the map is g(λ) = sum λ_j w_j.
The minimum of |g| is attained in the relative interior of some face, so
one search serves all three norms: the vertices, then the faces by
increasing dimension, each offering its interior candidates (every λ > 0).
One function searches one face's interior (`interior_min`); both
`simplex_norm_min` and the filtration's faces-first minima
(`filtration._simplex_minima`) call it.

- Edges, in closed form (`_edge_min`), with g(t) = a + t·d on t in (0, 1):
  l2 has the one candidate t* = -a·d / |d|²; l1 has the kinks at the
  zeros of the g_i; linf has the pairwise crossings of the lines ±g_i.
  The edge offers the leftmost of its candidates of least |g|.
- l2, larger faces: the unique solution of the face's critical system
  [2G 1; 1ᵀ 0] (λ, μ) = (0, 1), G the Gram matrix; there |g|² = -μ/2.
- l1, linf, larger faces: the basic solutions of the face's norm LP, with
  variables λ and z (linf) or u_1 .. u_n (l1) and rows ±g_i - z <= 0 or
  ±g_i - u_i <= 0 (i-major, + first).  Every choice of `size + extra - 1`
  rows, in lexicographic order, is solved with sum λ = 1; a candidate is
  a unique solution satisfying every row.  A row that cannot be active
  at a point with every λ > 0 (its ±w_i are all <= 0, not all 0) is left
  out of the choices first, which drops only row sets without a
  candidate.
- l1, linf, faces of n + 1 vertices: any n + 1 active rows (linf) or all
  2n (l1) hold both rows of some coordinate, which forces the slack to 0
  and then, by feasibility, all of g to 0.  So the one candidate is the
  zero of g, from one (n+1) x (n+1) Cramer system [1ᵀ; W] λ = (1, 0); the
  row sets are searched only when that system is singular.

Tie rule: the best point is replaced only on a strict improvement, so a
vertex beats any face, a lower-dimensional face a higher one, and on an
edge the smallest t wins.  `star_subdivide` relies on it: an argmin
interior to a proper face F is the point F's own search returns (F's faces
come in the same relative order, and scaling moves no candidate), so the
subdivider stars F there with no second search.  Floor
certificates (`_floor`) prune the search: on a face, |g_i| is at least 0
where the face's i-th vertex values change sign and their smallest
magnitude otherwise.  When the floor of the whole simplex is attained by a
vertex, that vertex is the minimum; the subdivider decides this on its
own vertex records before it calls `simplex_norm_min`.  A face whose floor
is no smaller than the best so far is skipped, since none of its
candidates could strictly improve on it.

Values are scaled to integers by the LCM of their denominators, which
moves no argmin (`scaled`); integer input is taken as it is.  The systems
(at most 7 x 7) are solved fraction-free (`linalg.solve_square`).  The
argmin is returned as its face and integer weights; its barycentric
`Fraction`s, and `NormMin.minimum`, an `ExactRadius` (the square root of a
rational for l2), are built only when read.  `norm_keys`, `norm_key` and
`norm_radius` give the same exact norms for single vectors: the vertex
norms of the filtration, ranked as integers over one denominator from the
map's integer points (den, numerators), and the probe bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .exact import ExactRadius
from .linalg import solve_square

NORMS = ("l1", "l2", "linf")

# |v| of an integer vector, squared for l2 so that it stays an integer.
_MEASURE = {
    "l1": lambda v: sum(map(abs, v)),
    "l2": lambda v: sum(x * x for x in v),
    "linf": lambda v: max(map(abs, v), default=0),
}


def scaled(vectors) -> tuple[int, list[list[int]]]:
    """(s, integer vectors): s is the LCM of the denominators of every entry
    (ints or Fractions, read without conversion), each vector times s."""
    scale = lcm(*[x.denominator for v in vectors for x in v])
    return scale, [[x.numerator * (scale // x.denominator) for x in v] for v in vectors]


def scaled_vector(vector) -> tuple[int, list[int]]:
    """One vector as an integer point (den, numerators), by `scaled`."""
    den, (nums,) = scaled([vector])
    return den, nums


def rescaled(points) -> tuple[int, list[list[int]]]:
    """(s, vectors) for integer points (den, numerators): s is the LCM of
    the dens, and each point's numerators are taken times s / den."""
    scale = lcm(*[den for den, _ in points])
    return scale, [nums if den == scale else [x * (scale // den) for x in nums]
                   for den, nums in points]


def norm_keys(points, norm: str) -> tuple[int, list[int]]:
    """(d, keys): the norms of integer points (den, numerators) as integers
    over one denominator, each |v| (|v|² for l2) being key / d, d the LCM
    of the dens (squared for l2)."""
    scale = lcm(*[den for den, _ in points])
    measure = _MEASURE[norm]
    if norm == "l2":
        return scale * scale, [measure(nums) * (scale // den) ** 2 for den, nums in points]
    return scale, [measure(nums) * (scale // den) for den, nums in points]


def norm_key(vector, norm: str) -> Fraction:
    """|v| as a rational, squared for l2: the key that orders vector norms,
    from which `norm_radius` builds the exact value."""
    den, nums = scaled_vector(vector)
    return Fraction(_MEASURE[norm](nums), den * den if norm == "l2" else den)


def norm_radius(key: Fraction, norm: str) -> ExactRadius:
    """The exact norm whose `norm_key` is `key`."""
    return ExactRadius.sqrt(key) if norm == "l2" else ExactRadius.of(key)


def vector_norm(vector, norm: str) -> ExactRadius:
    """Exact |v| for a rational vector under l1, l2 or linf."""
    if norm not in NORMS:
        raise ValueError(f"unknown norm {norm!r}")
    return norm_radius(norm_key(vector, norm), norm)


@dataclass(frozen=True)
class NormMin:
    """One minimizer of |g| over a simplex of `size` vertices: the point
    with integer weights lam / sum(lam), each > 0, on the vertices `face`
    (increasing indices), whether a vertex attains the minimum, and the
    minimum |g| (|g|² for l2) as the integers num / den."""

    size: int
    face: tuple[int, ...]
    lam: tuple[int, ...]
    at_vertex: bool
    norm: str
    num: int
    den: int

    @property
    def barycentric(self) -> tuple[Fraction, ...]:
        """The minimizer's barycentric coordinates, built on each read."""
        weights = dict(zip(self.face, self.lam))
        return tuple(Fraction(weights.get(j, 0), sum(self.lam)) for j in range(self.size))

    @property
    def minimum(self) -> ExactRadius:
        """The exact minimum, built on each read."""
        return norm_radius(Fraction(self.num, self.den), self.norm)


def _floor(rows) -> list[int]:
    """Per coordinate, a lower bound on |g_i| over the hull of `rows`: 0
    where the values change sign, else their least magnitude."""
    return [lo if (lo := min(c)) > 0 else -hi if (hi := max(c)) < 0 else 0 for c in zip(*rows)]


def simplex_norm_min(values, norm: str) -> NormMin:
    """Exact minimum of |g| over the closed simplex, with one minimizer.

    `values` lists one n-vector of ints or Fractions per simplex vertex.
    The reported minimizer is deterministic; `at_vertex` is True iff some
    vertex attains the minimum (equality tested exactly).
    """
    if norm not in NORMS:
        raise ValueError(f"unknown norm {norm!r}")
    if not values:
        raise ValueError("a simplex needs at least one vertex")
    n = len(values[0])
    if any(len(v) != n for v in values):
        raise ValueError("vertex values have mixed dimensions")
    k = len(values)
    if all(type(x) is int for v in values for x in v):
        scale, ints = 1, values
    else:
        scale, ints = scaled(values)

    measure = _MEASURE[norm]
    norms = [measure(w) for w in ints]
    vertex = norms.index(min(norms))
    # The best value so far as a fraction num / den of scaled units, with
    # its face and the numerators of λ over that den.
    best = (norms[vertex], 1, (vertex,), (1,))
    if measure(_floor(ints)) < norms[vertex]:
        for size in range(2, k + 1):
            for face in combinations(range(k), size):
                if measure(_floor([ints[j] for j in face])) * best[1] >= best[0]:
                    continue
                found = interior_min(ints, face, n, norm)
                if found is not None and found[0] * best[1] < best[0] * found[1]:
                    best = (found[0], found[1], face, found[2])

    value, den, face, lam = best
    den *= scale * scale if norm == "l2" else scale
    return NormMin(k, face, tuple(lam), len(face) == 1, norm, value, den)


def interior_min(ints, face, n, norm):
    """(value, den, λ numerators) of the first candidate of least |g|
    interior to `face` (indices into the integer vectors `ints`, at least
    two), or None when it has none; the value is |g| (squared for l2) times
    den.  Edges take the closed form, larger faces their candidates in
    visiting order."""
    if len(face) == 2:
        return _edge_min(ints[face[0]], ints[face[1]], norm)
    best = None
    for value, den, lam in _candidates(ints, face, n, norm):
        if best is None or value * best[1] < best[0] * den:
            best = (value, den, lam)
    return best


def _edge_min(a, b, norm):
    """(value, den, λ numerators) of the leftmost point of least |g| among
    the edge's candidates t = p / q in (0, 1), with den = q, or None when
    it has none; the value is |g| (squared for l2) times den."""
    d = [y - x for x, y in zip(a, b)]
    if norm == "l2":
        q = sum(x * x for x in d)
        p = -sum(x * y for x, y in zip(a, d))
        # |a + t d|² = (q |a|² - p²) / q at t = p / q.
        return (sum(x * x for x in a) * q - p * p, q, (q - p, p)) if 0 < p < q else None
    ts = [(-x, y) for x, y in zip(a, d) if y]       # the zeros of the g_i
    if norm == "linf":
        for i, j in combinations(range(len(d)), 2):
            for sign in (1, -1):                    # g_i = sign g_j
                if d[i] != sign * d[j]:
                    ts.append((sign * a[j] - a[i], d[i] - sign * d[j]))
    measure = _MEASURE[norm]
    best = None
    for p, q in ts:
        if q < 0:
            p, q = -p, -q
        if 0 < p < q:
            value = measure([q * x + p * y for x, y in zip(a, d)])
            if best is None or (value * best[1], p * best[1]) < (best[0] * q, best[2][1] * q):
                best = (value, q, (q - p, p))
    return best


def _candidates(ints, face, n, norm):
    """(value, den, λ numerators) of the candidates interior to `face`, a
    face of at least three vertices, in visiting order; the value is |g|
    (squared for l2) times den."""
    size = len(face)
    if norm == "l2":
        gram = [[2 * sum(a * b for a, b in zip(ints[i], ints[j])) for j in face] + [1, 0]
                for i in face]
        solution = solve_square(gram + [[1] * size + [0, 1]])
        if solution is not None:
            sol, det = solution
            if det < 0:
                sol, det = [-x for x in sol], -det
            if all(x > 0 for x in sol[:size]):
                yield -sol[size], 2 * det, [2 * x for x in sol[:size]]
        return

    if size == n + 1:
        # Every choice of n + 1 (linf) or 2n (l1) active rows holds both
        # rows of some coordinate i: the slack is 0 and g_i = 0, and then
        # every row holds only where g = 0.  So the one candidate is the
        # zero of g, and only a singular zero system leaves the row sets.
        solution = solve_square([[1] * size + [1]] + [[ints[j][i] for j in face] + [0]
                                                      for i in range(n)])
        if solution is not None:
            sol, det = solution
            if det < 0:
                sol, det = [-x for x in sol], -det
            if all(x > 0 for x in sol):
                yield 0, det, sol
            return

    extra = 1 if norm == "linf" else n
    rows = []
    for i in range(n):
        slack = [0] * extra
        slack[0 if norm == "linf" else i] = -1
        for sign in (1, -1):
            rows.append([sign * ints[j][i] for j in face] + slack)
    # An active row ±g_i - slack holds at a feasible point only where
    # ±g_i >= 0, which with every λ > 0 needs a vertex of the face with
    # ±w_i > 0, or the i-th values all 0; no other row is ever active.
    held = [row for row in rows
            if any(x > 0 for x in row[:size]) or not any(row[:size])]
    for active in combinations(held, size + extra - 1):
        solution = solve_square([[1] * size + [0] * extra + [1]] + [row + [0] for row in active])
        if solution is None:
            continue
        sol, det = solution
        if det < 0:
            sol, det = [-x for x in sol], -det
        if all(x > 0 for x in sol[:size]) and all(
            sum(a * x for a, x in zip(row, sol)) <= 0 for row in rows
        ):
            yield sum(sol[size:]), det, sol[:size]
