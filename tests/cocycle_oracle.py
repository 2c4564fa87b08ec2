"""Reference cocycles for the tests.

The degree cocycle locates the probe by a Fraction Gauss-Jordan solve on
every n-simplex, as `rzero.modes.degree_cocycle` did before it moved to
integer Cramer numerators; it raises the same `ProbeError` messages in the
same simplex order.  The winding cocycle finds each crossing point of an
edge image with the ray's line in Fractions, as `rzero.modes.winding_cocycle`
did before it read the signs of integer cross and dot products; it raises
the same `RayError`.
"""

from fractions import Fraction

from echelon_oracle import field_kernel
from rzero.linalg import field_solve
from rzero.modes import ProbeError, RayError


def _affine_preimage(values, point):
    """Barycentric solution of sum l_j w_j = point, sum l_j = 1, or None.

    Returns (solution, unique); `unique` is False when the affine system is
    degenerate, in which case `solution` says whether any solution exists.
    """
    k = len(values)
    n = len(point)
    if n == 2 and k == 3:
        a, b, c = values
        det = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
        if det != 0:
            px, py = point[0] - a[0], point[1] - a[1]
            l1 = (px * (c[1] - a[1]) - (c[0] - a[0]) * py) / det
            l2 = ((b[0] - a[0]) * py - px * (b[1] - a[1])) / det
            return [1 - l1 - l2, l1, l2], True
    rows = []
    rhs = []
    for i in range(n):
        rows.append([Fraction(values[j][i]) for j in range(k)])
        rhs.append(Fraction(point[i]))
    rows.append([Fraction(1)] * k)
    rhs.append(Fraction(1))
    sol = field_solve(rows, rhs, 0)
    if sol is None:
        return None, True
    kern = field_kernel(rows, 0)
    return sol, not kern


def _ordered_det_sign(values) -> int:
    """Sign of det of the affine map's linear part in the sorted-vertex chart."""
    base = values[0]
    n = len(base)
    m = [[Fraction(values[j + 1][i] - base[i]) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    sign = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        det *= m[c][c]
        for r in range(c + 1, n):
            fct = m[r][c] / m[c][c]
            m[r] = [x - fct * y for x, y in zip(m[r], m[c])]
    det *= sign
    return 1 if det > 0 else -1 if det < 0 else 0


def oracle_degree_cocycle(f, probe) -> dict:
    probe = tuple(Fraction(x) for x in probe)
    cocycle = {}
    for simplex in f.complex.simplices_of_dim(f.n):
        values = [f.values[v] for v in simplex]
        sol, unique = _affine_preimage(values, probe)
        if not unique:
            if sol is not None:
                raise ProbeError(f"probe degenerate on simplex {simplex}")
            continue
        if sol is None:
            continue
        if any(x == 0 for x in sol):
            if all(x >= 0 for x in sol):
                raise ProbeError(f"probe hits a face of simplex {simplex}")
            continue
        if all(x > 0 for x in sol):
            sign = _ordered_det_sign(values)
            if sign == 0:
                raise ProbeError(f"degenerate simplex {simplex} covers the probe")
            cocycle[simplex] = sign
    return cocycle


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def oracle_winding_cocycle(level, f, ray) -> dict:
    ray = tuple(Fraction(x) for x in ray)
    crosses = {}
    for v in level.vertices:
        val = f.values[v]
        c = _cross(ray, val)
        if c == 0 and _dot(ray, val) > 0:
            raise RayError(f"value of vertex {v} lies on the ray")
        crosses[v] = c
    cocycle = {}
    for u, v in level.edges():
        cu, cv = crosses[u], crosses[v]
        if cu == 0 or cv == 0 or (cu > 0) == (cv > 0):
            continue
        t = cu / (cu - cv)
        point = tuple(f.values[u][i] + t * (f.values[v][i] - f.values[u][i]) for i in range(2))
        if _dot(ray, point) <= 0:
            continue
        cocycle[(u, v)] = 1 if cu < 0 else -1
    return cocycle
