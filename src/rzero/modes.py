"""The distinguished classes of a map in each supported regime.

Three regimes reduce the obstruction data of f on a superlevel complex to
computable cohomology:

* signs (n = 1): the class of f on A is the assignment of a sign to each
  connected component; it extends over the ambient complex iff no ambient
  component sees both signs.
* circle (n = 2): classes of maps A -> nonzero plane are classified by a
  winding 1-cocycle, computed by counting signed crossings of edge-image
  segments with a generic ray from the origin.
* hopf (m <= n): the relative class of f on (X, A) lives in H^n(X, A; Z) and
  is realized by a piecewise-linear degree cocycle at a generic small probe
  point; extendability over X is obstructed exactly when the class is
  nonzero, and the ambient group of interest is ker(H^n(X,A) -> H^n(X)).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .complexes import PLMap, Subcomplex, connected_components
from .errors import InternalError, ModeError
from .exact import ExactRadius
from .linalg import DenseAdapter, solve_square
from .normmin import rescaled, scaled_vector, vector_norm
from .rng import RationalSampler

RETRY_BUDGET = 32


class Mode(str, enum.Enum):
    SIGNS = "signs"
    CIRCLE = "circle"
    HOPF = "hopf"

    def __str__(self):  # pragma: no cover - cosmetic
        return self.value


def applicable(mode: Mode, n: int, m: int) -> bool:
    if mode == Mode.SIGNS:
        return n == 1
    if mode == Mode.CIRCLE:
        return n == 2
    return m <= n


def require_applicable(mode: Mode, n: int, m: int) -> None:
    if not applicable(mode, n, m):
        raise ModeError(
            f"mode {mode.value} does not apply to n={n}, dim X={m}; "
            "supported regimes: n=1 (signs), n=2 (circle), dim X <= n (hopf)"
        )


def auto_mode(n: int, m: int) -> Mode:
    """Deterministic mode selection: signs for n=1, then hopf when it
    applies with m <= 2, otherwise circle for n=2, otherwise hopf."""
    if n == 1:
        return Mode.SIGNS
    if n == 2:
        return Mode.HOPF if m <= 2 else Mode.CIRCLE
    if m <= n:
        return Mode.HOPF
    raise ModeError(
        f"no supported mode for n={n}, dim X={m}; "
        "supported regimes: n=1, n=2, or dim X <= n"
    )


def determinacy_flag(mode: Mode, n: int, m: int) -> bool:
    """Whether the computed class provably determines the robust zero-set
    family (low-dimensional regimes, or the stable range m <= 2n-3)."""
    if mode in (Mode.SIGNS, Mode.CIRCLE):
        return True
    return m <= 2 * n - 3


# ---------------------------------------------------------------------------
# signs mode (n = 1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignVector:
    """One sign per connected component of a superlevel subcomplex."""

    components: tuple[tuple[str, ...], ...]
    signs: tuple[int, ...]


def sign_vector(f: PLMap, level: Subcomplex) -> SignVector:
    """The constant sign of f on each component of the level."""
    if f.n != 1:
        raise ModeError("sign vectors require a scalar map")
    comps = connected_components(level)
    signs = []
    for comp in comps:
        values = {(x > 0) - (x < 0) for x in (f.scaled_values[v][1][0] for v in comp)}
        if len(values) != 1 or 0 in values:
            raise InternalError(f"component {comp} does not carry a constant sign")
        signs.append(values.pop())
    return SignVector(tuple(comps), tuple(signs))


def sign_witness(sv: SignVector, ambient: dict[str, int]) -> dict:
    """Why the sign assignment fails to extend over the ambient complex.

    `ambient` maps each vertex to its ambient component index.  The
    assignment extends iff no ambient component contains level components
    of both signs; otherwise the first such pair (in component order)
    certifies it, and is returned.  Returns {} when the assignment extends.
    """
    by_root: dict[int, dict[int, tuple]] = {}
    for comp, sign in zip(sv.components, sv.signs):
        seen = by_root.setdefault(ambient[comp[0]], {})
        seen.setdefault(sign, comp)
        if len(seen) == 2:
            return {
                "positive_component": list(seen[1]),
                "negative_component": list(seen[-1]),
            }
    return {}


# ---------------------------------------------------------------------------
# circle mode (n = 2): winding cocycles
# ---------------------------------------------------------------------------

class RayError(InternalError):
    """The chosen ray passes through a vertex value; resample."""


def _cross_dot(ray, point) -> tuple[int, int]:
    """The cross and dot products of two integer plane vectors."""
    (rx, ry), (x, y) = ray, point
    return rx * y - ry * x, rx * x + ry * y


def winding_cocycle(level: Subcomplex, f: PLMap, ray) -> dict:
    """Integer 1-cocycle on the level counting ray crossings of f.

    For an ordered edge (u, v) the value is the signed number of transversal
    crossings of the segment f(u) -> f(v) with the open ray R+ . ray; the
    cocycle class is f's winding class and does not depend on the admissible
    ray.  Raises RayError when a vertex value lies on the ray.

    Everything is decided on integers: the ray and each vertex value are
    taken over their own positive denominators (`PLMap.scaled_values`),
    which moves no sign.  With c and d the cross and dot products of the
    ray with a vertex's numerators, an edge whose c_u, c_v have strict
    opposite signs meets the ray's line where the dot product is
    (c_u d_v - c_v d_u) / (c_u - c_v) up to a positive factor, and c_u - c_v
    has the sign of c_u.
    """
    if f.n != 2:
        raise ModeError("winding cocycles require a planar map")
    _, ray = scaled_vector(ray)
    if not any(ray):
        raise ValueError("ray direction must be nonzero")
    ints = f.scaled_values
    products = {}
    for v in level.vertices:
        val = ints[v][1]
        if not any(val):
            raise InternalError("winding cocycle needs nonzero vertex values")
        c, d = products[v] = _cross_dot(ray, val)
        if c == 0 and d > 0:
            raise RayError(f"value of vertex {v} lies on the ray")
    cocycle = {}
    for u, v in level.edges():
        (cu, du), (cv, dv) = products[u], products[v]
        if cu == 0 or cv == 0 or (cu > 0) == (cv > 0):
            continue  # no transversal crossing of the ray's line
        if (cu * dv - cv * du) * cu <= 0:
            continue  # crosses the opposite half-line
        cocycle[(u, v)] = 1 if cu < 0 else -1
    return cocycle


def admissible_ray(level: Subcomplex, f: PLMap, sampler: RationalSampler):
    """A seeded ray direction avoiding all vertex values of the level."""
    ints = f.scaled_values
    for _ in range(RETRY_BUDGET):
        ray = sampler.nonzero_vector(2)
        _, scaled_ray = scaled_vector(ray)
        for v in level.vertices:
            c, d = _cross_dot(scaled_ray, ints[v][1])
            if c == 0 and d > 0:
                break
        else:
            return ray
    raise InternalError("could not find an admissible ray")


# ---------------------------------------------------------------------------
# hopf mode (m <= n): degree cocycles
# ---------------------------------------------------------------------------

class ProbeError(InternalError):
    """The probe point is not a regular value; resample."""


def _affine_preimage(values, point):
    """Cramer form of sum l_j w_j = point, sum l_j = 1 on integer data:
    (numerators, det) with l_j = numerators[j] / det, or None when the
    simplex is degenerate (det = 0).

    The ones row comes first, so det is the determinant of the affine map's
    linear part in the sorted-vertex chart, [w_1 - w_0 .. w_n - w_0], and
    its sign is the orientation of the simplex.  Triangles in the plane use
    the 2 x 2 cross products; every other simplex one fraction-free solve.
    """
    if len(point) == 2 and len(values) == 3:
        (ax, ay), (bx, by), (cx, cy) = values
        ux, uy, vx, vy = bx - ax, by - ay, cx - ax, cy - ay
        det = ux * vy - vx * uy
        if not det:
            return None
        px, py = point[0] - ax, point[1] - ay
        l1 = px * vy - vx * py
        l2 = ux * py - px * uy
        return [det - l1 - l2, l1, l2], det
    rows = [[1] * len(values) + [1]]
    rows += [[w[i] for w in values] + [x] for i, x in enumerate(point)]
    return solve_square(rows)


def _has_preimage(values, point) -> bool:
    """Whether sum l_j w_j = point, sum l_j = 1 has any solution: (1, point)
    lies in the span of the (1, w_j), decided in a fraction-free echelon."""
    echelon = DenseAdapter(0)
    for w in values:
        echelon.insert([1, *w])
    return echelon.insert([1, *point]) is None


def degree_cocycle(f: PLMap, probe) -> dict:
    """Relative n-cocycle of (X, A_r): the local degree of f at the probe.

    The value on an ordered n-simplex is the orientation sign of the affine
    map when the probe has a strictly interior preimage there, else 0.  For
    dim X < n the answer is the zero cochain.  Raises ProbeError when the
    probe fails regularity (a preimage on a proper face, or a degenerate
    simplex whose image contains the probe).  Each simplex's integer values
    (`PLMap.scaled_values`) and the probe are brought to one LCM of their
    denominators, and the probe is located by the signs of the Cramer
    numerators.
    """
    n = f.n
    if f.m > n:
        raise ModeError("degree cocycles require dim X <= n")
    ints = f.scaled_values
    probe = scaled_vector(probe)
    cocycle = {}
    for simplex in f.complex.simplices_of_dim(n):
        _, (*values, point) = rescaled([ints[v] for v in simplex] + [probe])
        solution = _affine_preimage(values, point)
        if solution is None:
            if _has_preimage(values, point):
                raise ProbeError(f"probe degenerate on simplex {simplex}")
            continue
        numerators, det = solution
        low = min(numerators) if det > 0 else -max(numerators)  # min l_j * |det|
        if low < 0:
            continue
        if low == 0:
            raise ProbeError(f"probe hits a face of simplex {simplex}")
        cocycle[simplex] = 1 if det > 0 else -1
    return cocycle


def admissible_probe(f: PLMap, radius: ExactRadius, sampler: RationalSampler):
    """A seeded regular probe with |probe| < radius, with its cocycle."""
    bound = _rational_strictly_below(radius)
    for _ in range(RETRY_BUDGET):
        raw = sampler.nonzero_vector(f.n)
        probe = tuple(x * bound / f.n for x in raw)
        if vector_norm(probe, f.norm).cmp(radius) >= 0:
            continue
        try:
            return probe, degree_cocycle(f, probe)
        except ProbeError:
            continue
    raise InternalError("could not find an admissible probe")


def _rational_strictly_below(radius: ExactRadius) -> Fraction:
    value = radius.as_fraction()
    if value is not None:
        return value / 2
    q = radius.plus  # radius = sqrt(q), irrational
    scale = 1 << 8
    approx = Fraction(math.isqrt((q.numerator * scale * scale) // q.denominator), scale)
    if approx <= 0:
        approx = q / 2 if q < 4 else Fraction(1)
    while ExactRadius.of(approx).cmp(radius) >= 0:
        approx /= 2
    return approx
