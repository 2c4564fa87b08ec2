"""Shared example maps and small oracles used across the test suite.

The maps are the worked examples the acceptance criteria pin down exactly:
a single edge crossing zero, the six-vertex rectangle with f(x, y) = y,
the 3x3 grid square carrying the identity map, and an octagon whose values
wind twice around the origin.  The oracles build by brute force what the
package builds incrementally or never needs: full subcomplexes, superlevel
complexes at any radius, subgroups spanned by classes, and the affine
expansion of a subdivision vertex read back from its id.
"""

from __future__ import annotations

import json
from fractions import Fraction

from rzero import Complex, ExactRadius, PLMap, Subcomplex
from rzero.cohomology import Subgroup
from rzero.linalg import PresentedGroup, lattice_basis, subgroup_presentation
from rzero.normmin import vector_norm
from rzero.rng import RationalSampler


def edge_map() -> PLMap:
    """A single edge with scalar values -1 and +1."""
    c = Complex.build([["p", "q"]])
    return PLMap(c, {"p": (Fraction(-1),), "q": (Fraction(1),)}, 1, "linf")


def rectangle_map() -> PLMap:
    """Six-vertex rectangle [0,2] x [-1,1], f(x, y) = y.

    Bottom row a0 a1 a2 at y = -1, top row b0 b1 b2 at y = +1, each square
    split along a diagonal.
    """
    tris = [
        ["a0", "a1", "b0"], ["a1", "b0", "b1"],
        ["a1", "a2", "b1"], ["a2", "b1", "b2"],
    ]
    c = Complex.build(tris)
    values = {}
    for name in ("a0", "a1", "a2"):
        values[name] = (Fraction(-1),)
    for name in ("b0", "b1", "b2"):
        values[name] = (Fraction(1),)
    return PLMap(c, values, 1, "linf")


def signs_mixed_map() -> PLMap:
    """A map to R with a mixed triangle (b, c, d take both strict signs),
    a zero vertex e, and an isolated vertex a.

    The zero split adds a vertex on b-c and on c-d whose ids sort before
    every input id; the positive and the negative vertices share one
    ambient component, so the class is robust up to 7/3.
    """
    c = Complex.build([["b", "c", "d"], ["d", "e"], ["e", "f"], ["c", "g"],
                       ["b", "h"], ["a"]])
    values = {"a": Fraction(5, 2), "b": Fraction(3), "c": Fraction(-2),
              "d": Fraction(1, 2), "e": Fraction(0), "f": Fraction(-7, 3),
              "g": Fraction(-1), "h": Fraction(4, 3)}
    return PLMap(c, {v: (x,) for v, x in values.items()}, 1, "l2")


def grid_vertex(i: int, j: int) -> str:
    return f"v{i + 1}{j + 1}"


def grid_identity_map(negate: bool = False) -> PLMap:
    """The 3x3 grid on [-1,1]^2 (8 triangles through the center) with the
    identity map, under the sup norm."""
    tris = []
    for sx in (-1, 1):
        for sy in (-1, 1):
            corner = grid_vertex(sx, sy)
            tris.append([grid_vertex(0, 0), grid_vertex(sx, 0), corner])
            tris.append([grid_vertex(0, 0), grid_vertex(0, sy), corner])
    c = Complex.build(tris)
    sign = -1 if negate else 1
    values = {
        grid_vertex(i, j): (Fraction(sign * i), Fraction(sign * j))
        for i in (-1, 0, 1) for j in (-1, 0, 1)
    }
    return PLMap(c, values, 2, "linf")


def octagon_winding2_map() -> PLMap:
    """An octagon whose vertex values traverse the unit diamond twice."""
    directions = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    edges = [[f"w{i}", f"w{(i + 1) % 8}"] for i in range(8)]
    c = Complex.build(edges)
    values = {
        f"w{i}": (Fraction(directions[i % 4][0]), Fraction(directions[i % 4][1]))
        for i in range(8)
    }
    return PLMap(c, values, 2, "linf")


def seeded_grid_map(seed: int, k: int, n: int, norm: str) -> PLMap:
    """A k x k grid of squares, each split along a diagonal, with seeded
    values: every coordinate in [-8, 8] with denominator at most 4."""
    sampler = RationalSampler(seed)
    tris = []
    for i in range(k):
        for j in range(k):
            tris.append([f"g{i}_{j}", f"g{i + 1}_{j}", f"g{i + 1}_{j + 1}"])
            tris.append([f"g{i}_{j}", f"g{i}_{j + 1}", f"g{i + 1}_{j + 1}"])
    c = Complex.build(tris)
    values = {
        v: tuple(Fraction(sampler.integer(-8, 8), sampler.integer(1, 4)) for _ in range(n))
        for v in c.vertices
    }
    return PLMap(c, values, n, norm)


def as_document(f: PLMap) -> str:
    from rzero.io import serialize_input

    return json.dumps(serialize_input(f), sort_keys=True, indent=1)


def full_subcomplex(parent: Complex, keep) -> Subcomplex:
    """The subcomplex spanned by the vertices satisfying `keep`."""
    kept = {v for v in parent.vertices if keep(v)}
    return Subcomplex(parent, [s for s in parent.simplices if all(v in kept for v in s)])


def superlevel(f: PLMap, r) -> Subcomplex:
    """The superlevel complex {|f| >= r} of a subdivided map, at any exact
    radius (or rational) r: the full subcomplex on the vertices it keeps."""
    r = r if isinstance(r, ExactRadius) else ExactRadius.of(r)
    return full_subcomplex(f.complex, lambda v: vector_norm(f.values[v], f.norm).cmp(r) >= 0)


def image_subgroup(vectors, ambient: PresentedGroup) -> Subgroup:
    """Subgroup generated by the given ambient-coordinate classes
    (together with the ambient relation lattice)."""
    span_vectors = [list(v) for v in vectors if any(x != 0 for x in v)]
    span_vectors += [list(rel) for rel in ambient.relations]
    span_vectors = lattice_basis(span_vectors, ambient.gens)
    span, presented = subgroup_presentation(span_vectors, ambient)
    return Subgroup(ambient, span, presented)


def expansion(vertex: str, inputs) -> dict:
    """A vertex of `star_subdivide`'s output as an affine combination of the
    input vertices `inputs`: an input vertex is itself, and a new vertex's
    id `(b:c,...)` lists each input vertex b with its weight c."""
    if vertex in inputs:
        return {vertex: Fraction(1)}
    parts = (part.rpartition(":") for part in vertex[1:-1].split(","))
    return {base: Fraction(weight) for base, _, weight in parts}
