"""Shared example maps used across the test suite.

These are the worked examples the acceptance criteria pin down exactly:
a single edge crossing zero, the six-vertex rectangle with f(x, y) = y,
the 3x3 grid square carrying the identity map, and an octagon whose values
wind twice around the origin.
"""

from __future__ import annotations

import json
from fractions import Fraction

from rzero import Complex, PLMap
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
