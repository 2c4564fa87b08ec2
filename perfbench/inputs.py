"""Input documents for the benchmark ladders.

Generators return input documents in the package's JSON format (numbers as
rational strings).  Seeded ones take a `random.Random`, so the same seed
always yields the same documents.  The workloads draw their maps once from
fixed seeds and let the workload seed pick a `Symmetry` of each, so that
the seed does not decide the pass time.
"""

from __future__ import annotations

from fractions import Fraction

NORMS = ("l1", "l2", "linf")

RP2_FACES = [
    [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
    [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
]


def _fmt(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _norm_key(value, norm: str) -> Fraction:
    """A rational that orders vertex norms exactly (l2 is squared)."""
    if norm == "l1":
        return sum(abs(x) for x in value)
    if norm == "l2":
        return sum(x * x for x in value)
    return max(abs(x) for x in value)


def document(n: int, norm: str, simplices, values: dict) -> dict:
    vertices = sorted(values)
    return {
        "n": n,
        "norm": norm,
        "vertices": vertices,
        "simplices": [sorted(s) for s in simplices],
        "values": {v: [_fmt(x) for x in values[v]] for v in vertices},
    }


def grid(rng, k: int, n: int, norm: str, generic: bool) -> dict:
    """A triangulated k x k grid of squares carrying a noisy version of the
    coordinate map (x, y) for n = 2 or x for n = 1.

    Vertex (i, j) sits at (2i - k, 2j - k); each square is split along a
    seeded diagonal.  Coarse values add integer noise in {-1, 0, 1}, so many
    vertex norms tie and levels stay few.  Generic values add noise with
    denominator 256, redrawn per vertex until its norm differs from every
    earlier one, so the number of levels grows with the number of vertices.
    """
    def name(i, j):
        return f"g{i}_{j}"

    simplices = []
    for i in range(k):
        for j in range(k):
            a, b, c, d = name(i, j), name(i + 1, j), name(i, j + 1), name(i + 1, j + 1)
            if rng.random() < 0.5:
                simplices += [[a, b, d], [a, c, d]]
            else:
                simplices += [[a, b, c], [b, c, d]]
    values = {}
    seen = set()
    for i in range(k + 1):
        for j in range(k + 1):
            base = (Fraction(2 * i - k), Fraction(2 * j - k))[:n]
            while True:
                if generic:
                    noise = tuple(Fraction(rng.randint(-160, 160), 256) for _ in range(n))
                else:
                    noise = tuple(Fraction(rng.randint(-1, 1)) for _ in range(n))
                value = tuple(x + e for x, e in zip(base, noise))
                key = _norm_key(value, norm)
                if not generic or key not in seen:
                    break
            seen.add(key)
            values[name(i, j)] = value
    return document(n, norm, simplices, values)


def random_two_complex(rng, vertices: int, triangles: int, norm: str) -> dict:
    """A random pure 2-complex with a generic scalar map (n = 1).

    Each triangle is drawn from a window of five consecutive vertices, so
    the complex is local and mostly connected; values are rationals of both
    signs with pairwise distinct absolute values.
    """
    names = [f"r{i}" for i in range(vertices)]
    faces = set()
    while len(faces) < triangles:
        start = rng.randint(0, vertices - 3)
        window = names[start:start + 5]
        faces.add(tuple(sorted(rng.sample(window, 3))))
    used = sorted({v for face in faces for v in face})
    magnitudes = rng.sample(range(1, 8 * len(used) + 1), len(used))
    values = {}
    for v, mag in zip(used, magnitudes):
        sign = 1 if rng.random() < 0.5 else -1
        values[v] = (Fraction(sign * mag, 4),)
    return document(1, norm, sorted(faces), values)


class Symmetry:
    """A seeded similarity of the target space: a signed permutation of the
    coordinates (an isometry of every norm) times a power of two.

    The image of a map has the same subdivision, levels and barcodes up to
    the scale, so its cost does not depend on the seed.
    """

    def __init__(self, rng, n: int):
        self.order = rng.sample(range(n), n)
        self.signs = [rng.choice((-1, 1)) for _ in range(n)]
        self.scale = Fraction(2) ** rng.randint(-2, 2)

    def apply(self, doc: dict) -> dict:
        out = dict(doc)
        out["values"] = {
            v: [_fmt(self.scale * self.signs[i] * Fraction(value[j]))
                for i, j in enumerate(self.order)]
            for v, value in doc["values"].items()
        }
        return out


def _fixed_map(prefix: str, faces, base_values) -> dict:
    values = {f"{prefix}{v}": tuple(Fraction(x) for x in value)
              for v, value in enumerate(base_values)}
    return document(len(base_values[0]), "linf",
                    [[f"{prefix}{v}" for v in face] for face in faces], values)


# Base maps for the closed surface and the 3-D item.  Random small-integer
# maps cost from 0.6 s to 45 s on RP^2 and from 0.3 s to 4.4 s on the two
# tetrahedra, so the ladder uses one fixed map of each.  In the RP^2 map the
# integer-lattice work (unimodular inverses) is more than half the analysis.
RP2_VALUES = [(0, -1), (-1, 1), (1, -1), (1, 1), (-1, 0), (-1, -1)]
HOPF3D_FACES = [[0, 1, 2, 3], [1, 2, 3, 4]]
HOPF3D_VALUES = [(0, 0, -1), (0, 1, 0), (0, 1, -1), (1, -1, 0), (-1, -1, 1)]


def projective_plane() -> dict:
    """A planar map on the 6-vertex RP^2."""
    return _fixed_map("p", RP2_FACES, RP2_VALUES)


def hopf3d() -> dict:
    """A map to R^3 on two tetrahedra sharing a face."""
    return _fixed_map("h", HOPF3D_FACES, HOPF3D_VALUES)


def moebius() -> dict:
    """The edge-subdivided Moebius strip whose boundary values wind once
    around the origin (pure 2-torsion obstruction)."""
    faces = [["v1", "v2", "v3"], ["v2", "v3", "v4"], ["v3", "v4", "v5"],
             ["v4", "v5", "v1"], ["v5", "v1", "v2"]]

    def mid(u, v):
        return "m" + "".join(sorted((u[1], v[1])))

    simplices = []
    for face in faces:
        x, y, z = sorted(face)
        mxy, mxz, myz = mid(x, y), mid(x, z), mid(y, z)
        simplices += [[x, mxy, mxz], [y, mxy, myz], [z, mxz, myz], [mxy, mxz, myz]]
    boundary = ["v1", "m13", "v3", "m35", "v5", "m25", "v2", "m24", "v4", "m14"]
    walk = [(1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1),
            (0, -1), (1, -1), (1, Fraction(-1, 2)), (1, 0), (1, Fraction(1, 2))]
    values = {v: (Fraction(p[0]), Fraction(p[1])) for v, p in zip(boundary, walk)}
    values.update({
        "m12": (Fraction(1, 8), Fraction(1, 16)),
        "m23": (Fraction(-1, 8), Fraction(1, 16)),
        "m34": (Fraction(1, 16), Fraction(-1, 8)),
        "m45": (Fraction(-1, 16), Fraction(-1, 8)),
        "m15": (Fraction(1, 32), Fraction(1, 32)),
    })
    return document(2, "linf", simplices, values)


def perturbed(rng, doc: dict, delta: Fraction) -> dict:
    """A copy of `doc` with every vertex value moved by at most `delta` in
    the sup norm (so by at most `delta` in every norm for n = 1)."""
    out = dict(doc)
    out["values"] = {
        v: [_fmt(Fraction(x) + delta * Fraction(rng.randint(-64, 64), 64)) for x in val]
        for v, val in doc["values"].items()
    }
    return out
