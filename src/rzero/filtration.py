"""Critical values and the decreasing family of superlevel subcomplexes.

For a map to R^n with n >= 2 the map must be subdivided first
(`star_subdivide`): then every per-simplex minimum of |f| is a vertex norm,
so the critical values are just the distinct positive vertex norms.  The
family A_r = {x : |f(x)| >= r} is constant in r between consecutive
critical values; each constancy interval (s_i, s_{i+1}] is sampled at its
right endpoint.

Vertex norms are ranked as integers (`normmin.norm_keys`: |v|, or |v|² for
l2, over one LCM of every vertex value's denominator), read off the map's
integer values (`PLMap.scaled_values`, the subdivider's own): the distinct
keys are sorted, and a `Fraction` and an `ExactRadius` are built once per
distinct positive key, for the critical values.

The whole family is one order on the simplices.  A vertex of norm s_k (the
k-th critical value, counted from 1) lies in the levels 0..k-1, so its exit
index is k; a zero-norm vertex has exit index 0.  A simplex enters with the
minimum exit index of its vertices, and level i is the set of simplices
whose entry exceeds i.  Faces enter no later than their cofaces, so every
level is face-closed and the levels are nested.  A level's subcomplex is
built only when it is read (`Levels`).

A map to R (n = 1) is filtered as it is, unsubdivided: a simplex whose
vertices all have one strict sign enters with the least exit index of its
vertices, and any other simplex has entry 0.  This is the upper-star
filtration (Edelsbrunner and Harer, *Computational Topology*, 2010).  f is
affine on each simplex, so scaling down to 0 the barycentric weights of
the vertices with f < r keeps a point of {f >= r} in {f >= r}: this
deformation retracts {f >= r} onto the full subcomplex on the vertices
with f >= r, and likewise {f <= -r}, so A_r has the homotopy type of the
level, which holds both full subcomplexes and no simplex between them.
It is also exactly the filtration of the subdivided map: the zero split
adds only vertices of value 0, whose exit index is 0, removes exactly the
simplices whose vertices take both strict signs, and puts one of its zero
vertices in every simplex it adds, so the critical values, the samples
and every level's simplex set are the same.  `has_zero_min` then also
holds when a simplex takes both signs, since f vanishes inside it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from .complexes import Complex, PLMap, Simplex, Subcomplex, vertex_minima_ok
from .errors import InputError, InternalError
from .exact import ExactRadius
from .normmin import norm_keys, norm_radius


@dataclass(frozen=True)
class CriticalSet:
    """Strictly increasing positive critical values of |f|."""

    values: tuple[ExactRadius, ...]
    has_zero_min: bool

    def __post_init__(self):
        for i, v in enumerate(self.values):
            if v.sign() <= 0:
                raise InputError("critical values must be positive")
            if i and self.values[i - 1].cmp(v) >= 0:
                raise InputError("critical values must be strictly increasing")

    @classmethod
    def _from_ranked(cls, values: tuple[ExactRadius, ...], has_zero_min: bool) -> "CriticalSet":
        """A set whose values were built from strictly increasing positive
        integer keys (`_ranked_vertices`), so their order is not compared
        again."""
        self = object.__new__(cls)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "has_zero_min", has_zero_min)
        return self


def _ranked_vertices(f: PLMap) -> tuple[CriticalSet, dict[str, int]]:
    """The critical set of f's vertex norms and each vertex's exit index:
    the rank of its norm among the critical values, 0 for norm 0."""
    vertices = f.complex.vertices
    ints = f.scaled_values
    den, keys = norm_keys([ints[v] for v in vertices], f.norm)
    positive = sorted(set(keys) - {0})
    if any(key <= below for below, key in zip([0] + positive, positive)):
        raise InternalError("critical keys must be positive and strictly increasing")
    rank = {key: i for i, key in enumerate(positive, 1)}
    rank[0] = 0
    exit_index = {v: rank[key] for v, key in zip(vertices, keys)}
    values = tuple(norm_radius(Fraction(key, den), f.norm) for key in positive)
    return CriticalSet._from_ranked(values, 0 in exit_index.values()), exit_index


def sample_radii(criticals: CriticalSet) -> list[ExactRadius]:
    """One sample radius per constancy interval of the superlevel family.

    The module is constant on (s_i, s_{i+1}], so the right endpoint s_{i+1}
    represents it; the final sample only needs to exceed the largest critical
    value, and any rational above it serves.
    """
    values = criticals.values
    if not values:
        return [ExactRadius.of(1)]
    samples = list(values)
    samples.append(ExactRadius.of(values[-1].rational_above()))
    return samples


class Levels(Sequence):
    """The superlevel subcomplexes, level i holding the simplices whose
    entry exceeds i.  A level is built on its first read and kept."""

    def __init__(self, parent: Complex, entry: dict[Simplex, int], count: int):
        self._parent, self._entry, self._count = parent, entry, count
        self._built: dict[int, Subcomplex] = {}

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._count))]
        i = range(self._count)[i]
        if i not in self._built:
            self._built[i] = Subcomplex.from_closed(
                self._parent, [s for s, e in self._entry.items() if e > i])
        return self._built[i]


@dataclass(frozen=True)
class Filtration:
    """Superlevel subcomplexes of `f` at the sample radii: a subdivided
    map for n >= 2, and for n = 1 the input map or its subdivision.

    `entry` maps every simplex to its entry index: the simplex lies in the
    levels 0 .. entry - 1 (none when the entry is 0).
    """

    f: PLMap
    criticals: CriticalSet
    samples: tuple[ExactRadius, ...]
    entry: dict[Simplex, int] = field(compare=False, repr=False)
    levels: Levels = field(compare=False, repr=False)

    def level_count(self) -> int:
        return len(self.samples)

    def leaving(self, simplices) -> list[list[Simplex]]:
        """For each level i in turn, those of the given simplices that leave
        A at level i (entry i), in the given order."""
        fresh: list[list[Simplex]] = [[] for _ in self.samples]
        for s in simplices:
            fresh[self.entry[s]].append(s)
        return fresh


def build_filtration(f: PLMap) -> Filtration:
    """The entry index of every simplex and the superlevel subcomplexes
    A'_r at the sample radii, each built when first read.

    A map to R^n with n >= 2 must be subdivided; a map to R is filtered
    as it is, by the upper-star rule of the module docstring."""
    if f.n > 1 and not f.minima_at_vertices and not vertex_minima_ok(f):
        raise InputError("critical values require a subdivided map")
    crit, vertex_exit = _ranked_vertices(f)
    samples = sample_radii(crit)
    entry = {s: min(map(vertex_exit.__getitem__, s)) for s in f.complex.simplices}
    if f.n == 1:
        ints = f.scaled_values
        positive = {v for v in f.complex.vertices if ints[v][1][0] > 0}
        mixed = [s for s, e in entry.items()
                 if e and 0 < len(positive.intersection(s)) < len(s)]
        for s in mixed:
            entry[s] = 0
        if mixed:
            crit = CriticalSet._from_ranked(crit.values, True)
    check_face_order(entry)
    return Filtration(f, crit, tuple(samples), entry, Levels(f.complex, entry, len(samples)))


def check_face_order(entry: dict[Simplex, int]) -> None:
    """Raise InternalError unless every codimension-1 face of a simplex
    enters no later than the simplex (entry at least the coface's), which
    makes every level face-closed and the levels nested."""
    for s, e in entry.items():
        if len(s) < 2:
            continue
        for k in range(len(s)):
            face_entry = entry.get(s[:k] + s[k + 1:])
            if face_entry is None or face_entry < e:
                raise InternalError(f"simplex {s} enters before its faces")
