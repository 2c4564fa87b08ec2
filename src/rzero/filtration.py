"""Critical values and the decreasing family of superlevel subcomplexes.

One rule filters every map: a simplex enters at the rank of its exact
minimum of |f| among the distinct positive simplex minima, the critical
values s_1 < s_2 < ..., and at 0 when its minimum is 0.  Level i is the
set of simplices whose entry exceeds i, those with minimum at least
s_{i+1}; it stands for A_r = {x : |f(x)| >= r} on the constancy interval
(s_i, s_{i+1}], which is sampled at its right endpoint.  A face's minimum
is at least its coface's, so faces enter no later than their cofaces,
every level is face-closed and the levels are nested.  A level's
subcomplex is built only when it is read (`Levels`).

Each level has the homotopy type of its A_r.  f is affine on a simplex σ,
so |f| is convex on σ, and K = {|f| < r} ∩ σ is convex and relatively
open in σ.  If K meets σ it meets σ's interior, and radial projection from
a point of K inside σ retracts σ ∖ K onto ∂σ ∖ K, fixing ∂σ.  Doing this
from the top dimension down deformation retracts A_r onto the simplices
with minimum at least r (the upper-star argument of Edelsbrunner and
Harer, *Computational Topology*, 2010).  The retractions commute with the
inclusions, so a map and its subdivision give isomorphic pointed modules:
the same bars and robust radius, over other critical values.

The minimum is found in one of three ways.

- A subdivided map (`minima_at_vertices`, from `star_subdivide`): every
  simplex minimum is a vertex norm.  Vertex norms are ranked as integers
  (`normmin.norm_keys`: |v|, or |v|² for l2, over one LCM of every vertex
  value's denominator), read off the map's integer values
  (`PLMap.scaled_values`, the subdivider's own), and a `Fraction` and an
  `ExactRadius` are built once per distinct positive key.  A vertex of
  norm s_k has exit index k, a zero-norm vertex 0, and a simplex enters
  with the least exit index of its vertices.
- A map to R (n = 1), unsubdivided: a simplex whose vertices all have one
  strict sign enters with the least exit index of its vertices, and any
  other simplex has entry 0, since f vanishes inside it (the upper-star
  filtration).  This is also exactly the filtration of the zero split:
  it adds only vertices of value 0, whose exit index is 0, removes exactly
  the simplices whose vertices take both strict signs, and puts one of its
  zero vertices in every simplex it adds, so the critical values, the
  samples and every level's simplex set are the same.  `has_zero_min` then
  also holds when a simplex takes both signs.
- Any other map, n >= 2 on its own complex: faces first, in order of
  dimension (`_simplex_minima`).  A simplex's minimum is the least of its
  facets' minima and of its own interior candidates
  (`normmin.interior_min`), which are searched only when its floor
  (`normmin._floor`) measures below the facets' least.  Keys are
  integers over one LCM of the vertex denominators, or `Fraction`s for
  minima interior to their simplex.

`pipeline.analyze` filters the subdivision in circle and hopf mode, since
the critical values, probes and Smith coordinates that `criticals`,
`robust-radius`, `barcode`, `module` and `check` print depend on it;
`fuzz` and `bottleneck`, which print only bars and distances, filter the
input complex (`pipeline.analyze_input_complex`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

from .complexes import Complex, PLMap, Simplex, Subcomplex
from .errors import InputError, InternalError
from .exact import ExactRadius
from .normmin import _MEASURE, _floor, interior_min, norm_keys, norm_radius, rescaled


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
        keys (`_ranked_vertices`, `_minimum_entries`), so their order is
        not compared again."""
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
    """Superlevel subcomplexes of `f` at the sample radii: a map's
    subdivision or the map itself, in any n (module docstring).

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

    Every simplex enters at the rank of its exact minimum of |f| among the
    distinct positive minima (module docstring), read off the vertex norms
    for a subdivided map or a map to R, and searched faces first
    otherwise."""
    if f.n == 1 or f.minima_at_vertices:
        crit, entry = _vertex_entries(f)
    else:
        crit, entry = _minimum_entries(f)
    check_face_order(entry)
    samples = sample_radii(crit)
    return Filtration(f, crit, tuple(samples), entry, Levels(f.complex, entry, len(samples)))


def _vertex_entries(f: PLMap) -> tuple[CriticalSet, dict[Simplex, int]]:
    """The critical set and entries of a map whose simplex minima are
    vertex norms, or of a map to R by the upper-star rule."""
    crit, vertex_exit = _ranked_vertices(f)
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
    return crit, entry


def _simplex_minima(f: PLMap) -> tuple[int, dict[Simplex, int | Fraction]]:
    """(d, minima): the exact minimum of |f| (|f|² for l2) over every
    simplex as key / d, faces first.  d is the LCM of the vertex
    denominators (squared for l2), and a key is an integer or, for a
    minimum interior to its simplex, a `Fraction`.

    A simplex's minimum is the least of its facets' minima and of its own
    interior candidates (`normmin.interior_min`), which are searched only
    when its floor (`normmin._floor`) measures below the facets' least."""
    vertices = f.complex.vertices
    records = f.scaled_values
    scale, vectors = rescaled([records[v] for v in vertices])
    point = dict(zip(vertices, vectors))
    n, norm, measure = f.n, f.norm, _MEASURE[f.norm]
    minima: dict[Simplex, int | Fraction] = {(v,): measure(w) for v, w in point.items()}
    for s in f.complex.all_simplices():
        size = len(s)
        if size == 1:
            continue
        least = min(minima[s[:k] + s[k + 1:]] for k in range(size))
        rows = [point[v] for v in s]
        if measure(_floor(rows)) < least:
            found = interior_min(rows, range(size), n, norm)
            if found is not None and found[0] < least * found[1]:
                least = Fraction(found[0], found[1])
        minima[s] = least
    return scale * scale if norm == "l2" else scale, minima


def _minimum_entries(f: PLMap) -> tuple[CriticalSet, dict[Simplex, int]]:
    """The critical set of the simplex minima and each simplex's entry,
    the rank of its minimum, 0 for minimum 0."""
    den, minima = _simplex_minima(f)
    positive: list = []
    entry = {}
    for s, key in sorted(minima.items(), key=itemgetter(1)):
        if key and (not positive or key != positive[-1]):
            positive.append(key)
        entry[s] = len(positive)
    values = tuple(norm_radius(Fraction(key, den), f.norm) for key in positive)
    return CriticalSet._from_ranked(values, 0 in entry.values()), entry


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
