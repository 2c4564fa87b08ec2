"""Finite simplicial complexes, simplexwise-linear maps, and subdivision.

Complexes are abstract: a simplex is a sorted tuple of vertex ids (strings),
and the simplex set is closed under taking faces.  The fixed lexicographic
order on ids doubles as the orientation convention for cochains.

`star_subdivide` refines a map's complex until (a) the minimum of |f| over
every simplex is attained at a vertex and (b) each component of f vanishes on
each edge only at vertices or along the whole edge.  New vertices are placed
at exact argmin points and at exact zero crossings; their ids encode the
affine expansion in the original vertices, so repeated runs are identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError, InternalError
from .exact import ExactRadius, format_rational
from .normmin import NORMS, simplex_norm_min, vector_norm

Simplex = tuple[str, ...]


def _as_simplex(vertices) -> Simplex:
    return tuple(sorted(vertices))


def _faces(simplex: Simplex):
    """All nonempty faces of a simplex (itself included)."""
    out = [()]
    for v in simplex:
        out += [f + (v,) for f in out]
    return [f for f in out if f]


class Complex:
    """A finite simplicial complex with a fixed total order on vertices."""

    def __init__(self, simplices):
        simps = {_as_simplex(s) for s in simplices}
        closed = set()
        for s in simps:
            for f in _faces(s):
                closed.add(f)
        self._simplices = frozenset(closed)
        self.vertices = tuple(sorted({v for s in closed for v in s}))
        self.dim = max((len(s) - 1 for s in closed), default=-1)
        self._by_dim = {}
        for s in closed:
            self._by_dim.setdefault(len(s) - 1, []).append(s)
        for lst in self._by_dim.values():
            lst.sort()

    @classmethod
    def build(cls, maximal_simplices) -> "Complex":
        """Closure of a list of maximal simplices given as vertex-id lists."""
        if not maximal_simplices:
            raise InputError("a complex needs at least one simplex")
        cleaned = []
        for raw in maximal_simplices:
            ids = [str(v) for v in raw]
            if len(set(ids)) != len(ids):
                raise InputError(f"duplicate vertex in simplex {ids}")
            if not ids:
                raise InputError("empty simplex in input")
            cleaned.append(ids)
        return cls(cleaned)

    def simplices_of_dim(self, q: int) -> list[Simplex]:
        return list(self._by_dim.get(q, []))

    @property
    def simplices(self) -> frozenset:
        return self._simplices

    def all_simplices(self) -> list[Simplex]:
        out = []
        for q in sorted(self._by_dim):
            out.extend(self._by_dim[q])
        return out

    def __contains__(self, simplex) -> bool:
        return _as_simplex(simplex) in self._simplices

    def __len__(self) -> int:
        return len(self._simplices)

    def edges(self) -> list[Simplex]:
        return self.simplices_of_dim(1)


class Subcomplex(Complex):
    """A face-closed subset of a parent complex."""

    def __init__(self, parent: Complex, simplices):
        super().__init__(simplices)
        self.parent = parent
        for s in self._simplices:
            if s not in parent:
                raise InternalError(f"simplex {s} not in parent complex")

    @classmethod
    def from_closed(cls, parent: Complex, simplices, by_dim) -> "Subcomplex":
        """A subcomplex from simplices the caller knows to be face-closed
        simplices of `parent`, with `by_dim` their sorted lists per
        dimension (shared, never mutated).  Nothing is re-closed or checked.
        """
        self = cls.__new__(cls)
        self.parent = parent
        self._simplices = frozenset(simplices)
        self._by_dim = by_dim
        self.vertices = tuple(s[0] for s in by_dim.get(0, ()))
        self.dim = max((q for q, lst in by_dim.items() if lst), default=-1)
        return self


def full_subcomplex(parent: Complex, keep) -> Subcomplex:
    """The subcomplex spanned by the vertices satisfying `keep`."""
    kept = {v for v in parent.vertices if keep(v)}
    simps = [s for s in parent.simplices if all(v in kept for v in s)]
    return Subcomplex(parent, simps)


def connected_components(complex_like: Complex) -> list[tuple[str, ...]]:
    """Vertex sets of connected components, each sorted, listed by min id."""
    parent = {v: v for v in complex_like.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in complex_like.edges():
        ru, rv = find(u), find(v)
        if ru != rv:
            # Union by id keeps the minimal id as the root.
            if ru < rv:
                parent[rv] = ru
            else:
                parent[ru] = rv
    groups: dict[str, list[str]] = {}
    for v in complex_like.vertices:
        groups.setdefault(find(v), []).append(v)
    return [tuple(sorted(members)) for _, members in sorted(groups.items())]


def component_index(components) -> dict[str, int]:
    out = {}
    for idx, comp in enumerate(components):
        for v in comp:
            out[v] = idx
    return out


@dataclass(frozen=True)
class PLMap:
    """A simplexwise-linear map given by rational vectors on the vertices."""

    complex: Complex
    values: dict
    n: int
    norm: str
    minima_at_vertices: bool = False
    expansion: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.norm not in NORMS:
            raise InputError(f"unknown norm {self.norm!r}")
        if self.n < 1:
            raise InputError("codomain dimension must be at least 1")
        for v in self.complex.vertices:
            if v not in self.values:
                raise InputError(f"vertex {v!r} has no value")
            if len(self.values[v]) != self.n:
                raise InputError(f"value of vertex {v!r} has wrong dimension")
        object.__setattr__(
            self,
            "values",
            {v: tuple(x if isinstance(x, Fraction) else Fraction(x) for x in val)
             for v, val in self.values.items()},
        )
        if not self.expansion:
            object.__setattr__(
                self,
                "expansion",
                {v: {v: Fraction(1)} for v in self.complex.vertices},
            )

    @property
    def m(self) -> int:
        return self.complex.dim

    def value(self, vertex: str):
        return self.values[vertex]

    def norm_at(self, vertex: str) -> ExactRadius:
        return vector_norm(self.values[vertex], self.norm)

    def value_on(self, simplex, barycentric):
        simplex = _as_simplex(simplex)
        return tuple(
            sum(Fraction(b) * self.values[v][i] for b, v in zip(barycentric, simplex))
            for i in range(self.n)
        )

    def with_values(self, new_values) -> "PLMap":
        return PLMap(self.complex, dict(new_values), self.n, self.norm)

    def simplex_values(self, simplex):
        return [self.values[v] for v in _as_simplex(simplex)]


def vertex_minima_ok(f: PLMap) -> bool:
    """Check postcondition (a): every simplex minimum is vertex-attained."""
    for s in f.complex.all_simplices():
        if len(s) == 1:
            continue
        if not simplex_norm_min(f.simplex_values(s), f.norm).at_vertex:
            return False
    return True


def edge_zeros_ok(f: PLMap) -> bool:
    """Check postcondition (b): component zeros meet edges only at vertices
    or along whole edges."""
    for u, v in f.complex.edges():
        for a, b in zip(f.values[u], f.values[v]):
            if a.numerator * b.numerator < 0:
                return False
    return True


def _point_id(expansion: dict) -> str:
    parts = [
        f"{v}:{format_rational(c)}"
        for v, c in sorted(expansion.items())
        if c != 0
    ]
    return "(" + ",".join(parts) + ")"


class _Subdivider:
    """Mutable scratch state for iterated stellar subdivision."""

    def __init__(self, f: PLMap):
        self.n = f.n
        self.norm = f.norm
        self.simplices: set[Simplex] = set()
        # vertex -> the current simplices containing it, kept in step with
        # `simplices` by add/discard so that star finds cofaces by lookup.
        self.by_vertex: dict[str, set[Simplex]] = {}
        for s in f.complex.simplices:
            self.add(s)
        self.values = dict(f.values)
        self.expansion = {v: dict(exp) for v, exp in f.expansion.items()}
        # Vertex values never change during subdivision, so per-simplex
        # minimization results stay valid across passes.
        self._norm_cache: dict[Simplex, object] = {}

    def add(self, s: Simplex) -> None:
        self.simplices.add(s)
        for v in s:
            self.by_vertex.setdefault(v, set()).add(s)

    def discard(self, s: Simplex) -> None:
        self.simplices.discard(s)
        for v in s:
            self.by_vertex[v].discard(s)

    def norm_min(self, s: Simplex):
        cached = self._norm_cache.get(s)
        if cached is None:
            cached = simplex_norm_min([self.values[v] for v in s], self.norm)
            self._norm_cache[s] = cached
        return cached

    def star(self, face: Simplex, barycentric) -> str:
        """Star the complex at the given interior point of `face`, whose
        barycentric coordinates are Fractions."""
        combo: dict[str, Fraction] = {}
        for coeff, v in zip(barycentric, face):
            if not coeff:
                continue
            for base, weight in self.expansion[v].items():
                combo[base] = combo.get(base, 0) + coeff * weight
        combo = {v: c for v, c in combo.items() if c != 0}
        new_id = _point_id(combo)
        if new_id in self.values:
            raise InternalError(f"star point {new_id} already exists")
        new_value = tuple(
            sum(b * self.values[v][i] for b, v in zip(barycentric, face))
            for i in range(self.n)
        )
        self.values[new_id] = new_value
        self.expansion[new_id] = combo

        face_set = set(face)
        cofaces = [s for s in self.by_vertex[face[0]] if face_set.issubset(s)]
        proper_faces = [set(fc) for fc in _faces(face) if len(fc) < len(face)]
        proper_faces.append(set())
        for s in cofaces:
            self.discard(s)
            link = [v for v in s if v not in face_set]
            for sub in proper_faces:
                piece = tuple(sorted(sub | set(link) | {new_id}))
                self.add(piece)
        return new_id

    def snapshot(self) -> list[Simplex]:
        return sorted(self.simplices, key=lambda s: (-len(s), s))

    def argmin_pass(self) -> bool:
        """One pass of argmin starring over the current simplices.

        Simplices are visited in decreasing dimension; a simplex is starred
        at its argmin only when the argmin is interior to it (an argmin
        interior to a proper face is left to that face's own visit).
        """
        changed = False
        for s in self.snapshot():
            if s not in self.simplices or len(s) == 1:
                continue
            result = self.norm_min(s)
            if result.at_vertex:
                continue
            support = tuple(v for v, c in zip(s, result.barycentric) if c != 0)
            if support != s:
                continue
            self.star(s, result.barycentric)
            changed = True
        return changed

    def zero_split_pass(self) -> bool:
        """Split every edge with a strictly interior component zero."""
        changed = False
        progress = True
        while progress:
            progress = False
            for edge in sorted(s for s in self.simplices if len(s) == 2):
                if edge not in self.simplices:
                    continue
                u, v = edge
                for a, b in zip(self.values[u], self.values[v]):
                    if a.numerator * b.numerator < 0:
                        t = a / (a - b)
                        self.star(edge, (1 - t, t))
                        changed = progress = True
                        break
        return changed


def star_subdivide(f: PLMap, round_budget: int | None = None) -> PLMap:
    """Refine f's complex until minima are vertex-attained and component
    zeros meet edges only in vertices (or along whole edges).

    The geometric realization is unchanged and the returned map agrees with
    f pointwise; `expansion` on the result expresses each new vertex as an
    affine combination of original vertices.  Raises InternalError when the
    configured round budget is exhausted (diagnostic for non-termination).
    """
    state = _Subdivider(f)
    budget = round_budget if round_budget is not None else 10 * max(len(f.complex), 1)
    rounds = 0
    while True:
        starred = state.argmin_pass()
        split = state.zero_split_pass()
        if not starred and not split:
            break
        rounds += 1
        if rounds > budget:
            raise InternalError(
                f"subdivision did not stabilize within {budget} rounds"
            )
    new_complex = Complex(state.simplices)
    result = PLMap(
        new_complex,
        state.values,
        f.n,
        f.norm,
        minima_at_vertices=True,
        expansion=state.expansion,
    )
    # Postcondition sweep (cache makes it cheap: every surviving simplex was
    # already minimized during the final fixpoint pass).
    for s in new_complex.all_simplices():
        if len(s) > 1 and not state.norm_min(s).at_vertex:
            raise InternalError("subdivision postcondition (a) failed")
    if not edge_zeros_ok(result):
        raise InternalError("subdivision postcondition (b) failed")
    return result
