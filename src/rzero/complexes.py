"""Finite simplicial complexes, simplexwise-linear maps, and subdivision.

Complexes are abstract: a simplex is a sorted tuple of vertex ids (strings),
and the simplex set is closed under taking faces.  The fixed lexicographic
order on ids doubles as the orientation convention for cochains.

`star_subdivide` refines a map's complex until (a) the minimum of |f| over
every simplex is attained at a vertex and (b) each component of f vanishes on
each edge only at vertices or along the whole edge.  New vertices are placed
at exact argmin points and at exact zero crossings, computed on integer
vertex records (`PLMap.scaled_values`), which the result keeps.  A new
vertex's id spells out its affine expansion in the input vertices,
`(a:1/2,b:1/2)`, so repeated runs are identical and the map carries no
separate expansion; no input id may begin with `(`.
For a map to R (n = 1), (b) implies (a), so only the zero crossings are
split and no argmin is searched.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul

from .errors import InputError, InternalError
from .normmin import _MEASURE, NORMS, _floor, scaled_vector, simplex_norm_min

Simplex = tuple[str, ...]


def _as_simplex(vertices) -> Simplex:
    return tuple(sorted(vertices))


class Complex:
    """A finite simplicial complex with a fixed total order on vertices."""

    def __init__(self, simplices):
        closed = set()
        for s in map(_as_simplex, simplices):
            closed.update(face for k in range(len(s)) for face in combinations(s, k + 1))
        self._index(closed)

    def _index(self, closed) -> None:
        self._simplices = frozenset(closed)
        self._by_dim = {}
        for s in self._simplices:
            self._by_dim.setdefault(len(s) - 1, []).append(s)
        for lst in self._by_dim.values():
            lst.sort()
        self.vertices = tuple(s[0] for s in self._by_dim.get(0, ()))
        self.dim = max(self._by_dim, default=-1)

    @classmethod
    def from_closed(cls, simplices) -> "Complex":
        """A complex from sorted simplices known to be face-closed, unchecked."""
        self = cls.__new__(cls)
        self._index(simplices)
        return self

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
    def from_closed(cls, parent: Complex, simplices) -> "Subcomplex":
        """A subcomplex from simplices the caller knows to be face-closed
        simplices of `parent`.  Nothing is re-closed or checked."""
        self = super().from_closed(simplices)
        self.parent = parent
        return self


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


class PLMap:
    """A simplexwise-linear map given by rational vectors on the vertices.
    After `star_subdivide`, a new vertex's id is its affine expansion.

    A map keeps its values as given and derives the integer records on
    first read (`scaled_values`), or keeps records (`from_records`, used by
    `perturb` and `star_subdivide`) and builds `values` on first read."""

    def __init__(self, complex: Complex, values: dict, n: int, norm: str,
                 minima_at_vertices: bool = False):
        if norm not in NORMS:
            raise InputError(f"unknown norm {norm!r}")
        if n < 1:
            raise InputError("codomain dimension must be at least 1")
        for v in complex.vertices:
            if v not in values:
                raise InputError(f"vertex {v!r} has no value")
            if len(values[v]) != n:
                raise InputError(f"value of vertex {v!r} has wrong dimension")
        self.complex, self.n, self.norm = complex, n, norm
        self.minima_at_vertices, self._scaled = minima_at_vertices, None
        self._values = {v: tuple(map(Fraction, val)) for v, val in values.items()}

    @classmethod
    def from_records(cls, complex: Complex, records: dict, n: int, norm: str,
                     minima_at_vertices: bool = False) -> "PLMap":
        """A map from vertex records as `scaled_values` gives them, unchecked."""
        self = cls.__new__(cls)
        self.complex, self.n, self.norm = complex, n, norm
        self.minima_at_vertices, self._values, self._scaled = minima_at_vertices, None, records
        return self

    @property
    def values(self) -> dict:
        """vertex -> its value, a tuple of `Fraction`s."""
        if self._values is None:
            self._values = {v: tuple(Fraction(x, den) for x in nums)
                            for v, (den, nums) in self._scaled.items()}
        return self._values

    @property
    def m(self) -> int:
        return self.complex.dim

    @property
    def scaled_values(self) -> dict:
        """vertex -> (den, numerators): each value as integers over the LCM
        of its denominators, with den > 0."""
        if self._scaled is None:
            self._scaled = {v: scaled_vector(value) for v, value in self._values.items()}
        return self._scaled

    def with_values(self, new_values) -> "PLMap":
        return PLMap(self.complex, dict(new_values), self.n, self.norm)


def vertex_minima_ok(f: PLMap) -> bool:
    """Check postcondition (a): every simplex minimum is vertex-attained."""
    return all(simplex_norm_min([f.values[v] for v in s], f.norm).at_vertex
               for s in f.complex.all_simplices() if len(s) > 1)


def edge_zeros_ok(f: PLMap) -> bool:
    """Check postcondition (b): component zeros meet edges only at vertices
    or along whole edges."""
    ints = f.scaled_values
    return not any(a * b < 0 for u, v in f.complex.edges()
                   for a, b in zip(ints[u][1], ints[v][1]))


def _mix(lam, lam_den: int, points) -> tuple[str, tuple[int, dict]]:
    """The point sum_j lam[j] / lam_den * points[j] of expansions (den,
    {base: numerator}), every lam[j] > 0: its id, each coefficient written
    reduced, as `format_rational` writes it, by base id, and its expansion
    divided by the gcd."""
    scale = lcm(*[den for den, _ in points])
    out: dict = {}
    for c, (den, nums) in zip(lam, points):
        for key, x in nums.items():
            out[key] = out.get(key, 0) + c * (scale // den) * x
    g = gcd(lam_den * scale, *out.values())
    den, combo = lam_den * scale // g, {key: x // g for key, x in out.items()}
    parts = [f"{v}:{c // gcd(c, den)}" + ("" if c % den == 0 else f"/{den // gcd(c, den)}")
             for v, c in sorted(combo.items())]
    return "(" + ",".join(parts) + ")", (den, combo)


class _Subdivider:
    """Mutable scratch state for iterated stellar subdivision.  A vertex's
    record is (den, numerators, measure): its `PLMap.scaled_values` record
    and |numerators| (squared for l2), taken once when the vertex is made.
    Its expansion, kept the same way, only names a new vertex (`_mix`).

    Every simplex of dim >= 1 is either waiting for the next argmin pass
    (`unvisited`) or settled: `minimizer` names a vertex of it that attains
    its minimum of |f|.  A visit settles a simplex by the floor certificate
    or by `simplex_norm_min`.  A star settles most new simplices with no
    visit: a piece cut from a coface c lies in c's hull, so it inherits c's
    minimizer when it contains that vertex, and the pieces of a simplex
    starred at its argmin, or of a coface whose argmin lay inside the
    starred face, inherit the new vertex.  When a visit finds the argmin
    inside a proper face F, F's point is kept (`kept`) and F is starred
    there at its own visit later in the pass, with no second search: by the
    tie rule of `simplex_norm_min` it is the point F's own search returns.
    Vertex values never change, so settled simplices stay settled, and
    whether an edge is split depends on its own values alone (`unsplit`).
    """

    def __init__(self, f: PLMap):
        self.norm, self.measure, self.squared = f.norm, _MEASURE[f.norm], f.norm == "l2"
        self.simplices: set[Simplex] = set(f.complex.simplices)
        # vertex -> the current simplices containing it, kept in step with
        # `simplices` by star, which finds cofaces by lookup.
        self.by_vertex: dict[str, set[Simplex]] = {}
        for s in self.simplices:
            for v in s:
                self.by_vertex.setdefault(v, set()).add(s)
        self.unvisited = {s for s in self.simplices if len(s) > 1}
        self.unsplit = {s for s in self.simplices if len(s) == 2}
        self.minimizer: dict[Simplex, str] = {}
        # For this pass only: face -> integer barycentric weights of the
        # argmin a coface's visit found inside it, and each simplex visited
        # with its argmin off the vertices -> the face holding the argmin.
        self.kept: dict[Simplex, list[int]] = {}
        self.inside: dict[Simplex, Simplex] = {}
        self.values = {v: (den, nums, self.measure(nums))
                       for v, (den, nums) in f.scaled_values.items()}
        self.expansion = {v: (1, {v: 1}) for v in f.complex.vertices}

    def star(self, face: Simplex, lam) -> str:
        """Star at the point of `face` with barycentric coordinates
        lam / sum(lam), every lam[j] > 0."""
        lam_den = sum(lam)
        new_id, expansion = _mix(lam, lam_den, [self.expansion[v] for v in face])
        if new_id in self.values:
            raise InternalError(f"star point {new_id} already exists")
        self.expansion[new_id] = expansion
        points = [self.values[v] for v in face]
        scale = lcm(*[p[0] for p in points])
        weights = [c * (scale // p[0]) for c, p in zip(lam, points)]
        nums = [sum(map(mul, weights, column)) for column in zip(*[p[1] for p in points])]
        g = gcd(lam_den * scale, *nums)
        nums = [x // g for x in nums]
        self.values[new_id] = (lam_den * scale // g, nums, self.measure(nums))

        # Each coface s gives way to the pieces sub + (s - face) + new_id,
        # sub a proper face of `face` or empty.
        face_set = set(face)
        simplices, by_vertex, minimizer = self.simplices, self.by_vertex, self.minimizer
        cofaces = set.intersection(*[by_vertex[v] for v in face])
        proper_faces = [sub for size in range(len(face)) for sub in combinations(face, size)]
        by_vertex[new_id] = set()
        for s in cofaces:
            # A simplex whose argmin lay inside `face` was never settled.
            known = new_id if self.inside.get(s) == face else minimizer.pop(s, None)
            simplices.discard(s)
            for v in s:
                by_vertex[v].discard(s)
            link = tuple(v for v in s if v not in face_set) + (new_id,)
            for sub in proper_faces:
                piece = tuple(sorted(sub + link))
                simplices.add(piece)
                for v in piece:
                    by_vertex[v].add(piece)
                if len(piece) > 1:
                    if known in piece:
                        minimizer[piece] = known
                    else:
                        self.unvisited.add(piece)
                    if len(piece) == 2:
                        self.unsplit.add(piece)
        return new_id

    def argmin_pass(self) -> bool:
        """One pass of argmin starring over the unsettled simplices.

        Simplices are visited in decreasing dimension; a simplex is starred
        at its argmin only when the argmin is interior to it.  A face whose
        argmin a coface's visit found is starred there at its own visit,
        with no search.
        """
        visit = [s for s in self.unvisited if s in self.simplices]
        self.unvisited = set()
        changed = False
        for s in sorted(visit, key=lambda s: (-len(s), s)):
            if s not in self.simplices:
                continue
            if s in self.kept:
                lam = self.kept.pop(s)
            else:
                lam = self._search(s)
                if lam is None:
                    continue
            self.inside[s] = s
            self.star(s, lam)
            changed = True
        if self.kept:
            raise InternalError(f"kept argmin of {min(self.kept)} was never starred")
        self.inside = {}
        return changed

    def _search(self, s: Simplex) -> list[int] | None:
        """The integer barycentric weights of the argmin of |f| over s when
        it is interior to s, else None, with s settled or its argmin kept
        for the proper face that holds it.  The floor certificate comes
        first, on the records: a floor measuring at least the least vertex
        norm settles s at its first vertex of that norm, and only the other
        simplices reach `simplex_norm_min`."""
        points = [self.values[v] for v in s]
        scale = lcm(*[p[0] for p in points])
        ints, norms = [], []
        for den, nums, measure in points:
            c = scale // den
            ints.append(nums if c == 1 else [x * c for x in nums])
            norms.append(measure * c * c if self.squared else measure * c)
        least = min(norms)
        if self.measure(_floor(ints)) >= least:
            self.minimizer[s] = s[norms.index(least)]
            return None
        result = simplex_norm_min(ints, self.norm)
        if result.at_vertex:
            self.minimizer[s] = s[result.face[0]]
            return None
        if len(result.face) == len(s):
            return list(result.lam)
        face = tuple(s[j] for j in result.face)
        self.kept[face] = list(result.lam)
        self.inside[s] = face
        return None

    def zero_split_pass(self) -> bool:
        """Split every edge with a strictly interior component zero, in
        rounds: each visits, in order, the edges born since the last."""
        changed = False
        while self.unsplit:
            edges = sorted(self.unsplit)
            self.unsplit = set()
            for edge in edges:
                if edge not in self.simplices:
                    continue
                (du, nu, _), (dv, nv, _) = self.values[edge[0]], self.values[edge[1]]
                for a, b in zip(nu, nv):
                    if a * b < 0:
                        # The zero is at t = a / (a - b), over du * dv.
                        a, b = (a * dv, b * du) if a > 0 else (-a * dv, -b * du)
                        self.star(edge, (-b, a))
                        changed = True
                        break
        return changed


def star_subdivide(f: PLMap) -> PLMap:
    """Refine f's complex until minima are vertex-attained and component
    zeros meet edges only in vertices (or along whole edges).

    The geometric realization is unchanged and the returned map agrees with
    f pointwise.  A new vertex's id is its affine expansion in f's vertices
    (`_mix`), and subdividing the result again adds no vertex.  Raises
    InternalError after 10 rounds per input simplex (diagnostic for
    non-termination).

    For n = 1 only the zero split runs, and the (b) check covers (a):
    - (b) implies (a).  On a simplex whose vertex values are all >= 0 or
      all <= 0, |f| is affine, so its minimum is at a vertex.  Every pair
      of vertices of a simplex is an edge, so once no edge has a strict
      sign change, (a) holds on every simplex.
    - Same output as the argmin passes.  Their first pass stars exactly the
      original edges that change sign, each at its zero, in sorted order:
      the floor certificate settles a simplex with no strict sign change;
      on any other the minimum is 0, and by the tie rule (vertices, then
      edges in combination order) it lies on its first edge that changes
      sign, so a simplex of dim >= 2 only keeps that edge's zero, and edges
      are visited after every higher simplex, in sorted order.  The zero
      split makes the same stars in the same order, and no edge it creates
      changes sign, so no later pass stars anything.
    """
    state = _Subdivider(f)
    if f.n == 1:
        state.zero_split_pass()
    else:
        budget = 10 * max(len(f.complex), 1)
        rounds = 0
        while state.argmin_pass() | state.zero_split_pass():
            rounds += 1
            if rounds > budget:
                raise InternalError(f"subdivision did not stabilize within {budget} rounds")
        if len(state.minimizer) != sum(len(s) > 1 for s in state.simplices):
            raise InternalError("subdivision postcondition (a) failed")
    records = {v: (den, nums) for v, (den, nums, _) in state.values.items()}
    result = PLMap.from_records(Complex.from_closed(state.simplices), records, f.n, f.norm,
                                minima_at_vertices=True)
    if not edge_zeros_ok(result):
        raise InternalError("subdivision postcondition (b) failed")
    return result
