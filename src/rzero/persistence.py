"""Field barcodes from one pass over the filtration order.

The superlevel family A_0 ⊇ A_1 ⊇ ... ⊇ A_k is one order on the simplices
(`Filtration.entry`): a simplex of entry e lies in the levels 0 .. e - 1.
Over a field the bars of a module built from that family are fixed by the
order alone, so three kinds of module are read here from one pass each,
with no per-level group, transition or quotient space:

* signs, H^0(A_i) with the restriction maps.  By the same duality as
  circle's below it has the bars of H_0 of the growing family, which one
  union-find over the vertices and edges with the elder rule gives
  (`signs_bars`).  H^0 is free, so the bars are the same over every field.
* circle over Q, H^1(A_i) with the restriction maps.  By the duality of
  de Silva, Morozov and Vejdemo-Johansson (2011) it has the bars of H_1 of
  the growing family A_k ⊆ ... ⊆ A_0, which the standard reduction of the boundary
  matrix in entry order gives (Zomorodian–Carlsson 2005).  A triangle whose
  reduced boundary ends at the edge σ closes the cycle born at σ; a positive
  edge that no triangle closes gives a cycle that lives on to A_0.
* hopf, ker(j*: H^n(X, A_i) -> H^n(X)) with the restriction maps.  Its
  relations are the ambient coboundary columns of the (n-1)-simplices off
  A_i.  When H^n(X) = 0 the kernel is all of H^n(X, A_i) and its
  generators are the n-simplices off A_i.  Otherwise they are read off one
  integer echelon of all the columns (Kaczynski, Mischaikow and Mrozek
  2004) whose pivots are the youngest rows: the relative n-cochains off A_i
  are a prefix of the rows, and by triangularity the basis vectors with
  their pivot in that prefix span B^n(X) ∩ C^n(X, A_i).  Either way a
  generator is born where its (pivot) row leaves A and a relation where
  its simplex does.  The relations are reduced in order of birth with the
  pivot on the youngest generator (the elder rule), so a relation ends the
  bar of the youngest generator it still meets.  Over Q with H^n(X) = 0
  that reduction is the integer echelon the analysis already fills level
  by level for its flags (`LevelEchelon`): a lattice and its span over Q
  have the same pivots, so the pivot each column adds is its death.  Over
  F_p, or with H^n(X) != 0, `hopf_bars` reduces the relations itself.

In circle and hopf mode the distinguished class rides along as one extra
vector, and its support, the number of leading samples at which the class
is nonzero, comes out of the same reduction (see `circle_bars`,
`hopf_bars` and `LevelEchelon.q_bars`).  Each route checks that its
distinguished bar, from sample 0 to the last sample of the support, is one
of its bars, and raises InternalError otherwise.  The signs class has no such vector; its bar ends
at the robust radius, which the caller places.

Bars are sample-index intervals (a, b), alive at the samples a .. b, as in
`barcode`; bars of length zero (born and killed at the same level) are not
bars of the module and are dropped.  Apart from `LevelEchelon`'s integer
lattice, every reduction here is one `linalg.FieldEchelon`: fraction-free
on integers over Q, and for hopf over F_p modulo p, where a coefficient
that vanishes mod p is dropped before it can be taken for a pivot.
"""

from __future__ import annotations

from collections import Counter

from .errors import InternalError
from .filtration import Filtration
from .linalg import (
    FieldEchelon,
    _lattice_coords,
    _lattice_insert,
    _lattice_is_full,
    _lattice_reduce,
    _span_reduce,
)


def circle_bars(filt: Filtration, winding: dict) -> tuple[Counter, int]:
    """Index bars of the H^1 module of the levels over Q, and the support of
    the winding class.

    Only the simplices of A_0 (entry > 0) of dimension at most 2 take part,
    ordered by decreasing entry, then dimension, so every prefix within an
    entry is a complex too.  Triangles are reduced against the edge rows,
    edges against the vertex rows.  Every edge column is reduced, even those
    a triangle pairs (no clearing): edge columns are cheap, and that lets
    the route check that no triangle closes the winding class's edge.

    The winding class is zero on A_i exactly when the winding cocycle w
    vanishes on every 1-cycle of A_i.  So each edge column carries one more
    row, below every vertex row, holding w(e): an edge column that reduces
    to that row alone is a cycle on which w is nonzero, and the first one,
    at the edge σ, makes the support entry(σ).  That cycle is no boundary in
    A_0, where w is a cocycle, so σ must be a positive edge that no triangle
    closes: its bar (0, entry(σ) - 1) is the distinguished one.

    Only over Q: over F_p this would be H^1(A_i; F_p), which differs from
    H^1(A_i; Z) ⊗ F_p wherever H_1(A_i) has p-torsion.
    """
    entry = filt.entry
    simplices = sorted((s for s, e in entry.items() if e > 0 and len(s) <= 3),
                       key=lambda s: (-entry[s], len(s), s))
    key = {s: i for i, s in enumerate(simplices)}
    winding_row = -1

    closed = FieldEchelon(0)
    closers = {}    # positive edge -> the triangle that closes its cycle
    for s in simplices:
        if len(s) == 3:
            a, b, c = s
            low = closed.insert({key[(b, c)]: 1, key[(a, c)]: -1, key[(a, b)]: 1})
            if low is not None:
                closers[simplices[low]] = s

    cycles = FieldEchelon(0)
    positive = set()
    first = None
    for s in simplices:
        if len(s) == 2:
            u, v = s
            col = {key[(v,)]: 1, key[(u,)]: -1}
            w = winding.get(s, 0)
            if w:
                col[winding_row] = w
            low = cycles.insert(col)
            if low is None or low == winding_row:
                positive.add(s)
                if low == winding_row:
                    first = s
    if not closers.keys() <= positive:
        raise InternalError("a triangle closed the cycle of a negative edge")
    if first in closers:
        raise InternalError("the winding class dies before its bar")
    bars: Counter = Counter()
    for sigma in positive:
        tau = closers.get(sigma)
        if tau is None:
            bars[(0, entry[sigma] - 1)] += 1
        elif entry[tau] < entry[sigma]:
            bars[(entry[tau], entry[sigma] - 1)] += 1
    return bars, entry[first] if first is not None else 0


def hopf_bars(filt: Filtration, top, columns: dict, degree: dict, char: int,
              trivial: bool) -> tuple[Counter, int]:
    """Index bars of the module ker(j*: H^n(X, A_i) -> H^n(X)) over Q or
    F_p, and the support of the degree class.

    `top` lists the n-simplices (the rows), `columns` maps each (n-1)-simplex
    with a coface to its ambient coboundary column {row: sign}, `degree` is
    the degree cocycle on the rows, and `trivial` says whether H^n(X) = 0.
    A row is born at its entry; its rank is its place by (entry, row), so
    the youngest row of a vector is its highest rank.

    The analysis reads the bars over Q with H^n(X) = 0 off its own
    `LevelEchelon` (`LevelEchelon.q_bars`), which gives the same bars and
    support; this route serves F_p, and Q with H^n(X) != 0.

    When H^n(X) = 0, ker j* is all of H^n(X, A_i): the rows are the
    generators and the columns the relations.  Otherwise the generators are
    a basis of B^n(X) from one integer echelon of all the columns, each
    named by its pivot, its youngest row (`_kernel_presentation`), and the
    columns and the degree vector are written in that basis.  Either way a
    generator is keyed by the rank of its row, and a relation born at entry
    e that keeps the lowest key g after reduction ends g's bar at level
    e - 1.

    The degree vector is relative at level 0 and is reduced once more after
    each level's relations: it lies in a level's relation span exactly when
    it reduces to zero there, and the first such level is the support.  Its
    generators are all born at 0, and so is every generator a reduction on
    them can reach; the generator whose relation finally kills it must end
    a bar (0, support - 1).
    """
    entry = filt.entry
    k = len(filt.samples) - 1
    ranked = sorted(range(len(top)), key=lambda r: (entry[top[r]], r))
    rank = {r: i for i, r in enumerate(ranked)}
    born = [entry[top[r]] for r in ranked]
    death = [k] * len(top)
    gens, relations = range(len(top)), columns
    if not trivial:
        gens, relations, degree = _kernel_presentation(columns, degree, ranked, rank)

    reduction = FieldEchelon(char)
    # Reduced against no relation yet: the degree vector over the field.
    target = reduction.reduce({rank[r]: v for r, v in degree.items()})
    if any(born[r] for r in target):
        raise InternalError("degree cocycle meets the superlevel complex")
    support = None
    for level, batch in enumerate(filt.leaving(columns)):
        for s in batch:
            low = reduction.insert({rank[r]: v for r, v in relations[s].items()})
            if low is not None:
                death[low] = level - 1
        if support is None:
            last = max(target) if target else None
            target = reduction.reduce(target)
            if not target:
                support = level
                if last is not None and (born[last] or death[last] != level - 1):
                    raise InternalError("the degree class dies off its bar")
    if support is None:
        raise InternalError("degree class survives every level")
    bars = Counter((born[g], death[g]) for g in gens if born[g] <= death[g])
    return bars, support


class LevelEchelon:
    """One integer echelon of ambient coboundary columns, filled level by
    level: each column goes in at the level where its simplex leaves A
    (`Filtration.leaving`), so after level i it spans the lattice of the
    columns off A_i.  Each row is keyed by -rank, its rank being its place
    by (entry, row), so every pivot is the youngest row of its vector.

    `rows` lists the simplices that index the rows, `columns` maps each
    simplex to its sparse column {row: entry} and `target` is one sparse
    vector on the rows.  Each question fills the echelon only as far as it
    needs:

    * `flags`: whether the target lies outside the level's lattice, for
      every level.  A lattice holds no vector off its span over Q, so the
      target is first reduced over Q, its remainder carried from level to
      level, and from the first level whose span holds it (the support) on,
      divided exactly, again carrying the remainder.  The filling stops at
      the first level whose lattice holds the target: every later flag is
      False, since the lattices only grow.
    * `trivial`: whether all the columns together span every row over Z.
    * `q_bars`: the bars over Q of the rows modulo the columns off A_i,
      which is ker j* when `trivial`.  A lattice and its span over Q have
      the same pivot rows, and a column adds one exactly when it is off
      the span of those before it, so the pivot a column adds is the one a
      field reduction in the same order would add: a relation born at entry
      e that ends the bar of the row of rank g at level e - 1.
    """

    def __init__(self, filt: Filtration, rows: list, columns: dict, target: dict):
        entry = filt.entry
        ranked = sorted(range(len(rows)), key=lambda r: (entry[rows[r]], r))
        self._key = {r: -i for i, r in enumerate(ranked)}
        self._born = [entry[rows[r]] for r in ranked]
        self._columns = columns
        self._batches = filt.leaving(columns)
        self._lattice: dict = {}
        self._death: dict[int, int] = {}    # rank -> the last level of its bar
        self._level = 0                     # the levels whose columns are in
        self._target = self._keyed(target)
        self._q = self._target              # the remainder over Q
        self._z = None                      # the remainder over Z, from the support on
        self._last = None                   # the first key of _q before the support
        self._support = None                # the first level whose span holds the target
        self._inside = None                 # the first level whose lattice holds it

    def _keyed(self, vec: dict) -> dict:
        key = self._key
        return {key[r]: v for r, v in vec.items()}

    def _advance(self) -> None:
        """Put in the next level's columns and carry the remainders."""
        level, lattice = self._level, self._lattice
        for s in self._batches[level]:
            low = _lattice_insert(lattice, self._keyed(self._columns[s]))
            if low is not None:
                self._death[-low] = level - 1
        self._level += 1
        if self._support is None:
            last = min(self._q, default=None)
            self._q = _span_reduce(lattice, self._q)
            if self._q:
                return
            self._support, self._last, self._z = level, last, self._target
        if self._inside is None:
            self._z = _lattice_reduce(lattice, self._z)[1]
            if not self._z:
                self._inside = level

    def _fill(self, done=lambda: False) -> None:
        while self._level < len(self._batches) and not done():
            self._advance()

    @property
    def flags(self) -> list[bool]:
        self._fill(lambda: self._inside is not None)
        count = len(self._batches)
        inside = count if self._inside is None else self._inside
        return [i < inside for i in range(count)]

    @property
    def trivial(self) -> bool:
        self._fill()
        return _lattice_is_full(self._lattice, len(self._born))

    def q_bars(self) -> tuple[Counter, int]:
        """Index bars over Q of the rows modulo the columns off A_i, and the
        support of the target, as `hopf_bars` gives them for a trivial
        ambient: the rows are the generators, and the target dies at the
        support, where its last leading row must end a bar (0, support - 1)."""
        self._fill()
        if self._support is None:
            raise InternalError("degree class survives every level")
        born, death = self._born, self._death
        last = self._last
        if last is not None and (born[-last] or death.get(-last) != self._support - 1):
            raise InternalError("the degree class dies off its bar")
        k = len(self._batches) - 1
        bars = Counter((b, death.get(g, k)) for g, b in enumerate(born) if b <= death.get(g, k))
        return bars, self._support


def _kernel_presentation(columns: dict, degree: dict, ranked: list, rank: dict) -> tuple:
    """ker j* at every level as one presentation: the ranks of the
    generators' pivot rows, the relations {simplex: {pivot row:
    coefficient}} and the degree vector {pivot row: coefficient}.

    One integer echelon of all the columns, each row keyed by -rank, pivots
    every basis vector on its youngest row, so by triangularity the basis
    vectors whose pivot is born by level i span B^n(X) ∩ C^n(X, A_i), which
    is ker j* before the relations.  Each such vector is a generator born
    with its pivot row and named by it.  A column off A_i, and the degree
    vector, lie in B^n(X) on rows off A_i, so exact division writes them in
    the generators of level i; a remainder raises InternalError.
    """
    keyed = {s: {-rank[r]: v for r, v in col.items()} for s, col in columns.items()}
    lattice: dict = {}
    for col in keyed.values():
        _lattice_insert(lattice, col)
    relations = {}
    for s, col in keyed.items():
        coords = _lattice_coords(lattice, col)
        if coords is None:
            raise InternalError("a coboundary column is off its own lattice")
        relations[s] = {ranked[-g]: q for g, q in coords.items()}
    coords = _lattice_coords(lattice, {-rank[r]: v for r, v in degree.items()})
    if coords is None:
        raise InternalError("degree cocycle is no ambient coboundary")
    return [-g for g in lattice], relations, {ranked[-g]: q for g, q in coords.items()}


def signs_bars(filt: Filtration) -> Counter:
    """Index bars of the signs module, H^0 of the levels, over any field.

    H^0 is free, so the bars do not depend on the field.  By duality they
    are the bars of H_0 of the growing family, which one union-find over
    the vertices and edges of A_0 gives (Edelsbrunner, Letscher and
    Zomorodian 2002).  A vertex of entry e founds a component
    born at level e - 1.  Edges are taken by decreasing entry; an edge of
    entry e that joins two components ends, by the elder rule, the one born
    at the lower level index: it lived on the levels e .. its birth.  A
    component that no edge ends lives on to level 0.
    """
    entry = filt.entry
    born = {s[0]: e - 1 for s, e in entry.items() if e and len(s) == 1}
    parent = {v: v for v in born}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    bars: Counter = Counter()
    edges = sorted((s for s, e in entry.items() if e and len(s) == 2), key=entry.__getitem__,
                   reverse=True)
    for u, v in edges:
        elder, younger = find(u), find(v)
        if elder == younger:
            continue
        if born[elder] < born[younger]:
            elder, younger = younger, elder
        parent[younger] = elder
        if entry[(u, v)] <= born[younger]:
            bars[(entry[(u, v)], born[younger])] += 1
    bars.update((0, born[v]) for v in born if parent[v] == v)
    return bars
