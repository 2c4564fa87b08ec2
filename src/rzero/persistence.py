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
  A_i; its generators come from the integer echelon of all the columns
  that the analysis fills level by level for its flags (`LevelEchelon`;
  Kaczynski, Mischaikow and Mrozek 2004).  Its pivots are the youngest
  rows and the relative n-cochains off A_i are a prefix of the rows, so by
  triangularity the basis vectors pivoting in that prefix span
  B^n(X) ∩ C^n(X, A_i); when H^n(X) = 0 every row is a pivot row.  A
  generator is born where its pivot row leaves A and a relation where its
  simplex does.  The relations are reduced in order of birth with the
  pivot on the youngest generator (the elder rule), so a relation ends the
  bar of the youngest generator it still meets.  Over Q that is the pivot
  the column added to the echelon, since a lattice and its span over Q
  have the same pivots; over F_p the columns are written in the
  generators and reduced once more (`LevelEchelon.bars`).

In circle and hopf mode the distinguished class rides along as one extra
vector, and its support, the number of leading samples at which the class
is nonzero, comes out of the same reduction (see `circle_bars` and
`LevelEchelon.bars`).  Each route checks that its distinguished bar, from
sample 0 to the last sample of the support, is one of its bars, and
raises InternalError otherwise.  The signs class has no such vector; its
bar ends at the robust radius, which the caller places.

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
    * `bars`: the bars of ker j* over Q or F_p, read off the filled lattice
      (see there).
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
        self._last = None                   # the rank of _q's youngest row before the support
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
            last = -min(self._q) if self._q else None
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

    def bars(self, char: int) -> tuple[Counter, int]:
        """Index bars of ker j* over Q (char 0) or F_p, with the columns off
        A_i as its relations, and the support of the target, read as the
        module docstring says.  The generators are the pivot rows of the
        filled lattice (every row when `trivial`).  The target dies at the
        support, where its youngest row before that level must end a bar
        (0, support - 1).
        """
        self._fill()
        born = self._born
        if any(born[-g] for g in self._target):
            raise InternalError("degree cocycle meets the superlevel complex")
        if self._inside is None:
            raise InternalError("degree cocycle is no ambient coboundary")
        death, support, last = (self._reduce_mod(char) if char
                                else (self._death, self._support, self._last))
        if support is None:
            raise InternalError("degree class survives every level")
        if last is not None and (born[last] or death.get(last) != support - 1):
            raise InternalError("the degree class dies off its bar")
        k = len(self._batches) - 1
        gens = (-g for g in self._lattice)
        bars = Counter((born[g], death.get(g, k)) for g in gens if born[g] <= death.get(g, k))
        return bars, support

    def _reduce_mod(self, p: int) -> tuple[dict, int | None, int | None]:
        """(death, support, last) over F_p: the columns and the target in the
        generators, keyed by rank (the rows of a full lattice, otherwise
        coordinates in the lattice basis), reduced in one `FieldEchelon`
        level by level."""
        lattice, full = self._lattice, self.trivial

        def ranked(vec: dict) -> dict:
            if not full:
                vec = _lattice_coords(lattice, vec)
                if vec is None:
                    raise InternalError("a coboundary column is off its own lattice")
            return {-g: v for g, v in vec.items()}

        reduction = FieldEchelon(p)
        # Reduced against no relation yet: the target over the field.
        target = reduction.reduce(ranked(self._target))
        death: dict[int, int] = {}
        support = last = None
        for level, batch in enumerate(self._batches):
            for s in batch:
                low = reduction.insert(ranked(self._keyed(self._columns[s])))
                if low is not None:
                    death[low] = level - 1
            if support is None:
                youngest = max(target, default=None)
                target = reduction.reduce(target)
                if not target:
                    support, last = level, youngest
        return death, support, last


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
