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
* hopf with every level's group the whole relative H^n(X, A_i): the
  relative top cochains modulo the relative coboundaries.  Its generators
  (the n-simplices) are born at the level where they leave A, and so are
  its relations (the ambient coboundary columns of the (n-1)-simplices).
  The relations are reduced in order of birth with the pivot on the
  youngest row (the elder rule), so a relation ends the bar of the youngest
  generator it still meets.

In circle and hopf mode the distinguished class rides along as one extra
vector, and its support, the number of leading samples at which the class
is nonzero, comes out of the same reduction (see `circle_bars` and
`hopf_bars`).  Either route checks that its distinguished bar, from sample
0 to the last sample of the support, is one of its bars, and raises
InternalError otherwise.  The signs class has no such vector; its bar ends
at the robust radius, which the caller places.

Bars are sample-index intervals (a, b), alive at the samples a .. b, as in
`barcode`; bars of length zero (born and killed at the same level) are not
bars of the module and are dropped.  Over Q the reduction is fraction-free
on integers; hopf over F_p works modulo p.
"""

from __future__ import annotations

import math
from collections import Counter

from .errors import InternalError
from .filtration import Filtration
from .linalg import _combine


class _Reduction:
    """Sparse columns {row key: entry}, reduced so that the stored columns
    have pairwise distinct lowest rows (their largest key).

    Over F_p entries lie in [0, p) and a stored column is 1 at its lowest
    row; over Q (char 0) entries are integers and a stored column is
    primitive, positive at its lowest row.
    """

    def __init__(self, char: int):
        self.char = char
        self.pivots: dict[int, dict[int, int]] = {}

    def reduce(self, col: dict[int, int]) -> dict[int, int]:
        """A nonzero multiple of col minus a combination of stored columns
        whose lowest row is not a stored one, or {} when col is in their span."""
        p = self.char
        while col:
            low = max(col)
            pivot = self.pivots.get(low)
            if pivot is None:
                break
            a, b = pivot[low], col[low]
            if not p:
                g = math.gcd(a, b)
                a, b = a // g, b // g
            col = _combine(a, col, -b, pivot, p)
        return col

    def insert(self, col: dict[int, int]) -> int | None:
        """Reduce col and store it; its lowest row, or None when it lies in
        the span of the stored columns."""
        col = self.reduce(col)
        if not col:
            return None
        low = max(col)
        p = self.char
        if p:
            inv = pow(col[low], -1, p)
            if inv != 1:
                col = {r: v * inv % p for r, v in col.items()}
        else:
            g = math.gcd(*col.values())
            if col[low] < 0:
                g = -g
            if g != 1:
                col = {r: v // g for r, v in col.items()}
        self.pivots[low] = col
        return low


def _in_field(x: int, char: int) -> int:
    """An integer entry as stored over the field: reduced mod p over F_p."""
    return x % char if char else x


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

    closed = _Reduction(0)
    closers = {}    # positive edge -> the triangle that closes its cycle
    for s in simplices:
        if len(s) == 3:
            a, b, c = s
            low = closed.insert({key[(b, c)]: 1, key[(a, c)]: -1, key[(a, b)]: 1})
            if low is not None:
                closers[simplices[low]] = s

    cycles = _Reduction(0)
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


def hopf_bars(filt: Filtration, top, columns: dict, degree: dict,
              char: int) -> tuple[Counter, int]:
    """Index bars of the module H^n(X, A_i) over Q or F_p, when that whole
    group is every level's group, and the support of the degree class.

    `top` lists the n-simplices (the rows), `columns` maps each (n-1)-simplex
    with a coface to its ambient coboundary column {row: sign}, and `degree`
    is the degree cocycle on the rows.  A row is born at its entry; its key
    is its rank by (entry, row), so the youngest row of a column is its
    lowest.  A column born at entry e that keeps the lowest row r after
    reduction ends r's bar at level e - 1.

    The degree vector is relative at level 0 and is reduced once more after
    each level's relations: it lies in a level's relation span exactly when
    it reduces to zero there, and the first such level is the support.  Its
    rows are all born at 0, and so is every row a reduction on them can
    reach; the row whose relation finally kills it must end a bar
    (0, support - 1).
    """
    entry = filt.entry
    k = len(filt.samples) - 1
    ranked = sorted(range(len(top)), key=lambda r: (entry[top[r]], r))
    rank = {r: i for i, r in enumerate(ranked)}
    born = [entry[top[r]] for r in ranked]
    death = [k] * len(top)

    target = {rank[r]: _in_field(v, char) for r, v in degree.items()}
    target = {r: v for r, v in target.items() if v}
    if any(born[r] for r in target):
        raise InternalError("degree cocycle meets the superlevel complex")
    relations = _Reduction(char)
    support = None
    for level, batch in enumerate(filt.leaving(columns)):
        for s in batch:
            col = {rank[r]: _in_field(v, char) for r, v in columns[s].items()}
            low = relations.insert(col)
            if low is not None:
                death[low] = level - 1
        if support is None:
            last = max(target) if target else None
            target = relations.reduce(target)
            if not target:
                support = level
                if last is not None and (born[last] or death[last] != level - 1):
                    raise InternalError("the degree class dies off its bar")
    if support is None:
        raise InternalError("degree class survives every level")
    bars = Counter((b, d) for b, d in zip(born, death) if b <= d)
    return bars, support


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
