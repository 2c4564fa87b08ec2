"""The hopf routes that one `rzero.persistence.LevelEchelon` replaced, kept
as test oracles.  Each reduces the ambient coboundary columns on its own:

* `obstructed`: whether the target lies outside the lattice of the columns
  off A, for every level A, from one integer echelon keyed by row index,
  with membership decided from scratch after each level's columns; it also
  counts the columns it put in;
* `ambient_trivial`: whether all the columns span every row over Z, from a
  lattice of all of them;
* `bars`: the bars over Q or F_p of ker j* and the support of the degree
  class, from `hopf_bars`' field reduction of the columns (a trivial
  ambient) or of their coordinates in the basis of `_kernel_presentation`,
  a second integer echelon of all the columns (otherwise).  `hopf_bars`
  and `_kernel_presentation` are the package's former route, kept as it
  was.
"""

from collections import Counter

from rzero.errors import InternalError
from rzero.filtration import Filtration
from rzero.linalg import (
    FieldEchelon,
    _lattice_contains,
    _lattice_coords,
    _lattice_insert,
    _lattice_is_full,
)


def obstructed(columns: dict, target: dict, filt) -> tuple[list[bool], int]:
    """(flags, inserted): per level, whether the target lies outside the
    span of the columns of the simplices off A, and how many columns went
    in before the flags were decided."""
    lattice: dict = {}
    flags = []
    inserted = 0
    for fresh in filt.leaving(columns):
        for s in fresh:
            _lattice_insert(lattice, columns[s])
            inserted += 1
        if _lattice_contains(lattice, target):
            break
        flags.append(True)
    return flags + [False] * (filt.level_count() - len(flags)), inserted


def ambient_trivial(top: list, columns: dict) -> bool:
    """Whether H^n(X) is zero: the columns span every row over Z."""
    lattice: dict = {}
    for col in columns.values():
        _lattice_insert(lattice, col)
    return _lattice_is_full(lattice, len(top))


def bars(filt, ambient, char: int):
    """(bars, support) over Q (char 0) or F_p of a `pipeline.HopfAmbient`,
    by `hopf_bars`."""
    return hopf_bars(filt, ambient.top, ambient.columns, ambient.degree, char,
                     ambient_trivial(ambient.top, ambient.columns))


def hopf_bars(filt: Filtration, top, columns: dict, degree: dict, char: int,
              trivial: bool) -> tuple[Counter, int]:
    """Index bars of the module ker(j*: H^n(X, A_i) -> H^n(X)) over Q or
    F_p, and the support of the degree class.

    `top` lists the n-simplices (the rows), `columns` maps each (n-1)-simplex
    with a coface to its ambient coboundary column {row: sign}, `degree` is
    the degree cocycle on the rows, and `trivial` says whether H^n(X) = 0.
    A row is born at its entry; its rank is its place by (entry, row), so
    the youngest row of a vector is its highest rank.

    The analysis reads the same bars and support off its own echelon
    (`LevelEchelon.bars`).

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
