"""The hopf routes that one `rzero.persistence.LevelEchelon` replaced, kept
as test oracles.  Each reduces the ambient coboundary columns on its own:

* `obstructed`: whether the target lies outside the lattice of the columns
  off A, for every level A, from one integer echelon keyed by row index,
  with membership decided from scratch after each level's columns; it also
  counts the columns it put in;
* `ambient_trivial`: whether all the columns span every row over Z, from a
  lattice of all of them;
* `q_bars`: the bars over Q of ker j* and the support of the degree class,
  from `hopf_bars`' field reduction of the columns (a trivial ambient) or
  of their coordinates in `_kernel_presentation`'s basis (otherwise).
"""

from rzero.linalg import _lattice_contains, _lattice_insert, _lattice_is_full
from rzero.persistence import hopf_bars


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


def q_bars(filt, ambient):
    """(bars, support) over Q of a `pipeline.HopfAmbient`, by `hopf_bars`."""
    return hopf_bars(filt, ambient.top, ambient.columns, ambient.degree, 0,
                     ambient_trivial(ambient.top, ambient.columns))
