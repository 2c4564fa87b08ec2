"""Pointed barcodes of sampled persistence modules over a field.

`pipeline.field_barcode` is the entry point from an analysis: where one
pass over the filtration order gives the bars (`persistence`), it
builds no module and hands the index bars to `pointed_barcode`; otherwise
it assembles the module and runs `barcode`.

Two independent routes produce the interval multiset of a module:

* `barcode` runs the elder-rule sweep: at each transition the images of the
  live bars are reduced in order of birth, a bar whose image depends on
  older ones dies, and the new sample's space is completed with bars born
  there.  This takes O(L d^3) field operations for L samples of dimension
  at most d, and it checks the distinguished bar as a direct summand;
* `decompose_oracle` uses inclusion-exclusion on ranks of composite
  transitions (with virtual zero spaces beyond both ends of the sample
  range), O(L^2) composite ranks, under a cap on the total dimension.

Bars are tracked as sample-index intervals [a, b] (alive at samples a..b)
and only converted to radius intervals at the end: a bar alive on samples
a..b is (s_a, s_{b+1}] with s_0 = 0; a bar still alive at the last sample
dies at that sample's radius (which never happens for geometric modules,
whose final level is empty).
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InputError, InternalError
from .exact import ExactRadius, ZERO_RADIUS
from .linalg import (
    DenseAdapter,
    field_mat_mul,
    field_mat_vec,
    field_rank,
    field_solve,
    to_field_matrix,
)
from .modes import Mode

if TYPE_CHECKING:
    from .pipeline import PointedModule

_radius_key = functools.cmp_to_key(lambda a, b: a.cmp(b))


@dataclass(frozen=True)
class Interval:
    """A half-open persistence interval (birth, death]."""

    birth: ExactRadius
    death: ExactRadius

    def __post_init__(self):
        if self.birth.cmp(self.death) >= 0:
            raise InputError("interval birth must precede death")

    def length(self) -> ExactRadius:
        try:
            return self.death.gap(self.birth)
        except ValueError as exc:
            raise InputError(f"incomparable interval endpoints: {exc}") from exc

    def sort_key(self):
        return (_radius_key(self.birth), _radius_key(self.death))

    def __repr__(self):
        return f"({self.birth!r}, {self.death!r}]"


@dataclass(frozen=True)
class PointedBarcode:
    """A multiset of intervals with at most one distinguished interval."""

    bars: tuple  # ordered tuple of (Interval, multiplicity)
    distinguished: Interval | None

    def __post_init__(self):
        if self.distinguished is not None:
            if not any(iv == self.distinguished for iv, _ in self.bars):
                raise InternalError(
                    "distinguished interval missing from the multiset"
                )

    @staticmethod
    def from_multiset(counter: dict, distinguished: Interval | None) -> "PointedBarcode":
        bars = tuple(sorted(counter.items(), key=lambda kv: kv[0].sort_key()))
        return PointedBarcode(bars, distinguished)

    def multiset(self) -> Counter:
        return Counter({iv: mult for iv, mult in self.bars})

    def total(self) -> int:
        return sum(m for _, m in self.bars)

    def expand(self) -> list:
        out = []
        for iv, mult in self.bars:
            out.extend([iv] * mult)
        return out


# ---------------------------------------------------------------------------
# index-interval helpers
# ---------------------------------------------------------------------------

def _require_field(module: PointedModule) -> None:
    if module.char is None:
        raise InputError("barcodes require field coefficients; tensor first")


def _distinguished_support(module: PointedModule) -> int:
    """Number of leading samples at which the distinguished vector is nonzero."""
    nonzero = [any(vec) for vec in to_field_matrix(module.distinguished, module.char)]
    support = nonzero.index(False) if False in nonzero else len(nonzero)
    # Pointedness makes the support an initial segment; verify the tail.
    if any(nonzero[support:]):
        raise InternalError("distinguished vector revived after vanishing")
    return support


def _interval(samples, criticals, a: int, b: int) -> Interval:
    k = len(samples) - 1
    birth = ZERO_RADIUS if a == 0 else criticals[a - 1]
    death = criticals[b] if b < k else samples[k]
    return Interval(birth, death)


def pointed_barcode(samples, criticals, index_bars: Counter, support: int) -> PointedBarcode:
    """The pointed barcode of index bars over the given samples, whose
    distinguished bar lives on the first `support` samples (none if 0)."""
    counter = Counter()
    for (a, b), mult in index_bars.items():
        counter[_interval(samples, criticals, a, b)] += mult
    distinguished = _interval(samples, criticals, 0, support - 1) if support else None
    return PointedBarcode.from_multiset(counter, distinguished)


def _pointed(module: PointedModule, index_bars: Counter,
             signs_robust_radius: ExactRadius | None) -> PointedBarcode:
    if module.mode != Mode.SIGNS:
        return pointed_barcode(module.samples, module.criticals, index_bars,
                               _distinguished_support(module))
    if signs_robust_radius is None:
        raise InputError("signs barcodes need the robust radius to place "
                         "the distinguished bar")
    bars = pointed_barcode(module.samples, module.criticals, index_bars, 0).bars
    distinguished = None
    if signs_robust_radius.sign() != 0:
        distinguished = Interval(ZERO_RADIUS, signs_robust_radius)
    return PointedBarcode(bars, distinguished)


def barcode(module: PointedModule,
            signs_robust_radius: ExactRadius | None = None) -> PointedBarcode:
    """Pointed barcode of a field module by the elder-rule sweep.

    Bars are carried as concrete vectors, each sample's live bars forming
    a basis of its space.  At each transition the images of the live bars
    are reduced in order of increasing birth, so a dependency kills the
    youngest bar, and the new sample's space is completed with fresh bars.

    The distinguished bar spans from 0 to the last radius at which the
    distinguished vector survives; the direct-summand argument guarantees
    a summand with that interval, which is checked constructively at that
    last sample.  In signs mode the bar is placed at the robust radius
    supplied by the caller (the sign data itself has no meaningful
    vanishing locus in field coordinates).
    """
    _require_field(module)
    char = module.char
    k = module.level_count() - 1
    support = 0 if module.mode == Mode.SIGNS else _distinguished_support(module)
    births: list[int] = []
    deaths: list[int] = []
    live: list[tuple[int, list]] = []   # (bar, vector), in order of birth
    snapshot = None
    for i in range(k + 1):
        echelon = DenseAdapter(char)
        survivors = []
        if i:
            step = to_field_matrix(module.transitions[i - 1], char)
            for bar, vec in live:
                stored = echelon.insert(field_mat_vec(step, vec, char))
                if stored is None:
                    deaths[bar] = i - 1
                else:
                    survivors.append((bar, stored))
        dim = module.dims[i]
        for j in range(dim):
            stored = echelon.insert([int(r == j) for r in range(dim)])
            if stored is not None:
                survivors.append((len(births), stored))
                births.append(i)
                deaths.append(k)
        live = survivors
        if i == support - 1:
            snapshot = live
    if snapshot is not None:
        _verify_distinguished_summand(module, snapshot, support - 1, births, deaths)
    return _pointed(module, Counter(zip(births, deaths)), signs_robust_radius)


def _verify_distinguished_summand(module: PointedModule, basis, t: int,
                                  births: list[int], deaths: list[int]) -> None:
    """Constructive direct-summand check for the distinguished interval.

    Expanding the distinguished vector in the decomposition basis at its
    last surviving sample t: every contributing summand must be born at 0,
    and one of them must die exactly with the vector; that summand can be
    swapped for the distinguished submodule, exhibiting the direct summand.
    """
    if not basis:
        raise InternalError("empty basis at a sample with a nonzero vector")
    matrix = [[vec[row] for _, vec in basis] for row in range(len(basis[0][1]))]
    coeffs = field_solve(matrix, list(module.distinguished[t]), module.char)
    if coeffs is None:
        raise InternalError("distinguished vector escaped the sample basis")
    contributing = [bar for (bar, _), coeff in zip(basis, coeffs) if coeff != 0]
    if not contributing:
        raise InternalError("distinguished vector has empty expansion")
    if any(births[bar] != 0 for bar in contributing):
        raise InternalError("distinguished expansion uses a late-born summand")
    if all(deaths[bar] != t for bar in contributing):
        raise InternalError("no contributing summand matches the support")


# ---------------------------------------------------------------------------
# rank-formula oracle
# ---------------------------------------------------------------------------

ORACLE_DIMENSION_CAP = 64


def index_bars_by_rank(module: PointedModule) -> Counter:
    """Multiset of index intervals via the inclusion-exclusion rank formula."""
    _require_field(module)
    char = module.char
    k = module.level_count() - 1
    dims = module.dims
    transitions = [to_field_matrix(t, char) for t in module.transitions]

    ranks: dict[tuple[int, int], int] = {}
    for a in range(k + 1):
        ranks[(a, a)] = dims[a]
        composite = None
        for b in range(a + 1, k + 1):
            step = transitions[b - 1]
            composite = step if composite is None else field_mat_mul(step, composite, char)
            ranks[(a, b)] = field_rank(composite, char)

    def rank(a: int, b: int) -> int:
        if a < 0 or b > k:
            return 0
        return ranks[(a, b)]

    bars: Counter = Counter()
    for a in range(k + 1):
        for b in range(a, k + 1):
            mult = rank(a, b) - rank(a - 1, b) - rank(a, b + 1) + rank(a - 1, b + 1)
            if mult < 0:
                raise InternalError("negative multiplicity in rank formula")
            if mult:
                bars[(a, b)] = mult
    # Consistency: bars alive at sample i account for its full dimension.
    for i in range(k + 1):
        alive = sum(m for (a, b), m in bars.items() if a <= i <= b)
        if alive != dims[i]:
            raise InternalError("rank formula failed the dimension check")
    return bars


def decompose_oracle(module: PointedModule,
                     signs_robust_radius: ExactRadius | None = None) -> PointedBarcode:
    """Pointed barcode by the rank formula, independent of `barcode`'s sweep.

    It takes O(L^2) composite ranks, so it is capped at a total dimension
    of ORACLE_DIMENSION_CAP.
    """
    _require_field(module)
    if sum(module.dims) > ORACLE_DIMENSION_CAP:
        raise InputError(
            f"oracle caps total dimension at {ORACLE_DIMENSION_CAP}"
        )
    return _pointed(module, index_bars_by_rank(module), signs_robust_radius)
