"""Pointed barcodes of sampled persistence modules over a field.

Two independent routes produce the interval multiset:

* `barcode` uses inclusion-exclusion on ranks of composite transitions
  (with virtual zero spaces beyond both ends of the sample range);
* `decompose_oracle` performs an explicit interval decomposition by a
  left-to-right basis-completion sweep, killing the younger bar whenever
  images become dependent.

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
from fractions import Fraction

from .errors import InputError, InternalError
from .exact import ExactRadius, ZERO_RADIUS
from .linalg import field_mat_mul, field_mat_vec, field_rank, field_solve, to_field_matrix
from .modes import Mode
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

    def same_as(self, other: "PointedBarcode") -> bool:
        return (self.multiset() == other.multiset()
                and self.distinguished == other.distinguished)


# ---------------------------------------------------------------------------
# index-interval helpers
# ---------------------------------------------------------------------------

def _require_field(module: PointedModule) -> None:
    if module.char is None:
        raise InputError("barcodes require field coefficients; tensor first")


def _distinguished_support(module: PointedModule) -> int:
    """Number of leading samples at which the distinguished vector is nonzero."""
    support = 0
    for vec in module.distinguished:
        if any(x != 0 for x in _norm_vec(vec, module.char)):
            support += 1
        else:
            break
    # Pointedness makes the support an initial segment; verify the tail.
    for vec in module.distinguished[support:]:
        if any(x != 0 for x in _norm_vec(vec, module.char)):
            raise InternalError("distinguished vector revived after vanishing")
    return support


def _norm_vec(vec, char):
    if char == 0:
        return [Fraction(x) for x in vec]
    return [int(x) % char for x in vec]


def interval_from_indices(module: PointedModule, a: int, b: int) -> Interval:
    """Radius interval of a bar alive at sample indices a..b inclusive."""
    k = module.level_count() - 1
    birth = ZERO_RADIUS if a == 0 else module.criticals[a - 1]
    death = module.criticals[b] if b < k else module.samples[k]
    return Interval(birth, death)


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


def _distinguished_interval(module: PointedModule,
                            signs_robust_radius: ExactRadius | None) -> Interval | None:
    if module.mode == Mode.SIGNS:
        if signs_robust_radius is None:
            raise InputError("signs barcodes need the robust radius to place "
                             "the distinguished bar")
        if signs_robust_radius.sign() == 0:
            return None
        return Interval(ZERO_RADIUS, signs_robust_radius)
    support = _distinguished_support(module)
    if support == 0:
        return None
    return interval_from_indices(module, 0, support - 1)


def barcode(module: PointedModule,
            signs_robust_radius: ExactRadius | None = None) -> PointedBarcode:
    """Pointed barcode of a field module via the rank formula.

    The distinguished bar spans from 0 to the last radius at which the
    distinguished vector survives; in signs mode it is placed at the robust
    radius supplied by the caller (the sign data itself has no meaningful
    vanishing locus in field coordinates).
    """
    index_bars = index_bars_by_rank(module)
    counter = Counter()
    for (a, b), mult in index_bars.items():
        counter[interval_from_indices(module, a, b)] += mult
    distinguished = _distinguished_interval(module, signs_robust_radius)
    return PointedBarcode.from_multiset(counter, distinguished)


# ---------------------------------------------------------------------------
# brute-force decomposition oracle
# ---------------------------------------------------------------------------

ORACLE_DIMENSION_CAP = 64


class _Reducer:
    """Gaussian pivot structure over one sample's vector space."""

    def __init__(self, char: int):
        self.char = char
        self.pivots: list[tuple[int, list]] = []

    def reduce(self, vec):
        vec = _norm_vec(vec, self.char)
        for row, basis in self.pivots:
            coeff = vec[row]
            if coeff != 0:
                vec = _norm_vec(
                    [x - coeff * y for x, y in zip(vec, basis)], self.char
                )
        return vec

    def insert(self, vec) -> bool:
        vec = self.reduce(vec)
        row = next((i for i, x in enumerate(vec) if x != 0), None)
        if row is None:
            return False
        inv = (Fraction(1) / vec[row]) if self.char == 0 else pow(vec[row], self.char - 2, self.char)
        vec = _norm_vec([x * inv for x in vec], self.char)
        self.pivots.append((row, vec))
        return True


class _Bar:
    """One summand tracked through the sweep; vec is its current vector."""

    __slots__ = ("birth", "death", "vec")

    def __init__(self, birth: int, vec):
        self.birth = birth
        self.death: int | None = None
        self.vec = vec


def decompose_oracle(module: PointedModule,
                     signs_robust_radius: ExactRadius | None = None) -> PointedBarcode:
    """Explicit interval decomposition by sequential basis completion.

    Bars are carried as concrete vectors; at each transition the images of
    the live bars are reduced in order of increasing birth (so dependencies
    kill the youngest bar), then the new sample's space is completed with
    fresh bars.  The distinguished bar is located as a summand whose
    interval equals the support of the distinguished vectors, which the
    direct-summand argument guarantees to exist.
    """
    _require_field(module)
    if sum(module.dims) > ORACLE_DIMENSION_CAP:
        raise InputError(
            f"oracle caps total dimension at {ORACLE_DIMENSION_CAP}"
        )
    char = module.char
    k = module.level_count() - 1
    all_bars: list[_Bar] = []
    active: list[_Bar] = []
    snapshots: list[list[_Bar]] = []

    reducer = _Reducer(char)
    for j in range(module.dims[0]):
        unit = [0] * module.dims[0]
        unit[j] = 1
        if reducer.insert(unit):
            bar = _Bar(0, reducer.pivots[-1][1])
            active.append(bar)
            all_bars.append(bar)
    snapshots.append([(bar, bar.vec) for bar in active])

    for i in range(k):
        step = to_field_matrix(module.transitions[i], char)
        survivors: list[_Bar] = []
        reducer = _Reducer(char)
        for bar in active:  # ascending birth by construction
            image = field_mat_vec(step, bar.vec, char)
            if reducer.insert(image):
                bar.vec = reducer.pivots[-1][1]
                survivors.append(bar)
            else:
                bar.death = i
        for j in range(module.dims[i + 1]):
            unit = [0] * module.dims[i + 1]
            unit[j] = 1
            if reducer.insert(unit):
                bar = _Bar(i + 1, reducer.pivots[-1][1])
                survivors.append(bar)
                all_bars.append(bar)
        active = survivors
        snapshots.append([(bar, bar.vec) for bar in active])

    for bar in active:
        bar.death = k

    counter: Counter = Counter()
    for bar in all_bars:
        counter[(bar.birth, bar.death)] += 1

    if module.mode != Mode.SIGNS:
        support = _distinguished_support(module)
        if support:
            _verify_distinguished_summand(module, snapshots, support)

    radius_counter = Counter()
    for (a, b), mult in counter.items():
        radius_counter[interval_from_indices(module, a, b)] += mult
    distinguished = _distinguished_interval(module, signs_robust_radius)
    return PointedBarcode.from_multiset(radius_counter, distinguished)


def _verify_distinguished_summand(module: PointedModule, snapshots, support: int) -> None:
    """Constructive direct-summand check for the distinguished interval.

    Expanding the distinguished vector in the decomposition basis at its
    last surviving sample: every contributing summand must be born at 0,
    and one of them must die exactly with the vector; that summand can be
    swapped for the distinguished submodule, exhibiting the direct summand.
    """
    char = module.char
    t = support - 1
    basis = snapshots[t]
    if not basis:
        raise InternalError("empty basis at a sample with a nonzero vector")
    matrix = [[vec[row] for _, vec in basis] for row in range(len(basis[0][1]))]
    coeffs = field_solve(matrix, _norm_vec(module.distinguished[t], char), char)
    if coeffs is None:
        raise InternalError("distinguished vector escaped the sample basis")
    contributing = [bar for (bar, _), coeff in zip(basis, coeffs) if coeff != 0]
    if not contributing:
        raise InternalError("distinguished vector has empty expansion")
    if any(bar.birth != 0 for bar in contributing):
        raise InternalError("distinguished expansion uses a late-born summand")
    if all(bar.death != t for bar in contributing):
        raise InternalError("no contributing summand matches the support")
