"""Exact scalar arithmetic for radii and barcode endpoints.

Every quantity that enters a comparison anywhere in this package is either a
rational number or a value of the form sqrt(p) - sqrt(q) with p, q rational
and nonnegative.  Plain rationals and single square roots (the l2 critical
values) are the two common cases; differences of square roots appear when
bottleneck candidates are formed from l2 endpoints.  All comparisons are
decided exactly by sign-tracked squaring; no floating point is involved.
"""

from __future__ import annotations

import math
from fractions import Fraction

LT, EQ, GT = -1, 0, 1

_ZERO = Fraction(0)


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal of the form "p", "-p" or "p/q"."""
    if not isinstance(text, str):
        raise ValueError(f"rational value must be a string, got {text!r}")
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc
    return value


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def sqrt_if_square(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        raise ValueError("sqrt_if_square needs a nonnegative argument")
    num, den = q.numerator, q.denominator
    rn = math.isqrt(num)
    if rn * rn != num:
        return None
    rd = math.isqrt(den)
    if rd * rd != den:
        return None
    return Fraction(rn, rd)


def _sign(x: Fraction) -> int:
    if x > 0:
        return GT
    if x < 0:
        return LT
    return EQ


def _cmp(a: Fraction, b: Fraction) -> int:
    """Three-way comparison of two rationals, with no subtraction."""
    if a > b:
        return GT
    if a < b:
        return LT
    return EQ


def _sign_a_plus_b_sqrt(a: Fraction, b: Fraction, c: Fraction) -> int:
    """Exact sign of a + b*sqrt(c) for rational a, b and rational c >= 0."""
    if c < 0:
        raise ValueError("radicand must be nonnegative")
    if b == 0 or c == 0:
        return _sign(a)
    sb = _sign(b)
    sa = _sign(a)
    if sa == 0:
        return sb
    if sa == sb:
        return sa
    # Opposite signs: compare |a| against |b| sqrt(c) by squaring.
    cmp_sq = _sign(a * a - b * b * c)
    if cmp_sq == 0:
        return EQ
    return sa if cmp_sq > 0 else sb


def _cmp_sqrt_sums(p1: Fraction, p2: Fraction, q1: Fraction, q2: Fraction) -> int:
    """Exact sign of (sqrt(p1)+sqrt(p2)) - (sqrt(q1)+sqrt(q2)), args >= 0.

    Both sides are nonnegative, so the sign equals the sign of the difference
    of the squares, which has the shape x + 2 sqrt(v) - 2 sqrt(w).  One more
    squaring round resolves that sign within the rationals.
    """
    x = p1 + p2 - q1 - q2
    v = p1 * p2
    w = q1 * q2
    t = _sign(v - w)  # sign of sqrt(v) - sqrt(w)
    sx = _sign(x)
    if sx == 0:
        return t
    if t == 0 or sx == t:
        return sx
    # x and 2(sqrt(v)-sqrt(w)) have opposite signs; compare magnitudes:
    # x^2  vs  4(v + w) - 8 sqrt(v w)
    m = _sign_a_plus_b_sqrt(x * x - 4 * (v + w), Fraction(8), v * w)
    if m == 0:
        return EQ
    return sx if m > 0 else t


class ExactRadius:
    """An exact scalar of the form sqrt(plus) - sqrt(minus).

    Canonical form: if plus/minus is a perfect rational square the value
    collapses to a single term, so structural equality coincides with
    numerical equality and instances hash consistently.  Rationals are stored
    as (x^2, 0) for x >= 0 and (0, x^2) for x < 0.
    """

    __slots__ = ("plus", "minus")

    def __init__(self, plus: Fraction, minus: Fraction = _ZERO):
        if type(plus) is not Fraction:
            plus = Fraction(plus)
        if type(minus) is not Fraction:
            minus = Fraction(minus)
        if plus.numerator < 0 or minus.numerator < 0:
            raise ValueError("radicands must be nonnegative")
        if plus and minus:
            ratio = sqrt_if_square(plus / minus)
            if ratio is not None:
                # sqrt(plus) - sqrt(minus) = (ratio - 1) sqrt(minus)
                coeff = ratio - 1
                if coeff >= 0:
                    plus, minus = coeff * coeff * minus, _ZERO
                else:
                    plus, minus = _ZERO, coeff * coeff * minus
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ExactRadius is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def of(value) -> "ExactRadius":
        """Exact radius equal to the given rational value."""
        if type(value) is not Fraction:
            value = Fraction(value)
        if value.numerator >= 0:
            return ExactRadius(value * value, _ZERO)
        return ExactRadius(_ZERO, value * value)

    @staticmethod
    def sqrt(square) -> "ExactRadius":
        """Exact radius equal to sqrt(square), square a nonnegative rational."""
        if type(square) is not Fraction:
            square = Fraction(square)
        if square.numerator < 0:
            raise ValueError("square must be nonnegative")
        return ExactRadius(square, _ZERO)

    # -- predicates and conversions ---------------------------------------

    def as_fraction(self) -> Fraction | None:
        """The exact rational value, or None if the value is irrational."""
        if self.minus == 0:
            return sqrt_if_square(self.plus)
        if self.plus == 0:
            root = sqrt_if_square(self.minus)
            return None if root is None else -root
        return None

    @property
    def is_simple(self) -> bool:
        """True when a single radical term suffices (no genuine difference)."""
        return self.plus == 0 or self.minus == 0

    def sign(self) -> int:
        return _cmp(self.plus, self.minus)

    def cmp(self, other: "ExactRadius") -> int:
        """Exact three-way comparison, one of LT, EQ, GT."""
        other = _coerce(other)
        # Common fast path: two single-radical values of the same sign
        # compare by their radicands.
        if not self.minus and not other.minus:
            return _cmp(self.plus, other.plus)
        if not self.plus and not other.plus:
            return _cmp(other.minus, self.minus)
        return _cmp_sqrt_sums(self.plus, other.minus, other.plus, self.minus)

    # -- arithmetic (closed operations only) -------------------------------

    def scale(self, factor) -> "ExactRadius":
        """Multiply by a nonnegative rational factor."""
        factor = Fraction(factor)
        if factor < 0:
            raise ValueError("scale factor must be nonnegative")
        f2 = factor * factor
        return ExactRadius(self.plus * f2, self.minus * f2)

    def __neg__(self) -> "ExactRadius":
        return ExactRadius(self.minus, self.plus)

    def __abs__(self) -> "ExactRadius":
        return self if self.sign() >= 0 else -self

    def gap(self, other: "ExactRadius") -> "ExactRadius":
        """|self - other| for two simple (single-term) values.

        Differences of values that already mix two radicals are not closed
        under this representation and are never needed by the package.
        """
        other = _coerce(other)
        if not (self.is_simple and other.is_simple):
            raise ValueError("gap is only defined for single-term values")
        if self.sign() >= 0 and other.sign() >= 0:
            a, b = self.plus, other.plus
        elif self.sign() <= 0 and other.sign() <= 0:
            a, b = self.minus, other.minus
        else:
            raise ValueError("gap of opposite-sign values is not representable")
        return ExactRadius(a, b) if a >= b else ExactRadius(b, a)

    def rational_above(self) -> Fraction:
        """Some rational strictly greater than the value (small and exact)."""
        value = self.as_fraction()
        if value is not None:
            return value + 1
        if self.minus == 0:
            # sqrt(plus): the integer isqrt(floor(plus)) + 1 exceeds it unless
            # plus is large and near a square boundary; bump until it does.
            candidate = math.isqrt(self.plus.numerator // self.plus.denominator) + 1
            while Fraction(candidate) * candidate <= self.plus:
                candidate += 1
            return Fraction(candidate)
        # sqrt(plus) - sqrt(minus) < sqrt(plus)
        return ExactRadius(self.plus).rational_above()

    def approx(self) -> float:
        """Floating-point approximation, for diagnostics only."""
        return math.sqrt(self.plus) - math.sqrt(self.minus)

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, (ExactRadius, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        return self.plus == other.plus and self.minus == other.minus

    def __hash__(self):
        return hash((self.plus, self.minus))

    def __lt__(self, other) -> bool:
        return self.cmp(_coerce(other)) < 0

    def __le__(self, other) -> bool:
        return self.cmp(_coerce(other)) <= 0

    def __gt__(self, other) -> bool:
        return self.cmp(_coerce(other)) > 0

    def __ge__(self, other) -> bool:
        return self.cmp(_coerce(other)) >= 0

    def __repr__(self):
        value = self.as_fraction()
        if value is not None:
            return f"ExactRadius({format_rational(value)})"
        if self.minus == 0:
            return f"ExactRadius(sqrt {format_rational(self.plus)})"
        return (
            f"ExactRadius(sqrt {format_rational(self.plus)}"
            f" - sqrt {format_rational(self.minus)})"
        )


def _coerce(value) -> ExactRadius:
    if isinstance(value, ExactRadius):
        return value
    if isinstance(value, (int, Fraction)):
        return ExactRadius.of(value)
    raise TypeError(f"cannot interpret {value!r} as ExactRadius")


ZERO_RADIUS = ExactRadius.of(0)


def cmp_radius(a: ExactRadius, b: ExactRadius) -> int:
    """Exact total-order comparison of two radii (LT/EQ/GT)."""
    return _coerce(a).cmp(_coerce(b))


def cmp_radius_diff(a: ExactRadius, b: ExactRadius, c: ExactRadius, d: ExactRadius) -> int:
    """Exact comparison of |a - b| against |c - d|."""
    return _coerce(a).gap(_coerce(b)).cmp(_coerce(c).gap(_coerce(d)))


def radius_max(values):
    values = list(values)
    if not values:
        raise ValueError("radius_max of empty sequence")
    best = values[0]
    for v in values[1:]:
        if v.cmp(best) > 0:
            best = v
    return best
