"""Exact scalar arithmetic for radii and barcode endpoints.

Every quantity that enters a comparison anywhere in this package is either a
rational number or a value of the form sqrt(p) - sqrt(q) with p, q rational
and nonnegative.  An `ExactRadius` comes by one of two routes:

* The rational route (`ExactRadius.of`, the l1 and linf norms, and `gap` and
  `scale` of rational radii) keeps the rational value itself.  Comparing,
  subtracting or scaling two such radii is one operation on their integer
  numerators and denominators, with no square roots.
* The radicand route (the constructor and `ExactRadius.sqrt`: the l2
  critical values and their differences) keeps the two radicands in
  canonical form.  Comparisons are decided by sign-tracked squaring.

A radicand-route value that is rational (the root of a perfect square) is
stored as that rational, so equal values are equal and hash alike whichever
route built them.  Every comparison reduces to signs of integers; no
floating point is involved.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import InputError

LT, EQ, GT = -1, 0, 1

_ZERO = Fraction(0)
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal "p", "-p", "p/q" or "-p/q" (ASCII digits,
    surrounding whitespace ignored).  Decimals, exponents, a leading "+" and
    digit separators are rejected, so no literal is ever expanded."""
    if not isinstance(text, str):
        raise ValueError(f"rational value must be a string, got {text!r}")
    match = _RATIONAL.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not a rational number: {text!r}")
    try:
        # int() refuses more digits than sys.get_int_max_str_digits().
        return Fraction(int(match[1]), int(match[2] or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:   # more digits than int() writes out
        limit = sys.get_int_max_str_digits()
        raise InputError(f"an output number has more than {limit} digits") from exc


def sqrt_if_square(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    num, den = q.numerator, q.denominator
    if num < 0:
        raise ValueError("sqrt_if_square needs a nonnegative argument")
    rn = math.isqrt(num)
    if rn * rn != num:
        return None
    rd = math.isqrt(den)
    if rd * rd != den:
        return None
    return Fraction(rn, rd)


def _sign(x: Fraction) -> int:
    """Sign of a rational, read off its numerator."""
    n = x.numerator
    return (n > 0) - (n < 0)


def _cmp(a: Fraction, b: Fraction) -> int:
    """Three-way comparison of two rationals on integers: the numerators
    cross-multiplied by the (positive) denominators."""
    x = a.numerator * b.denominator
    y = b.numerator * a.denominator
    return (x > y) - (x < y)


def _sign_a_plus_b_sqrt(a: Fraction, b: Fraction, c: Fraction) -> int:
    """Exact sign of a + b*sqrt(c) for rational a, b and rational c >= 0."""
    if c.numerator < 0:
        raise ValueError("radicand must be nonnegative")
    if not b or not c:
        return _sign(a)
    sb = _sign(b)
    sa = _sign(a)
    if sa == 0:
        return sb
    if sa == sb:
        return sa
    # Opposite signs: compare |a| against |b| sqrt(c) by squaring.
    cmp_sq = _cmp(a * a, b * b * c)
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
    t = _cmp(v, w)  # sign of sqrt(v) - sqrt(w)
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


_new = object.__new__
_set = object.__setattr__


def _make(root: Fraction | None, plus: Fraction | None = None,
          minus: Fraction | None = None) -> "ExactRadius":
    """A radius from its parts, already canonical: a rational `root`, or
    (root None) the radicands of an irrational value."""
    radius = _new(ExactRadius)
    _set(radius, "root", root)
    _set(radius, "_plus", plus)
    _set(radius, "_minus", minus)
    return radius


class ExactRadius:
    """An exact scalar of the form sqrt(plus) - sqrt(minus).

    A rational value keeps itself as `root`; its radicands, (x^2, 0) for
    x >= 0 and (0, x^2) for x < 0, are derived when read.  An irrational
    value has `root` None and keeps its radicands in canonical form: when
    plus/minus is a perfect rational square the value collapses to a single
    term.  So structural equality coincides with numerical equality, and
    instances hash consistently.
    """

    __slots__ = ("root", "_plus", "_minus")

    def __init__(self, plus: Fraction, minus: Fraction = _ZERO):
        if type(plus) is not Fraction:
            plus = Fraction(plus)
        if type(minus) is not Fraction:
            minus = Fraction(minus)
        if plus.numerator < 0 or minus.numerator < 0:
            raise ValueError("radicands must be nonnegative")
        root = None
        if plus and minus:
            ratio = sqrt_if_square(plus / minus)
            if ratio is not None:
                # sqrt(plus) - sqrt(minus) = (ratio - 1) sqrt(minus)
                coeff = ratio - 1
                if coeff.numerator >= 0:
                    plus, minus = coeff * coeff * minus, _ZERO
                else:
                    plus, minus = _ZERO, coeff * coeff * minus
        # A genuine difference of two radicals is irrational; one radical
        # is rational when its radicand is a square.
        if not (plus and minus):
            root = sqrt_if_square(plus or minus)
            if root is not None and not plus:
                root = -root
        _set(self, "root", root)
        _set(self, "_plus", plus)
        _set(self, "_minus", minus)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ExactRadius is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def of(value) -> "ExactRadius":
        """Exact radius equal to the given rational value."""
        if type(value) is not Fraction:
            value = Fraction(value)
        return _make(value)

    @staticmethod
    def sqrt(square) -> "ExactRadius":
        """Exact radius equal to sqrt(square), square a nonnegative rational."""
        if type(square) is not Fraction:
            square = Fraction(square)
        if square.numerator < 0:
            raise ValueError("square must be nonnegative")
        return ExactRadius(square, _ZERO)

    # -- predicates and conversions ---------------------------------------

    @property
    def plus(self) -> Fraction:
        """The radicand of the positive term."""
        root = self.root
        if root is None:
            return self._plus
        return root * root if root.numerator > 0 else _ZERO

    @property
    def minus(self) -> Fraction:
        """The radicand of the negative term."""
        root = self.root
        if root is None:
            return self._minus
        return root * root if root.numerator < 0 else _ZERO

    def as_fraction(self) -> Fraction | None:
        """The exact rational value, or None if the value is irrational."""
        return self.root

    @property
    def is_simple(self) -> bool:
        """True when a single radical term suffices (no genuine difference)."""
        return self.root is not None or not self._plus or not self._minus

    def sign(self) -> int:
        root = self.root
        if root is not None:
            return _sign(root)
        return _cmp(self._plus, self._minus)

    def cmp(self, other: "ExactRadius") -> int:
        """Exact three-way comparison, one of LT, EQ, GT."""
        if type(other) is not ExactRadius:
            other = _coerce(other)
        a, b = self.root, other.root
        if a is not None and b is not None:
            return _cmp(a, b)
        p1, m1, p2, m2 = self.plus, self.minus, other.plus, other.minus
        # Two single-radical values of the same sign compare by their
        # radicands.
        if not m1 and not m2:
            return _cmp(p1, p2)
        if not p1 and not p2:
            return _cmp(m2, m1)
        return _cmp_sqrt_sums(p1, m2, p2, m1)

    # -- arithmetic (closed operations only) -------------------------------

    def scale(self, factor) -> "ExactRadius":
        """Multiply by a nonnegative rational factor."""
        if type(factor) is not Fraction:
            factor = Fraction(factor)
        if factor.numerator < 0:
            raise ValueError("scale factor must be nonnegative")
        if self.root is not None:
            return _make(self.root * factor)
        if not factor:
            return ZERO_RADIUS
        # A positive factor keeps plus/minus, so the form stays canonical.
        f2 = factor * factor
        return _make(None, self._plus * f2, self._minus * f2)

    def __neg__(self) -> "ExactRadius":
        if self.root is not None:
            return _make(-self.root)
        return _make(None, self._minus, self._plus)

    def __abs__(self) -> "ExactRadius":
        return self if self.sign() >= 0 else -self

    def gap(self, other: "ExactRadius") -> "ExactRadius":
        """|self - other| for two simple (single-term) values of one sign.

        Differences of values that already mix two radicals are not closed
        under this representation and are never needed by the package.
        """
        if type(other) is not ExactRadius:
            other = _coerce(other)
        a, b = self.root, other.root
        if a is not None and b is not None:
            if a.numerator * b.numerator < 0:
                raise ValueError("gap of opposite-sign values is not representable")
            d = a - b
            return _make(d if d.numerator >= 0 else -d)
        if not (self.is_simple and other.is_simple):
            raise ValueError("gap is only defined for single-term values")
        s, t = self.sign(), other.sign()
        if s >= 0 and t >= 0:
            a, b = self.plus, other.plus
        elif s <= 0 and t <= 0:
            a, b = self.minus, other.minus
        else:
            raise ValueError("gap of opposite-sign values is not representable")
        return ExactRadius(a, b) if _cmp(a, b) >= 0 else ExactRadius(b, a)

    def rational_above(self) -> Fraction:
        """Some rational strictly greater than the value (small and exact)."""
        if self.root is not None:
            return self.root + 1
        if not self._minus:
            # sqrt(plus): the integer isqrt(floor(plus)) + 1 exceeds it unless
            # plus is large and near a square boundary; bump until it does.
            plus = self._plus
            candidate = math.isqrt(plus.numerator // plus.denominator) + 1
            while Fraction(candidate) * candidate <= plus:
                candidate += 1
            return Fraction(candidate)
        # sqrt(plus) - sqrt(minus) < sqrt(plus)
        return ExactRadius(self._plus).rational_above()

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, (ExactRadius, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        if self.root is not None or other.root is not None:
            return self.root == other.root
        return self._plus == other._plus and self._minus == other._minus

    def __hash__(self):
        if self.root is not None:
            return hash(self.root)
        return hash((self._plus, self._minus))

    def __lt__(self, other) -> bool:
        return self.cmp(other) < 0

    def __le__(self, other) -> bool:
        return self.cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self.cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self.cmp(other) >= 0

    def __repr__(self):
        if self.root is not None:
            return f"ExactRadius({format_rational(self.root)})"
        if not self._minus:
            return f"ExactRadius(sqrt {format_rational(self._plus)})"
        return (
            f"ExactRadius(sqrt {format_rational(self._plus)}"
            f" - sqrt {format_rational(self._minus)})"
        )


def _coerce(value) -> ExactRadius:
    if isinstance(value, ExactRadius):
        return value
    if isinstance(value, (int, Fraction)):
        return ExactRadius.of(value)
    raise TypeError(f"cannot interpret {value!r} as ExactRadius")


ZERO_RADIUS = ExactRadius.of(0)

