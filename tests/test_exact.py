"""Exact scalar arithmetic: comparisons, canonical forms, gaps."""

from fractions import Fraction

import pytest

from rzero.exact import LT, EQ, GT, ExactRadius, parse_rational
from rzero.io import decode_radius, encode_radius
from rzero.rng import RationalSampler


def test_cmp_examples():
    assert ExactRadius.of(Fraction(1, 2)).cmp(ExactRadius.sqrt(Fraction(1, 2))) == LT
    assert ExactRadius.of(3).cmp(ExactRadius.of(3)) == EQ
    assert ExactRadius.sqrt(2).cmp(ExactRadius.of(2)) == LT


def test_cmp_diff_examples():
    one, zero = ExactRadius.of(1), ExactRadius.of(0)
    # |a - b| against |c - d|
    assert one.gap(zero).cmp(ExactRadius.of(3).gap(ExactRadius.of(2))) == EQ
    assert ExactRadius.sqrt(2).gap(one).cmp(ExactRadius.of(Fraction(1, 2)).gap(zero)) == LT
    assert ExactRadius.sqrt(5).gap(ExactRadius.sqrt(2)).cmp(one.gap(zero)) == LT


def test_canonical_forms():
    assert ExactRadius.sqrt(25) == ExactRadius.of(5)
    assert ExactRadius.sqrt(Fraction(1, 4)) == ExactRadius.of(Fraction(1, 2))
    # sqrt 8 - sqrt 2 = sqrt 2
    assert ExactRadius(8, 2) == ExactRadius.sqrt(2)
    assert ExactRadius(2, 8) == -ExactRadius.sqrt(2)
    assert hash(ExactRadius.sqrt(9)) == hash(ExactRadius.of(3))


def test_sign_and_negation():
    assert ExactRadius.of(0).sign() == 0
    assert ExactRadius.sqrt(2).sign() == 1
    assert (-ExactRadius.sqrt(2)).sign() == -1
    assert ExactRadius.of(-3).sign() == -1
    assert abs(ExactRadius.of(-3)) == ExactRadius.of(3)


def test_scale():
    assert ExactRadius.sqrt(2).scale(3) == ExactRadius.sqrt(18)
    assert ExactRadius.of(Fraction(3, 2)).scale(Fraction(2, 3)) == ExactRadius.of(1)
    with pytest.raises(ValueError):
        ExactRadius.of(1).scale(-1)


def test_gap():
    a, b = ExactRadius.sqrt(5), ExactRadius.sqrt(2)
    g = a.gap(b)
    assert g.sign() > 0
    assert g == ExactRadius(5, 2)
    assert b.gap(a) == g
    assert ExactRadius.of(3).gap(ExactRadius.of(5)) == ExactRadius.of(2)
    # gap of mixed rational / sqrt values
    assert ExactRadius.sqrt(2).gap(ExactRadius.of(1)) == ExactRadius(2, 1)
    assert ExactRadius.of(-3).gap(ExactRadius.of(-5)) == ExactRadius.of(2)
    assert ExactRadius.of(0).gap(ExactRadius.of(-5)) == ExactRadius.of(5)
    # Values of opposite signs have no gap, on either route.
    for a, b in ((ExactRadius.of(-1), ExactRadius.of(1)),
                 (ExactRadius.sqrt(2), -ExactRadius.sqrt(3)),
                 (ExactRadius.of(1), -ExactRadius.sqrt(3))):
        with pytest.raises(ValueError, match="opposite-sign"):
            a.gap(b)
        with pytest.raises(ValueError, match="opposite-sign"):
            b.gap(a)
    with pytest.raises(ValueError, match="single-term"):
        ExactRadius(5, 2).gap(ExactRadius.of(1))


def test_rational_above():
    assert ExactRadius.of(1).rational_above() == 2
    above = ExactRadius.sqrt(2).rational_above()
    assert ExactRadius.of(above).cmp(ExactRadius.sqrt(2)) == GT
    huge = ExactRadius.sqrt(Fraction(10**12 + 1))
    assert ExactRadius.of(huge.rational_above()).cmp(huge) == GT


def _radicand_route(x):
    """The rational x built from radicands: sqrt(x^2) or -sqrt(x^2)."""
    return ExactRadius(x * x) if x >= 0 else ExactRadius(0, x * x)


def _random_radius(sampler):
    """A random value from either route: a rational through `of` or
    through radicands, the root of a rational, or a difference of roots."""
    kind = sampler.integer(0, 3)
    num = sampler.integer(0, 40)
    den = sampler.integer(1, 12)
    q = Fraction(num, den)
    if kind == 0:
        return ExactRadius.of(q)
    if kind == 1:
        return ExactRadius.sqrt(q)
    if kind == 2:
        return _radicand_route(q - Fraction(sampler.integer(0, 40), sampler.integer(1, 12)))
    q2 = Fraction(sampler.integer(0, 40), sampler.integer(1, 12))
    value = ExactRadius(max(q, q2), min(q, q2))
    return value


def test_equal_values_agree_whichever_route_built_them():
    """Each rational is built through the rational route (`of`, and `gap`
    and `scale` of rationals) and through the radicand route (radicands,
    `sqrt` of its square, a collapsing difference of roots, the decoders);
    every build compares, hashes, converts, subtracts, scales and encodes
    alike."""
    sampler = RationalSampler(11)
    others = [_random_radius(sampler) for _ in range(12)]
    for _ in range(40):
        x = Fraction(sampler.integer(0, 30), sampler.integer(1, 9))
        y = Fraction(sampler.integer(0, 30), sampler.integer(1, 9))
        builds = [
            ExactRadius.of(x),
            ExactRadius.of(x + y).gap(ExactRadius.of(y)),
            ExactRadius.of(y).gap(ExactRadius.of(x + y)),
            ExactRadius.of(2 * x).scale(Fraction(1, 2)),
            _radicand_route(x),
            ExactRadius.sqrt(x * x),
            ExactRadius(4 * x * x, x * x),  # 2x - x
            ExactRadius((x + 1) ** 2, 1),
            ExactRadius.sqrt(4 * x * x).scale(Fraction(1, 2)),
            ExactRadius.sqrt((x + y) ** 2).gap(ExactRadius.sqrt(y * y)),
            decode_radius({"rat": str(x)}),
            decode_radius({"sqrt": str(x * x)}),
            decode_radius({"sqrt_diff": [str(4 * x * x), str(x * x)]}),
        ]
        negatives = [ExactRadius.of(-x), _radicand_route(-x), -ExactRadius.sqrt(x * x),
                     ExactRadius(0, x * x), decode_radius({"rat": str(-x)})]
        for family, value in ((builds, x), (negatives, -x)):
            first = family[0]
            for r in family:
                assert r.cmp(first) == EQ and r == first and r == value
                assert hash(r) == hash(first) == hash(value)
                assert r.as_fraction() == value
                assert r.sign() == first.sign()
                assert (r.plus, r.minus) == (first.plus, first.minus)
                assert encode_radius(r) == encode_radius(first) == {"rat": str(value)}
                assert r.scale(Fraction(3, 2)) == first.scale(Fraction(3, 2))
                for other in others:
                    assert r.cmp(other) == first.cmp(other)
                    assert other.cmp(r) == other.cmp(first)
                    if other.is_simple and other.sign() * first.sign() >= 0:
                        assert r.gap(other) == first.gap(other)
                        assert encode_radius(r.gap(other)) == encode_radius(first.gap(other))
            assert len(set(family)) == 1


def test_total_order_properties():
    sampler = RationalSampler(99)
    values = [_random_radius(sampler) for _ in range(60)]
    for i in range(0, 57, 3):
        a, b, c = values[i], values[i + 1], values[i + 2]
        assert a.cmp(b) == -b.cmp(a)
        if a.cmp(b) <= 0 and b.cmp(c) <= 0:
            assert a.cmp(c) <= 0
        assert (a.cmp(b) == 0) == (a == b)


def test_against_sympy_oracle():
    import sympy

    sampler = RationalSampler(7)
    for _ in range(250):
        a = _random_radius(sampler)
        b = _random_radius(sampler)
        expr_a = sympy.sqrt(sympy.Rational(a.plus)) - sympy.sqrt(sympy.Rational(a.minus))
        expr_b = sympy.sqrt(sympy.Rational(b.plus)) - sympy.sqrt(sympy.Rational(b.minus))
        diff = sympy.nsimplify(expr_a - expr_b)
        if diff.is_zero:
            expected = 0
        else:
            expected = 1 if diff.evalf(60) > 0 else -1
        assert a.cmp(b) == expected, (a, b)
        # The same values built by either route compare alike.
        for twin_a in _both_routes(a):
            for twin_b in _both_routes(b):
                assert twin_a.cmp(twin_b) == expected, (twin_a, twin_b)


def _both_routes(r):
    """r rebuilt by each route that can build it: a rational through `of`
    and through radicands; an irrational value from its radicands."""
    value = r.as_fraction()
    if value is None:
        return [ExactRadius(r.plus, r.minus)]
    return [ExactRadius.of(value), _radicand_route(value)]


def test_parse_rational_grammar():
    for text, value in [("7", 7), ("-7", -7), ("3/4", Fraction(3, 4)), ("-6/8", Fraction(-3, 4)),
                        (" 0/5\n", 0), ("007/010", Fraction(7, 10))]:
        assert parse_rational(text) == value
    for text in ["", "-", "3/", "/4", "--1", "+1", "1/0", "0.5", "1e7", "1_0", "3 / 4", "inf"]:
        with pytest.raises(ValueError):
            parse_rational(text)
