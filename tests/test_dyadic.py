"""Exact dyadic helpers."""

import math
import random
from fractions import Fraction

import pytest
from fraction_oracles import format_exact, parse_dyadic
from hypothesis import example, given, strategies as st

from gaugetree.dyadic import (
    MAX_BITS,
    MAX_EXPONENT,
    dyadic_pair,
    floor_log2,
    floor_log2_ratio,
    format_dyadic,
    format_ratio,
    format_rational,
    parse_float,
    parse_rational,
    to_number,
    value_le,
)


def test_dyadic_pair_normal_form():
    assert dyadic_pair(12, 5) == (3, 3)
    assert dyadic_pair(7, -2) == (7, -2)
    assert dyadic_pair(8) == (1, -3)
    assert dyadic_pair(0, 9) == (0, 0)
    for m in range(-40, 41):
        for e in range(-5, 6):
            mm, ee = dyadic_pair(m, e)
            assert mm % 2 == 1 or (mm, ee) == (0, 0)
            assert to_number((mm, ee)) == m / Fraction(2) ** e


def test_pair_projection_format_and_order():
    # in normal form or not: an even m, or m = 0 with e != 0, is written as its normal form
    pairs = [(m, e) for m in range(-4, 20) for e in range(-3, 8)]
    for a in pairs:
        x = to_number(a)
        assert isinstance(x, Fraction)
        assert format_dyadic(a) == format_dyadic(dyadic_pair(*a)) == format_exact(x)
        assert parse_dyadic(format_dyadic(a)) == x
        for b in pairs + [(1, 2), (1, 7), (3, 0), (-1, 3)]:
            y = to_number(b)
            assert value_le(a, b) == (x <= y)
            assert value_le(b, a) == (y <= x)


def test_floor_log2():
    assert floor_log2(Fraction(1)) == 0
    assert floor_log2(Fraction(3, 2)) == 0
    assert floor_log2(Fraction(2)) == 1
    assert floor_log2(Fraction(1, 2)) == -1
    assert floor_log2(Fraction(3, 20)) == -3
    assert floor_log2(Fraction(1, 2**100)) == -100
    with pytest.raises(ValueError):
        floor_log2(Fraction(0))


def test_floor_log2_brute_agreement():
    for p in range(1, 40):
        for q in range(1, 40):
            x = Fraction(p, q)
            e = floor_log2(x)
            assert Fraction(2) ** e <= x < Fraction(2) ** (e + 1)


def test_floor_log2_ratio_matches_fraction_form():
    rng = random.Random(4)
    for _ in range(3000):
        p = rng.randint(1, 2 ** rng.randint(1, 200))
        q = rng.randint(1, 2 ** rng.randint(1, 200))
        k = rng.choice([1, 1, 3, 2**rng.randint(1, 40), rng.randint(2, 10**9)])
        # unreduced (p*k, q*k) has the same floor(log2)
        assert floor_log2_ratio(p * k, q * k) == floor_log2(Fraction(p, q))
    for e in range(-70, 71):
        x = Fraction(2) ** e
        for y in (x, x - Fraction(1, 2**90), x + Fraction(1, 2**90)):
            assert floor_log2_ratio(y.numerator, y.denominator) == floor_log2(y)


def test_format_exact():
    for a in [(0, 0), (5, 3), (3, 0), (-7, 4), (1, 90)]:
        assert format_exact(to_number(a)) == format_dyadic(a)
    # a level walk's end with an even mantissa
    assert format_dyadic((13043817825332782212, 63)) == "3260954456333195553/2^61"
    assert format_exact(Fraction(2, 3)) == "2/3"
    assert format_exact(Fraction(-8, 7)) == "-8/7"
    assert parse_rational(format_exact(Fraction(10, 12))) == Fraction(5, 6)


def test_dyadic_round_trip():
    for a in [(0, 0), (5, 3), (3, 0), (-7, 4), (12, 5), (0, 7)]:
        assert parse_dyadic(format_dyadic(a)) == to_number(a)
    # every cell the tool writes: exact p/q and float reprs too
    assert parse_dyadic(format_exact(Fraction(-8, 7))) == Fraction(-8, 7)
    assert float(parse_dyadic(repr(2.0**-0.5))) == 2.0**-0.5
    assert float(parse_dyadic("1e-310")) == 1e-310


def test_parse_float_matches_the_exact_parse():
    """parse_float is float(parse_dyadic(s)), also where the value underflows
    past the power of two it caps, and refuses what parse_dyadic cannot read."""
    big = (1 << 5000) + 1
    cells = ["0", "-3", "5/8", "-8/7", "1/2^1", "-7/2^4", "1e-310", repr(2.0**-0.5), "1/2^1074",
             "1/2^1075", "3/2^1076", "-1/2^1200", f"{big}/2^6074", f"{big}/2^6200", f"{big}/2^4990"]
    for cell in cells:
        x = parse_float(cell)
        assert x == float(parse_dyadic(cell)) and math.copysign(1, x) == math.copysign(1, float(parse_dyadic(cell)))
    for cell in ["1/2^-5", "1e999", "inf", "nan", "1/0", "x", "1/2^x", f"{big}/2^1"]:
        with pytest.raises((ValueError, ZeroDivisionError, OverflowError)):
            parse_float(cell)
    with pytest.raises(ValueError, match=r"negative power of two in '1/2\^-5'"):  # not "negative shift count"
        parse_float("1/2^-5")


def test_parse_rational_refuses_only_an_exponent_past_the_bound():
    """parse_rational is Fraction(s) up to |exponent| = MAX_EXPONENT, and
    refuses a larger one before Fraction would build 10^|exponent|; in its own
    words it refuses a literal with a run of digits no int reads, and a value
    with a numerator or denominator past MAX_BITS bits, which every int
    within MAX_EXPONENT digits may write as text."""
    assert MAX_EXPONENT == 4300
    for cell in ["1/3", "0.5", "-2.5e3", "1E-4299", "7e+0004299", " 1e1_0 ", "1e0", "\u0661e\u0662"]:
        assert parse_rational(cell) == Fraction(cell)
    for cell in ["1e4301", "1E-4301", "2.5e999999999", "1e+00000004301", "1e1_000_000_000"]:
        with pytest.raises(ValueError, match="exceeds 4300 in absolute value"):
            parse_rational(cell)
    assert MAX_BITS == 14284 and len(str((1 << MAX_BITS) - 1)) == 4300
    for cell in ["1E-4300", "7e+0004300", "12345e4299", f"1/{1 << MAX_BITS}", f"-{1 << MAX_BITS}.0"]:
        with pytest.raises(ValueError, match="numerator or denominator of .* has more than 14284 bits"):
            parse_rational(cell)
    for cell in ["0." + "0" * 4400 + "1", "1" * 4301, "1_" * 4300 + "1", "1e" + "0" * 4300 + "1"]:
        with pytest.raises(ValueError, match="has a run of more than 4300 digits"):
            parse_rational(cell)
    big = (1 << MAX_BITS) - 1
    assert parse_rational(f"1/{big}") == Fraction(1, big) and parse_rational("1_" * 4299 + "1") == int("1" * 4300)
    for cell in ["e5", "1e", "x", "1/2e5", "1e1_0_"]:
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            parse_rational(cell)


def test_rational_round_trip():
    for x in [Fraction(1, 3), Fraction(0), Fraction(22, 7)]:
        assert parse_rational(format_rational(x)) == x


@st.composite
def ratios(draw):
    """(p, q), q > 0, with q dividing p for a third of them."""
    q = draw(st.integers(1, 1 << 80))
    if draw(st.integers(0, 2)):
        return draw(st.integers(-(1 << 80), 1 << 80)), q
    return q * draw(st.integers(-(1 << 20), 1 << 20)), q


@given(ratios())
@example((0, 1))
@example((0, 6))
@example((12, 4))
@example((-6, 3))
@example((6, 4))
def test_format_ratio_matches_fraction(pq):
    p, q = pq
    assert format_ratio(p, q) == format_rational(Fraction(p, q)) == str(Fraction(p, q))
