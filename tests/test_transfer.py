"""Interleaving, dyadic expansion, four-interval covers, and the word reader batches draw from."""

import random
from fractions import Fraction

import pytest
from fraction_oracles import (
    deinterleave,
    reference_dyadic_four_cover,
    reference_interleave_metric_check,
    right_end,
)
from hypothesis import example, given, settings, strategies as st

from gaugetree import (
    dyadic_four_cover,
    expand,
    interleave,
    interleave_metric_check,
    to_cube,
)
from gaugetree.transfer import BITS_CHUNK, WordReader, four_cover_span


def test_expand():
    iv = expand("101")
    assert iv.left == Fraction(5, 8)
    assert (iv.level, iv.index) == (3, 5)
    assert right_end(iv) == Fraction(6, 8)
    assert expand("").left == 0


def test_interleave_example():
    assert interleave("011011", 2) == ("011", "101")
    assert interleave("011011", 3) == ("00", "11", "11")


def test_interleave_round_trip():
    rng = random.Random(0)
    for _ in range(500):
        n = rng.randint(1, 5)
        length = rng.randint(0, 40)
        x = "".join(rng.choice("01") for _ in range(length))
        assert deinterleave(interleave(x, n), n) == x


def test_to_cube_example():
    assert to_cube("011011", 2) == (Fraction(3, 8), Fraction(5, 8))


def test_metric_law_random():
    rng = random.Random(1)
    for _ in range(500):
        n = rng.randint(2, 4)
        length = 60
        x = "".join(rng.choice("01") for _ in range(length))
        y = "".join(rng.choice("01") for _ in range(length))
        if x == y:
            continue
        chk = interleave_metric_check(x, y, n)
        # components differ first at floor(k/n) or later, with equality for
        # the component owning position k
        assert chk.observed_exp == chk.expected_exp


def test_metric_check_rejects_equal():
    with pytest.raises(ValueError, match="distance undefined for equal strings"):
        interleave_metric_check("0101", "0101", 2)


@st.composite
def metric_cases(draw):
    """(x, y, n): bit strings of one length 1-400 that differ only from a drawn
    position on, often only in one residue class mod n (so the other
    components never differ), and sometimes not at all."""
    n = draw(st.integers(1, 5))
    length = draw(st.integers(1, 400))
    x = draw(st.integers(0, (1 << length) - 1))
    start = draw(st.integers(0, length - 1))  # the equal prefix
    mask = draw(st.integers(0, (1 << length - start) - 1))
    if draw(st.booleans()):
        r = draw(st.integers(0, n - 1))
        mask &= sum(1 << length - 1 - i for i in range(r, length, n))
    if draw(st.booleans()):  # a single differing bit at the end of the prefix
        mask = 1 << length - 1 - start
    return format(x, f"0{length}b"), format(x ^ mask, f"0{length}b"), n


@settings(max_examples=400)
@given(metric_cases())
@example(("1", "0", 1))
@example(("0" * 399 + "1", "0" * 400, 5))
@example(("0" * 399 + "1", "0" * 400, 1))
@example(("0110", "0111", 5))  # components 4 and 5 are empty
@example(("0110", "0110", 3))
def test_metric_check_matches_fraction_reference(case):
    x, y, n = case
    if x == y:
        for check in (interleave_metric_check, reference_interleave_metric_check):
            with pytest.raises(ValueError, match="distance undefined for equal strings"):
                check(x, y, n)
        return
    chk = interleave_metric_check(x, y, n)
    k, expected, observed = reference_interleave_metric_check(x, y, n)
    assert (chk.first_difference, Fraction(1, 1 << chk.expected_exp), Fraction(1, 1 << chk.observed_exp)) == (
        k, expected, observed)
    assert (chk.expected_exp, Fraction(1, 2**chk.observed_exp)) == (k // n, observed)


@pytest.mark.parametrize("x, y", [("0121", "0121"), ("0101", "012"), ("012", "0101")])
def test_metric_check_rejects_non_binary_first(x, y):
    """A non-binary string is refused before the equal-string and length checks."""
    with pytest.raises(ValueError, match="not a binary string"):
        interleave_metric_check(x, y, 2)


@pytest.mark.parametrize("x, y, n", [
    ("0a", "01", 0), ("01", "0b", 0), ("01", "0b", 2.0), ("01", "01", 0), ("01", "01", 2.0),
    ("01", "011", 2.0), ("01", "10", "2"), ("01", "10", -1), ("", "", 2), ("", "1", 2), (1, "0", 2), ("0", 1, 2),
])
def test_metric_check_errors_match_the_reference(x, y, n):
    """Each bad argument is refused with the reference's error, in its order:
    x, then n (below 1, then not an integer), then y, equality and length."""
    with pytest.raises((TypeError, ValueError)) as new:
        interleave_metric_check(x, y, n)
    with pytest.raises((TypeError, ValueError)) as old:
        reference_interleave_metric_check(x, y, n)
    assert type(new.value) is type(old.value) and str(new.value) == str(old.value)


# -- four-interval covers ---------------------------------------------------


def cover_is_valid(a, b, intervals):
    if not intervals:
        return False
    if len(intervals) > 4:
        return False
    levels = {iv.level for iv in intervals}
    if len(levels) != 1:
        return False
    m = levels.pop()
    if m > 0:
        diam = b - a
        if not Fraction(1, 2**m) < diam <= Fraction(1, 2 ** (m - 1)):
            return False
    ivs = sorted(intervals, key=lambda iv: iv.index)
    # consecutive grid intervals whose union contains [a, b]
    if any(y.index - x.index != 1 for x, y in zip(ivs, ivs[1:])):
        return False
    return ivs[0].left <= a and b <= right_end(ivs[-1])


def test_four_cover_worked_example():
    cover = dyadic_four_cover(Fraction(3, 10), Fraction(9, 20))
    assert [iv.level for iv in cover] == [3, 3, 3, 3]
    assert [iv.index for iv in cover] == [1, 2, 3, 4]


def test_four_cover_boundary_power_of_two_diameter():
    cover = dyadic_four_cover(Fraction(1, 4), Fraction(1, 2))
    assert cover_is_valid(Fraction(1, 4), Fraction(1, 2), cover)
    assert all(iv.level == 3 for iv in cover)


def test_four_cover_wide_interval():
    cover = dyadic_four_cover(Fraction(1, 10), Fraction(9, 10))
    assert len(cover) == 1
    assert cover[0].level == 0


def test_four_cover_random():
    rng = random.Random(2)
    for _ in range(2000):
        q = 2 ** rng.randint(1, 30)
        i, j = sorted(rng.sample(range(q + 1), 2))
        a, b = Fraction(i, q), Fraction(j, q)
        cover = dyadic_four_cover(a, b)
        assert cover_is_valid(a, b, cover)


def test_four_cover_random_odd_denominators():
    rng = random.Random(3)
    for _ in range(2000):
        q = rng.randint(3, 10**6)
        i, j = sorted(rng.sample(range(q + 1), 2))
        a, b = Fraction(i, q), Fraction(j, q)
        cover = dyadic_four_cover(a, b)
        assert cover_is_valid(a, b, cover)


def test_four_cover_degenerate():
    with pytest.raises(ValueError, match="need a < b"):
        dyadic_four_cover(Fraction(1, 2), Fraction(1, 2))


def four_cover_cases(rng):
    """Random [a, b] in [0, 1] with the edges the integer cover must match."""
    for _ in range(1500):
        q = rng.choice([2 ** rng.randint(0, 40), 2 * rng.randint(1, 10**4) + 1,
                        rng.randint(2, 10**6), rng.randint(10**30, 10**40)])
        i = rng.randrange(q)
        yield Fraction(i, q), Fraction(rng.randint(i + 1, q), q)
    for _ in range(500):
        d = Fraction(1, 2 ** rng.randint(1, 50))  # a power-of-two diameter
        a = Fraction(rng.randrange(2**60), 2**60) * (1 - d)
        a = a if rng.random() < 0.5 else a - a % d  # on the grid, then off it
        yield a, a + d
        yield Fraction(0), d  # grid index clipped at 0
        yield 1 - d, Fraction(1)  # and at 2^m
        q = rng.randint(3, 10**9)
        yield Fraction(0), Fraction(rng.randint(1, q), q)
        yield Fraction(rng.randint(0, q - 1), q), Fraction(1)
    yield Fraction(0), Fraction(1)
    yield Fraction(1, 4), Fraction(3, 4)  # a diameter of exactly 1/2
    yield Fraction(1, 3), Fraction(5, 6)


def test_four_cover_matches_fraction_reference():
    rng = random.Random(11)
    for a, b in four_cover_cases(rng):
        assert dyadic_four_cover(a, b) == reference_dyadic_four_cover(a, b), (a, b)


@pytest.mark.parametrize("a, b, err", [
    (Fraction(1, 2), Fraction(1, 2), ValueError),
    (Fraction(2, 3), Fraction(1, 3), ValueError),
    (Fraction(-1, 3), Fraction(-1, 2), ValueError),
    (Fraction(-1, 3), Fraction(1, 2), ValueError),
    (Fraction(1, 2), Fraction(4, 3), ValueError),
    (0, 2, ValueError),
])
def test_four_cover_errors_match_fraction_reference(a, b, err):
    with pytest.raises(err) as new:
        dyadic_four_cover(a, b)
    with pytest.raises(err) as old:
        reference_dyadic_four_cover(a, b)
    assert type(new.value) is type(old.value) and str(new.value) == str(old.value)


def test_four_cover_accepts_ints_and_floats():
    for a, b in ((0, 1), (0.25, 0.5), (0, Fraction(1, 3)), ("1/7", "2/7")):
        assert dyadic_four_cover(a, b) == reference_dyadic_four_cover(a, b)


@st.composite
def unreduced_intervals(draw):
    """(lo, hi, den), den up to 2^70 and rarely in lowest terms; half of them
    have a power-of-two diameter, on or off the grid of that level."""
    scale = draw(st.integers(1, 1 << 10))
    if draw(st.booleans()):
        den = draw(st.integers(1, (1 << 70) // scale))
        lo = draw(st.integers(0, den - 1))
        hi = draw(st.integers(lo + 1, den))
    else:
        unit = draw(st.integers(1, 1 << 8))
        den = unit << draw(st.integers(0, 52))  # the diameter unit/den is a power of 2
        lo = draw(st.integers(0, den - unit))
        lo = lo - lo % unit if draw(st.booleans()) else lo
        hi = lo + unit
    return lo * scale, hi * scale, den * scale


@settings(max_examples=400)
@given(unreduced_intervals())
@example((0, 1, 1))
@example((1, 3, 4))  # a diameter of exactly 1/2
@example((3, 9, 12))  # the same, unreduced
@example((0, 1, 1 << 70))
@example(((1 << 70) - 1, 1 << 70, 1 << 70))  # grid index clipped at 2^m
def test_four_cover_span_matches_fraction_reference(interval):
    lo, hi, den = interval
    m, first, stop = four_cover_span(lo, hi, den)
    ref = reference_dyadic_four_cover(Fraction(lo, den), Fraction(hi, den))
    assert (m, first, stop) == (ref[0].level, ref[0].index, ref[-1].index + 1)
    assert stop - first == len(ref)


@pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 300, BITS_CHUNK, BITS_CHUNK + 1, 3 * BITS_CHUNK - 7])
def test_random_bits_is_the_per_bit_stream(n):
    """Any mix of a WordReader's draws equals the stdlib calls made in the
    same order: `bits(n)` a per-bit `getrandbits(1)` loop, `below(m)`
    `randrange(m)`; the reader runs ahead of the stream, never apart."""
    for seed in (0, 1, 12345, -5, (1 << 64) + 9):
        words, slow, plan = WordReader(random.Random(seed)), random.Random(seed), random.Random(n)
        for _ in range(3):  # consecutive calls continue the stream
            assert words.bits(n) == "".join(str(slow.getrandbits(1)) for _ in range(n))
            m = plan.choice([1, 2, 3, 5, 8, 129, 255])
            assert words.below(m) == slow.randrange(m)
            assert [2, 3, 4][words.below(3)] == slow.choice([2, 3, 4])
        assert words.bits(1) == str(slow.getrandbits(1))
