"""Exact dyadic values shared across modules.

An exact dyadic value m·2^-e is the integer pair ``(m, e)``, in normal form
with m odd, or ``(0, 0)``; e may be negative.  Doubling it is ``(m, e - 1)``,
its floor(log2) is ``m.bit_length() - 1 - e``, and two pairs compare with one
shift, so its cost does not grow with the depth of its scale as a Fraction's
does.  Every certified measure and bound is such a pair, from its count to
the text :func:`format_dyadic` writes.  A gauge value is the triple
``(lo, hi, e)`` enclosing it (see :mod:`gaugetree.gauge`), and
:func:`to_number` projects a pair to a Fraction.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, isfinite, log2
from typing import Tuple, Union

Number = Union[Fraction, float]
Pair = Tuple[int, int]
# a gauge value as Gauge.dyadic_at_scale returns it: (lo, hi, e)
Value = Tuple[int, int, int]
# the largest |decimal exponent| parse_rational reads: the interpreter's own
# limit on the digits of an int read from text
MAX_EXPONENT = sys.int_info.default_max_str_digits
# an int of at most MAX_BITS bits has at most MAX_EXPONENT digits
MAX_BITS = int(MAX_EXPONENT * log2(10))


def dyadic_pair(m: int, e: int = 0) -> Pair:
    """The normal form of m·2^-e: m odd, or (0, 0)."""
    if not m:
        return (0, 0)
    zeros = (m & -m).bit_length() - 1
    return (m >> zeros, e - zeros)


def to_number(v: Pair) -> Fraction:
    """The pair (m, e) as the equal Fraction m·2^-e."""
    m, e = v
    return Fraction(m, 1 << e) if e >= 0 else Fraction(m << -e)


def value_le(a: Pair, b: Pair) -> bool:
    """Exact a <= b for two pairs, with one shift."""
    (ma, ea), (mb, eb) = a, b
    if ea <= eb:
        return ma << (eb - ea) <= mb
    return ma <= mb << (ea - eb)


def format_dyadic(v: Pair) -> str:
    """Render the pair (m, e) in normal form as ``m/2^e``, a plain integer when e <= 0."""
    m, e = dyadic_pair(*v)
    return f"{m}/2^{e}" if e > 0 else str(m << -e)


def floor_log2_ratio(p: int, q: int) -> int:
    """Exact floor(log2(p/q)) for positive integers p, q, coprime or not."""
    e = p.bit_length() - q.bit_length()
    ok = p >= q << e if e >= 0 else p << -e >= q
    return e if ok else e - 1


def floor_log2(x: Fraction) -> int:
    """Exact floor(log2(x)) for a positive rational."""
    if x <= 0:
        raise ValueError("floor_log2 needs a positive argument")
    return floor_log2_ratio(x.numerator, x.denominator)


def parse_float(s: str) -> float:
    """The float nearest to the exact value of a ``p/2^q`` or Fraction
    string, in time and memory linear in len(s): q is capped where |p|/2^q
    rounds to 0 anyway, and a decimal goes through float; q < 0 or a result
    that is not finite raises ValueError."""
    if "/2^" in s:
        p, q = s.split("/2^")
        m, k = int(p), int(q)
        if k < 0:
            raise ValueError(f"negative power of two in {s!r}")
        return float(Fraction(m, 1 << min(k, m.bit_length() + 1100)))  # below 2^-1100
    x = float(Fraction(s) if "/" in s else s)
    if not isfinite(x):
        raise ValueError(f"{s!r} is not a finite number")
    return x


def format_ratio(p: int, q: int) -> str:
    """p/q for q > 0, in lowest terms, as ``p/q`` (plain integer when q divides p)."""
    g = gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def format_rational(x: Fraction) -> str:
    return format_ratio(x.numerator, x.denominator)


def parse_rational(s: str) -> Fraction:
    """Fraction(s) in time linear in len(s).  ValueError refuses a run of
    more than MAX_EXPONENT digits in s, which no int reads, a decimal exponent
    past MAX_EXPONENT, for which Fraction would build 10^|exponent|, and a
    value whose numerator or denominator has more than MAX_BITS bits."""
    if max(map(len, re.findall(r"\d+", s.replace("_", ""))), default=0) > MAX_EXPONENT:
        raise ValueError(f"{s!r} has a run of more than {MAX_EXPONENT} digits")
    _, e, exponent = s.lower().rpartition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "")
    if e and digits.isdecimal() and int(digits) > MAX_EXPONENT:
        raise ValueError(f"the exponent of {s!r} exceeds {MAX_EXPONENT} in absolute value")
    x = Fraction(s)
    if max(abs(x.numerator), x.denominator).bit_length() > MAX_BITS:
        raise ValueError(f"the numerator or denominator of {s!r} has more than {MAX_BITS} bits")
    return x
