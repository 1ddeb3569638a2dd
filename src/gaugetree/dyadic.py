"""Exact dyadic values shared across modules.

An exact dyadic value m·2^-e is the integer pair ``(m, e)`` with m odd, or
``(0, 0)``; e may be negative.  Doubling it is ``(m, e - 1)``, its floor(log2)
is ``m.bit_length() - 1 - e``, and two pairs compare with one shift, so its
cost does not grow with the depth of its scale as a Fraction's does.  Other
values stay :class:`fractions.Fraction` when exact and float otherwise, with
the documented precision; :func:`to_number` projects a pair to a Fraction.
:func:`value_le` compares any two of these exactly without building a
Fraction: a float enters as its ``as_integer_ratio()``, so a float against a
pair or a Fraction is one integer cross-multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple, Union

Number = Union[Fraction, float]
Pair = Tuple[int, int]
# a gauge value as Gauge.dyadic_at_scale returns it
Value = Union[Pair, Number]


def dyadic_pair(m: int, e: int = 0) -> Pair:
    """The normal form of m·2^-e: m odd, or (0, 0)."""
    if not m:
        return (0, 0)
    zeros = (m & -m).bit_length() - 1
    return (m >> zeros, e - zeros)


def to_number(v: Value) -> Number:
    """A pair as the equal Fraction; any other value as it is."""
    if type(v) is not tuple:
        return v
    m, e = v
    return Fraction(m, 1 << e) if e >= 0 else Fraction(m << -e)


def _ratio(v: Value) -> Tuple[int, int]:
    """v as (numerator, positive denominator); a float's ratio is exact, and
    inf or nan raise OverflowError or ValueError as Fraction(v) does."""
    if type(v) is tuple:
        m, e = v
        return (m, 1 << e) if e >= 0 else (m << -e, 1)
    return v.as_integer_ratio()


def value_le(a: Value, b: Value) -> bool:
    """Exact a <= b: two pairs compare with one shift, any other two values
    with one integer cross-multiplication of their ratios."""
    if type(a) is tuple and type(b) is tuple:
        (ma, ea), (mb, eb) = a, b
        if ea <= eb:
            return ma << (eb - ea) <= mb
        return ma <= mb << (ea - eb)
    (pa, qa), (pb, qb) = _ratio(a), _ratio(b)
    return pa * qb <= pb * qa


def format_pair(m: int, e: int) -> str:
    """Render m·2^-e, m odd or 0, as ``m/2^e`` (plain integer when e <= 0)."""
    if e <= 0:
        return str(m << -e)
    return f"{m}/2^{e}"


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


def is_dyadic(x: Fraction) -> bool:
    d = x.denominator
    return d & (d - 1) == 0


def format_dyadic(x: Fraction) -> str:
    """Render a dyadic rational as ``p/2^q`` (plain integer when q = 0)."""
    if not is_dyadic(x):
        raise ValueError(f"{x} is not dyadic")
    return format_pair(x.numerator, x.denominator.bit_length() - 1)


def format_exact(x: Fraction) -> str:
    """A dyadic rational as ``p/2^q``, any other as ``p/q``."""
    return format_dyadic(x) if is_dyadic(x) else format_rational(x)


def parse_dyadic(s: str) -> Fraction:
    """Parse ``p/2^q``; anything else (an integer, ``p/q``, a float repr)
    goes to Fraction."""
    if "/2^" in s:
        p, q = s.split("/2^")
        return Fraction(int(p), 2 ** int(q))
    return Fraction(s)


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    return Fraction(s)
