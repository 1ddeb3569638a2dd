"""Measure-controlled transfer between binary sequences and the unit cube.

Bit interleaving splits one sequence into n residue-class subsequences; each
component expands to a dyadic interval endpoint.  The four-interval covering
construction covers any interval by at most four dyadic intervals of one level;
:func:`four_cover_span` is its one formula, in integers, and
:func:`dyadic_four_cover` projects the span to intervals.  The metric check
reads each first-difference index from the bit length of an integer xor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Tuple

from .dyadic import floor_log2_ratio
from .tree import check_node

# to_cube makes one coordinate per component: 2^20 keep cube-map to seconds and tens of MB
MAX_DIMENSION = 2**20


@dataclass(frozen=True)
class DyadicInterval:
    """[index/2^level, (index+1)/2^level]."""

    level: int
    index: int

    def __post_init__(self):
        if self.level < 0 or not 0 <= self.index < 2**self.level:
            raise ValueError(f"invalid dyadic interval level={self.level} index={self.index}")

    @property
    def left(self) -> Fraction:
        return Fraction(self.index, 2**self.level)


def expand(node: str) -> DyadicInterval:
    """Interval whose binary digits are the node's bits."""
    check_node(node)
    index = int(node, 2) if node else 0
    return DyadicInterval(level=len(node), index=index)


def interleave(node: str, n: int) -> Tuple[str, ...]:
    """Component i gets the bits at positions congruent to i mod n."""
    check_node(node)
    if n < 1:
        raise ValueError("need n >= 1")
    return tuple(node[i::n] for i in range(n))


class MetricCheck(NamedTuple):
    first_difference: int
    expected_exp: int
    observed_exp: int


def _first_difference(x: str, y: str):
    """First index where equal-length bit strings x and y differ, or None."""
    d = int(x, 2) ^ int(y, 2) if x else 0
    return len(x) - d.bit_length() if d else None


def interleave_metric_check(x: str, y: str, n: int) -> MetricCheck:
    """Distance law under interleaving: 2^-k maps to 2^-floor(k/n).  The
    observed distance is the largest over the components, read from them."""
    xs, ys = interleave(x, n), interleave(y, n)  # validates both strings
    if x == y:
        raise ValueError("distance undefined for equal strings")
    if len(x) != len(y):
        raise ValueError("strings must have equal length")
    k = _first_difference(x, y)
    observed = min(d for d in map(_first_difference, xs, ys) if d is not None)
    return MetricCheck(first_difference=k, expected_exp=k // n, observed_exp=observed)


def to_cube(node: str, n: int) -> Tuple[Fraction, ...]:
    """Interleave, then take the left endpoint of each component interval:
    the point's n coordinates in [0, 1]."""
    return tuple(expand(c).left for c in interleave(node, n))


def four_cover_span(lo: int, hi: int, den: int) -> Tuple[int, int, int]:
    """(m, first, stop): the level-m dyadic intervals first..stop - 1, at most
    four, cover [lo/den, hi/den], following the grid-point construction; the
    least valid grid index keeps it total.  Any den > 0 will do, reduced or not."""
    if not (0 <= lo < hi <= den):
        if hi <= lo:
            raise ValueError(f"need a < b, got [{Fraction(lo, den)}, {Fraction(hi, den)}]")
        raise ValueError("interval must lie inside [0, 1]")
    num = hi - lo
    if 2 * num > den:
        return 0, 0, 1
    # unique m with 2^-m < diam <= 2^-(m-1); diam <= 1/2, so e < 0
    e = floor_log2_ratio(num, den)
    m = -e + (num << -e == den)
    p = (lo << m) // den + 1
    return m, max(p - 2, 0), min(p + 2, 1 << m)


def dyadic_four_cover(a: Fraction, b: Fraction) -> List[DyadicInterval]:
    """The cover of :func:`four_cover_span` as intervals."""
    a, b = Fraction(a), Fraction(b)
    qa, qb = a.denominator, b.denominator
    m, first, stop = four_cover_span(a.numerator * qb, b.numerator * qa, qa * qb)
    return [DyadicInterval(m, idx) for idx in range(first, stop)]
