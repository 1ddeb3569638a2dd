"""Measure-controlled transfer between binary sequences and the unit cube.

Bit interleaving splits one sequence into n residue-class subsequences; each
component expands to a dyadic interval endpoint.  The four-interval covering
construction covers any interval by at most four dyadic intervals of one level;
:func:`four_cover_span` is its one formula, in integers, and
:func:`dyadic_four_cover` projects the span to intervals.  The metric check
reads every first-difference index from the bit string of one integer xor.
A batch draws its items from a seeded generator's word stream through
:class:`WordReader`, and `MAX_BATCH_BITS` bounds its work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import List, NamedTuple, Tuple

from .dyadic import floor_log2_ratio
from .tree import check_node

# to_cube makes one coordinate per component: 2^20 keep cube-map to seconds and tens of MB
MAX_DIMENSION = 2**20
# count x (length + ITEM_BITS) of an interleave-check batch: each item draws 2 x length bits
MAX_BATCH_BITS = 2**24
# an item's fixed cost, about 7 us of Python whatever its length, within 256 bits at 36 ns a bit;
# batches at the bound take 0.43-0.61 s, from 64 527 items of 4 bits to 16 of 2^20 bits
ITEM_BITS = 256
# byte -> "1" if its top bit is set, else "0"
_TOP_BIT = bytes(48 + (b >> 7) for b in range(256))
# words per getrandbits call of a WordReader: 16 KB temporaries stay below the
# allocator's large-block threshold, so no call maps and unmaps fresh pages
BITS_CHUNK = 4096


class WordReader:
    """rng's 32-bit words, drawn BITS_CHUNK per `getrandbits` call and kept as their top bytes:
    each draw equals the stdlib call made in the same order on rng, whose state runs ahead."""

    def __init__(self, rng: random.Random):
        self.draw, self.tops, self.pos = rng.getrandbits, b"", 0

    def take(self, n: int) -> bytes:
        """The top bytes of the next n words, the chunks they need joined once."""
        if self.pos + n > len(self.tops):
            chunks = range((self.pos + n - len(self.tops) + BITS_CHUNK - 1) // BITS_CHUNK)
            self.tops, self.pos = b"".join([self.tops[self.pos:], *(
                self.draw(32 * BITS_CHUNK).to_bytes(4 * BITS_CHUNK, "little")[3::4] for _ in chunks)]), 0
        self.pos += n
        return self.tops[self.pos - n : self.pos]

    def below(self, n: int) -> int:
        """`randrange(n)`, 0 < n < 256, by the stdlib's rule: `getrandbits(n.bit_length())`, the
        top bits of the next word, redrawn while it is >= n."""
        while (r := self.take(1)[0] >> 8 - n.bit_length()) >= n:
            pass
        return r

    def bits(self, n: int) -> str:
        """The next n draws of `getrandbits(1)`, each a word's top bit, as "0"/"1"."""
        return self.take(n).translate(_TOP_BIT).decode()


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


def interleave_metric_check(x: str, y: str, n: int) -> MetricCheck:
    """Distance law under interleaving: 2^-k maps to 2^-floor(k/n).  The observed distance is
    the largest over the components of x xor y, the xors of the components of x and y."""
    check_node(x)
    if n < 1:
        raise ValueError("need n >= 1")
    index(n)  # a non-integer n is refused here, as interleave refuses it
    if check_node(y) == x:
        raise ValueError("distance undefined for equal strings")
    if len(x) != len(y):
        raise ValueError("strings must have equal length")
    d = bin(int(x, 2) ^ int(y, 2))[2:].zfill(len(x))
    k = d.index("1")
    return MetricCheck(k, k // n, min(c.index("1") for c in interleave(d, n) if "1" in c))


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
