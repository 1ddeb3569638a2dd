"""Measure-controlled transfer between binary sequences and the unit cube.

Bit interleaving splits one sequence into n residue-class subsequences; each
component expands to a dyadic interval endpoint.  The four-interval covering
construction covers any interval by at most four dyadic intervals of one level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .dyadic import floor_log2_ratio, format_dyadic
from .errors import DegenerateIntervalError
from .tree import check_node


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

    @property
    def right(self) -> Fraction:
        return Fraction(self.index + 1, 2**self.level)

    @property
    def diameter(self) -> Fraction:
        return Fraction(1, 2**self.level)

    def to_json_dict(self) -> dict:
        return {"m": self.level, "p": self.index}


@dataclass(frozen=True)
class CubePoint:
    coords: Tuple[Fraction, ...]
    precision: int

    def __post_init__(self):
        if any(not 0 <= c <= 1 for c in self.coords):
            raise ValueError("cube coordinates must lie in [0, 1]")

    def to_json_dict(self) -> dict:
        return {
            "coords": [format_dyadic(c) for c in self.coords],
            "precision": self.precision,
        }


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


@dataclass(frozen=True)
class MetricCheck:
    first_difference: int
    expected: Fraction
    observed: Fraction


def interleave_metric_check(x: str, y: str, n: int) -> MetricCheck:
    """Distance law under interleaving: 2^-k maps to 2^-floor(k/n)."""
    xs, ys = interleave(x, n), interleave(y, n)  # validates both strings
    if x == y:
        raise DegenerateIntervalError("distance undefined for equal strings")
    if len(x) != len(y):
        raise ValueError("strings must have equal length")
    k = next(i for i in range(len(x)) if x[i] != y[i])
    expected = Fraction(1, 2 ** (k // n))
    dists = []
    for xc, yc in zip(xs, ys):
        diff = next((i for i in range(len(xc)) if xc[i] != yc[i]), None)
        if diff is not None:
            dists.append(Fraction(1, 2**diff))
    observed = max(dists)
    return MetricCheck(first_difference=k, expected=expected, observed=observed)


def to_cube(node: str, n: int) -> CubePoint:
    """Interleave, then take the left endpoint of each component interval."""
    comps = interleave(node, n)
    precision = max(len(c) for c in comps) if node else 0
    return CubePoint(
        coords=tuple(expand(c).left for c in comps),
        precision=precision,
    )


def dyadic_four_cover(a: Fraction, b: Fraction) -> List[DyadicInterval]:
    """At most four level-m dyadic intervals covering [a, b], following the
    grid-point construction; the least valid grid index keeps it total."""
    a, b = (a, b) if type(a) is type(b) is Fraction else (Fraction(a), Fraction(b))
    pa, qa, pb, qb = a.numerator, a.denominator, b.numerator, b.denominator
    num, den = pb * qa - pa * qb, qa * qb
    if not (pa >= 0 and num > 0 and pb <= qb):
        if num <= 0:
            raise DegenerateIntervalError(f"need a < b, got [{a}, {b}]")
        raise ValueError("interval must lie inside [0, 1]")
    if 2 * num > den:
        return [DyadicInterval(level=0, index=0)]
    # unique m with 2^-m < diam <= 2^-(m-1); diam <= 1/2, so e < 0
    e = floor_log2_ratio(num, den)
    m = -e + (num << -e == den)
    p = (pa << m) // qa + 1
    return [DyadicInterval(m, idx) for idx in range(max(p - 2, 0), min(p + 2, 1 << m))]

