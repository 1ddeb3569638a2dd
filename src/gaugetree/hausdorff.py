"""Certified gauge-measure bounds for tree-represented sets.

Both bounds are the least level cost 2^free(n)·g(2^-n) from the cut k to
the tree's depth, read in one walk off the two ends of each enclosure.  The
hi end gives the optimal cylinder cover, lossless on binary strings.  The
lo end gives the mass distribution bound: a set of diameter 2^-m lies in one
level-m cylinder, of branch mass 2^-free(m), so no cover at scale 2^-k costs
less.  So lower ≤ upper at every cut, and the Frostman threshold n0 is the
least cut whose lower end is at least 1.  On the power gauges t^s both ends
meet at one exact dimension number, the least free(n)/n from the cut on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple

from .dyadic import Pair, Value, format_dyadic, to_number, value_le
from .gauge import Gauge
from .tree import SplittingTree

WITNESS_NODE_LIMIT = 2**12
ONE = (1, 0)  # the total mass of the branch measure, as a pair


class LevelWalk(NamedTuple):
    n0: Optional[int]
    lower: Pair
    upper: Pair
    witness_level: int
    lower_level: int


def level_walk(
    tree: SplittingTree, g: Gauge, delta_exponent: int, values: Optional[Sequence[Value]] = None
) -> LevelWalk:
    """One walk up from the tree's depth N to the cut k = delta_exponent over
    the level costs 2^free(n)·g(2^-n): their least value read off the lo and
    the hi end of each enclosure (lower, upper), the first level reaching
    each, and n0, the least cut whose lower end is at least 1, or None when
    level N is below 1.  The lo end is compared at the inexact levels, and at
    an exact level (lo = hi) only where that level has just become the least
    hi cost (w == n): since lower <= upper, an exact level can hold the least
    lo cost only where it holds the least hi cost.  The deepest level below 1 is where the
    lower end first drops below 1, so only the levels shallower than the cut
    are tested one by one.
    """
    top = tree.depth
    k = max(int(delta_exponent), 0)  # a negative one cuts from the root on
    if k > top:
        raise ValueError(f"need delta exponent {k} <= depth {top}")
    if values is None:
        values = g.scale_values(top)
    free = tree.schedule.free_levels(top)
    lo, hi, e = values[top]
    lm, le, v = lo, e - free[top], top  # the lower end as the pair (lm, le), and its level
    um, ue, w = hi, e - free[top], top
    below = None if value_le(ONE, (lm, le)) else top  # the deepest level below 1
    # value_le inlined: the two compares are the walk's cost; ties go to the shallower level
    for n, (lo, hi, e), f in zip(range(top - 1, k - 1, -1), reversed(values[k:top]), reversed(free[k:top])):
        c = e - f
        if (hi << ue - c <= um) if c <= ue else (hi <= um << c - ue):
            um, ue, w = hi, c, n
        if (lo != hi or w == n) and ((lo << le - c <= lm) if c <= le else (lo <= lm << c - le)):
            lm, le, v = lo, c, n
            if below is None and (not lo or lo.bit_length() <= c):  # lo·2^-c < 1
                below = n
    if below is None:
        below = next((n for n in reversed(range(k)) if not value_le(ONE, (values[n][0], values[n][2] - free[n]))), -1)
    return LevelWalk(below + 1 if below < top else None, (lm, le), (um, ue), w, v)


def frostman_lower(
    tree: SplittingTree, g: Gauge, values: Optional[Sequence[Value]] = None
) -> Tuple[Optional[int], Optional[int]]:
    """The mass distribution test of every level up to the tree's depth:
    (n0, None) when the lower end from the cut n0 on is at least 1, the total
    mass of the branch measure; (None, the first level of least lo cost)
    when the deepest level is below 1.
    """
    walk = level_walk(tree, g, 0, values)
    return (walk.n0, None) if walk.n0 is not None else (None, walk.lower_level)


def level_dp_cost(
    tree: SplittingTree, g: Gauge, delta_exponent: int, values: Optional[Sequence[Value]] = None
) -> Fraction:
    """The optimal cylinder cover cost from the cut: the walk's upper end."""
    return to_number(level_walk(tree, g, delta_exponent, values).upper)


def level_dp_witness_level(tree: SplittingTree, g: Gauge, delta_exponent: int) -> int:
    """Shallowest level at which the cover cuts; the witness cover is the
    full set of tree nodes at that level."""
    return level_walk(tree, g, delta_exponent).witness_level


class DimensionEstimate(NamedTuple):
    value: Fraction
    witness_level: Optional[int]
    conclusive = True  # perfbench/spans.py reads it until ROADMAP item 5 re-binds that counter


def dimension_estimate(tree: SplittingTree, delta_exponent: int) -> DimensionEstimate:
    """d(k, N) = min free(n)/n over max(k, 1) <= n <= N, the tree's depth, and
    the first n reaching it, or 1 and no witness level on an empty range.
    t^s passes the Frostman test on levels k..N iff every free(n) >= n·s, and
    the cut-k cover of t^s costs below 1 iff some free(n) < n·s: d is the one
    exact s where both certifiers turn (the mass distribution principle)."""
    k = max(int(delta_exponent), 0)  # a negative one cuts from the root on
    if k > tree.depth:
        raise ValueError(f"need delta exponent {k} <= depth {tree.depth}")
    free = tree.schedule.free_levels(tree.depth)
    w = None
    for n in range(max(k, 1), tree.depth + 1):
        if w is None or free[n] * w < free[w] * n:
            w = n
    return DimensionEstimate(Fraction(free[w], w) if w else Fraction(1), w)


class MeasureCertificate(NamedTuple):
    """Finite-depth enclosure of the gauge measure of a tree's branch set at one cut."""

    gauge: Gauge
    delta_exponent: int
    frostman_threshold: Optional[int]
    lower: Pair
    upper: Pair
    witness: Optional[Tuple[str, ...]]
    witness_level: int

    def to_json_dict(self) -> dict:
        d = {
            "gauge": self.gauge.to_json_dict(),
            "delta_exp": self.delta_exponent,
            "lower": {
                "value": format_dyadic(self.lower),
                "provenance": "frostman",
                "n0": self.frostman_threshold,
            },
            "upper": {
                "value": format_dyadic(self.upper),
                "provenance": "optimal_cover",
                "witness_level": self.witness_level,
            },
        }
        if self.witness is not None:
            d["witness"] = list(self.witness)
        return d


def measure_certificate(
    tree: SplittingTree, g: Gauge, delta_exponent: int, values: Optional[Sequence[Value]] = None
) -> MeasureCertificate:
    """Both ends of the least level cost from the cut, from one walk, with the witness cover."""
    walk = level_walk(tree, g, delta_exponent, values)
    w_level = walk.witness_level
    witness = None
    if tree.level_count(w_level) <= WITNESS_NODE_LIMIT:
        witness = tree._replace(depth=w_level).materialize().leaves if w_level > 0 else ("",)
    return MeasureCertificate(
        gauge=g,
        delta_exponent=delta_exponent,
        frostman_threshold=walk.n0,
        lower=walk.lower,
        upper=walk.upper,
        witness=witness,
        witness_level=w_level,
    )
