"""Certified gauge-measure bounds for tree-represented sets.

Lower bounds come from the mass-distribution inequality, upper bounds from
the optimal cylinder cover, lossless on binary strings; both read the level
cost 2^free(n)·g(2^-n) at every level up to the tree's depth.  A failed
mass-distribution test is a result, the level it names, not an error.  On
the power gauges t^s both sides meet at one exact dimension number, the
least free(n)/n from the cut level on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple

from .dyadic import Pair, Value, format_dyadic, to_number, value_le
from .gauge import Gauge
from .tree import SplittingTree

WITNESS_NODE_LIMIT = 2**12
# the Frostman floor as written: the total mass of the branch measure
FLOOR = "1"


def frostman_lower(
    tree: SplittingTree, g: Gauge, values: Optional[Sequence[Value]] = None
) -> Tuple[Optional[int], Optional[int]]:
    """The mass distribution test of every level up to the tree's depth:
    (n0, None) when every level from n0 on passes, so that the branch set has
    gauge measure at least its total mass, 1, for covers at scales finer than
    2^-n0; (None, the first level of least lower level cost) when the deepest
    level fails.  Level n passes when its lower level cost 2^free(n)·lo·2^-f,
    the pair (lo, f - free(n)), is at least 1, a non-strict test, which is all
    the lower-bound chain needs.
    """
    if values is None:
        values = g.scale_values(tree.depth)
    last = worst = None
    for n, free in enumerate(tree.schedule.free_levels(tree.depth)):
        lo, _, f = values[n]
        c = f - free
        if not lo or c > lo.bit_length() - 1:  # lo·2^-c < 1
            last = n
            if worst is None or not value_le(worst[1], (lo, c)):
                worst = (n, (lo, c))
    if last == tree.depth:
        return None, worst[0]
    return (0 if last is None else last + 1), None


def level_dp(
    tree: SplittingTree, g: Gauge, delta_exponent: int, values: Optional[Sequence[Value]] = None
) -> Tuple[Pair, int]:
    """The least level cost 2^free(n)·g(2^-n) over k <= n <= the tree's depth
    and the first n reaching it: (cost, witness level).

    Cutting at level n covers the set by its 2^free(n) cylinders, and the
    cover DP cost(n) = min(g(2^-n), through(n)) unrolls to this minimum; its
    cut wins first at the witness (ties go to the cut).  g(2^-n) is the upper
    end (hi, e) of its enclosure, a normal-form pair, and a cover cost is
    monotone in the gauge values, so the cost is a certified upper bound.
    """
    k = max(int(delta_exponent), 0)  # a negative one cuts from the root on
    if k > tree.depth:
        raise ValueError(f"need delta exponent {k} <= depth {tree.depth}")
    if values is None:
        values = g.scale_values(tree.depth)
    free = tree.schedule.free_levels(tree.depth)
    least = witness = None
    for n in range(k, tree.depth + 1):
        _, hi, e = values[n]
        if least is None or not value_le(least, (hi, e - free[n])):
            least, witness = (hi, e - free[n]), n
    return least, witness


def level_dp_cost(
    tree: SplittingTree, g: Gauge, delta_exponent: int, values: Optional[Sequence[Value]] = None
) -> Fraction:
    """Same value as the node DP, in O(depth), using level homogeneity."""
    return to_number(level_dp(tree, g, delta_exponent, values)[0])


def level_dp_witness_level(tree: SplittingTree, g: Gauge, delta_exponent: int) -> int:
    """Shallowest level at which the level DP cuts; the witness cover is the
    full set of tree nodes at that level."""
    return level_dp(tree, g, delta_exponent)[1]


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
    """Finite-depth sandwich for the gauge measure of a tree's branch set."""

    gauge: Gauge
    delta_exponent: int
    frostman_threshold: Optional[int]
    upper: Fraction
    witness: Optional[Tuple[str, ...]]
    witness_level: int
    failure_level: Optional[int] = None

    def to_json_dict(self) -> dict:
        d = {
            "gauge": self.gauge.to_json_dict(),
            "delta_exp": self.delta_exponent,
            "upper": {
                "value": format_dyadic(self.upper),
                "provenance": "optimal_cover",
                "witness_level": self.witness_level,
            },
        }
        if self.frostman_threshold is not None:
            d["lower"] = {
                "value": FLOOR,
                "provenance": "frostman",
                "n0": self.frostman_threshold,
            }
        else:
            d["lower"] = {"value": None, "violating_level": self.failure_level}
        if self.witness is not None:
            d["witness"] = list(self.witness)
        return d


def measure_certificate(
    tree: SplittingTree, g: Gauge, delta_exponent: int, values: Optional[Sequence[Value]] = None
) -> MeasureCertificate:
    """Bundle the Frostman floor and the optimal-cover ceiling at the tree's depth."""
    if values is None:
        values = g.scale_values(tree.depth)
    n0, failure = frostman_lower(tree, g, values)
    upper, w_level = level_dp(tree, g, delta_exponent, values)
    witness = None
    if tree.level_count(w_level) <= WITNESS_NODE_LIMIT:
        witness = tree._replace(depth=w_level).materialize().leaves if w_level > 0 else ("",)
    return MeasureCertificate(
        gauge=g,
        delta_exponent=delta_exponent,
        frostman_threshold=n0,
        upper=to_number(upper),
        witness=witness,
        witness_level=w_level,
        failure_level=failure,
    )
