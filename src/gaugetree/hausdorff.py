"""Certified gauge-measure bounds for tree-represented sets.

Lower bounds come from the mass-distribution inequality, upper bounds from
the optimal cylinder cover, lossless on binary strings; both read the level
cost 2^free(n)·g(2^-n) at every level up to the tree's depth.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple

from .dyadic import Pair, Value, format_dyadic, to_number, value_le
from .errors import FrostmanConditionError
from .gauge import Gauge
from .tree import SplittingTree

WITNESS_NODE_LIMIT = 2**12


def frostman_lower(
    tree: SplittingTree, g: Gauge, values: Optional[Sequence[Value]] = None
) -> Tuple[Fraction, int]:
    """Least threshold from which every cylinder measure is below the gauge.

    Returns (1, n0): the full branch set then has gauge measure at least its
    own total mass for covers at scales finer than 2^-n0.  Level n passes when
    its lower level cost 2^free(n)·lo·2^-f, the pair (lo, f - free(n)), is at
    least 1, a non-strict test, which is all the lower-bound chain needs; a
    failure names the first level of least lower level cost.
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
        n, (lo, c) = worst
        raise FrostmanConditionError(n, c - math.log2(lo) if lo else math.inf)
    n0 = last + 1 if last is not None else 0
    return Fraction(1), n0


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
    s_lo: float
    s_hi: float
    depth: int
    conclusive: bool


def dimension_estimate(tree: SplittingTree, tolerance: float) -> DimensionEstimate:
    """Bracket for the branch set's dimension at the tree's depth N.

    s is certified from below when the mass-distribution bound succeeds for
    the power gauge t^s, and from above when the optimal cover cost at depth N
    (cut level 0) drops strictly below the certified mass floor 1.  Both are
    bisections over s in (0, 1] that halve until the width is <= tolerance,
    k times for the least k >= 0 with 2^-k <= tolerance, and both tests read
    only the free-level profile free(n) = n - |A ∩ n| of this
    level-homogeneous tree, so each bisection has a closed form in integers:

    - A level-n cylinder has measure 2^-free(n), so it passes the t^s test
      iff free(n) >= n·s, and `frostman_lower` fails only when level N does.
      The bisection keeps the largest j/2^k with free(N) >= N·j/2^k:
      s_lo = floor(2^k·free(N)/N) / 2^k, which is 1 when free(N) = N.
    - The cut-0 `level_dp` costs the least level cost, min over n <= N of
      2^(free(n) - n·s), which is 1 at n = 0; so it is below 1 iff
      free(n) < n·s for some n >= 1.  The bisection keeps the least j/2^k
      above min free(n)/n: s_hi = (min of floor(2^k·free(n)/n) + 1) / 2^k
      over 1 <= n <= N, capped at its starting point 1, which it keeps when
      free(n) = n for every n <= N.
    """
    if tolerance < 2.0**-20:
        raise ValueError("tolerance must be >= 2^-20")
    free = tree.schedule.free_levels(tree.depth)
    k = 0
    while 2.0**-k > tolerance:
        k += 1
    lo = (free[-1] << k) // tree.depth if tree.depth else 1 << k
    hi = min([1 << k] + [(free[n] << k) // n + 1 for n in range(1, tree.depth + 1)])
    s_lo, s_hi = lo / (1 << k), hi / (1 << k)
    return DimensionEstimate(
        s_lo=s_lo,
        s_hi=s_hi,
        depth=tree.depth,
        conclusive=s_lo <= s_hi + tolerance,
    )


class MeasureCertificate(NamedTuple):
    """Finite-depth sandwich for the gauge measure of a tree's branch set."""

    gauge: Gauge
    delta_exponent: int
    lower: Optional[Fraction]
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
        if self.lower is not None:
            d["lower"] = {
                "value": format_dyadic(self.lower),
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
    try:
        lower, n0 = frostman_lower(tree, g, values)
        failure = None
    except FrostmanConditionError as err:
        lower, n0 = None, None
        failure = err.worst_level
    upper, w_level = level_dp(tree, g, delta_exponent, values)
    witness = None
    if tree.level_count(w_level) <= WITNESS_NODE_LIMIT:
        witness = tree._replace(depth=w_level).materialize().leaves if w_level > 0 else ("",)
    return MeasureCertificate(
        gauge=g,
        delta_exponent=delta_exponent,
        lower=lower,
        frostman_threshold=n0,
        upper=to_number(upper),
        witness=witness,
        witness_level=w_level,
        failure_level=failure,
    )
