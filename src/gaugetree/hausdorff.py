"""Certified gauge-measure bounds for tree-represented sets.

Lower bounds come from the mass-distribution inequality; upper bounds from an
exact optimal-cover computation over cylinder covers, which on binary strings
loses nothing and reduces the cover infimum to a tree DP.
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
    own total mass for covers at scales finer than 2^-n0.  The comparison is
    non-strict, which is all the lower-bound chain needs, and reads the lower
    end of each enclosure.  `values` defaults to g.scale_values(tree.depth).
    """
    if values is None:
        values = g.scale_values(tree.depth)
    forced = tree.schedule.forced
    last = worst = None
    below = 0  # forced levels above level n
    for n in range(tree.depth + 1):
        e = below - n  # a level-n cylinder has measure 2^e
        below += n in forced
        lo, _, f = values[n]
        if not (lo and e + f <= lo.bit_length() - 1):  # 2^e <= lo·2^-f
            excess = e - g.log2_at_scale(n) if lo else math.inf
            last = n
            if worst is None or excess > worst[1]:
                worst = (n, excess)
    if last == tree.depth:
        raise FrostmanConditionError(worst[0], worst[1])
    n0 = last + 1 if last is not None else 0
    return Fraction(1), n0


def level_dp(
    tree: SplittingTree, g: Gauge, delta_exponent: int, depth: Optional[int] = None,
    values: Optional[Sequence[Value]] = None,
) -> Tuple[Pair, int]:
    """The level cover DP in one downward pass: (cost, witness level).

    Going up from cost(n_max) = g(2^-n_max), level n costs through(n) =
    cost(n + 1) on a forced level and 2·cost(n + 1) on a free one, or the
    cut g(2^-n) when n >= k and the cut <= through(n).  The witness level is
    the smallest n >= k at which the cut wins (ties go to the cut), else
    n_max.  g(2^-n) is the upper end (hi, e) of its enclosure, a normal-form
    pair, and a cover cost is monotone in the gauge values, so the cost is a
    certified upper bound.  `values` defaults to g.scale_values(depth).
    """
    k = int(delta_exponent)
    n_max = tree.depth if depth is None else int(depth)
    if not k <= n_max <= tree.depth:
        raise ValueError(f"need delta exponent {k} <= depth {n_max} <= {tree.depth}")
    if values is None:
        values = g.scale_values(n_max)
    forced = tree.schedule.forced
    cost, witness = values[n_max][1:], n_max
    for n in range(n_max - 1, -1, -1):
        if n not in forced:  # through a free level: twice the cost below
            cost = (cost[0], cost[1] - 1)
        if n >= k and value_le(values[n][1:], cost):
            cost, witness = values[n][1:], n
    return cost, witness


def level_dp_cost(
    tree: SplittingTree, g: Gauge, delta_exponent: int, depth: Optional[int] = None,
    values: Optional[Sequence[Value]] = None,
) -> Fraction:
    """Same value as the node DP, in O(depth), using level homogeneity."""
    return to_number(level_dp(tree, g, delta_exponent, depth, values)[0])


def level_dp_witness_level(
    tree: SplittingTree, g: Gauge, delta_exponent: int, depth: Optional[int] = None
) -> int:
    """Shallowest level at which the level DP cuts; the witness cover is the
    full set of tree nodes at that level."""
    return level_dp(tree, g, delta_exponent, depth)[1]


class DimensionEstimate(NamedTuple):
    s_lo: float
    s_hi: float
    depth: int
    conclusive: bool


def dimension_estimate(
    tree: SplittingTree,
    tolerance: float,
    depth: Optional[int] = None,
) -> DimensionEstimate:
    """Bracket for the branch set's dimension at finite depth N = `depth`.

    s is certified from below when the mass-distribution bound succeeds for
    the power gauge t^s, and from above when the optimal cover cost at depth N
    (cut level 0) drops strictly below the certified mass floor 1.  Both are
    bisections over s in (0, 1] that halve until the width is <= tolerance,
    k times for the least k >= 0 with 2^-k <= tolerance, and both tests read
    only the free-level profile free(n) = n - count_below(n) of this
    level-homogeneous tree, so each bisection has a closed form in integers:

    - A level-n cylinder has measure 2^-free(n), so it passes the t^s test
      iff free(n) >= n·s, and `frostman_lower` fails only when level N does.
      The bisection keeps the largest j/2^k with free(N) >= N·j/2^k:
      s_lo = floor(2^k·free(N)/N) / 2^k, which is 1 when free(N) = N.
    - The cut-0 cover DP costs the least level cost, min over n <= N of
      2^(free(n) - n·s), which is 1 at n = 0; so it is below 1 iff
      free(n) < n·s for some n >= 1.  The bisection keeps the least j/2^k
      above min free(n)/n: s_hi = (min of floor(2^k·free(n)/n) + 1) / 2^k
      over 1 <= n <= N, capped at its starting point 1, which it keeps when
      free(n) = n for every n <= N.
    """
    if tolerance < 2.0**-20:
        raise ValueError("tolerance must be >= 2^-20")
    n_max = tree.depth if depth is None else int(depth)
    if not 0 <= n_max <= tree.depth:
        raise ValueError(f"need 0 <= depth {n_max} <= {tree.depth}")
    free = [n - tree.schedule.count_below(n) for n in range(n_max + 1)]
    k = 0
    while 2.0**-k > tolerance:
        k += 1
    lo = (free[n_max] << k) // n_max if n_max else 1 << k
    hi = min([1 << k] + [(free[n] << k) // n + 1 for n in range(1, n_max + 1)])
    s_lo, s_hi = lo / (1 << k), hi / (1 << k)
    return DimensionEstimate(
        s_lo=s_lo,
        s_hi=s_hi,
        depth=n_max,
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
    tree: SplittingTree, g: Gauge, delta_exponent: int, depth: Optional[int] = None,
    values: Optional[Sequence[Value]] = None,
) -> MeasureCertificate:
    """Bundle the Frostman floor and the optimal-cover ceiling at one scale;
    `values` defaults to g.scale_values(depth)."""
    n_max = tree.depth if depth is None else int(depth)
    if values is None:
        values = g.scale_values(n_max)
    try:
        lower, n0 = frostman_lower(SplittingTree(tree.schedule, tree.selector, n_max), g, values)
        failure = None
    except FrostmanConditionError as err:
        lower, n0 = None, None
        failure = err.worst_level
    upper, w_level = level_dp(tree, g, delta_exponent, n_max, values)
    witness = None
    if tree.level_count(w_level) <= WITNESS_NODE_LIMIT:
        witness = tree.materialize(w_level).leaves if w_level > 0 else ("",)
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
