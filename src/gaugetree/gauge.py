"""Gauge functions at dyadic scales, order comparison, and sparsity schedules.

A gauge is only ever evaluated at scales t = 2^-n: an exact dyadic value comes
back as the pair ``(m, e)`` = m·2^-e of :mod:`gaugetree.dyadic`, a non-dyadic
table entry as its Fraction, and everything else as a float with relative
error well below 2^-40; :meth:`Gauge.at_scale` projects a pair to a Fraction.
The power and power-log formulas live in one kernel, :meth:`Gauge._power_values`,
which evaluates a whole range of levels in one comprehension: both
:meth:`Gauge.scale_values`, with which a command evaluates each level once for
all its consumers, and the single-level :meth:`Gauge.dyadic_at_scale` read it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .dyadic import (
    Number, Value, dyadic_pair, floor_log2, format_rational, is_dyadic, parse_rational, to_number
)
from .errors import InsufficientDataError, OutOfRangeError

# Conservative slack subtracted from floating log2 values before flooring,
# so rounding can never inflate an integer sparsity bound.
GUARD_EXP = 20
_GUARD = 2.0**-GUARD_EXP

FIRST_LOWER_ORDER = "first_lower_order"
SECOND_LOWER_ORDER = "second_lower_order"
INCONCLUSIVE = "inconclusive"

POWER = "power"
POWER_LOG = "power_log"
TABLE = "table"


@dataclass(frozen=True)
class Gauge:
    """An evaluable gauge function, represented at dyadic scales only.

    Kinds:
      power      t^s for rational s > 0
      power_log  t^s * log2(1/t)^c for t < 1, value 0 at t = 1
      table      finite list of (exponent, value) pairs
    """

    kind: str
    s: Optional[Fraction] = None
    c: Optional[Fraction] = None
    entries: Optional[Tuple[Tuple[int, Number], ...]] = None
    description: str = ""

    @staticmethod
    def power(s) -> "Gauge":
        s = Fraction(s)
        if s <= 0:
            raise ValueError("power gauge needs s > 0")
        return Gauge(kind=POWER, s=s, description=f"t^{format_rational(s)}")

    @staticmethod
    def power_log(s, c) -> "Gauge":
        s, c = Fraction(s), Fraction(c)
        if s <= 0:
            raise ValueError("power_log gauge needs s > 0")
        return Gauge(
            kind=POWER_LOG,
            s=s,
            c=c,
            description=f"t^{format_rational(s)}*log2(1/t)^{format_rational(c)}",
        )

    @staticmethod
    def table(entries: Sequence[Tuple[int, Number]], description: str = "table") -> "Gauge":
        ents = tuple((int(n), v) for n, v in entries)
        if not ents:
            raise ValueError("table gauge needs at least one entry")
        for (n0, v0), (n1, v1) in zip(ents, ents[1:]):
            if n1 <= n0:
                raise ValueError("table exponents must be strictly increasing")
            if v1 > v0:
                raise ValueError("table values must be non-increasing in the exponent")
        if any(v <= 0 for _, v in ents):
            raise ValueError("table values must be positive")
        return Gauge(kind=TABLE, entries=ents, description=description)

    # -- evaluation ------------------------------------------------------

    def _power_values(self, ns: range) -> List[Value]:
        """The power-family kernel: g(2^-n) for every n in ns >= 0.

        With s = p/q, 2^-ns is the pair (1, np/q) where q divides np and the
        float 2.0**(-np/q) elsewhere.  A power-log gauge multiplies that by
        n^c, normalised to a pair when both factors are exact (integer
        c >= 0), and is 0 at n = 0.
        """
        p, q = self.s.numerator, self.s.denominator
        values = [(1, n * p // q) if n * p % q == 0 else math.pow(2.0, -n * p / q) for n in ns]
        if self.kind == POWER:
            return values
        c = self.c
        if c.denominator == 1 and c >= 0:
            c = c.numerator
            return [
                (0, 0) if not n else dyadic_pair(n**c, v[1]) if type(v) is tuple else v * n**c
                for n, v in zip(ns, values)
            ]
        return [(0, 0) if not n else float(to_number(v)) * n ** float(c) for n, v in zip(ns, values)]

    def dyadic_at_scale(self, exponent: int) -> Value:
        """Value g(2^-exponent): an exact dyadic value as the pair (m, e),
        a non-dyadic table entry as it is, anything else as a float."""
        n = int(exponent)
        if n < 0:
            raise ValueError("scale exponent must be >= 0")
        if self.kind in (POWER, POWER_LOG):
            return self._power_values(range(n, n + 1))[0]
        if self.kind == TABLE:
            i = bisect_left([e for e, _ in self.entries], n)
            if i < len(self.entries) and self.entries[i][0] == n:
                v = self.entries[i][1]
                if isinstance(v, Fraction) and is_dyadic(v):
                    return dyadic_pair(v.numerator, v.denominator.bit_length() - 1)
                return v
            raise OutOfRangeError(f"table gauge has no entry at exponent {n}")
        raise ValueError(f"unknown gauge kind {self.kind!r}")

    def at_scale(self, exponent: int) -> Number:
        """Value g(2^-exponent), with an exact dyadic value as a Fraction."""
        return to_number(self.dyadic_at_scale(exponent))

    def scale_values(self, depth: int) -> List[Value]:
        """dyadic_at_scale at every level 0..depth, a power-family gauge's
        in one kernel call."""
        if self.kind in (POWER, POWER_LOG):
            return self._power_values(range(depth + 1))
        return [self.dyadic_at_scale(n) for n in range(depth + 1)]

    def log2_at_scale(self, exponent: int) -> float:
        """log2 of the value, computed without under/overflow."""
        n = int(exponent)
        if self.kind == POWER:
            return -n * float(self.s)
        if self.kind == POWER_LOG:
            if n == 0:
                return -math.inf
            return -n * float(self.s) + float(self.c) * math.log2(n)
        v = self.at_scale(n)
        if isinstance(v, Fraction):
            return math.log2(v.numerator) - math.log2(v.denominator)
        return math.log2(v)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        if self.kind == POWER:
            return {"kind": POWER, "s": format_rational(self.s)}
        if self.kind == POWER_LOG:
            return {"kind": POWER_LOG, "s": format_rational(self.s), "c": format_rational(self.c)}
        return {
            "kind": TABLE,
            "entries": [
                [n, format_rational(v) if isinstance(v, Fraction) else float(v)]
                for n, v in self.entries
            ],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "Gauge":
        kind = d["kind"]
        if kind == POWER:
            return Gauge.power(parse_rational(d["s"]))
        if kind == POWER_LOG:
            return Gauge.power_log(parse_rational(d["s"]), parse_rational(d["c"]))
        if kind == TABLE:
            entries = [
                (int(n), parse_rational(v) if isinstance(v, str) else float(v))
                for n, v in d["entries"]
            ]
            return Gauge.table(entries)
        raise ValueError(f"unknown gauge kind {kind!r}")


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of the numerical order comparison, with its audit trace."""

    relation: str
    ratio_trace: Tuple[Tuple[int, float], ...]


@dataclass(frozen=True)
class BranchSchedule:
    """The set of forced (non-splitting) levels of a splitting tree."""

    depth: int
    indices: Tuple[int, ...]
    n0: int = 0

    def __post_init__(self):
        if any(i >= self.depth or i < 0 for i in self.indices):
            raise ValueError("every schedule index must lie in [0, depth)")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("schedule indices must be strictly increasing")

    def count_below(self, n: int) -> int:
        """|A ∩ n|: how many forced levels lie strictly below n."""
        return bisect_left(self.indices, n)

    def __contains__(self, n: int) -> bool:
        i = bisect_left(self.indices, n)
        return i < len(self.indices) and self.indices[i] == n

    def to_json_dict(self, gauge: Optional[Gauge] = None) -> dict:
        d = {"depth": self.depth, "indices": list(self.indices), "n0": self.n0}
        if gauge is not None:
            d["gauge"] = gauge.to_json_dict()
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "BranchSchedule":
        return BranchSchedule(
            depth=int(d["depth"]),
            indices=tuple(int(i) for i in d["indices"]),
            n0=int(d.get("n0", 0)),
        )


def compare_order(
    f: Gauge, g: Gauge, max_exponent: int, decay_threshold: float = 0.01
) -> OrderVerdict:
    """Falsification-style check of the order relation between two gauges.

    Computes g(2^-n)/f(2^-n) up to max_exponent.  Declares f of lower order
    (f before g) when the ratio is non-increasing over the tail, strictly
    smaller at the end of the tail than at its start, and ends below the
    threshold; symmetrically for the other direction.  Anything else is
    inconclusive.  The trace is returned so callers can audit the verdict.
    """
    if max_exponent < 4:
        raise InsufficientDataError("need max_exponent >= 4 for an order verdict")
    trace = []
    for n in range(1, max_exponent + 1):
        # ratio via log2 so deep scales cannot underflow
        lr = g.log2_at_scale(n) - f.log2_at_scale(n)
        trace.append((n, 2.0**lr))
    tail = [r for n, r in trace if n > max_exponent // 2]

    def decays(seq):
        return (
            all(b <= a for a, b in zip(seq, seq[1:]))
            and seq[-1] < seq[0]
            and seq[-1] < decay_threshold
        )

    if decays(tail):
        relation = FIRST_LOWER_ORDER
    elif decays([1.0 / r for r in tail]):
        relation = SECOND_LOWER_ORDER
    else:
        relation = INCONCLUSIVE
    return OrderVerdict(relation=relation, ratio_trace=tuple(trace))


def bound_table(g: Gauge, depth: int, values: Optional[Sequence[Value]] = None) -> List[int]:
    """Per-level sparsity caps c(n) = floor(log2(g(2^-n) * 2^n)), guarded.

    The floor is exact for an exact value; for a pair (m, e) it is
    m.bit_length() - 1 + n - e.  On the floating path a slack of 2^-20 is
    subtracted first so the integer bound is never overstated by rounding.
    `values` defaults to g.scale_values(depth - 1).
    """
    if values is None:
        values = g.scale_values(depth - 1)
    caps = []
    for n in range(depth):
        v = values[n]
        if type(v) is tuple:
            m, e = v
            caps.append(max(0, m.bit_length() - 1 + n - e) if m else 0)
        elif isinstance(v, Fraction):
            x = v * 2**n
            caps.append(max(0, floor_log2(x)) if x > 0 else 0)
        else:
            l = g.log2_at_scale(n) + n
            caps.append(max(0, math.floor(l - _GUARD)))
    return caps


def sparsity_schedule(g: Gauge, depth: int, caps: Optional[Sequence[int]] = None) -> BranchSchedule:
    """Greedy maximal forced-level set compatible with the gauge's caps.

    Level n is included whenever the incremented counting function still
    respects c(m) at every later level m <= depth.  The result satisfies the
    sparsity inequality at every level, so the certified threshold is 0.
    `caps` defaults to bound_table(g, depth + 1).
    """
    if caps is None:
        caps = bound_table(g, depth + 1)
    # suffix minima: including n requires count+1 <= c(m) for all m in (n, depth]
    suffix_min = [0] * (depth + 2)
    suffix_min[depth + 1] = 10**9
    for m in range(depth, -1, -1):
        suffix_min[m] = min(caps[m], suffix_min[m + 1])
    indices = []
    count = 0
    for n in range(depth):
        if count + 1 <= suffix_min[n + 1]:
            indices.append(n)
            count += 1
    return BranchSchedule(depth=depth, indices=tuple(indices), n0=0)
