"""Gauge functions at dyadic scales, order comparison, and sparsity schedules.

A gauge is only evaluated at scales t = 2^-n, and every value is the integer
triple ``(lo, hi, e)`` with lo·2^-e <= g(2^-n) <= hi·2^-e and hi odd or 0.
An exact value has lo = hi; one that is not dyadic is enclosed in integer
arithmetic (Brent and Zimmermann, *Modern Computer Arithmetic*, §1.5) to
about MANTISSA_BITS bits.  The caps and the Frostman test read lo, the cover
costs read hi.  The power-family formulas live in one kernel,
:meth:`Gauge._power_values`, which :meth:`Gauge.scale_values` (each level
once per command) and :meth:`Gauge.dyadic_at_scale` read.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .dyadic import Number, Value, dyadic_pair, format_rational, parse_rational, to_number
from .errors import UsageError
from .tree import BranchSchedule

# bits of an inexact value's mantissa, and of the fixed point it is formed in
MANTISSA_BITS = 64
_WORK_BITS = 128
# the bound on a gauge's exponents, so that every level's value stays in
# reach: s <= MAX_TERM, for the level costs 2^free·g of levels m and n compare
# by a shift of about |n - m|·s bits; and c = a/b with |a|, b <= MAX_TERM, for
# each level's u^c is an integer b-th root of a (MANTISSA_BITS·b + |a|·log2 u)-bit number
MAX_TERM = 64

FIRST_LOWER_ORDER = "first_lower_order"
SECOND_LOWER_ORDER = "second_lower_order"
INCONCLUSIVE = "inconclusive"

POWER = "power"
POWER_LOG = "power_log"
TABLE = "table"


def _iroot(x: int, b: int) -> int:
    """floor(x^(1/b)) for integers x >= 1 and b >= 1: math.isqrt for b = 2,
    else integer Newton down from a float estimate raised above the root."""
    if b == 2:
        return math.isqrt(x)
    s = max(0, x.bit_length() // b - 60)  # x^(1/b) <= 2^s·((x >> sb) + 1)^(1/b)
    r = (int(math.exp2(math.log2(x >> s * b) / b) * (1 + 2.0**-40)) + 2) << s
    while (t := ((b - 1) * r + x // r ** (b - 1)) // b) < r:
        r = t
    return r


def _enclose(p: int, q: int, b: int = 1) -> Value:
    """The triple of (p/q)^(1/b) for integers p, q > 0: exact when dyadic, else
    the integer b-th root of p·2^(eb)/q, e >= 0 chosen for MANTISSA_BITS bits,
    and the next odd integer.  Only b = 1 has dyadic roots other than integers."""
    if b == 1 and not q & (q - 1):
        lo, e = p, q.bit_length() - 1
    else:
        e = max(0, MANTISSA_BITS - (p.bit_length() - q.bit_length()) // b)
        num = p << e * b
        lo = _iroot(num // q, b)
        if lo**b * q != num:
            return (lo, (lo + 1) | 1, e)
    m, e = dyadic_pair(lo, e)
    return (m, m, e)


def _halvings() -> List[Tuple[int, int]]:
    """Floor and ceiling of 2^(-2^-i)·2^W, W = _WORK_BITS, for i = 1..W."""
    w = _WORK_BITS
    lo = hi = 1 << (w - 1)
    out = []
    for _ in range(w):
        lo, hi = math.isqrt(lo << w), 1 + math.isqrt((hi << w) - 1)  # floor, ceiling
        out.append((lo, hi))
    return out


_HALVINGS = _halvings()


@lru_cache(maxsize=1 << 12)
def _exp2(r: int, q: int) -> Value:
    """The triple of 2^(-r/q) for 0 <= r < q, irrational unless r = 0.

    With r/q = 0.d1d2... in binary, 2^(-r/q) is the product of 2^(-2^-i) over
    the digits di = 1, taken in W-bit fixed point with the lower end floored
    and the upper ceiled; the digits past W cost one more factor 2^(-2^-W) on
    the lower end.  Both ends are rounded outward; the cost does not grow with q.
    """
    if not r:
        return (1, 1, 0)
    w = _WORK_BITS
    digits = (r << w) // q
    lo = hi = 1 << w
    for i, (dlo, dhi) in enumerate(_HALVINGS):
        if digits >> (w - 1 - i) & 1:
            lo = lo * dlo >> w
            hi = -(-hi * dhi >> w)
    if digits * q != r << w:
        lo = lo * _HALVINGS[-1][0] >> w
    shift = w - MANTISSA_BITS
    return (lo >> shift, -(-hi >> shift) | 1, MANTISSA_BITS)


class Gauge(NamedTuple):
    """An evaluable gauge function, represented at dyadic scales only.

    Kinds:
      power      t^s for rational 0 < s <= MAX_TERM
      power_log  t^s * log2(1/t)^c for t < 1, value 0 at t = 1, with
                 c = a/b and |a|, b <= MAX_TERM
      table      finite list of (exponent, value) pairs
    """

    kind: str
    s: Optional[Fraction] = None
    c: Optional[Fraction] = None
    entries: Optional[Tuple[Tuple[int, Number], ...]] = None

    @staticmethod
    def power(s) -> "Gauge":
        s = Fraction(s)
        if not 0 < s <= MAX_TERM:
            raise ValueError(f"power gauge needs 0 < s <= {MAX_TERM}")
        return Gauge(kind=POWER, s=s)

    @staticmethod
    def power_log(s, c) -> "Gauge":
        s, c = Fraction(s), Fraction(c)
        if not 0 < s <= MAX_TERM:
            raise ValueError(f"power_log gauge needs 0 < s <= {MAX_TERM}")
        if max(abs(c.numerator), c.denominator) > MAX_TERM:
            raise ValueError(
                f"power_log gauge needs c = a/b with |a|, b <= {MAX_TERM}: each level n = 2^t*u, "
                f"u odd, takes a b-th root of a ({MANTISSA_BITS}*b + |a|*log2(u))-bit number"
            )
        return Gauge(kind=POWER_LOG, s=s, c=c)

    @staticmethod
    def table(entries: Sequence[Tuple[int, Number]]) -> "Gauge":
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
        return Gauge(kind=TABLE, entries=ents)

    # -- evaluation ------------------------------------------------------

    def _power_values(self, ns: range) -> List[Value]:
        """The power-family kernel: the triple of g(2^-n) for every n in ns >= 0.

        With s = p/q, 2^-ns = 2^-k · 2^(-r/q) for k, r = divmod(np, q).  A
        power-log gauge with c = a/b writes n = 2^t·u, u odd, so that
        g = 2^(tc - ns)·u^c: its power of two takes residues mod qb, an odd
        u^a (integer c >= 0) multiplies both ends exactly, and any other u^c
        is enclosed by an integer b-th root.  An inexact product is rounded
        outward to MANTISSA_BITS bits, and g is (0, 0, 0) at n = 0.
        """
        p, q = self.s.numerator, self.s.denominator
        values = []
        if self.kind == POWER:
            roots = {r: _exp2(r, q) for r in {n * p % q for n in ns[:q]}}
            for n in ns:
                np = n * p
                lo, hi, e = roots[np % q]
                values.append((lo, hi, e + np // q))
            return values
        a, b = self.c.numerator, self.c.denominator
        d, exact_u = q * b, b == 1 and a > 0
        for n in ns:
            if not n:
                values.append((0, 0, 0))
                continue
            t = (n & -n).bit_length() - 1
            u = n >> t
            k, r = divmod(n * p * b - t * a * q, d)
            lo, hi, e = _exp2(r, d)
            if u > 1 and a:
                if exact_u:
                    f = u**a
                    lo, hi = lo * f, hi * f
                else:
                    flo, fhi, fe = _enclose(u**a, 1, b) if a > 0 else _enclose(1, u**-a, b)
                    lo, hi, e = lo * flo, hi * fhi, e + fe
                if lo != hi:
                    shift = max(0, hi.bit_length() - MANTISSA_BITS)
                    lo, hi, e = lo >> shift, -(-hi >> shift) | 1, e - shift
            values.append((lo, hi, e + k))
        return values

    def dyadic_at_scale(self, exponent: int) -> Value:
        """The triple (lo, hi, e) of g(2^-exponent); a table entry is exact
        when dyadic (every float is) and enclosed otherwise."""
        n = int(exponent)
        if n < 0:
            raise ValueError("scale exponent must be >= 0")
        if self.kind in (POWER, POWER_LOG):
            return self._power_values(range(n, n + 1))[0]
        if self.kind == TABLE:
            i = bisect_left(self.entries, (n,))  # (n,) sorts just before (n, v)
            if i < len(self.entries) and self.entries[i][0] == n:
                return _enclose(*self.entries[i][1].as_integer_ratio())
            raise UsageError(f"table gauge has no entry at exponent {n}")
        raise ValueError(f"unknown gauge kind {self.kind!r}")

    def at_scale(self, exponent: int) -> Fraction:
        """g(2^-exponent) as a Fraction: the value itself when exact, else the
        upper end of its enclosure, which is what a cover is charged."""
        return to_number(self.dyadic_at_scale(exponent)[1:])

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
        return math.log2(v.numerator) - math.log2(v.denominator)

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


class OrderVerdict(NamedTuple):
    """Outcome of the numerical order comparison, with its audit trace."""

    relation: str
    ratio_trace: Tuple[Tuple[int, float], ...]


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
        raise ValueError("need max_exponent >= 4 for an order verdict")
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
    """Per-level sparsity caps c(n) = floor(log2(g(2^-n) * 2^n)), clamped at 0.

    Read from the lower end lo·2^-e of each value as lo.bit_length() - 1 +
    n - e: exact for an exact value, and never above the true cap otherwise.
    `values` defaults to g.scale_values(depth - 1).
    """
    if values is None:
        values = g.scale_values(depth - 1)
    return [max(0, lo.bit_length() - 1 + n - e) if lo else 0 for n, (lo, _, e) in zip(range(depth), values)]


def sparsity_schedule(g: Gauge, depth: int, caps: Optional[Sequence[int]] = None) -> BranchSchedule:
    """Greedy maximal forced-level set compatible with the gauge's caps.

    Level n is included whenever the incremented counting function still
    respects c(m) at every later level m <= depth.  The result satisfies the
    sparsity inequality at every level, so the certified threshold is 0.
    `caps` defaults to bound_table(g, depth + 1).
    """
    if caps is None:
        caps = bound_table(g, depth + 1)
    # including n requires count + 1 <= c(m) for every m in (n, depth]
    indices = []
    for n, cap in enumerate(reversed(list(accumulate(caps[depth:0:-1], min)))):
        if len(indices) < cap:
            indices.append(n)
    return BranchSchedule(depth=depth, indices=tuple(indices), n0=0)
