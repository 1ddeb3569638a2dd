"""Exact references for the certify and transfer numerics, kept as test
oracles.

The gauge references never round: `exact_power` gives g(2^-n)^L as an
integer ratio P/Q, so `compare_with_gauge` decides x·2^-e <= g(2^-n) by one
integer cross-multiplication of L-th powers (for `power:p/q`, lo^q·2^(np)
against 2^(eq)).  `encloses` checks a kernel triple (lo, hi, e) against it,
`reference_bound_table` and `reference_frostman_lower` take their caps and
cylinder tests from the same comparison (the latter names the first least
lower level cost among its failing levels), the references of the level
walk's upper end run the downward cover DP twice (cost, then witness level)
over the upper ends as Fractions, and `reference_lower` takes the least
lower-end level cost from its definition.  The integer (mantissa,
exponent) fast paths in `gaugetree.gauge`, `gaugetree.hausdorff` and
`gaugetree.cli` must agree with them; `tests/test_certify_oracles.py`
compares the two.
`reference_dimension` is the dimension number d(k, N) as a naive Fraction
minimum, checked against both certifiers on power gauges, which
`tests/test_hausdorff.py` compares with the integer pass.
`reference_dyadic_four_cover` is the Fraction body of the four-interval cover,
and `reference_interleave_metric_check` the Fraction body of the interleaving
metric check, which `tests/test_transfer.py` compares with the integer
`four_cover_span` and `interleave_metric_check`; `reference_transfer_rows`
draws and checks a `transfer` batch with them and the stdlib's own calls,
which `tests/test_cli.py` compares with the CLI's rows.

The cover-cost oracles of the level walk live here too:
`optimal_cover_cost`, the node DP over an explicit trie at either end of
the enclosures, and `brute_force_cover_cost`, which enumerates every
covering antichain; `deinterleave` is the inverse of
`gaugetree.transfer.interleave`, and `right_end` the right end of a dyadic
interval.  `parse_dyadic` is the exact parse of a ``p/2^q`` cell, which
`gaugetree.dyadic.parse_float` must round.

Tree membership is read off the definitions: `reference_consistent` checks
a node against a selector level by level, a game-built selector by its
`Layer`s and any other by its `bit`; `reference_contains` is membership in
a tree, and `reference_leaves` the members of one length.  `IDENTITY` is
the identity transducer.
"""

import itertools
import random

from bisect import bisect_left
from fractions import Fraction

from gaugetree.dyadic import floor_log2
from gaugetree.errors import UsageError
from gaugetree.game import TransducerMap
from gaugetree.gauge import POWER, POWER_LOG, TABLE, Gauge
from gaugetree.hausdorff import frostman_lower, level_dp_cost
from gaugetree.transfer import DyadicInterval, interleave
from gaugetree.tree import GameBuiltSelector, check_node

BRUTE_FORCE_NODE_LIMIT = 64


class EnumerationBudgetError(Exception):
    """Brute-force cover enumeration bound exceeded."""


def exact_power(g, n):
    """(L, P, Q) with g(2^-n)^L = P/Q exactly, for integers L >= 1, P >= 0
    and Q > 0: L = q for t^(p/q), L = qb for t^(p/q)·log2(1/t)^(a/b)."""
    if g.kind == TABLE:
        i = bisect_left([e for e, _ in g.entries], n)
        if i < len(g.entries) and g.entries[i][0] == n:
            return (1, *Fraction(g.entries[i][1]).as_integer_ratio())
        raise UsageError(f"table gauge has no entry at exponent {n}")
    p, q = g.s.numerator, g.s.denominator
    if g.kind == POWER:
        return q, 1, 2 ** (n * p)
    assert g.kind == POWER_LOG
    a, b = g.c.numerator, g.c.denominator
    if n == 0:
        return q * b, 0, 1
    if a >= 0:
        return q * b, n ** (a * q), 2 ** (n * p * b)
    return q * b, 1, 2 ** (n * p * b) * n ** (-a * q)


def compare_with_gauge(g, n, x, e):
    """The sign of x·2^-e - g(2^-n), for an integer x >= 0, exactly."""
    L, P, Q = exact_power(g, n)
    lhs, rhs = x**L * Q, P
    if e >= 0:
        rhs *= 2 ** (e * L)
    else:
        lhs *= 2 ** (-e * L)
    return (lhs > rhs) - (lhs < rhs)


def _odd_part(x):
    """x without its factors of 2, for x > 0."""
    return x // (x & -x)


def gauge_is_dyadic(g, n):
    """Whether g(2^-n) is a dyadic rational: the odd part of its L-th power
    P/Q is a perfect L-th power, and its power of two a multiple of L."""
    L, P, Q = exact_power(g, n)
    if P == 0:
        return True
    x = Fraction(P, Q)
    odd_num, odd_den = _odd_part(x.numerator), _odd_part(x.denominator)
    twos = (x.numerator // odd_num).bit_length() - (x.denominator // odd_den).bit_length()
    if odd_den != 1 or twos % L:
        return False
    lo, hi = 1, 1 << (odd_num.bit_length() // L + 1)
    while lo < hi:  # bisect for the least c with c^L >= odd_num, exactly: a float root loses u^64's digits
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if mid**L < odd_num else (lo, mid)
    return lo**L == odd_num


def encloses(g, n, value):
    """A kernel triple (lo, hi, e) holds g(2^-n): lo·2^-e <= g <= hi·2^-e, with
    hi odd or (hi, e) = (0, 0), lo = hi exactly when g(2^-n) is dyadic, and
    otherwise a relative width (hi - lo)/hi of at most 2^-58."""
    lo, hi, e = value
    if compare_with_gauge(g, n, lo, e) > 0 or compare_with_gauge(g, n, hi, e) < 0:
        return False
    if not (hi % 2 == 1 or (hi, e) == (0, 0)):
        return False
    if gauge_is_dyadic(g, n):
        return lo == hi
    return lo < hi and (hi - lo) * 2**58 <= hi


def upper_value(g, n):
    """The upper end of the kernel's enclosure of g(2^-n), as a Fraction."""
    _, hi, e = g.dyadic_at_scale(n)
    return Fraction(hi) / Fraction(2) ** e


def lower_value(g, n):
    """The lower end of the kernel's enclosure of g(2^-n), as a Fraction."""
    lo, _, e = g.dyadic_at_scale(n)
    return Fraction(lo) / Fraction(2) ** e


def _floor_log2(p, q):
    """floor(log2(p/q)) for integers p, q > 0."""
    k = p.bit_length() - q.bit_length()
    if p * 2 ** max(0, -k) < q * 2 ** max(0, k):
        k -= 1
    return k


def reference_cap(g, n):
    """max(0, floor(log2(g(2^-n)·2^n))) from g^L = P/Q: the floor of
    log2(P·2^(nL)/Q) / L, since floor(floor(y)/L) = floor(y/L)."""
    L, P, Q = exact_power(g, n)
    if P == 0:
        return 0
    return max(0, _floor_log2(P * 2 ** (n * L), Q) // L)


def reference_bound_table(g, depth):
    return [reference_cap(g, n) for n in range(depth)]


def reference_frostman_lower(tree, g):
    violations = []
    worst = None
    for n in range(tree.depth + 1):
        e = -n + tree.schedule.count_below(n)
        L, P, Q = exact_power(g, n)
        # 2^e <= g(2^-n) iff 2^(eL)·Q <= P
        ok = P > 0 and (Q <= P * 2 ** (-e * L) if e <= 0 else Q * 2 ** (e * L) <= P)
        if not ok:
            # the worst level: the first least lower level cost 2^-e·lo·2^-f
            lo, _, f = g.dyadic_at_scale(n)
            cost = Fraction(lo) / Fraction(2) ** (f + e)
            violations.append(n)
            if worst is None or cost < worst[1]:
                worst = (n, cost)
    if violations and violations[-1] == tree.depth:
        return None, worst[0]
    return (violations[-1] + 1 if violations else 0), None


def reference_lower(tree, g, delta_exponent):
    """(the least lo-end level cost 2^free(n)·lo(n) over k <= n <= depth, the
    first n reaching it), from the definition, as Fractions."""
    costs = [(2 ** (n - tree.schedule.count_below(n)) * lower_value(g, n), n)
             for n in range(int(delta_exponent), tree.depth + 1)]
    least = min(c for c, _ in costs)
    return least, next(n for c, n in costs if c == least)


def reference_level_dp_cost(tree, g, delta_exponent, depth=None):
    k = int(delta_exponent)
    n_max = tree.depth if depth is None else int(depth)
    if n_max > tree.depth:
        raise ValueError(f"depth {n_max} > tree depth {tree.depth}")
    if k > n_max:
        raise ValueError(f"need delta exponent {k} <= depth {n_max}")
    cost = upper_value(g, n_max)
    for n in range(n_max - 1, -1, -1):
        branching = 1 if n in tree.schedule else 2
        through = branching * cost
        if n >= k:
            cut = upper_value(g, n)
            cost = cut if cut <= through else through
        else:
            cost = through
    return cost


def reference_level_dp_witness_level(tree, g, delta_exponent, depth=None):
    k = int(delta_exponent)
    n_max = tree.depth if depth is None else int(depth)
    costs = [None] * (n_max + 1)
    costs[n_max] = upper_value(g, n_max)
    for n in range(n_max - 1, -1, -1):
        branching = 1 if n in tree.schedule else 2
        through = branching * costs[n + 1]
        if n >= k and upper_value(g, n) <= through:
            costs[n] = upper_value(g, n)
        else:
            costs[n] = through
    for n in range(max(k, 0), n_max + 1):
        branching = 1 if n in tree.schedule else 2
        if n == n_max or upper_value(g, n) <= branching * costs[n + 1]:
            return n
    return n_max


def reference_dimension(tree, delta_exponent):
    """(d, witness level) from the definition: the first least
    (n - #{i in indices : i < n}) / n over max(k, 1) <= n <= N as Fractions, or
    (1, None) on an empty range; never through `free_levels`.  Both certifiers
    must turn at d on power gauges: t^d passes the Frostman test from level k
    on, and the cut-k cover of t^(d + 2^-20) costs below 1."""
    k = max(delta_exponent, 0)
    indices = tree.schedule.indices
    ratios = [(Fraction(n - sum(1 for i in indices if i < n), n), n) for n in range(max(k, 1), tree.depth + 1)]
    d, witness = min(ratios, key=lambda r: r[0], default=(Fraction(1), None))
    if d:  # t^0 is no gauge
        n0, _ = frostman_lower(tree, Gauge.power(d))
        assert n0 is not None and n0 <= k
    if witness is not None:
        assert level_dp_cost(tree, Gauge.power(d + Fraction(1, 2**20)), k) < 1
    return d, witness


def parse_dyadic(s):
    """Parse ``p/2^q``; anything else (an integer, ``p/q``, a float repr)
    goes to Fraction."""
    if "/2^" in s:
        p, q = s.split("/2^")
        return Fraction(int(p), 2 ** int(q))
    return Fraction(s)


def format_exact(x):
    """p/2^q for a dyadic x, p/q for any other."""
    if x.denominator & (x.denominator - 1):  # not a power of two
        return f"{x.numerator}/{x.denominator}"
    q = x.denominator.bit_length() - 1
    if q == 0:
        return str(x.numerator)
    return f"{x.numerator}/2^{q}"


def reference_level_rows(tree, g, depth):
    rows = []
    for n in range(depth + 1):
        count = tree.level_count(n)
        free = count.bit_length() - 1
        mu = Fraction(1, 2 ** (n - tree.schedule.count_below(n)))
        gv = upper_value(g, n)
        rows.append([n, free, format_exact(mu), format_exact(gv), format_exact(count * gv)])
    return rows


def reference_dyadic_four_cover(a, b):
    """At most four level-m dyadic intervals covering [a, b], in Fractions."""
    a, b = Fraction(a), Fraction(b)
    if not 0 <= a < b <= 1:
        if a >= b:
            raise ValueError(f"need a < b, got [{a}, {b}]")
        raise ValueError("interval must lie inside [0, 1]")
    diam = b - a
    if diam > Fraction(1, 2):
        return [DyadicInterval(level=0, index=0)]
    # unique m with 2^-m < diam <= 2^-(m-1)
    e = floor_log2(diam)
    m = -e + 1 if diam == Fraction(2) ** e else -e
    scale = 2**m
    p = (a * scale).numerator // (a * scale).denominator + 1
    intervals = []
    for idx in range(p - 2, p + 2):
        if 0 <= idx < scale:
            intervals.append(DyadicInterval(level=m, index=idx))
    return intervals


def reference_interleave_metric_check(x, y, n):
    """(k, 2^-floor(k/n), largest component distance) for the first
    difference k of x and y, in Fractions, scanning bit by bit."""
    xs, ys = interleave(x, n), interleave(y, n)  # validates both strings
    if x == y:
        raise ValueError("distance undefined for equal strings")
    if len(x) != len(y):
        raise ValueError("strings must have equal length")
    k = next(i for i in range(len(x)) if x[i] != y[i])
    expected = Fraction(1, 2 ** (k // n))
    dists = []
    for xc, yc in zip(xs, ys):
        diff = next((i for i in range(len(xc)) if xc[i] != yc[i]), None)
        if diff is not None:
            dists.append(Fraction(1, 2**diff))
    return k, expected, max(dists)


def reference_transfer_rows(mode, count, seed, length=None):
    """The CSV rows of `transfer four-cover` or `interleave-check` as the
    loops before the word reader drew them: stdlib `randrange` and `choice`
    on `random.Random(seed)`, each string from per-bit `getrandbits(1)`, the
    cover of `reference_dyadic_four_cover` with its pass check in Fractions,
    and `reference_interleave_metric_check`."""
    rng = random.Random(seed)
    rows = []
    for i in range(count):
        if mode == "four-cover":
            den = rng.randrange(8, 1 << 16)
            lo = rng.randrange(den - 1)
            hi = rng.randrange(lo + 1, den)
            a, b = Fraction(lo, den), Fraction(hi, den)
            cover = reference_dyadic_four_cover(a, b)
            ok = len(cover) <= 4 and cover[0].left <= a and right_end(cover[-1]) >= b
            rows.append([i, a, b, cover[0].level, len(cover), int(ok)])
            continue
        n = rng.choice([2, 3, 4])
        bits = length - length % n
        x = y = "".join(str(rng.getrandbits(1)) for _ in range(bits))
        while y == x:
            y = "".join(str(rng.getrandbits(1)) for _ in range(bits))
        k, expected, observed = reference_interleave_metric_check(x, y, n)
        rows.append([i, n, k, expected, observed, int(expected == observed)])
    return [[str(cell) for cell in row] for row in rows]


def optimal_cover_cost(etree, g, delta_exponent, value=upper_value):
    """Exact infimum over cylinder covers with depths in [k, tree depth],
    each cylinder of length n charged value(g, n), by default the upper end
    of its enclosure.

    Node-level DP: at each trie node, either pay the cylinder at this depth
    (when allowed) or recurse into both children.  Returns the minimizing
    antichain as witness.
    """
    k = int(delta_exponent)
    if k > etree.depth:
        raise ValueError(f"delta exponent {k} > tree depth {etree.depth}")

    def solve(prefix, leaves):
        n = len(prefix)
        if n == etree.depth:
            return value(g, n), (prefix,)
        left = tuple(l for l in leaves if l[n] == "0")
        right = tuple(l for l in leaves if l[n] == "1")
        parts = []
        for part in (left, right):
            if part:
                parts.append(solve(prefix + part[0][n], part))
        child_cost = sum(c for c, _ in parts)
        child_witness = tuple(w for _, ws in parts for w in ws)
        if n >= k:
            cut = value(g, n)
            if cut <= child_cost:
                return cut, (prefix,)
        return child_cost, child_witness

    return solve("", etree.leaves)


def brute_force_cover_cost(etree, g, delta_exponent):
    """Enumerate every cylinder antichain covering the leaves."""
    k = int(delta_exponent)
    if k > etree.depth:
        raise ValueError(f"delta exponent {k} > tree depth {etree.depth}")
    nodes = set()
    for leaf in etree.leaves:
        for n in range(k, etree.depth + 1):
            nodes.add(leaf[:n])
    if len(nodes) > BRUTE_FORCE_NODE_LIMIT:
        raise EnumerationBudgetError(
            f"{len(nodes)} candidate nodes exceed the bound {BRUTE_FORCE_NODE_LIMIT}"
        )

    def covers(prefix, leaves):
        result = []
        n = len(prefix)
        if n >= k:
            result.append((prefix,))
        if n < etree.depth:
            parts = []
            for b in ("0", "1"):
                part = tuple(l for l in leaves if l[n] == b)
                if part:
                    parts.append(covers(prefix + b, part))
            if parts:
                combined = parts[0]
                for nxt in parts[1:]:
                    combined = [a + b for a in combined for b in nxt]
                # avoid duplicating the singleton cut when n < k produced nothing
                if n >= k:
                    result.extend(combined)
                else:
                    result = combined
        return result

    all_covers = covers("", etree.leaves)
    return min(sum(g.at_scale(len(t)) for t in cover) for cover in all_covers)


def deinterleave(components, n=None):
    """Inverse of `interleave`: bit j*n + i is bit j of component i."""
    if n is None:
        n = len(components)
    if n != len(components):
        raise ValueError("component count mismatch")
    length = sum(len(c) for c in components)
    out = []
    for j in range((length + n - 1) // n):
        for i in range(n):
            if j < len(components[i]):
                out.append(components[i][j])
    return "".join(out)


def right_end(iv):
    """The right end (index + 1)/2^level of a dyadic interval."""
    return Fraction(iv.index + 1, 2**iv.level)


# -- tree membership --------------------------------------------------------

IDENTITY = TransducerMap(start=0, delta={(0, 0): (0, "0"), (0, 1): (0, "1")}, lag=0)


def reference_consistent(sel, node, levels):
    """`node` obeys the selector `sel` at each of the `levels` shorter than
    it.  A game-built selector is read off `Layer`'s definition: at a layer's
    level a node incomparable with the layer's root gets the layer's bit; a
    node compatible with the root, or at a level without a layer, gets the
    default.  Any other selector's `bit` is its definition."""
    layers = {l.level: l for l in sel.layers} if isinstance(sel, GameBuiltSelector) else None
    for n in levels:
        if n >= len(node):
            break
        head = node[:n]
        if layers is None:
            bit = sel.bit(head)
        else:
            layer = layers.get(n)
            incomparable = layer is not None and not (layer.root.startswith(head) or head.startswith(layer.root))
            bit = layer.bit if incomparable else sel.default
        if int(node[n]) != bit:
            return False
    return True


def reference_contains(tree, node):
    """`node` is a node of `tree`: binary, no longer than its depth, and
    obeying its selector at every forced level."""
    if len(check_node(node)) > tree.depth:
        raise ValueError(f"node length {len(node)} > depth {tree.depth}")
    return reference_consistent(tree.selector, node, tree.schedule.indices)


def reference_leaves(tree, d):
    """The depth-d nodes of `tree`, in order."""
    return tuple(node for node in map("".join, itertools.product("01", repeat=d)) if reference_contains(tree, node))
