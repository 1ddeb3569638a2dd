"""The integer certify numerics against their exact references in
`fraction_oracles.py`: gauge enclosures (the power-family kernel behind
`scale_values`), exact pair comparisons, caps, the Frostman floor, the
least level cost of `level_dp`, measure certificates and the levels CSV rows."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fraction_oracles import (
    encloses,
    reference_bound_table,
    reference_cap,
    reference_contains,
    reference_frostman_lower,
    reference_level_dp_cost,
    reference_level_dp_witness_level,
    reference_level_rows,
    upper_value,
)
from gaugetree import (
    BranchSchedule,
    ConstantSelector,
    Gauge,
    SeededSelector,
    SplittingTree,
    bound_table,
    frostman_lower,
    level_dp_cost,
    measure_certificate,
    sparsity_schedule,
)
from gaugetree.cli import _level_rows
from gaugetree.dyadic import dyadic_pair, to_number, value_le
from gaugetree.errors import UsageError
from gaugetree.hausdorff import FLOOR, level_dp, level_dp_witness_level


def _table():
    """Dyadic entries n/2^(n+2) with a non-dyadic entry 1/300 at level 10,
    a float at level 20 and non-dyadic entries at the top."""
    values = {n: Fraction(n + 1, 2 ** (n + 2)) for n in range(301)}
    values.update({0: Fraction(1), 1: Fraction(1, 3), 10: Fraction(1, 300), 20: 5e-6})
    return Gauge.table(sorted(values.items()))


GAUGES = {
    "power:1/2": Gauge.power(Fraction(1, 2)),
    "power:2/3": Gauge.power(Fraction(2, 3)),
    "power:1": Gauge.power(1),
    "power:3/2": Gauge.power(Fraction(3, 2)),
    "power:4/5": Gauge.power(Fraction(4, 5)),  # ties levels 1 and 6 of TIE_TREE
    "power_log:1,1": Gauge.power_log(1, 1),
    "power_log:1,2": Gauge.power_log(1, 2),
    "power_log:1/2,1": Gauge.power_log(Fraction(1, 2), 1),
    "power_log:1,-1": Gauge.power_log(1, -1),  # n^c enclosed per level
    "table": _table(),
}
DEPTHS = [*range(65), 300]
DELTAS = (0, 3, 8)
SELECTORS = (ConstantSelector(1), SeededSelector(2024))
# forced levels 0 and 5: under power:4/5 levels 1 and 6 fail the Frostman
# test at exactly the same level cost, and the failure names level 1, the first
TIE_TREE = SplittingTree(BranchSchedule(depth=6, indices=(0, 5)), ConstantSelector(0), 6)


def trees(g, depth, selectors=SELECTORS[:1]):
    """The greedy schedule tree of g and an every-other-level tree, which
    breaks the Frostman condition for the thinner gauges.  The selector
    only matters where a witness cover is materialised."""
    for indices in (sparsity_schedule(g, depth).indices, tuple(range(1, depth, 2))):
        schedule = BranchSchedule(depth=depth, indices=indices)
        for selector in selectors:
            yield SplittingTree(schedule, selector, depth)


def outcome(fn, *args):
    """fn's result, or the type and text of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as err:
        return type(err), str(err)


def same_number(new, old):
    return type(new) is type(old) and new == old


@pytest.mark.parametrize("name", GAUGES)
def test_gauge_values_match_reference(name):
    """Every value encloses g(2^-n), exactly where g(2^-n) is dyadic, and
    at_scale is the upper end as a Fraction."""
    g = GAUGES[name]
    values = g.scale_values(300)
    assert len(values) == 301
    for n, v in enumerate(values):
        assert v == g.dyadic_at_scale(n)
        assert encloses(g, n, v), (n, v)
        assert same_number(g.at_scale(n), upper_value(g, n))


KERNEL_GAUGES = {
    **GAUGES,
    "power:5/7": Gauge.power(Fraction(5, 7)),
    "power_log:3/4,2": Gauge.power_log(Fraction(3, 4), 2),
}


@pytest.mark.parametrize("name", KERNEL_GAUGES)
@pytest.mark.parametrize("depth", [-1, 0, 1, 300, 2001])
def test_scale_values_match_reference(name, depth):
    """Every level the kernel evaluates in one pass encloses the exact
    value, and equals the single-level evaluation."""
    g = KERNEL_GAUGES[name]
    if g.kind == "table" and depth > 300:
        with pytest.raises(UsageError, match="no entry at exponent 301"):
            g.scale_values(depth)
        return
    values = g.scale_values(depth)
    assert len(values) == max(depth + 1, 0)
    for n, v in enumerate(values):
        assert encloses(g, n, v), (n, v)
    if values:
        assert values[-1] == g.dyadic_at_scale(depth)


def pairs():
    return st.builds(dyadic_pair, st.integers(-(2**70), 2**70), st.integers(-5000, 5000))


@given(pairs(), pairs(), st.integers(0, 3))
@example((1, 1074), (1, 1075), 0)
@example((0, 0), (1, 5000), 0)
@example((-1, 2), (0, 0), 0)
def test_value_le_matches_fraction_comparison(a, b, shift):
    assert value_le(a, b) == (to_number(a) <= to_number(b))
    assert value_le(b, a) == (to_number(b) <= to_number(a))
    # the same number with a mantissa that is not odd
    m, e = a
    same = (m << shift, e + shift)
    assert value_le(a, same) and value_le(same, a)


@pytest.mark.parametrize("name", GAUGES)
def test_bound_table_matches_reference(name):
    g = GAUGES[name]
    values = g.scale_values(300)
    for depth in DEPTHS:
        expected = reference_bound_table(g, depth)
        assert bound_table(g, depth) == expected
        assert bound_table(g, depth, values) == expected


@pytest.mark.parametrize("name", GAUGES)
def test_frostman_lower_matches_reference(name):
    g = GAUGES[name]
    values = g.scale_values(300)
    for depth in DEPTHS:
        for tree in [*trees(g, depth), *([TIE_TREE] if depth == 6 else [])]:
            expected = outcome(reference_frostman_lower, tree, g)
            assert outcome(frostman_lower, tree, g) == expected
            assert outcome(frostman_lower, tree, g, values) == expected


@pytest.mark.parametrize("name", GAUGES)
def test_level_dp_matches_both_reference_passes(name):
    g = GAUGES[name]
    values = g.scale_values(300)
    for depth in DEPTHS:
        for tree in trees(g, depth):
            for k in DELTAS:
                expected = outcome(reference_level_dp_cost, tree, g, k)
                got = outcome(level_dp, tree, g, k, values)
                assert same_number(outcome(level_dp_cost, tree, g, k), expected)
                if isinstance(expected, tuple):  # k > depth
                    assert got == expected
                    continue
                cost, witness = got
                # normal form: odd mantissa, or (0, 0)
                assert cost == dyadic_pair(expected.numerator, expected.denominator.bit_length() - 1)
                assert witness == reference_level_dp_witness_level(tree, g, k)
                assert level_dp_witness_level(tree, g, k) == witness
            # the tree cut to depth n is the reference DP to depth n
            for n in {64: range(65), 300: range(0, 301, 20)}.get(depth, ()):
                cut = tree._replace(depth=n)
                expected = outcome(reference_level_dp_cost, tree, g, 3, n)
                assert same_number(outcome(level_dp_cost, cut, g, 3, values), expected)
                if not isinstance(expected, tuple):  # 3 <= n
                    assert level_dp_witness_level(cut, g, 3) == reference_level_dp_witness_level(tree, g, 3, n)


@pytest.mark.parametrize("name", GAUGES)
def test_measure_certificate_matches_reference(name):
    g = GAUGES[name]
    for depth in (0, 1, 5, 17, 64, 300):
        for tree in trees(g, depth, SELECTORS):
            for k in DELTAS:
                if k > depth:
                    continue
                cert = measure_certificate(tree, g, k)
                assert (cert.frostman_threshold, cert.failure_level) == reference_frostman_lower(tree, g)
                assert same_number(cert.upper, reference_level_dp_cost(tree, g, k))
                w = reference_level_dp_witness_level(tree, g, k)
                assert cert.witness_level == w
                if cert.witness is not None:
                    assert len(cert.witness) == tree.level_count(w)
                    assert all(len(node) == w and reference_contains(tree, node) for node in cert.witness)


@pytest.mark.parametrize("name", GAUGES)
def test_level_rows_match_reference(name):
    g = GAUGES[name]
    values = g.scale_values(300)
    for depth in DEPTHS:
        for tree in trees(g, depth):
            expected = outcome(reference_level_rows, tree, g, depth)
            got = outcome(lambda: [line.split(",") for line in _level_rows(tree, values)])
            if isinstance(expected, tuple):  # a non-dyadic level cost
                assert got == expected
            else:
                assert got == [[str(c) for c in row] for row in expected]


POWER_DENOMINATORS = st.integers(1, 7)
LOG_EXPONENTS = st.sampled_from([Fraction(c) for c in ("-1", "-1/2", "0", "1/2", "1", "3/2", "2")])


@st.composite
def random_gauges(draw):
    """power:p/q with q <= 7 and power_log:s,c with c in {-1, ..., 2}."""
    q = draw(POWER_DENOMINATORS)
    s = Fraction(draw(st.integers(1, 2 * q)), q)
    if draw(st.booleans()):
        return Gauge.power(s)
    return Gauge.power_log(s, draw(LOG_EXPONENTS))


@settings(max_examples=25)
@given(random_gauges(), st.integers(0, 3000), st.lists(st.integers(0, 3000), max_size=30))
@example(Gauge.power_log(Fraction(1, 4), Fraction(1, 2)), 64, [])  # 2^(-1/2)·2^(1/2) = 1 at n = 2
@example(Gauge.power_log(Fraction(1, 3), Fraction(1, 3)), 64, [])  # 2^-4 at n = 16
@example(Gauge.power_log(Fraction(1, 3), Fraction(3, 2)), 3000, [1024, 2048, 2999])
@example(Gauge.power(Fraction(1, 7)), 3000, [1, 2999])
@example(Gauge.power_log(Fraction(2, 3), Fraction(1, 3)), 300, [])  # Newton cube roots of u
@example(Gauge.power_log(Fraction(1, 5), Fraction(-2, 5)), 300, [])
def test_enclosures_and_caps_are_exact(g, depth, picks):
    """Every level's triple encloses g(2^-n), exactly when it is dyadic, and
    the cap read from its lower end is the exact cap.  Checked at every
    level up to 200 and at the last and the drawn levels of a deeper run."""
    values = g.scale_values(depth)
    caps = bound_table(g, depth + 1, values)
    for n in sorted({*range(min(depth, 200) + 1), depth, *(n % (depth + 1) for n in picks)}):
        assert encloses(g, n, values[n]), (n, values[n])
        assert caps[n] == reference_cap(g, n), n


@settings(max_examples=25)
@given(random_gauges(), st.integers(1, 3000), st.integers(0, 64))
@example(Gauge.power(Fraction(1, 2)), 2200, 0)
@example(Gauge.power_log(1, Fraction(1, 2)), 3000, 3)
@example(Gauge.power_log(1, -1), 3000, 0)
def test_lower_never_exceeds_upper(g, depth, extra):
    """On the gauge's own schedule tree, the certificate at any --delta-exp
    at or past its Frostman threshold n0 has lower <= upper: a cover at
    levels >= n0 costs at least the mass it covers."""
    tree = SplittingTree(sparsity_schedule(g, depth), ConstantSelector(0), depth)
    n0, _ = frostman_lower(tree, g)
    if n0 is None:
        return
    k = min(depth, n0 + extra)
    cert = measure_certificate(tree, g, k)
    assert cert.frostman_threshold == n0 and 0 < Fraction(FLOOR) <= cert.upper


def test_power_half_upper_is_positive_at_depth_2200():
    """t^(1/2) at depth 2 200 once certified upper = 0.0 against lower = 1:
    the float 2^-1100.5 underflowed."""
    g = Gauge.power(Fraction(1, 2))
    tree = SplittingTree(sparsity_schedule(g, 2200), ConstantSelector(0), 2200)
    for k in (0, 3, 8):
        cert = measure_certificate(tree, g, k)
        assert cert.frostman_threshold == 0
        assert 0 < Fraction(FLOOR) <= cert.upper


def test_power_log_half_does_not_underflow_at_1075():
    """t·log2(1/t)^(1/2) once became 0.0 from n = 1 075."""
    g = Gauge.power_log(1, Fraction(1, 2))
    lo, hi, e = g.dyadic_at_scale(1075)
    assert lo > 0 and encloses(g, 1075, (lo, hi, e))
    assert all(v[0] > 0 for v in g.scale_values(4000)[1:])


def test_power_log_half_caps_at_powers_of_four():
    """At n = 4^k, g(2^-n)·2^n = sqrt(n) = 2^k exactly, so the cap is k; a
    float guard once gave k - 1."""
    g = Gauge.power_log(1, Fraction(1, 2))
    caps = bound_table(g, 4**5 + 1)
    assert [caps[4**k] for k in range(1, 6)] == [1, 2, 3, 4, 5]


def test_enclosure_ends_are_read_in_the_safe_direction():
    """A table value just below 1/2, non-dyadic so that its enclosure at 64
    bits straddles 1/2: the cap and the Frostman test read the lower end
    and see less than 1/2, the cover DP charges the upper end."""
    below_half = Fraction(1, 2) - Fraction(1, 3 * 2**70)
    g = Gauge.table([(0, Fraction(1)), (1, Fraction(1, 2)), (2, below_half)])
    lo, hi, e = g.dyadic_at_scale(2)
    assert lo < 2 ** (e - 1) <= hi and encloses(g, 2, (lo, hi, e))
    assert bound_table(g, 3) == reference_bound_table(g, 3) == [0, 0, 0]
    # one free level: level 2 has cylinders of measure 1/2 > g(2^-2)
    tree = SplittingTree(BranchSchedule(depth=2, indices=(0,)), ConstantSelector(0), 2)
    # levels 1 and 2 fail, level 1 at the lesser cost 1/2
    assert frostman_lower(tree, g) == (None, 1)
    assert level_dp_cost(tree, g, 2) == 2 * g.at_scale(2) >= 2 * below_half
