"""The integer (mantissa, exponent) certify numerics against their Fraction
references in `fraction_oracles.py`: gauge values (the power-family kernel
behind `scale_values`), exact value comparisons, caps, the Frostman floor,
the one-pass level cover DP, measure certificates and the levels CSV rows."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from fraction_oracles import (
    reference_at_scale,
    reference_bound_table,
    reference_frostman_lower,
    reference_level_dp_cost,
    reference_level_dp_witness_level,
    reference_level_rows,
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
from gaugetree.dyadic import dyadic_pair, is_dyadic, to_number, value_le
from gaugetree.errors import FrostmanConditionError, OutOfRangeError
from gaugetree.hausdorff import level_dp, level_dp_witness_level


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
    "power_log:1,1": Gauge.power_log(1, 1),
    "power_log:1,2": Gauge.power_log(1, 2),
    "power_log:1/2,1": Gauge.power_log(Fraction(1, 2), 1),
    "power_log:1,-1": Gauge.power_log(1, -1),  # the float path
    "table": _table(),
}
DEPTHS = [*range(65), 300]
DELTAS = (0, 3, 8)
SELECTORS = (ConstantSelector(1), SeededSelector(2024))


def trees(g, depth, selectors=SELECTORS[:1]):
    """The greedy schedule tree of g and an every-other-level tree, which
    breaks the Frostman condition for the thinner gauges.  The selector
    only matters where a witness cover is materialised."""
    for indices in (sparsity_schedule(g, depth).indices, tuple(range(1, depth, 2))):
        schedule = BranchSchedule(depth=depth, indices=indices)
        for selector in selectors:
            yield SplittingTree(schedule, selector, depth)


def outcome(fn, *args):
    """fn's result, or the type, text and Frostman fields of what it raised."""
    try:
        return fn(*args)
    except (ValueError, FrostmanConditionError) as err:
        return type(err), str(err), getattr(err, "worst_level", None), getattr(err, "excess", None)


def same_number(new, old):
    return type(new) is type(old) and new == old


@pytest.mark.parametrize("name", GAUGES)
def test_gauge_values_match_reference(name):
    g = GAUGES[name]
    values = g.scale_values(300)
    assert len(values) == 301
    for n, v in enumerate(values):
        old = reference_at_scale(g, n)
        assert v == g.dyadic_at_scale(n)
        assert same_number(g.at_scale(n), old)
        if isinstance(old, Fraction) and is_dyadic(old):
            assert v == dyadic_pair(old.numerator, old.denominator.bit_length() - 1)
        else:
            assert same_number(v, old)


KERNEL_GAUGES = {
    **GAUGES,
    "power:5/7": Gauge.power(Fraction(5, 7)),
    "power_log:3/4,2": Gauge.power_log(Fraction(3, 4), 2),
}


@pytest.mark.parametrize("name", KERNEL_GAUGES)
@pytest.mark.parametrize("depth", [-1, 0, 1, 300, 2001])
def test_scale_values_match_reference(name, depth):
    """Every level the kernel evaluates in one pass, exact or float, is the
    Fraction reference's value: a pair exactly where the reference is a
    dyadic Fraction, and otherwise the identical float (or table entry)."""
    g = KERNEL_GAUGES[name]
    if g.kind == "table" and depth > 300:
        with pytest.raises(OutOfRangeError):
            g.scale_values(depth)
        return
    values = g.scale_values(depth)
    assert len(values) == max(depth + 1, 0)
    for n, v in enumerate(values):
        old = reference_at_scale(g, n)
        if isinstance(old, Fraction) and is_dyadic(old):
            assert v == dyadic_pair(old.numerator, old.denominator.bit_length() - 1)
        else:
            assert same_number(v, old)


def pairs():
    return st.builds(dyadic_pair, st.integers(-(2**70), 2**70), st.integers(-5000, 5000))


def fractions():
    return st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**70))


def floats():
    return st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                         2.0**-1000, 2.0**1000, -(2.0**1000), 0.5, 1.0, 1.5, 3.0]),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=-1e-300, max_value=1e-300, allow_subnormal=True),
    )


VALUES = st.one_of(pairs(), fractions(), floats())


def ties(v):
    """v in every form that holds it exactly: Fraction, pair and float."""
    x = Fraction(to_number(v))
    forms = [x]
    if is_dyadic(x):
        forms.append(dyadic_pair(x.numerator, x.denominator.bit_length() - 1))
    if abs(x) < 2**1000 and float(x) == x:
        forms.append(float(x))
    return forms


@given(VALUES, VALUES)
@example((1, 1074), 5e-324)  # the least subnormal, as a pair and a float
@example((1, -1000), 2.0**1000)
@example((3, 1), 1.5)
@example((0, 0), -0.0)
@example(Fraction(1, 3), 1 / 3)
@example((1, 1075), 5e-324)
def test_value_le_matches_fraction_comparison(a, b):
    assert value_le(a, b) == (to_number(a) <= to_number(b))
    assert value_le(b, a) == (to_number(b) <= to_number(a))
    for t in ties(a):
        assert value_le(a, t) and value_le(t, a)


@pytest.mark.parametrize("bad, err", [(math.inf, OverflowError), (-math.inf, OverflowError),
                                      (math.nan, ValueError)])
def test_value_le_refuses_inf_and_nan(bad, err):
    for other in ((1, 3), Fraction(1, 3), 0.25):
        with pytest.raises(err):
            value_le(bad, other)
        with pytest.raises(err):
            value_le(other, bad)


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
        for tree in trees(g, depth):
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
                got = outcome(level_dp, tree, g, k, None, values)
                assert same_number(outcome(level_dp_cost, tree, g, k), expected)
                if isinstance(expected, tuple):  # k > depth
                    assert got == expected
                    continue
                cost, witness = got
                if isinstance(expected, Fraction) and is_dyadic(expected):
                    # normal form: odd mantissa, or (0, 0)
                    assert cost == dyadic_pair(
                        expected.numerator, expected.denominator.bit_length() - 1
                    )
                else:
                    assert same_number(cost, expected)
                assert witness == reference_level_dp_witness_level(tree, g, k)
                assert level_dp_witness_level(tree, g, k) == witness
            # a shallower DP over the same tree
            if depth >= 8:
                half = depth // 2
                assert same_number(
                    level_dp_cost(tree, g, 3, half, values),
                    reference_level_dp_cost(tree, g, 3, half),
                )
                assert level_dp_witness_level(tree, g, 3, half) == (
                    reference_level_dp_witness_level(tree, g, 3, half)
                )


@pytest.mark.parametrize("name", GAUGES)
def test_measure_certificate_matches_reference(name):
    g = GAUGES[name]
    for depth in (0, 1, 5, 17, 64, 300):
        for tree in trees(g, depth, SELECTORS):
            for k in DELTAS:
                if k > depth:
                    continue
                cert = measure_certificate(tree, g, k)
                ref = outcome(reference_frostman_lower, tree, g)
                if isinstance(ref[0], type):
                    assert (cert.lower, cert.frostman_threshold) == (None, None)
                    assert cert.failure_level is not None
                else:
                    assert (cert.lower, cert.frostman_threshold) == ref
                assert same_number(cert.upper, reference_level_dp_cost(tree, g, k))
                w = reference_level_dp_witness_level(tree, g, k)
                assert cert.witness_level == w
                if cert.witness is not None:
                    assert len(cert.witness) == tree.level_count(w)
                    assert all(len(node) == w and tree.contains(node) for node in cert.witness)


@pytest.mark.parametrize("name", GAUGES)
def test_level_rows_match_reference(name):
    g = GAUGES[name]
    values = g.scale_values(300)
    for depth in DEPTHS:
        for tree in trees(g, depth):
            expected = outcome(reference_level_rows, tree, g, depth)
            got = outcome(lambda: [line.split(",") for line in _level_rows(tree, values, depth)])
            if isinstance(expected, tuple):  # a non-dyadic level cost
                assert got == expected
            else:
                assert got == [[str(c) for c in row] for row in expected]
