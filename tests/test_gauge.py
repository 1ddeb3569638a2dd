"""Gauge evaluation, order comparison, caps, and schedule tests."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from gaugetree import (
    FIRST_LOWER_ORDER,
    INCONCLUSIVE,
    SECOND_LOWER_ORDER,
    BranchSchedule,
    Gauge,
    bound_table,
    compare_order,
    sparsity_schedule,
)
from gaugetree.errors import UsageError
from gaugetree.gauge import _HALVINGS, _WORK_BITS, _iroot


def test_power_eval_exact():
    g = Gauge.power(Fraction(1, 2))
    assert g.at_scale(8) == Fraction(1, 16)
    assert isinstance(g.at_scale(8), Fraction)


def test_power_eval_nondyadic_is_enclosed():
    g = Gauge.power(Fraction(1, 2))
    lo, hi, e = g.dyadic_at_scale(9)
    # lo·2^-e <= 2^-4.5 <= hi·2^-e, squared: lo^2 <= 2^(2e - 9) <= hi^2
    assert lo**2 <= 2 ** (2 * e - 9) <= hi**2 and hi == lo + 1
    assert g.at_scale(9) == Fraction(hi, 2**e)
    assert float(g.at_scale(9)) == pytest.approx(2.0**-4.5, rel=2.0**-60)


def test_dyadic_at_scale_pair_and_float():
    """Exact values, floats in a table included, are (m, m, e) with m odd."""
    assert Gauge.power(1).dyadic_at_scale(3) == (1, 1, 3)
    assert Gauge.power(Fraction(3, 2)).dyadic_at_scale(4) == (1, 1, 6)
    assert Gauge.power(Fraction(1, 2)).dyadic_at_scale(0) == (1, 1, 0)
    lo, hi, e = Gauge.power(Fraction(3, 2)).dyadic_at_scale(1)
    assert lo**2 <= 2 ** (2 * e - 3) <= hi**2
    # n * log2(1/t)^c: the odd part of n^c stays in the mantissa
    assert Gauge.power_log(1, 2).dyadic_at_scale(12) == (9, 9, 8)
    assert Gauge.power_log(1, 1).dyadic_at_scale(0) == (0, 0, 0)
    assert Gauge.power_log(1, -1).dyadic_at_scale(4) == (1, 1, 6)
    lo, hi, e = Gauge.power_log(1, -1).dyadic_at_scale(3)
    assert 3 * lo <= 2 ** (e - 3) <= 3 * hi and lo < hi
    g = Gauge.table([(0, Fraction(1)), (1, Fraction(1, 3)), (2, Fraction(1, 4)), (3, 0.1)])
    (one, third, quarter, tenth) = g.scale_values(3)
    assert (one, quarter) == ((1, 1, 0), (1, 1, 2))
    assert 3 * third[0] < 2 ** third[2] < 3 * third[1]
    m, d = (0.1).as_integer_ratio()
    assert tenth == (m, m, d.bit_length() - 1)
    assert [g.at_scale(n) for n in (0, 2, 3)] == [1, Fraction(1, 4), Fraction(0.1)]


@given(st.integers(1, 2**3000), st.integers(1, 40))
@example(2**640 - 1, 10)
@example(3**500, 100)
@example(1, 7)
def test_iroot_is_the_floor_root(x, b):
    r = _iroot(x, b)
    assert r**b <= x < (r + 1) ** b


def test_halvings_enclose_their_roots():
    """The fixed-point table behind every power of two: lo and hi bracket
    2^(-2^-i)·2^W, checked by raising both to the power 2^i."""
    w = _WORK_BITS
    for i, (lo, hi) in enumerate(_HALVINGS[:12], start=1):
        # (x·2^-W)^(2^i) = 1/2  <=>  2·x^(2^i) = 2^(W·2^i)
        assert 2 * lo ** (2**i) <= 2 ** (w * 2**i) <= 2 * hi ** (2**i)
        assert hi - lo <= 2


def test_power_log_eval():
    g = Gauge.power_log(1, 1)
    assert g.at_scale(8) == Fraction(8, 256)
    assert g.at_scale(8) == Fraction(1, 32)
    assert g.at_scale(0) == 0


def test_table_eval_and_range():
    g = Gauge.table([(n, Fraction(1, 2**n)) for n in range(1, 11)])
    assert g.at_scale(5) == Fraction(1, 32)
    with pytest.raises(UsageError, match="no entry at exponent 20"):
        g.at_scale(20)


def test_table_scale_values_at_depth_4000_match_per_level_lookup():
    # one entry per level: every lookup bisects the entries themselves, so
    # the whole table costs depth log depth, not depth^2
    g = Gauge.table([(n, Fraction(1, n + 1)) for n in range(4001)])
    values = g.scale_values(4000)
    assert values == [g.dyadic_at_scale(n) for n in range(4001)]
    assert values[4000] == g.dyadic_at_scale(4000) != values[3999]
    gap = Gauge.table([(n, Fraction(1, n + 1)) for n in range(4001) if n != 2500])
    with pytest.raises(UsageError, match="no entry at exponent 2500"):
        gap.scale_values(4000)
    assert gap.scale_values(2499) == values[:2500]


def test_table_validation():
    with pytest.raises(ValueError):
        Gauge.table([(1, Fraction(1)), (1, Fraction(1, 2))])
    with pytest.raises(ValueError):
        Gauge.table([(1, Fraction(1, 4)), (2, Fraction(1, 2))])
    with pytest.raises(ValueError):
        Gauge.table([(1, Fraction(0))])


def test_eval_monotone_in_exponent():
    # power-log gauges only decay once the power factor dominates the log
    for g, start in [
        (Gauge.power(Fraction(3, 4)), 1),
        (Gauge.power_log(1, 1), 1),
        (Gauge.power_log(Fraction(1, 2), 2), 8),
    ]:
        values = [float(g.at_scale(n)) for n in range(start, 64)]
        assert all(a >= b for a, b in zip(values, values[1:]))


# -- order comparison -------------------------------------------------------


def test_order_power_vs_power_log():
    # id/power_log ratio is 1/log2(1/t); needs enough depth to fall below 1%
    v = compare_order(Gauge.power(1), Gauge.power_log(1, 1), 512)
    assert v.relation == SECOND_LOWER_ORDER
    assert v.ratio_trace[0][0] == 1
    assert [n for n, _ in v.ratio_trace] == sorted(n for n, _ in v.ratio_trace)


def test_order_power09_below_power_log():
    v = compare_order(Gauge.power(Fraction(9, 10)), Gauge.power_log(1, 1), 512)
    assert v.relation == FIRST_LOWER_ORDER


def test_order_identical_inconclusive():
    v = compare_order(Gauge.power(Fraction(1, 2)), Gauge.power(Fraction(1, 2)), 64)
    assert v.relation == INCONCLUSIVE


def test_order_verdict_antisymmetric():
    f, g = Gauge.power(Fraction(1, 2)), Gauge.power(Fraction(3, 4))
    assert compare_order(f, g, 128).relation == FIRST_LOWER_ORDER
    assert compare_order(g, f, 128).relation == SECOND_LOWER_ORDER


def test_order_needs_enough_scales():
    with pytest.raises(ValueError, match="need max_exponent >= 4 for an order verdict"):
        compare_order(Gauge.power(1), Gauge.power(2), 3)


# -- caps and schedules -----------------------------------------------------


def test_bound_table_power_log():
    caps = bound_table(Gauge.power_log(1, 1), 17)
    # g(2^-n) * 2^n = n, so the cap is floor(log2 n)
    assert caps[16] == 4
    assert caps[1] == 0
    assert caps[8] == 3


def test_bound_table_identity_zero():
    assert bound_table(Gauge.power(1), 32) == [0] * 32


def test_bound_table_half_power():
    caps = bound_table(Gauge.power(Fraction(1, 2)), 10)
    assert caps[9] == 4
    assert caps == [n // 2 for n in range(10)]


def test_schedule_power_log():
    sched = sparsity_schedule(Gauge.power_log(1, 1), 32)
    assert sched.indices == (1, 3, 7, 15, 31)
    assert sparsity_schedule(Gauge.power_log(1, 1), 64).indices == (1, 3, 7, 15, 31, 63)


def test_schedule_identity_empty():
    assert sparsity_schedule(Gauge.power(1), 32).indices == ()


def test_schedule_half_power_odds():
    sched = sparsity_schedule(Gauge.power(Fraction(1, 2)), 10)
    assert sched.indices == (1, 3, 5, 7, 9)


def _check_criterion(sched, caps):
    for n in range(sched.depth + 1):
        assert sched.count_below(n) <= caps[n], f"cap violated at {n}"


def test_schedule_satisfies_caps_everywhere():
    for g in [Gauge.power_log(1, 1), Gauge.power(Fraction(1, 2)), Gauge.power(Fraction(2, 3))]:
        sched = sparsity_schedule(g, 48)
        _check_criterion(sched, bound_table(g, 49))


def test_schedule_greedy_maximal():
    for g in [Gauge.power_log(1, 1), Gauge.power(Fraction(1, 2))]:
        depth = 32
        sched = sparsity_schedule(g, depth)
        caps = bound_table(g, depth + 1)
        chosen = set(sched.indices)
        for n in range(depth):
            if n in chosen:
                continue
            # inserting n must break some cap at a later level
            bumped = sorted(chosen | {n})
            violated = any(
                sum(1 for i in bumped if i < m) > caps[m] for m in range(n + 1, depth + 1)
            )
            assert violated, f"level {n} could have been added"


def test_schedule_counting_function_steps():
    sched = sparsity_schedule(Gauge.power_log(1, 1), 64)
    counts = [sched.count_below(n) for n in range(65)]
    assert counts[0] == 0
    assert all(b - a in (0, 1) for a, b in zip(counts, counts[1:]))


# -- serialization ----------------------------------------------------------


def test_gauge_json_round_trip():
    for g in [
        Gauge.power(Fraction(1, 2)),
        Gauge.power_log(1, 1),
        Gauge.table([(n, Fraction(1, 2**n)) for n in range(1, 12)]),
    ]:
        blob = json.dumps(g.to_json_dict())
        back = Gauge.from_json_dict(json.loads(blob))
        for n in range(1, 12):
            assert float(back.at_scale(n)) == pytest.approx(float(g.at_scale(n)))


@pytest.mark.parametrize("make, message", [
    (lambda: Gauge.power(Fraction(129, 2)), "0 < s <= 64"),
    (lambda: Gauge.power_log(65, 1), "0 < s <= 64"),
    (lambda: Gauge.power_log(1, Fraction(1, 65)), "c = a/b with |a|, b <= 64"),
    (lambda: Gauge.power_log(1, -65), "c = a/b with |a|, b <= 64"),
    (lambda: Gauge.from_json_dict({"kind": "power_log", "s": "1", "c": "1/1000000000"}), "b <= 64"),
    (lambda: Gauge.from_json_dict({"kind": "power", "s": "1e-999999999"}), "exceeds 4300"),
    (lambda: Gauge.from_json_dict({"kind": "table", "entries": [[0, "1"], [1, "1e-4301"]]}), "exceeds 4300"),
])
def test_gauge_numbers_past_their_bound_are_refused(make, message):
    """Two level costs compare by a shift of about s bits a level, a power-log
    level takes a b-th root of a (64·b + |a|·log2 u)-bit number, and Fraction builds
    10^|exponent|: each bound keeps every level's work in reach."""
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_gauge_numbers_at_their_bound_are_read():
    for g in [Gauge.power(64), Gauge.power_log(64, -64), Gauge.power_log(Fraction(1, 3), Fraction(-63, 64)),
              Gauge.from_json_dict({"kind": "power", "s": "1e-4299"})]:
        assert len(g.scale_values(300)) == 301


def test_schedule_json_round_trip():
    sched = sparsity_schedule(Gauge.power_log(1, 1), 64)
    blob = json.dumps(sched.to_json_dict())
    back = BranchSchedule.from_json_dict(json.loads(blob))
    assert back == sched
