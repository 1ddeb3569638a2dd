"""Gauge evaluation, order comparison, caps, and schedule tests."""

import json
from fractions import Fraction

import pytest

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
from gaugetree.errors import InsufficientDataError, OutOfRangeError


def test_power_eval_exact():
    g = Gauge.power(Fraction(1, 2))
    assert g.at_scale(8) == Fraction(1, 16)
    assert isinstance(g.at_scale(8), Fraction)


def test_power_eval_nondyadic_is_float():
    g = Gauge.power(Fraction(1, 2))
    v = g.at_scale(9)
    assert isinstance(v, float)
    assert v == pytest.approx(2.0**-4.5, rel=2.0**-40)


def test_dyadic_at_scale_pair_and_float():
    assert Gauge.power(1).dyadic_at_scale(3) == (1, 3)
    assert Gauge.power(Fraction(3, 2)).dyadic_at_scale(4) == (1, 6)
    assert Gauge.power(Fraction(1, 2)).dyadic_at_scale(0) == (1, 0)
    v = Gauge.power(Fraction(3, 2)).dyadic_at_scale(1)
    assert isinstance(v, float)
    assert v == pytest.approx(2.0**-1.5, rel=2.0**-40)
    # n * log2(1/t)^c: the odd part of n^c stays in the mantissa
    assert Gauge.power_log(1, 2).dyadic_at_scale(12) == (9, 8)
    assert Gauge.power_log(1, 1).dyadic_at_scale(0) == (0, 0)
    assert isinstance(Gauge.power_log(1, -1).dyadic_at_scale(4), float)
    g = Gauge.table([(0, Fraction(1)), (1, Fraction(1, 3)), (2, Fraction(1, 4)), (3, 0.1)])
    assert g.scale_values(3) == [(1, 0), Fraction(1, 3), (1, 2), 0.1]
    assert [g.at_scale(n) for n in range(4)] == [1, Fraction(1, 3), Fraction(1, 4), 0.1]


def test_power_log_eval():
    g = Gauge.power_log(1, 1)
    assert g.at_scale(8) == Fraction(8, 256)
    assert g.at_scale(8) == Fraction(1, 32)
    assert g.at_scale(0) == 0


def test_table_eval_and_range():
    g = Gauge.table([(n, Fraction(1, 2**n)) for n in range(1, 11)])
    assert g.at_scale(5) == Fraction(1, 32)
    with pytest.raises(OutOfRangeError):
        g.at_scale(20)


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
    with pytest.raises(InsufficientDataError):
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
    for n in range(sched.n0, sched.depth + 1):
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


def test_schedule_json_round_trip():
    sched = sparsity_schedule(Gauge.power_log(1, 1), 64)
    blob = json.dumps(sched.to_json_dict(gauge=Gauge.power_log(1, 1)))
    back = BranchSchedule.from_json_dict(json.loads(blob))
    assert back == sched
