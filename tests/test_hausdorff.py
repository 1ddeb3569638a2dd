"""Frostman floors, optimal-cover DP cross-checks, and dimension brackets."""

import math
import random
from fractions import Fraction

import pytest
from fraction_oracles import brute_force_cover_cost, optimal_cover_cost, reference_dimension_estimate
from hypothesis import example, given, settings, strategies as st

from gaugetree import (
    BranchSchedule,
    ConstantSelector,
    ExplicitTree,
    Gauge,
    SeededSelector,
    SplittingTree,
    dimension_estimate,
    frostman_lower,
    level_dp_cost,
    measure_certificate,
)
from gaugetree.errors import FrostmanConditionError


def make_tree(indices, depth, selector=None):
    sched = BranchSchedule(depth=depth, indices=tuple(sorted(indices)), n0=0)
    return SplittingTree(sched, selector or ConstantSelector(0), depth)


# -- frostman lower bound ---------------------------------------------------


def test_frostman_full_tree_identity():
    tree = make_tree(set(), 16)
    assert frostman_lower(tree, Gauge.power(1)) == (Fraction(1), 0)


def test_frostman_odds_half_power():
    tree = make_tree(range(1, 32, 2), 32)
    mass, n0 = frostman_lower(tree, Gauge.power(Fraction(1, 2)))
    assert mass == Fraction(1)
    assert n0 <= 1


def test_frostman_failure_when_tree_too_thin():
    # a sparse tree has cylinders heavier than the identity gauge allows
    tree = make_tree(range(1, 16, 2), 16)
    with pytest.raises(FrostmanConditionError) as e:
        frostman_lower(tree, Gauge.power(1))
    assert e.value.worst_level > 0


def test_frostman_log_sparse_power_log():
    sched_levels = (1, 3, 7, 15, 31)
    tree = make_tree(sched_levels, 32)
    mass, n0 = frostman_lower(tree, Gauge.power_log(1, 1))
    assert mass == Fraction(1)
    assert n0 <= 4


# -- cover cost: three algorithms agree -------------------------------------

GAUGES = [
    Gauge.power(1),
    Gauge.power(Fraction(1, 2)),
    Gauge.power(2),
    Gauge.power(Fraction(2, 3)),
    Gauge.power_log(1, 1),
]


def costs_equal(a, b):
    """Both DPs charge each cylinder the upper end of its gauge value, as a
    Fraction, so their costs agree exactly."""
    return isinstance(a, Fraction) and isinstance(b, Fraction) and a == b


def test_cover_cost_exhaustive_small():
    for depth in range(1, 5):
        for mask in range(2**depth):
            indices = {n for n in range(depth) if mask >> n & 1}
            tree = make_tree(indices, depth, SeededSelector(mask))
            etree = tree.materialize()
            for g in GAUGES:
                for k in range(depth + 1):
                    lvl = level_dp_cost(tree, g, k)
                    node, witness = optimal_cover_cost(etree, g, k)
                    brute = brute_force_cover_cost(etree, g, k)
                    assert costs_equal(lvl, node)
                    assert costs_equal(node, brute)
                    # witness antichain really covers at the claimed cost
                    assert costs_equal(node, sum(g.at_scale(len(t)) for t in witness))
                    assert all(
                        any(l.startswith(t) for t in witness) for l in etree.leaves
                    )


def test_cover_cost_random_instances():
    rng = random.Random(12345)
    for _ in range(100):
        depth = rng.randint(2, 10)
        indices = {n for n in range(depth) if rng.random() < 0.4}
        tree = make_tree(indices, depth, SeededSelector(rng.randrange(10**6)))
        g = rng.choice(GAUGES)
        k = rng.randint(0, depth)
        lvl = level_dp_cost(tree, g, k)
        node, _ = optimal_cover_cost(tree.materialize(), g, k)
        assert costs_equal(lvl, node)


def test_cover_cost_monotone_in_delta():
    tree = make_tree({1, 3, 7}, 12, ConstantSelector(0))
    for g in GAUGES:
        costs = [float(level_dp_cost(tree, g, k)) for k in range(13)]
        assert all(a <= b + 1e-12 for a, b in zip(costs, costs[1:]))


def test_cover_cost_exact_balance_half_power():
    # forced-every-other-level tree against t^(1/2): every level cut costs 1
    tree = make_tree(range(1, 30, 2), 30)
    g = Gauge.power(Fraction(1, 2))
    assert level_dp_cost(tree, g, 0) == Fraction(1)
    assert level_dp_cost(tree, g, 10) == Fraction(1)


def test_singleton_chain_cost():
    etree = ExplicitTree(depth=3, leaves=("000",))
    g = Gauge.power(1)
    cost, witness = optimal_cover_cost(etree, g, 2)
    assert cost == Fraction(1, 8)
    assert witness == ("000",)


# -- dimension estimates ----------------------------------------------------


def test_dimension_full_tree():
    est = dimension_estimate(make_tree(set(), 60), 0.01)
    assert est.s_lo == 1.0
    assert est.s_hi == 1.0
    assert est.conclusive


def test_dimension_odds_half():
    est = dimension_estimate(make_tree(range(1, 60, 2), 60), 0.01)
    assert abs(est.s_lo - 0.5) <= 0.01
    assert abs(est.s_hi - 0.5) <= 0.01
    assert est.conclusive
    assert est.s_hi - est.s_lo <= 0.02


def test_dimension_all_forced_zero():
    est = dimension_estimate(make_tree(range(60), 60), 0.01)
    assert est.s_lo == 0.0
    assert est.s_hi <= 0.01


def test_dimension_tolerance_floor():
    with pytest.raises(ValueError):
        dimension_estimate(make_tree(set(), 10), 2.0**-30)


@st.composite
def dimension_cases(draw):
    """A random schedule tree of depth <= 60, a working depth and a tolerance."""
    depth = draw(st.integers(0, 60))
    indices = draw(st.sets(st.integers(0, depth - 1))) if depth else set()
    n_max = draw(st.integers(0, depth))
    tolerance = draw(st.sampled_from([0.01, 2.0**-20, 2.0**-7, 0.3, 1, 1.5])
                     | st.floats(2.0**-20, 2.0))
    return sorted(indices), depth, n_max, tolerance


@settings(max_examples=300)
@given(dimension_cases())
@example(([], 0, 0, 0.01))  # the empty working depth
@example(([1, 3], 8, 0, 2.0**-20))
@example(([], 60, 60, 0.01))  # a full tree
@example(([], 60, 60, 1))
@example((list(range(60)), 60, 60, 0.01))  # an all-forced tree
@example((list(range(60)), 60, 60, 2.0**-20))
@example((list(range(1, 60, 2)), 60, 60, 1.5))
def test_dimension_closed_form_matches_bisection(case):
    indices, depth, n_max, tolerance = case
    tree = make_tree(indices, depth)
    est = dimension_estimate(tree, tolerance, depth=n_max)
    ref = reference_dimension_estimate(tree, tolerance, depth=n_max)
    # repr tells 1 from 1.0, which == would not
    assert (repr(est.s_lo), repr(est.s_hi)) == (repr(ref.s_lo), repr(ref.s_hi))
    assert (est.depth, est.conclusive) == (ref.depth, ref.conclusive)


@pytest.mark.parametrize("depth", [-1, 11])
def test_dimension_depth_out_of_range(depth):
    tree = make_tree({3}, 10)
    for fn in (dimension_estimate, reference_dimension_estimate):
        with pytest.raises(ValueError):
            fn(tree, 0.01, depth=depth)


# -- certificates -----------------------------------------------------------


def test_measure_certificate_sandwich():
    tree = make_tree(range(1, 30, 2), 30)
    cert = measure_certificate(tree, Gauge.power(Fraction(1, 2)), 5)
    assert cert.lower == Fraction(1)
    assert cert.upper == Fraction(1)
    assert cert.witness is not None
    d = cert.to_json_dict()
    assert d["lower"]["provenance"] == "frostman"
    assert d["upper"]["provenance"] == "optimal_cover"


def test_measure_certificate_failure_records_level():
    tree = make_tree(range(1, 16, 2), 16)
    cert = measure_certificate(tree, Gauge.power(1), 2)
    assert cert.lower is None
    assert cert.failure_level is not None
    assert cert.to_json_dict()["lower"]["value"] is None
