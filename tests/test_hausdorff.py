"""Frostman floors, optimal-cover DP cross-checks, and the dimension number."""

import math
import random
from fractions import Fraction

import pytest
from fraction_oracles import brute_force_cover_cost, optimal_cover_cost, reference_dimension
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
from gaugetree.cli import _level_rows
from gaugetree.dyadic import to_number
from gaugetree.hausdorff import level_walk


def make_tree(indices, depth, selector=None):
    sched = BranchSchedule(depth=depth, indices=tuple(sorted(indices)))
    return SplittingTree(sched, selector or ConstantSelector(0), depth)


# -- frostman lower bound ---------------------------------------------------


def test_frostman_full_tree_identity():
    tree = make_tree(set(), 16)
    assert frostman_lower(tree, Gauge.power(1)) == (0, None)


def test_frostman_odds_half_power():
    tree = make_tree(range(1, 32, 2), 32)
    n0, failure = frostman_lower(tree, Gauge.power(Fraction(1, 2)))
    assert failure is None
    assert n0 <= 1


def test_frostman_failure_when_tree_too_thin():
    # a sparse tree has cylinders heavier than the identity gauge allows
    tree = make_tree(range(1, 16, 2), 16)
    n0, failure = frostman_lower(tree, Gauge.power(1))
    assert n0 is None and failure > 0


def test_frostman_log_sparse_power_log():
    sched_levels = (1, 3, 7, 15, 31)
    tree = make_tree(sched_levels, 32)
    n0, failure = frostman_lower(tree, Gauge.power_log(1, 1))
    assert failure is None
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
    assert dimension_estimate(make_tree(set(), 60), 0) == (Fraction(1), 1)


def test_dimension_odds_half():
    assert dimension_estimate(make_tree(range(1, 60, 2), 60), 0) == (Fraction(1, 2), 2)


def test_dimension_all_forced_zero():
    assert dimension_estimate(make_tree(range(60), 60), 0) == (Fraction(0), 1)


@st.composite
def dimension_cases(draw):
    """A random schedule tree of depth <= 60, a working depth N and a cut level k <= N."""
    depth = draw(st.integers(0, 60))
    indices = draw(st.sets(st.integers(0, depth - 1))) if depth else set()
    n_max = draw(st.integers(0, depth))
    return sorted(indices), depth, n_max, draw(st.integers(-1, n_max))


@settings(max_examples=300)
@given(dimension_cases())
@example(([], 0, 0, 0))  # the empty range
@example(([], 8, 0, 0))
@example(([], 60, 60, 0))  # a full tree
@example(([], 60, 60, 60))
@example((list(range(60)), 60, 60, 0))  # an all-forced tree
@example((list(range(60)), 60, 60, 7))
@example((list(range(1, 60, 2)), 60, 60, 0))  # ties at every even level
@example(([1], 8, 8, 2))  # the least ratio at the cut level k itself
@example(([1], 8, 8, -1))
def test_dimension_matches_the_naive_minimum(case):
    indices, depth, n_max, k = case
    tree = make_tree(indices, depth)._replace(depth=n_max)
    assert dimension_estimate(tree, k) == reference_dimension(tree, k)


# -- certificates -----------------------------------------------------------


def test_measure_certificate_sandwich():
    tree = make_tree(range(1, 30, 2), 30)
    cert = measure_certificate(tree, Gauge.power(Fraction(1, 2)), 5)
    assert cert.frostman_threshold is not None
    assert to_number(cert.upper) == Fraction(1)
    assert cert.witness is not None
    d = cert.to_json_dict()
    assert d["lower"]["provenance"] == "frostman" and d["lower"]["value"] == "1"
    assert d["upper"]["provenance"] == "optimal_cover"


def test_measure_certificate_failure_is_a_lower_end_below_1():
    """Level 16 has 2^8 cylinders of mass 2^-8 against t = 2^-16: no cut
    reaches 1, and the lower end is the least lower-end level cost, 2^-8."""
    tree = make_tree(range(1, 16, 2), 16)
    cert = measure_certificate(tree, Gauge.power(1), 2)
    assert cert.frostman_threshold is None
    assert to_number(cert.lower) == to_number(cert.upper) == Fraction(1, 2**8)
    assert cert.to_json_dict()["lower"] == {"value": "1/2^8", "provenance": "frostman", "n0": None}


HALF = Gauge.power(Fraction(1, 2))


@pytest.mark.parametrize("level_pass", [
    lambda tree: dimension_estimate(tree, 0),
    lambda tree: frostman_lower(tree, HALF),
    lambda tree: level_walk(tree, HALF, 0),
    lambda tree: list(_level_rows(tree, HALF.scale_values(tree.depth))),
    lambda tree: tree.materialize(),
], ids=["dimension_estimate", "frostman_lower", "level_walk", "cli._level_rows", "materialize"])
def test_a_negative_cut_depth_is_refused(level_pass):
    """`_replace` takes any depth; the passes refuse a negative one by name."""
    with pytest.raises(ValueError, match="-1"):
        level_pass(make_tree([1, 3], 8)._replace(depth=-1))
