"""Splitting-tree membership, level counts, materialization, and sampling."""

import json
from fractions import Fraction

import pytest
from fraction_oracles import reference_contains
from hypothesis import example, given, strategies as st

from gaugetree import (
    BranchSchedule,
    ConstantSelector,
    ExplicitSelector,
    GameBuiltSelector,
    Layer,
    SeededSelector,
    SplittingTree,
)
from gaugetree.tree import MAX_DEPTH, check_int, check_node, compatible, selector_from_json_dict


def make_tree(indices, depth, selector=None):
    sched = BranchSchedule(depth=depth, indices=tuple(sorted(indices)))
    return SplittingTree(sched, selector or ConstantSelector(0), depth)


@st.composite
def schedules_and_depths(draw):
    """A random schedule, and a depth below, at or past its own."""
    depth = draw(st.integers(0, 80))
    indices = sorted(draw(st.sets(st.integers(0, depth - 1)))) if depth else []
    return BranchSchedule(depth=depth, indices=tuple(indices)), draw(st.integers(0, depth + 20))


@given(schedules_and_depths())
@example((BranchSchedule(depth=0, indices=()), 0))
@example((BranchSchedule(depth=5, indices=(0, 1, 2, 3, 4)), 5))
@example((BranchSchedule(depth=5, indices=(0, 4)), 9))
def test_free_levels_count_the_free_levels_above_each_level(case):
    schedule, d = case
    free = schedule.free_levels(d)
    assert free == [n - schedule.count_below(n) for n in range(d + 1)]
    assert all(type(f) is int for f in free)


def test_check_int_takes_its_bounds():
    assert check_int(MAX_DEPTH, 0, MAX_DEPTH) == MAX_DEPTH
    assert check_int(10**30) == 10**30
    with pytest.raises(ValueError, match=f"not a depth <= {MAX_DEPTH}: {MAX_DEPTH + 1}"):
        check_int(MAX_DEPTH + 1, 0, MAX_DEPTH, "a depth")
    with pytest.raises(ValueError, match="not a depth >= 0: -1"):
        check_int(-1, 0, MAX_DEPTH, "a depth")
    with pytest.raises(ValueError, match="not an integer: True"):
        check_int(True)


def test_compatible():
    assert compatible("01", "010")
    assert compatible("010", "01")
    assert compatible("", "111")
    assert not compatible("00", "01")


@pytest.mark.parametrize("bits", ["2", "0 1", "01\n", "0a", "a0", "0\u00b91"])
def test_check_node_rejects_non_binary(bits):
    with pytest.raises(ValueError):
        check_node(bits)


@pytest.mark.parametrize("bits", ["", "0", "1", "0110"])
def test_check_node_accepts_binary(bits):
    assert check_node(bits) == bits


def test_membership_forced_levels():
    tree = make_tree({1, 3}, 6)
    assert reference_contains(tree, "0")
    assert reference_contains(tree, "00")
    assert not reference_contains(tree, "01")
    assert reference_contains(tree, "0000")
    assert not reference_contains(tree, "0001")
    assert tree._replace(depth=4).materialize().leaves == ("0000", "0010", "1000", "1010")
    with pytest.raises(ValueError, match="level 7 > depth"):
        tree.level_count(7)


def test_membership_explicit_selector():
    sel = ExplicitSelector({"0": 1, "1": 0}, default=0)
    tree = make_tree({1}, 4, sel)
    assert reference_contains(tree, "01")
    assert not reference_contains(tree, "00")
    assert reference_contains(tree, "10")
    assert not reference_contains(tree, "11")
    assert tree._replace(depth=2).materialize().leaves == ("01", "10")


def test_cylinder_measure_example():
    """A member's cylinder has measure 1/level_count of its length."""
    tree = make_tree({1, 3}, 8)
    assert reference_contains(tree, "0000") and Fraction(1, tree.level_count(4)) == Fraction(1, 4)
    assert reference_contains(tree, "") and Fraction(1, tree.level_count(0)) == Fraction(1)
    assert not reference_contains(tree, "0100")


def test_level_counts_match_materialization():
    for indices in [set(), {0}, {1, 3}, {0, 1, 2}, {2, 5}]:
        tree = make_tree(indices, 6, SeededSelector(7))
        for n in range(7):
            assert tree.level_count(n) == len(tree._replace(depth=n).materialize().leaves)


def test_materialized_leaves_are_members_with_equal_measure():
    tree = make_tree({1, 3, 5}, 6, SeededSelector(3))
    etree = tree.materialize()
    total = Fraction(0)
    for leaf in etree.leaves:
        assert reference_contains(tree, leaf)
        total += Fraction(1, tree.level_count(len(leaf)))
    assert total == Fraction(1)


def test_node_budget():
    tree = make_tree(set(), 22, ConstantSelector(0))
    with pytest.raises(ValueError, match=f"materialization needs {2**22} leaves, budget is {2**10}"):
        tree.materialize(budget=2**10)
    with pytest.raises(TypeError):  # a tree lists its own depth; the budget is passed by name
        tree.materialize(2**10)


def test_sampling_deterministic_and_in_tree():
    tree = make_tree({1, 3}, 12, SeededSelector(5))
    xs = tree.sample(99, 50)
    assert xs == tree.sample(99, 50)
    assert all(reference_contains(tree, x) for x in xs)


def test_sampling_frequencies_match_measure():
    tree = make_tree({1, 3}, 12, ConstantSelector(0))
    count = 20000
    xs = tree.sample(1, count)
    nodes = tree._replace(depth=4).materialize().leaves
    p = 0.25
    sigma = (count * p * (1 - p)) ** 0.5
    for node in nodes:
        hits = sum(1 for x in xs if x.startswith(node))
        assert abs(hits - count * p) < 5 * sigma


def test_game_built_selector_layering():
    sel = GameBuiltSelector([Layer(level=2, root="1", bit=1)], default=0)
    # nodes under the root keep the default; others take the layer bit
    assert sel.bit("10") == 0
    assert sel.bit("00") == 1
    assert sel.bit("01") == 1
    assert sel.bit("111") == 0  # no layer at level 3
    with pytest.raises(ValueError):
        GameBuiltSelector([Layer(2, "1", 1), Layer(2, "0", 0)])


def test_selector_json_round_trips():
    """Every kind is read; only the game-built selector, which `antichain`
    reports, is written too."""
    for data, sel in [
        ({"kind": "constant", "bit": 1}, ConstantSelector(1)),
        ({"kind": "seeded", "seed": 42}, SeededSelector(42)),
        ({"kind": "explicit", "default": 1, "assignments": [["", 0], ["01", 1]]},
         ExplicitSelector({"01": 1, "": 0}, default=1)),
        ({"kind": "game_built", "default": 0, "layers": [[1, "0", 1], [3, "01", 0]]},
         GameBuiltSelector([Layer(1, "0", 1), Layer(3, "01", 0)], default=0)),
    ]:
        back = selector_from_json_dict(json.loads(json.dumps(data)))
        for node in ["", "0", "01", "110", "0101"]:
            assert back.bit(node) == sel.bit(node)
    assert sel.to_json_dict() == data


def test_tree_json_round_trip():
    sel = GameBuiltSelector([Layer(1, "0", 1), Layer(3, "011", 0), Layer(7, "1", 1)], default=0)
    tree = make_tree({1, 3, 7}, 10, sel)
    back = SplittingTree.from_json_dict(json.loads(json.dumps(tree.to_json_dict())))
    assert back.materialize().leaves == tree.materialize().leaves
    assert back.to_json_dict() == tree.to_json_dict()
