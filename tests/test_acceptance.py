"""Acceptance suite: one test (and one pass/fail line) per criterion.

Each criterion prints an explicit [PASS]/[FAIL] marker in addition to the
pytest verdict, and enforces its runtime budget where one is stated.
"""

import itertools
import json
import os
import random
import tempfile
import time
from fractions import Fraction

import pytest
from fraction_oracles import brute_force_cover_cost, optimal_cover_cost, parse_dyadic, reference_contains, right_end

from gaugetree import (
    BitFlipMap,
    BranchSchedule,
    ConstantSelector,
    Gauge,
    SeededSelector,
    ShiftMap,
    SplittingTree,
    compare_order,
    dimension_estimate,
    dyadic_four_cover,
    frostman_lower,
    interleave_metric_check,
    level_dp_cost,
    run_game,
    sparsity_schedule,
    verify_escape,
)
from gaugetree.gauge import FIRST_LOWER_ORDER
from gaugetree.cli import main as cli_main


def criterion(num, description, budget=None):
    def wrap(fn):
        def run(*a, **kw):
            start = time.monotonic()
            try:
                fn(*a, **kw)
            except BaseException:
                print(f"[FAIL] criterion {num}: {description}")
                raise
            elapsed = time.monotonic() - start
            if budget is not None and elapsed >= budget:
                print(f"[FAIL] criterion {num}: {description} ({elapsed:.1f}s over budget)")
                raise AssertionError(f"criterion {num} exceeded {budget}s: {elapsed:.1f}s")
            print(f"[PASS] criterion {num}: {description}")

        run.__name__ = fn.__name__
        return run

    return wrap


def make_tree(indices, depth, selector=None):
    sched = BranchSchedule(depth=depth, indices=tuple(sorted(indices)), n0=0)
    return SplittingTree(sched, selector or ConstantSelector(0), depth)


@criterion(1, "cylinder measures sum to 1 at every level", budget=10)
def test_criterion_1_measure_normalization():
    rng = random.Random(2024)
    for trial in range(200):
        depth = rng.randint(1, 20)
        # keep the free-level count bounded so full enumeration stays cheap
        free_cap = min(depth, 12)
        forced_size = rng.randint(depth - free_cap, depth)
        forced_set = set(rng.sample(range(depth), forced_size))
        tree = make_tree(forced_set, depth, SeededSelector(trial))
        forced = set(tree.schedule.indices)
        level = [""]
        for n in range(depth + 1):
            # a member's cylinder has measure 1/level_count of its length
            assert all(reference_contains(tree, t) for t in level)
            assert sum(Fraction(1, tree.level_count(n)) for t in level) == Fraction(1)
            if n in forced:
                level = [t + str(tree.selector.bit(t)) for t in level]
            else:
                level = [t + b for t in level for b in ("0", "1")]


def _costs_equal(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    fa, fb = float(a), float(b)
    if fa == fb == 0:
        return True
    return abs(fa - fb) <= 2.0**-30 * max(abs(fa), abs(fb))


@criterion(2, "three cover-cost algorithms agree", budget=60)
def test_criterion_2_cover_dp_oracle_equivalence():
    gauges = [
        Gauge.power(1),
        Gauge.power(Fraction(1, 2)),
        Gauge.power(Fraction(2, 3)),
        Gauge.power_log(1, 1),
    ]
    for depth in range(1, 5):
        for mask in range(2**depth):
            indices = {n for n in range(depth) if mask >> n & 1}
            tree = make_tree(indices, depth, SeededSelector(mask))
            etree = tree.materialize()
            for g in gauges:
                for k in range(depth + 1):
                    lvl = level_dp_cost(tree, g, k)
                    node, _ = optimal_cover_cost(etree, g, k)
                    brute = brute_force_cover_cost(etree, g, k)
                    assert _costs_equal(lvl, node) and _costs_equal(node, brute)
                    if g.kind == "power" and isinstance(lvl, Fraction):
                        assert lvl == node == brute
    rng = random.Random(99)
    for _ in range(100):
        depth = rng.randint(2, 10)
        indices = {n for n in range(depth) if rng.random() < 0.4}
        tree = make_tree(indices, depth, SeededSelector(rng.randrange(10**6)))
        g = rng.choice(gauges)
        k = rng.randint(0, depth)
        node, _ = optimal_cover_cost(tree.materialize(), g, k)
        assert _costs_equal(level_dp_cost(tree, g, k), node)


@criterion(3, "exact dimension numbers 1, 1/2 and 0 for empty, odd, and full schedules", budget=15)
def test_criterion_3_dimension_brackets():
    assert dimension_estimate(make_tree(set(), 60), 0).value == 1
    assert dimension_estimate(make_tree(range(1, 60, 2), 60), 0).value == Fraction(1, 2)
    assert dimension_estimate(make_tree(range(60), 60), 0).value == 0


@criterion(4, "sharp certificate for odd levels against the square-root gauge")
def test_criterion_4_sharp_certificate():
    g = Gauge.power(Fraction(1, 2))
    for k in range(31):
        depth = max(2 * k, 2)
        tree = make_tree(range(1, depth, 2), depth)
        assert frostman_lower(tree, g) == (0, None)
        assert level_dp_cost(tree, g, k) == Fraction(1)


@criterion(5, "sparsity criterion holds from a small threshold at depth 4096")
def test_criterion_5_sparsity_criterion():
    g = Gauge.power_log(1, 1)
    depth = 2**12
    sched = sparsity_schedule(g, depth)
    violations = [
        n
        for n in range(depth + 1)
        if not Fraction(2 ** sched.count_below(n), 2**n) <= g.at_scale(n)
    ]
    n0 = max(violations) + 1 if violations else 0
    assert n0 <= 4
    assert all(n < n0 for n in violations)


@criterion(6, "halving game certifies exact bounds and escapes", budget=60)
def test_criterion_6_halving_game():
    sched = BranchSchedule(depth=64, indices=tuple(range(1, 64, 2)), n0=0)
    maps = [BitFlipMap(), ShiftMap()]
    tree, cert = run_game(sched, maps, ["0", "1"], depth=64, stages_per_requirement=5)
    for rep in cert.to_json_dict()["requirements"]:
        assert rep["stages"] == 5
        assert parse_dyadic(rep["final_bound"]) == parse_dyadic(rep["initial"]) * Fraction(1, 2**5)
        assert parse_dyadic(rep["recomputed"]) <= parse_dyadic(rep["final_bound"])
    report = verify_escape(tree, maps, 1000, seed=0, certificate=cert)
    for row in report.per_map:
        assert row["fixed"] + row["escaped"] + row["undetermined"] == 1000
        assert row["unaccounted"] == 0


@criterion(7, "interval covers and interleave metric law at scale", budget=10)
def test_criterion_7_transfer_laws():
    rng = random.Random(7)
    for _ in range(10**4):
        den = rng.randrange(2, 10**6)
        lo, hi = sorted(rng.sample(range(den + 1), 2))
        a, b = Fraction(lo, den), Fraction(hi, den)
        cover = dyadic_four_cover(a, b)
        assert 1 <= len(cover) <= 4
        assert len({iv.level for iv in cover}) == 1
        assert min(iv.left for iv in cover) <= a
        assert max(map(right_end, cover)) >= b
    for _ in range(10**4):
        n = rng.choice([2, 3, 4])
        x = "".join(str(rng.getrandbits(1)) for _ in range(60))
        y = x
        while y == x:
            y = "".join(str(rng.getrandbits(1)) for _ in range(60))
        chk = interleave_metric_check(x, y, n)
        assert Fraction(1, 1 << chk.expected_exp) == Fraction(1, 1 << chk.observed_exp)


@criterion(8, "power-gauge order grid and log refinements", budget=5)
def test_criterion_8_gauge_order_grid():
    grid = [Fraction(k, 10) for k in range(1, 10)]
    plog = Gauge.power_log(1, 1)
    ident = Gauge.power(1)
    for s, t in itertools.combinations(grid, 2):
        v = compare_order(Gauge.power(s), Gauge.power(t), 512)
        assert v.relation == FIRST_LOWER_ORDER
    for s in grid:
        assert compare_order(Gauge.power(s), plog, 512).relation == FIRST_LOWER_ORDER
    assert compare_order(plog, ident, 512).relation == FIRST_LOWER_ORDER


@criterion(9, "antichain pipeline reports are byte-identical across runs")
def test_criterion_9_determinism():
    with tempfile.TemporaryDirectory() as tmp:
        maps_file = os.path.join(tmp, "maps.json")
        with open(maps_file, "w") as fh:
            json.dump([{"kind": "bit_flip"}, {"kind": "shift"}], fh)
        outs = []
        for name in ("r1.json", "r2.json"):
            out = os.path.join(tmp, name)
            code = cli_main([
                "antichain", "--gauge", "power_log:1,1", "--maps", maps_file,
                "--depth", "64", "--stages", "3", "--out", out,
            ])
            assert code == 0
            with open(out, "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]
