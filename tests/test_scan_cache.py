"""The cached bad-set scan and the sampler against full-recomputation
references: after every stage, each requirement's bad set must equal a scan
that materialises the frontier and applies every map afresh."""

import random
from fractions import Fraction

import pytest

from gaugetree import (
    BitFlipMap,
    BranchSchedule,
    GameBuiltSelector,
    GameState,
    Layer,
    Requirement,
    SeededSelector,
    ShiftMap,
    SplittingTree,
    TransducerMap,
    bad_set,
    sparsity_schedule,
    stage_step,
)
from gaugetree.cli import parse_gauge_spec
from gaugetree.tree import compatible

PARITY = TransducerMap(
    start=0,
    delta={(0, 0): (0, "0"), (0, 1): (1, "1"), (1, 0): (1, "1"), (1, 1): (0, "0")},
    lag=0,
)


# -- references: no cache, every leaf and image recomputed -----------------


def reference_bad_set(state, req, depth=None):
    d = state.scan_depth if depth is None else depth
    m = state.maps[req.map_index]
    s = req.root
    selector = state.selector()
    decided = state.decided()
    bad = []
    for leaf in state.tree(d).materialize(d).leaves:
        if not leaf.startswith(s):
            continue
        image = m.apply(leaf)
        if compatible(image, s):
            continue
        consistent = True
        for n in state.schedule.indices:
            if n >= len(image):
                break
            if n in decided and int(image[n]) != selector.bit(image[:n]):
                consistent = False
                break
        if consistent:
            bad.append(leaf)
    unit = Fraction(1, 2 ** (d - state.schedule.count_below(d)))
    return tuple(bad), len(bad) * unit


def reference_sample(tree, seed, count):
    rng = random.Random(seed)
    forced = set(tree.schedule.indices)
    out = []
    for _ in range(count):
        prefix = ""
        for n in range(tree.depth):
            b = tree.selector.bit(prefix) if n in forced else rng.getrandbits(1)
            prefix += str(b)
        out.append(prefix)
    return out


# -- the cached scan through whole games ------------------------------------


def assert_scans_match(state, depth=None):
    for req in state.requirements:
        got = bad_set(state, req, depth)
        leaves, measure = reference_bad_set(state, req, depth)
        assert got.leaves == leaves
        assert got.measure == measure


def play(schedule, maps, roots, depth, stages, scan_depth):
    """run_game's rounds, checking every bad set after every stage."""
    reqs = [Requirement(i, r) for i in range(len(maps)) for r in roots]
    state = GameState(
        schedule=schedule, maps=list(maps), requirements=reqs,
        depth=depth, scan_depth=scan_depth,
    )
    for key, req in enumerate(reqs):
        initial = bad_set(state, req)
        state.initial[key] = state.bounds[key] = initial.measure
        state.stage_counts[key] = 0
    assert_scans_match(state)
    for _ in range(stages):
        for req in reqs:
            stage_step(state, req)
            assert_scans_match(state)
            # a shallower scan and back: the frontier is rebuilt both times
            assert_scans_match(state, state.scan_depth - 1)
            assert_scans_match(state)
    return state


GAMES = {
    "power_log_parity_d64": (
        sparsity_schedule(parse_gauge_spec("power_log:1,1"), 64),
        [BitFlipMap(), ShiftMap(), PARITY], ["0", "1"], 64, 3, 10,
    ),
    "power_half_flip_shift_d32": (
        sparsity_schedule(parse_gauge_spec("power:1/2"), 32),
        [BitFlipMap(), ShiftMap()], ["0", "1"], 32, 3, 12,
    ),
    # the lag-1 shift map needs levels beyond the initial scan depth 6
    "scan_depth_grows": (
        BranchSchedule(depth=24, indices=tuple(range(2, 24, 2)), n0=0),
        [ShiftMap(), PARITY], ["0", "1"], 24, 3, 6,
    ),
    # the game keeps the 1-half here, so a layer flips leaves mid-game
    "parity_keeps_bit_1": (
        sparsity_schedule(parse_gauge_spec("power:2/3"), 24),
        [PARITY], ["00", "11"], 24, 3, 13,
    ),
}


@pytest.mark.parametrize("name", sorted(GAMES))
def test_cached_bad_set_matches_reference_after_every_stage(name):
    schedule, maps, roots, depth, stages, scan_depth = GAMES[name]
    state = play(schedule, maps, roots, depth, stages, scan_depth)
    assert state.layers
    if name == "scan_depth_grows":
        assert state.scan_depth > scan_depth
    if name == "parity_keeps_bit_1":
        assert any(l.bit == 1 for l in state.layers)


def test_frontier_follows_hand_appended_layers():
    # level 1 is free, so both children of each root are in the tree; a
    # bit-1 layer rooted away from "0" flips the leaves under "0", whose
    # flipped images then pass that level: stale leaves would all escape
    schedule = BranchSchedule(depth=12, indices=(2, 4, 6, 8), n0=0)
    state = GameState(
        schedule=schedule, maps=[BitFlipMap(), ShiftMap(), PARITY],
        requirements=[Requirement(0, "0"), Requirement(0, "1"), Requirement(0, "01"),
                      Requirement(1, "0"), Requirement(2, "01")],
        depth=12, scan_depth=10,
    )
    assert_scans_match(state)
    for layer in [Layer(4, "1", 1), Layer(2, "0", 1), Layer(8, "11", 1), Layer(6, "1", 1)]:
        state.layers.append(layer)
        assert_scans_match(state)
        assert bad_set(state, Requirement(0, "0")).leaves


# -- sampler ---------------------------------------------------------------


def sample_trees():
    schedule = sparsity_schedule(parse_gauge_spec("power:1/2"), 48)
    layers = [Layer(n, "01"[i % 2], i % 2) for i, n in enumerate(schedule.indices[1:8])]
    return [
        SplittingTree(schedule, SeededSelector(5), 48),
        SplittingTree(schedule, GameBuiltSelector(layers, default=0), 48),
        SplittingTree(BranchSchedule(depth=40, indices=(), n0=0), SeededSelector(1), 40),
    ]


@pytest.mark.parametrize("index", range(3))
@pytest.mark.parametrize("seed", [0, 11])
def test_sample_matches_per_bit_reference(index, seed):
    tree = sample_trees()[index]
    assert tree.sample(seed, 64) == reference_sample(tree, seed, 64)
