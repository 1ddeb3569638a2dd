"""The game's fast kernels against full-recomputation references: after
every stage, each requirement's counted bad set, and the halves each stage
splits it into, must equal an enumeration that materialises the frontier
and applies every map afresh; the column-wise sampler, the transducer and
the game-built selector's bits must match their per-bit, per-character and
per-layer definitions, and samplers of one schedule and seed must share
every free column.  Each map's `apply` must match a per-character
definition of the map, and `verify_escape`'s bit-parallel mask pass, for
transducers and `explicit` tables alike, must match a per-sample loop whose
`unaccounted` reads the certificate's tree leaf by leaf; `_count`, weighing
sample masks, must keep exactly the rows whose cut is an enumerated bad leaf."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from fraction_oracles import IDENTITY, format_exact, reference_consistent, reference_leaves
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugetree import (
    BitFlipMap,
    BranchSchedule,
    ConstantSelector,
    ExplicitSelector,
    GameBuiltSelector,
    GameState,
    Layer,
    Requirement,
    SeededSelector,
    ShiftMap,
    SplittingTree,
    TransducerMap,
    bad_set,
    run_game,
    sparsity_schedule,
    stage_step,
    verify_escape,
)
from gaugetree import game
from gaugetree.cli import parse_gauge_spec
from gaugetree.dyadic import to_number
from gaugetree.errors import GameInvariantError, InfeasibleError, UsageError
from gaugetree.game import ExplicitNodeMap
from gaugetree.tree import Columns, check_node, compatible

PARITY = TransducerMap(
    start=0,
    delta={(0, 0): (0, "0"), (0, 1): (1, "1"), (1, 0): (1, "1"), (1, 1): (0, "0")},
    lag=0,
)


# -- references: no cache, every leaf and image recomputed -----------------


def reference_bad_set(tree, m, root):
    """A game-built tree's leaves above `root` whose image under m is
    incompatible with the root yet obeys every level a layer decides, and
    their measure."""
    selector, d = tree.selector, tree.depth
    decided = {l.level for l in selector.layers}
    bad = []
    for leaf in tree.materialize().leaves:
        if not leaf.startswith(root):
            continue
        image = m.apply(leaf)
        if compatible(image, root):
            continue
        consistent = True
        for n in tree.schedule.indices:
            if n >= len(image):
                break
            if n in decided and int(image[n]) != selector.bit(image[:n]):
                consistent = False
                break
        if consistent:
            bad.append(leaf)
    unit = Fraction(1, 2 ** (d - tree.schedule.count_below(d)))
    return tuple(bad), len(bad) * unit


def reference_halves(tree, m, root, level):
    """The enumerated bad leaves tallied by their image bit at `level`."""
    leaves, _ = reference_bad_set(tree, m, root)
    tally = Counter(u[level] if level < len(u) else None for u in map(m.apply, leaves))
    return {b: tally[b] for b in ("0", "1", None)}


def reference_sample(tree, seed, count):
    """Each free level, in level order, draws one `getrandbits(count)`, whose
    bit count - 1 - i is branch i's bit there; each branch is then built bit
    by bit, its forced bits from the selector's `bit` of its prefix."""
    rng = random.Random(seed)
    forced = set(tree.schedule.indices)
    draws = {n: rng.getrandbits(count) for n in range(tree.depth) if n not in forced}
    out = []
    for i in range(count):
        prefix = ""
        for n in range(tree.depth):
            b = tree.selector.bit(prefix) if n in forced else draws[n] >> (count - 1 - i) & 1
            prefix += str(b)
        out.append(prefix)
    return out


def reference_transduce(t, node):
    state, out = t.start, []
    for ch in node:
        state, emitted = t.delta[state, int(ch)]
        out.append(emitted)
    return "".join(out)


# prefix parity as a table over the nodes of length 9 and 10: a trie whose
# walks may end at depth 9 or 10 only
EXPLICIT_D10 = ExplicitNodeMap(
    {n: reference_transduce(PARITY, n)
     for k in (9, 10) for n in map("".join, itertools.product("01", repeat=k))},
    lag=0,
)


# -- the counted bad set through whole games ---------------------------------


def assert_scans_match(state, depth=None, default=0):
    """Every requirement's count, its enumeration and its measure on the
    state's tree cut to `depth`; with default 1, which no game plays, on its
    layers under that default, counted by `_count`."""
    tree = state.tree(state.scan_depth if depth is None else depth)
    if default:
        tree = tree._replace(selector=GameBuiltSelector(state.layers, default=default))
    for req in state.requirements:
        m = state.maps[req.map_index]
        leaves, measure = reference_bad_set(tree, m, req.root)
        if default:
            assert sum(game._count(tree, m, req.root).values()) == len(leaves)
        else:
            got = bad_set(state, req, depth)
            assert (len(got.leaves), to_number(got.measure)) == (len(leaves), measure)


def play(schedule, maps, roots, depth, stages, scan_depth):
    """run_game's rounds, checking every bad set after every stage."""
    reqs = [Requirement(i, r) for i in range(len(maps)) for r in roots]
    state = GameState(
        schedule=schedule, maps=list(maps), requirements=reqs,
        depth=depth, scan_depth=scan_depth,
    ).open()
    assert_scans_match(state)
    for _ in range(stages):
        for req in reqs:
            stage_step(state, req)
            assert_scans_match(state)
            # a shallower scan and back
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
        BranchSchedule(depth=24, indices=tuple(range(2, 24, 2))),
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
    schedule = BranchSchedule(depth=12, indices=(2, 4, 6, 8))
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


def test_bad_set_memo_dropped_with_its_frontier():
    # scan depth d, then d - 1, then d again, with a layer appended between
    # rounds: every call sees a tree other than the previous call's, and
    # nothing of an earlier tree's count may carry over to it
    schedule = BranchSchedule(depth=12, indices=(2, 4, 6, 8))
    reqs = [Requirement(0, "0"), Requirement(0, "1"), Requirement(0, "01"),
            Requirement(1, "0"), Requirement(2, "01"), Requirement(3, "1")]
    state = GameState(
        schedule=schedule, maps=[BitFlipMap(), ShiftMap(), PARITY, EXPLICIT_D10],
        requirements=reqs, depth=12, scan_depth=10,
    )
    d = state.scan_depth
    seen = set()
    for layer in [None, Layer(4, "1", 1), Layer(2, "0", 1), Layer(8, "11", 1), Layer(6, "1", 1)]:
        if layer is not None:
            state.layers.append(layer)
        for depth in (d, d - 1, d):
            assert_scans_match(state, depth)
            for req in reqs:
                got = bad_set(state, req, depth)
                assert got.depth == depth
                # a repeat on the unchanged tree counts the same bad set
                again = bad_set(state, req, depth)
                assert (len(again.leaves), again.measure) == (len(got.leaves), got.measure)
                leaves, _ = reference_bad_set(state.tree(depth), state.maps[req.map_index], req.root)
                seen.add((req, depth, leaves))
    # the layers change the bad sets, so a count that missed one would show
    assert len(seen) > 2 * len(reqs)


def flip_shift_parity_state():
    schedule = BranchSchedule(depth=12, indices=(2, 4, 6, 8))
    return GameState(
        schedule=schedule, maps=[BitFlipMap(), ShiftMap(), PARITY],
        requirements=[Requirement(0, "0"), Requirement(1, "1"), Requirement(2, "01")],
        depth=12, scan_depth=10,
    )


def test_default_bit_layer_keeps_the_tree_and_empties_a_bad_set():
    state = flip_shift_parity_state()
    req = Requirement(0, "0")
    before = bad_set(state, req)
    frontier = state.tree(state.scan_depth).materialize().leaves
    # the flipped images start with "1", so they reach level 4 inside the
    # layer's root and get the default 0 there, against their own bit 1
    state.layers.append(Layer(4, "1", 0))
    after = bad_set(state, req)
    assert state.tree(state.scan_depth).materialize().leaves == frontier
    assert len(before.leaves) and not len(after.leaves)
    assert_scans_match(state)


def test_non_default_layer_changes_the_tree_the_count_reads():
    state = flip_shift_parity_state()
    assert_scans_match(state)
    frontier = state.tree(state.scan_depth).materialize().leaves
    state.layers.append(Layer(6, "1", 1))  # leaves under "0" now carry 1 at level 6
    assert state.tree(state.scan_depth).materialize().leaves != frontier
    assert_scans_match(state)


def test_constant_bit_agrees_with_bit_on_its_level():
    rng = random.Random(5)
    constant, varying = 0, 0
    for _ in range(200):
        levels = rng.sample(range(9), rng.randint(0, 5))
        layers = [
            Layer(n, "".join(rng.choice("01") for _ in range(rng.randint(0, 10))),
                  rng.getrandbits(1))
            for n in levels
        ]
        sel = GameBuiltSelector(layers, default=rng.getrandbits(1))
        for n in range(9):
            b = sel.constant_bit(n)
            if b is None:
                varying += 1
                continue
            constant += 1
            for bits in itertools.product("01", repeat=n):
                assert sel.bit("".join(bits)) == b
    assert constant and varying


@pytest.mark.parametrize("bits", [
    "", "0", "1", "0110", "1" * 256, "2", " 01", "01 ", "01\n", "\t", "0 1", "0\x00",
    "\u0660\u0661", "\uff10\uff11", "01\u0661", "x", "0b01",
])
def test_check_node_matches_strip_form(bits):
    accepted = not bits.strip("01")
    if accepted:
        assert check_node(bits) is bits
    else:
        with pytest.raises(ValueError, match="not a binary string"):
            check_node(bits)


def test_run_game_reports_final_scan_depth_and_its_bad_sets():
    schedule, maps, roots, depth, stages, scan_depth = GAMES["scan_depth_grows"]
    tree, cert = run_game(schedule, maps, roots, depth, stages)
    assert cert.scan_depth > scan_depth
    for req, rep in zip(cert.requirements, cert.to_json_dict()["requirements"]):
        leaves, measure = reference_bad_set(cert.tree(cert.scan_depth), maps[req.map_index], req.root)
        final = bad_set(cert, req)
        assert final.depth == cert.scan_depth
        assert (len(final.leaves), rep["recomputed"]) == (len(leaves), format_exact(measure))
    # samples are cut to the final scan depth before the bad-set lookup
    report = verify_escape(tree, maps, 2000, seed=4, certificate=cert)
    certified = sum(m["undetermined"] - m["uncovered"] for m in report.per_map)
    assert certified > 0
    assert all(m["unaccounted"] == 0 for m in report.per_map)


# every requirement's bad set after each hand-appended layer of either bit

MAPS = {"bit_flip": BitFlipMap(), "shift": ShiftMap(), "parity": PARITY,
        "identity": IDENTITY}
binary = st.text(alphabet="01", max_size=4)


@st.composite
def games(draw):
    depth = draw(st.integers(3, 10))
    indices = sorted(draw(st.sets(st.integers(0, depth - 1), max_size=depth // 2 + 1)))
    maps = [MAPS[k] for k in draw(st.lists(st.sampled_from(sorted(MAPS)), min_size=1, max_size=3))]
    roots = draw(st.lists(binary, min_size=1, max_size=3, unique=True))
    state = GameState(
        schedule=BranchSchedule(depth=depth, indices=tuple(indices)), maps=maps,
        requirements=[Requirement(i, r) for i in range(len(maps)) for r in roots],
        depth=depth, scan_depth=draw(st.integers(1, depth)),
    )
    levels = draw(st.permutations(indices))[: draw(st.integers(0, len(indices)))]
    layers = [Layer(n, draw(binary), draw(st.integers(0, 1))) for n in levels]
    return state, layers, draw(st.integers(0, 1))


@given(games())
def test_bad_set_matches_reference_after_each_appended_layer(game):
    state, layers, default = game
    d = state.scan_depth
    for layer in [None, *layers]:
        if layer is not None:
            state.layers.append(layer)
        for depth in (d, d - 1, d):
            assert_scans_match(state, depth, default)


# every count the game makes on the benchmark's configurations

BENCHMARK_MAPS = {"flip_shift": [BitFlipMap(), ShiftMap()],
                  "flip_shift_parity": [BitFlipMap(), ShiftMap(), PARITY]}


@pytest.mark.parametrize("depth", [64, 256])
@pytest.mark.parametrize("maps", sorted(BENCHMARK_MAPS))
@pytest.mark.parametrize("gauge", ["power_log:1,1", "power:1/2"])
def test_count_and_halves_match_reference_at_every_benchmark_stage(monkeypatch, gauge, maps, depth):
    """Each stage's split and post-stage count, at the scan depth the stage
    reached, and every requirement's final bad set, against the enumeration."""
    calls, depths, count = [], [], game._count

    def recording(tree, m, root, level=None):
        tally = count(tree, m, root, level)
        depths.append(tree.depth)
        if level is not None:
            calls.append((tree, m, root, level, dict(tally)))
        return tally

    monkeypatch.setattr(game, "_count", recording)
    schedule = sparsity_schedule(parse_gauge_spec(gauge), depth)
    _, cert = run_game(schedule, BENCHMARK_MAPS[maps], ["0", "1"], depth, 3)
    # the game starts at the longest root + the largest lag (shift's 1) + 1
    initial = depths[0]
    assert initial == 3
    staged = [entry for entry in cert.stage_log if entry["level"] is not None]
    assert staged and len(calls) == 2 * len(staged)
    for (tree, m, root, level, tally), entry in zip(calls, [e for e in staged for _ in (0, 1)]):
        assert (root, level) == (entry["root"], entry["level"])
        assert tally == reference_halves(tree, m, root, level)
    # every post-stage count holds the chosen half only
    assert all(not tally[str(1 - e["chosen_bit"])] for (*_, tally), e in zip(calls[1::2], staged))
    # a stage deepened the scan
    assert cert.scan_depth > initial
    assert any(tree.depth > initial for tree, *_ in calls)
    assert_scans_match(cert)


# counts per benchmark game with roots 0 and 1; without the memo they were 64
# and 128, and 28 and 38 while a stage that appended no layer rescanned the others
COUNTS_PER_GAME = {"flip_shift": 27, "flip_shift_parity": 37}


@pytest.mark.parametrize("depth", [64, 256])
@pytest.mark.parametrize("maps", sorted(BENCHMARK_MAPS))
@pytest.mark.parametrize("gauge", ["power_log:1,1", "power:1/2"])
def test_each_count_runs_once_per_game(monkeypatch, gauge, maps, depth):
    """No two counts of one game and its certificate share their inputs
    (map, root, scan depth, layers, tally level): a stage's opening count
    and the certificate's final counts read the game's memo instead, and a
    stage that appends no layer rescans no other requirement."""
    inputs, count = [], game._count

    def recording(tree, m, root, level=None):
        inputs.append((id(m), root, tree.depth, tuple(tree.selector.layers), level))
        return count(tree, m, root, level)

    monkeypatch.setattr(game, "_count", recording)
    schedule = sparsity_schedule(parse_gauge_spec(gauge), depth)
    run_game(schedule, BENCHMARK_MAPS[maps], ["0", "1"], depth, 3)[1].to_json_dict()
    assert len(set(inputs)) == len(inputs)
    assert len(inputs) == COUNTS_PER_GAME[maps]


@pytest.mark.parametrize("indices, maps", [((2, 4, 6), [ShiftMap()]), ((1, 3), [BitFlipMap()])])
def test_count_memo_belongs_to_its_game(indices, maps):
    """Two games with one requirement, scan depth and empty layer list, but
    another schedule or another map, each count their own bad set."""
    req = Requirement(0, "0")
    first = GameState(schedule=BranchSchedule(depth=10, indices=(1, 3)), maps=[ShiftMap()],
                      requirements=[req], depth=10, scan_depth=8)
    second = GameState(schedule=BranchSchedule(depth=10, indices=indices), maps=maps,
                       requirements=[req], depth=10, scan_depth=8)
    measures = [to_number(bad_set(state, req).measure) for state in (first, second)]
    assert measures == [reference_bad_set(state.tree(8), state.maps[0], "0")[1] for state in (first, second)]
    assert measures[0] != measures[1]


@st.composite
def transducers(draw):
    """At most 3 states, each with an offset in 0..2: a move from q to t
    emits 1 + offset(t) - offset(q) bits (0 to 3), so every prefix's image
    length is within 2 of its own."""
    size = draw(st.integers(1, 3))
    offset = [draw(st.integers(0, 2)) for _ in range(size)]
    delta = {}
    for q in range(size):
        for b in (0, 1):
            t = draw(st.sampled_from([t for t in range(size) if offset[t] >= offset[q] - 1]))
            width = 1 + offset[t] - offset[q]
            delta[q, b] = (t, draw(st.text(alphabet="01", min_size=width, max_size=width)))
    return TransducerMap(start=draw(st.integers(0, size - 1)), delta=delta, lag=2)


@st.composite
def counting_cases(draw):
    depth = draw(st.integers(2, 10))
    indices = sorted(draw(st.sets(st.integers(0, depth - 1), max_size=depth // 2 + 1)))
    maps = [draw(transducers()), *draw(st.lists(st.sampled_from(sorted(MAPS)).map(MAPS.get), max_size=1))]
    roots = draw(st.lists(st.text(alphabet="01", min_size=1, max_size=3), min_size=1, max_size=3, unique=True))
    levels = draw(st.permutations(indices))[: draw(st.integers(0, len(indices)))]
    layers = [Layer(n, draw(st.text(alphabet="01", max_size=3)), draw(st.integers(0, 1))) for n in levels]
    tree = SplittingTree(BranchSchedule(depth=depth, indices=tuple(indices)),
                         GameBuiltSelector(layers, default=draw(st.integers(0, 1))),
                         draw(st.integers(depth // 2, depth)))
    return tree, maps, roots, draw(st.integers(0, depth + 1))


@settings(max_examples=200)
@given(counting_cases())
def test_count_and_halves_match_reference_on_random_transducers(case):
    tree, maps, roots, level = case
    for m in maps:
        for root in roots:
            assert game._count(tree, m, root, level) == reference_halves(tree, m, root, level)


@st.composite
def played_games(draw):
    """A random small schedule, a random transducer with lag 2 and maybe a
    fixed map, roots up to length 6 and up to 2 stages each."""
    depth = draw(st.integers(4, 16))
    indices = sorted(draw(st.sets(st.integers(0, depth - 1), min_size=1, max_size=depth // 2 + 1)))
    maps = [draw(transducers()), *draw(st.lists(st.sampled_from(sorted(MAPS)).map(MAPS.get), max_size=1))]
    roots = draw(st.lists(st.text(alphabet="01", min_size=1, max_size=6), min_size=1, max_size=3, unique=True))
    return BranchSchedule(depth=depth, indices=tuple(indices)), maps, roots, depth, draw(st.integers(1, 2))


@settings(max_examples=150)
@given(played_games())
def test_bounds_hold_from_the_scan_depth_to_the_working_depth(case):
    """On the game's final state each requirement's bad measure at the scan
    depth is at least the one at the working depth, and equal once the scan
    depth is past the last decided level + 1 + the map's lag; counted at
    both depths, and enumerated where the tree is small."""
    schedule, maps, roots, depth, stages = case
    try:
        _, cert = run_game(schedule, maps, roots, depth, stages)
    except InfeasibleError:
        return
    bare = GameState(schedule=schedule, maps=maps, requirements=[], depth=depth, scan_depth=cert.scan_depth)
    last = max((l.level for l in cert.layers), default=-1)
    for key, req in enumerate(cert.requirements):
        at_scan, at_depth = (to_number(bad_set(cert, req, d).measure) for d in (cert.scan_depth, depth))
        assert at_depth <= at_scan <= to_number(cert.bound(key))
        assert to_number(bad_set(bare, req, depth).measure) <= to_number(cert.initial[key])
        if cert.scan_depth >= last + 1 + maps[req.map_index].lag:
            assert at_depth == at_scan
        for d in (cert.scan_depth, depth):
            if cert.tree(d).level_count(d) <= 2**10:
                _, measure = reference_bad_set(cert.tree(d), maps[req.map_index], req.root)
                assert to_number(bad_set(cert, req, d).measure) == measure


def test_long_root_bounds_hold_at_the_working_depth():
    # 19 zeros: every depth-16 image is shorter than the root, so a game
    # that counted there would certify 0; from depth 20 on the bad sets of
    # bit_flip and shift measure 1/2^15 and 1/2^16
    schedule, root = sparsity_schedule(parse_gauge_spec("power_log:1,1"), 128), "0" * 19
    maps = [BitFlipMap(), ShiftMap()]
    _, cert = run_game(schedule, maps, [root], 128, 1)
    assert cert.scan_depth == 65
    bare = GameState(schedule=schedule, maps=maps, requirements=[], depth=128, scan_depth=0)
    initial = [Fraction(1, 2**15), Fraction(1, 2**16)]
    for key, (req, measure) in enumerate(zip(cert.requirements, initial)):
        assert [to_number(bad_set(bare, req, d).measure) for d in (16, 21, 128)] == [0, measure, measure]
        assert to_number(cert.initial[key]) == measure
        deep, scan = (to_number(bad_set(cert, req, d).measure) for d in (128, cert.scan_depth))
        assert deep <= scan <= to_number(cert.bound(key)) == measure / 2


def test_post_stage_count_over_the_bound_is_caught(monkeypatch):
    # the post-stage count is made to hold the whole opening bad set in the
    # chosen half: twice the halved bound, so the bound check must fire
    schedule = BranchSchedule(depth=16, indices=(1, 3, 5, 7))
    state = GameState(schedule=schedule, maps=[ShiftMap()], requirements=[Requirement(0, "1")],
                      depth=16, scan_depth=10).open()
    opening, count = [], game._count

    def all_survive(tree, m, root, level=None):
        tally = count(tree, m, root, level)
        if level is not None:
            if not opening:
                opening.append(dict(tally))
            else:  # the post-stage count
                chosen = "0" if opening[0]["0"] <= opening[0]["1"] else "1"
                tally = {**dict.fromkeys(tally, 0), chosen: opening[0]["0"] + opening[0]["1"]}
        return tally

    monkeypatch.setattr(game, "_count", all_survive)
    with pytest.raises(GameInvariantError, match=r"recomputed bad measure 1/\d+ exceeds bound"):
        stage_step(state, state.requirements[0])
    assert opening[0]["0"] and opening[0]["1"]


def test_post_stage_count_reading_the_other_half_is_caught(monkeypatch):
    # the shift image's bit at the odd stage level is the free bit after it,
    # so both halves are non-empty and the kept half survives the stage
    schedule = BranchSchedule(depth=16, indices=(1, 3, 5, 7))
    state = GameState(schedule=schedule, maps=[ShiftMap()], requirements=[Requirement(0, "1")],
                      depth=16, scan_depth=10).open()
    counts, count = [], game._count

    def other_half(tree, m, root, level=None):
        tally = count(tree, m, root, level)
        if level is not None:
            counts.append(dict(tally))
            if len(counts) == 2:  # the post-stage count
                tally["0"], tally["1"] = tally["1"], tally["0"]
        return tally

    monkeypatch.setattr(game, "_count", other_half)
    with pytest.raises(GameInvariantError, match="escapes the chosen half"):
        stage_step(state, state.requirements[0])
    assert counts[0]["0"] and counts[0]["1"] and counts[1]["0"]


# -- sampler ---------------------------------------------------------------


def sample_trees():
    schedule = sparsity_schedule(parse_gauge_spec("power:1/2"), 48)
    layers = [Layer(n, "01"[i % 2], i % 2) for i, n in enumerate(schedule.indices[1:8])]
    return [
        SplittingTree(schedule, SeededSelector(5), 48),
        SplittingTree(schedule, GameBuiltSelector(layers, default=0), 48),
        SplittingTree(BranchSchedule(depth=40, indices=()), SeededSelector(1), 40),
        # whole prefixes decide the bit: five nodes the forced levels 1, 3
        # and 7 reach get 0, every other node the default 1
        SplittingTree(schedule, ExplicitSelector(
            {"0": 0, "000": 0, "111": 0, "0011010": 0, "1110110": 0}, default=1), 48),
    ]


@pytest.mark.parametrize("index", range(4))
@pytest.mark.parametrize("seed", [0, 11])
def test_sample_matches_per_bit_reference(index, seed):
    tree = sample_trees()[index]
    assert tree.sample(seed, 64) == reference_sample(tree, seed, 64)


def block_edge_trees():
    schedule = sparsity_schedule(parse_gauge_spec("power:1/2"), 40)  # forced: odd levels
    # the root of the level-7 layer is longer than 7: a node there keeps the
    # default 1 exactly when it is all ones, which the free levels allow
    long_root = GameBuiltSelector([Layer(7, "1" * 10, 0), Layer(13, "0", 0)], default=1)
    return {
        "constant": SplittingTree(schedule, ConstantSelector(1), 40),
        "seeded": SplittingTree(schedule, SeededSelector(9), 40),
        "game_built_long_root": SplittingTree(schedule, long_root, 40),
        "no_free_levels": SplittingTree(
            BranchSchedule(depth=12, indices=tuple(range(12))), SeededSelector(4), 12
        ),
        "no_forced_levels": SplittingTree(
            BranchSchedule(depth=40, indices=()), ConstantSelector(0), 40
        ),
    }


@pytest.mark.parametrize("count", [1, 255, 256, 257, 1000])
@pytest.mark.parametrize("name", sorted(block_edge_trees()))
def test_sample_matches_per_bit_reference_across_blocks(name, count):
    tree = block_edge_trees()[name]
    got = tree.sample(3, count)
    assert got == reference_sample(tree, 3, count)
    if name == "game_built_long_root" and count == 1000:
        assert {x[7] for x in got} == {"0", "1"}


@pytest.mark.parametrize("seed", [0, 11])
def test_columns_share_every_free_column_across_selectors_and_depths(seed):
    # a sample's free bits depend on the schedule and seed only, not on the
    # selector, the depth or the order in which the columns are read
    schedule = sparsity_schedule(parse_gauge_spec("power:1/2"), 48)
    selectors = [
        GameBuiltSelector([Layer(n, "01"[i % 2], i % 2) for i, n in enumerate(schedule.indices[1:8])]),
        GameBuiltSelector([Layer(schedule.indices[2], "1" * 9, 1)], default=1),
        SeededSelector(5),
        ConstantSelector(1),
    ]
    free = [n for n in range(48) if n not in schedule]
    first = Columns(SplittingTree(schedule, selectors[0], 48), seed, 300)
    for sel in selectors:
        for depth in (20, 48):
            cols = Columns(SplittingTree(schedule, sel, depth), seed, 300)
            below = [n for n in free if n < depth]
            # a column read first still draws every level below it first
            assert [cols[n] for n in reversed(below)] == [first[n] for n in reversed(below)]


@pytest.mark.parametrize("name", sorted(block_edge_trees()))
def test_materialize_matches_per_bit_reference(name):
    tree = block_edge_trees()[name]
    for d in (0, 9, 12):
        assert tree._replace(depth=d).materialize().leaves == reference_leaves(tree, d)


# -- transducer ------------------------------------------------------------

# three states, chunks of length 0, 1 and 2; lag bounds the length drift for
# inputs up to 300 characters
STUTTER = {
    ("a", 0): ("b", ""), ("a", 1): ("c", "10"),
    ("b", 0): ("a", "0"), ("b", 1): ("b", "11"),
    ("c", 0): ("c", ""), ("c", 1): ("a", "01"),
}


@pytest.mark.parametrize("start, delta", [("a", STUTTER), (0, PARITY.delta)])
def test_chunked_transducer_matches_per_character_reference(start, delta):
    t = TransducerMap(start=start, delta=delta, lag=300)
    for n in range(13):
        for bits in itertools.product("01", repeat=n):
            node = "".join(bits)
            assert t.apply(node) == reference_transduce(t, node)
    rng = random.Random(8)
    for _ in range(400):
        node = "".join(rng.choice("01") for _ in range(rng.randint(0, 300)))
        assert t.apply(node) == reference_transduce(t, node)


SHRINK = {(0, 0): (0, ""), (0, 1): (0, "1")}  # drops every 0
DROP_FIRST = {("a", 0): ("b", ""), ("a", 1): ("b", ""), ("b", 0): ("b", "0"), ("b", 1): ("b", "1")}


@pytest.mark.parametrize("start, delta", [
    ("a", STUTTER), (0, PARITY.delta), (0, SHRINK), ("a", DROP_FIRST),
])
def test_min_drift_matches_every_input(start, delta):
    t = TransducerMap(start=start, delta=delta, lag=0)
    least = 0
    for depth in range(11):
        for bits in itertools.product("01", repeat=depth):
            least = min(least, len(t.apply("".join(bits))) - depth)
        assert t.min_drift(depth) == least


def test_transducer_refuses_a_move_on_another_bit():
    with pytest.raises(ValueError, match="bit 0 or 1"):
        TransducerMap(start=0, delta={**PARITY.delta, (0, 2): (0, "1")}, lag=0)


@pytest.mark.parametrize("node", ["2", "0000000012", "01010101" * 3 + "x", "0" * 16 + " "])
def test_chunked_transducer_rejects_non_binary(node):
    t = TransducerMap(start="a", delta=STUTTER, lag=300)
    t.apply("0" * 32)  # a binary node maps
    with pytest.raises(ValueError):
        t.apply(node)


# -- selector consistency --------------------------------------------------


def obeys(sel, node, levels):
    """`node` agrees with `sel.bit` of its prefix at each of the `levels` shorter than it."""
    return all(int(node[n]) == sel.bit(node[:n]) for n in levels if n < len(node))


def test_game_built_consistent_matches_layer_definition():
    rng = random.Random(21)
    outcomes, long_roots = set(), 0
    for _ in range(300):
        depth = rng.randint(1, 24)
        layer_levels = rng.sample(range(depth), rng.randint(0, min(depth, 6)))
        layers = [
            Layer(n, "".join(rng.choice("01") for _ in range(rng.randint(0, depth + 3))),
                  rng.getrandbits(1))
            for n in layer_levels
        ]
        long_roots += sum(len(l.root) > l.level for l in layers)
        sel = GameBuiltSelector(layers, default=rng.getrandbits(1))
        # layer levels, other levels and levels past the node's end
        levels = sorted(rng.sample(range(depth + 4), rng.randint(0, depth + 4)))
        for _ in range(20):
            # mostly obey the selector, so that long checks happen too
            node = ""
            for n in range(rng.randint(0, depth + 2)):
                obey = n in levels and rng.random() < 0.9
                node += str(sel.bit(node)) if obey else rng.choice("01")
            expected = reference_consistent(sel, node, levels)
            assert obeys(sel, node, levels) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}
    assert long_roots > 0


# -- apply -----------------------------------------------------------------

STUTTER_MAP = TransducerMap(start="a", delta=STUTTER, lag=300)
# every node up to length 6 with its prefix-parity image: monotone
EXPLICIT = ExplicitNodeMap(
    {n: reference_transduce(PARITY, n)
     for k in range(7) for n in map("".join, itertools.product("01", repeat=k))},
    lag=0,
)

# every map computes its images from its step table, so the per-character
# definitions of bit_flip and shift pin those tables, and the table lookup
# pins the trie an `explicit` map is compiled into
REFERENCES = {
    "bit_flip": (BitFlipMap(), lambda n: "".join("1" if c == "0" else "0" for c in n)),
    "shift": (ShiftMap(), lambda n: n[1:]),
    "parity": (PARITY, lambda n: reference_transduce(PARITY, n)),
    "stutter": (STUTTER_MAP, lambda n: reference_transduce(STUTTER_MAP, n)),
    "identity": (IDENTITY, lambda n: n),
    "explicit": (EXPLICIT, lambda n: EXPLICIT.entries[n]),
}


def node_lists(explicit):
    """The empty list, [""], every length 1-33 and lengths off the byte grid."""
    rng = random.Random(17)
    if explicit:
        keys = sorted(EXPLICIT.entries)
        return [[], [""], keys, rng.sample(keys, 40)]
    bits = lambda k: "".join(rng.choice("01") for _ in range(k))
    return [
        [],
        [""],
        [bits(k) for k in range(1, 34)],
        [bits(rng.choice([k for k in range(300) if k % 8])) for _ in range(60)],
        [bits(k) for k in (8, 16, 64, 256)],
    ]


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_apply_all_matches_apply_and_per_character_reference(name):
    m, reference = REFERENCES[name]
    for nodes in node_lists(name == "explicit"):
        assert [m.apply(n) for n in nodes] == [reference(n) for n in nodes]


@pytest.mark.parametrize("name", sorted(REFERENCES))
@pytest.mark.parametrize("bad", ["2", "0000000012", "01010101" * 3 + "x", "0" * 16 + " ", "٠١"])
def test_apply_all_rejects_non_binary_like_apply(name, bad):
    m, _ = REFERENCES[name]
    for node in node_lists(name == "explicit")[-1]:  # the map has been used
        m.apply(node)
    with pytest.raises(ValueError, match="not a binary string"):
        m.apply(bad)


def test_explicit_apply_all_reports_the_missing_node():
    assert EXPLICIT.apply("0") == "0"
    with pytest.raises(UsageError, match="no image recorded for node '0000000'"):
        EXPLICIT.apply("0000000")


@st.composite
def monotone_tables(draw):
    """Random keys up to length 8, the empty node among them or not: each
    image extends that of the longest key below it by 0 to 3 bits, and the
    empty node's image is empty."""
    table = {}
    for key in sorted(draw(st.sets(st.text(alphabet="01", max_size=8), max_size=30))):
        below = max((k for k in table if key.startswith(k)), key=len, default=None)
        table[key] = ("" if below is None else table[below]) + (draw(st.text(alphabet="01", max_size=3)) if key else "")
    return table


@given(monotone_tables())
def test_explicit_trie_images_equal_the_table(table):
    m = ExplicitNodeMap(table, lag=8)
    keys = sorted(table)
    assert [m.apply(k) for k in keys] == [table[k] for k in keys]
    for node in {k[:i] for k in keys for i in range(len(k))} - set(table):  # inside the trie
        with pytest.raises(UsageError, match=f"no image recorded for node '{node}'"):
            m.apply(node)


@pytest.mark.parametrize("entries, message", [
    ({"": "1"}, "the empty node has the non-empty image '1'"),  # a step table emits nothing before its first bit
    ({"0": "", "00": "0"}, "the image of '0' is shorter than it by more than the lag 0"),
])
def test_explicit_table_refuses_an_image_before_the_first_bit_or_past_the_lag(entries, message):
    with pytest.raises(ValueError, match=message):
        ExplicitNodeMap(entries, lag=0)


def test_explicit_walk_ending_between_keys_or_past_them_has_no_image():
    # keys at lengths 9 and 10 only: a count at depth 8 ends on a node that
    # is not a key, one at depth 11 leaves the trie
    state = GameState(schedule=BranchSchedule(depth=12, indices=(2, 4, 6, 8)),
                      maps=[EXPLICIT_D10], requirements=[], depth=12, scan_depth=8)
    for depth in (8, 11):
        with pytest.raises(UsageError, match=f"no image recorded for node '[01]{{{depth}}}'"):
            bad_set(state, Requirement(0, "0"), depth)
    measure = reference_bad_set(state.tree(9), EXPLICIT_D10, "0")[1]
    assert to_number(bad_set(state, Requirement(0, "0"), 9).measure) == measure


@settings(max_examples=100, deadline=None)
@given(counting_cases(), st.integers(0, 2**16))
def test_explicit_table_of_a_transducer_counts_and_classifies_like_it(case, seed):
    """A random transducer's images on the leaves of a tree, as a table:
    every count and halves tally at the tree's depth, and every escape row,
    equal the transducer's own."""
    tree, (t, *_), roots, level = case
    table = ExplicitNodeMap({x: t.apply(x) for x in tree.materialize().leaves}, lag=t.lag)
    for root in roots:
        assert game._count(tree, table, root, level) == game._count(tree, t, root, level)
    cert = certificate_of(tree, tree.selector.layers, tree.depth, [(mi, r) for mi in (0, 1) for r in roots])
    report = verify_escape(tree, [table, t], 300, seed, cert)
    assert report.per_map[0] == {**report.per_map[1], "map": 0, "kind": "explicit"}


def test_explicit_table_without_images_under_escaped_nodes_reports_the_same():
    # prefix parity on every node of the depth-8 tree; the second table drops
    # every node below one whose image already breaks a decided level, which
    # no count on this tree and no escape pass reads
    tree = escape_tree(8)
    levels = tree.selector.decided_levels(tree.schedule)
    nodes = [x for k in range(9) for x in tree._replace(depth=k).materialize().leaves]
    broken = [x for x in nodes if not reference_consistent(tree.selector, reference_transduce(PARITY, x), levels)]
    full = {x: reference_transduce(PARITY, x) for x in nodes}
    pruned = {x: u for x, u in full.items() if not any(x.startswith(b) and x != b for b in broken)}
    assert len(pruned) < len(full)
    maps = [ExplicitNodeMap(table, lag=0) for table in (full, pruned)]
    roots = ("0", "1", "01", "10")
    for root in roots:
        assert game._count(tree, maps[0], root) == game._count(tree, maps[1], root)
    cert = certificate_of(tree, tree.selector.layers, 8, [(0, r) for r in roots])
    reports = [verify_escape(tree, [m], 500, 2, cert).per_map for m in maps]
    assert reports[0] == reports[1]
    assert reports[0][0]["escaped"] and reports[0][0]["undetermined"]
    with pytest.raises(UsageError, match="no image recorded for node"):  # a lookup leaf by leaf still needs the dropped images
        for x in tree.materialize().leaves:
            maps[1].apply(x)


@pytest.mark.parametrize("delta", [
    {(0, 0): (0, "0")},  # the start lacks a move on 1
    {(0, 0): (1, "0"), (0, 1): (0, "1"), (1, 1): (0, "1")},  # a target lacks 0
])
def test_transducer_without_a_move_is_rejected(delta):
    with pytest.raises(ValueError, match="lacks a move"):
        TransducerMap(start=0, delta=delta, lag=0)


def test_transducer_with_non_binary_output_is_rejected():
    with pytest.raises(ValueError, match="not a binary string"):
        TransducerMap(start=0, delta={(0, 0): (0, "0"), (0, 1): (0, "2")}, lag=0)


# -- selector bits ---------------------------------------------------------


@st.composite
def selector_cases(draw):
    depth = draw(st.integers(1, 20))
    binary = st.text(alphabet="01", max_size=depth + 3)
    layer_levels = draw(st.lists(st.integers(0, depth - 1), unique=True, max_size=6))
    layers = [Layer(n, draw(binary), draw(st.integers(0, 1))) for n in layer_levels]
    sel = GameBuiltSelector(layers, default=draw(st.integers(0, 1)))
    # layer levels, other levels and levels at or past a node's end
    levels = sorted(draw(st.sets(st.integers(0, depth + 3))))
    steps = st.tuples(st.integers(0, 9), st.sampled_from("01"))
    nodes = []
    for node_steps in draw(st.lists(st.lists(steps, max_size=depth + 2), max_size=12)):
        # mostly obey the selector, so that nodes survive many levels
        node = ""
        for n, (roll, ch) in enumerate(node_steps):
            node += str(sel.bit(node)) if n in levels and roll else ch
        nodes.append(node)
    return sel, levels, list(enumerate(nodes))


@given(selector_cases())
def test_consistent_matches_per_node_definition(case):
    sel, levels, pairs = case
    for _, node in pairs:
        assert obeys(sel, node, levels) == reference_consistent(sel, node, levels)


# -- verify_escape ---------------------------------------------------------


def reference_verify_escape(tree, maps, samples, seed, certificate=None, predicate=False):
    """The per-sample loop: one apply, compatible and consistent per sample.

    With `predicate`, a certified sample is accounted for when its cut to
    min(scan depth, depth) is a leaf of the certificate's tree there and
    satisfies the per-leaf predicate, with the image read level by level
    against the certificate's layers; the certificate may then come from
    another game than the sampled tree's, or scan deeper than its depth."""
    xs = reference_sample(tree, seed, samples)
    decided = sorted(tree.selector.decided_levels(tree.schedule))
    cert_bad, cut = {}, None if certificate is None else certificate.scan_depth
    if predicate:  # the certificate's tree's leaves that satisfy the predicate
        cut, sel = min(cut, tree.depth), GameBuiltSelector(certificate.layers)
        levels = sorted(sel.decided_levels(tree.schedule))
        leaves = SplittingTree(tree.schedule, sel, cut).materialize().leaves
        cert_bad = {
            (r.map_index, r.root): {
                x for x in leaves if x.startswith(r.root)
                and not compatible(u := maps[r.map_index].apply(x), r.root)
                and reference_consistent(sel, u, levels)
            }
            for r in certificate.requirements
        }
    elif certificate is not None:  # the final bad sets, enumerated
        final = certificate.tree(cut)
        cert_bad = {(r.map_index, r.root): set(reference_bad_set(final, maps[r.map_index], r.root)[0])
                    for r in certificate.requirements}
    per_map = []
    for mi, m in enumerate(maps):
        counts = {"fixed": 0, "escaped": 0, "undetermined": 0, "unaccounted": 0, "uncovered": 0}
        for x in xs:
            u = m.apply(x)
            if compatible(u, x):
                counts["fixed"] += 1
                continue
            if not reference_consistent(tree.selector, u, decided):
                counts["escaped"] += 1
                continue
            counts["undetermined"] += 1
            if certificate is not None:
                p = next(i for i in range(min(len(u), len(x))) if u[i] != x[i])
                key = (mi, x[: p + 1])
                if key not in cert_bad:
                    counts["uncovered"] += 1
                elif x[:cut] not in cert_bad[key]:
                    counts["unaccounted"] += 1
        per_map.append({"map": mi, "kind": m.kind, **counts})
    return per_map


ESCAPE_MAPS = [BitFlipMap(), ShiftMap(), PARITY]


def escape_cases():
    schedule = sparsity_schedule(parse_gauge_spec("power:1/2"), 61)
    tree, cert = run_game(schedule, ESCAPE_MAPS, ["0", "1"], 61, 3)
    seeded = SplittingTree(BranchSchedule(depth=30, indices=tuple(range(1, 30, 3))),
                           SeededSelector(2), 30)
    # a game without roots certifies no requirement: every undetermined
    # sample is uncovered
    _, bare = run_game(schedule, ESCAPE_MAPS, [], 61, 3)
    _, bare_seeded = run_game(seeded.schedule, ESCAPE_MAPS, [], 30, 0)
    # samples of the tree before any stage, against the final bad sets of
    # the played game: images that break its layers are unaccounted
    unplayed, _ = run_game(schedule, ESCAPE_MAPS, ["0", "1"], 61, 0)
    return {"game_d61": (tree, cert), "game_d61_no_certificate": (tree, bare),
            "seeded_d30": (seeded, bare_seeded), "unplayed_tree_d61": (unplayed, cert)}


@pytest.mark.parametrize("count", [1, 255, 256, 257, 1000])
@pytest.mark.parametrize("name", sorted(escape_cases()))
def test_verify_escape_matches_per_sample_loop(name, count):
    tree, cert = escape_cases()[name]
    report = verify_escape(tree, ESCAPE_MAPS, count, seed=5, certificate=cert)
    expected = reference_verify_escape(tree, ESCAPE_MAPS, count, 5, cert)
    assert list(report.per_map) == expected
    assert all(sum(row[k] for k in ("fixed", "escaped", "undetermined")) == count
               for row in report.per_map)
    if name == "unplayed_tree_d61":
        assert sum(row["unaccounted"] for row in expected) > 0
    elif name != "game_d61":
        assert all(row["uncovered"] == row["undetermined"] for row in report.per_map)
    elif count == 1000:
        # every branch of the check is reached
        assert all(row["escaped"] and row["undetermined"] for row in expected[1:])
        assert sum(row["uncovered"] for row in expected) > 0


@pytest.mark.parametrize("selector", [
    SeededSelector(2), ConstantSelector(0), ExplicitSelector({"0": 1, "01": 0, "1011": 1}, default=0),
])
def test_mask_pass_reads_any_selector_through_its_rule(selector):
    # the tree is not game-built: its forced columns and decided levels come
    # from `bit`, and only its samples inside the certificate's tree can be
    # accounted for
    schedule = BranchSchedule(depth=16, indices=(1, 5, 9))
    tree = SplittingTree(schedule, selector, 16)
    roots = [(mi, r) for mi in range(3) for r in ("0", "1", "00", "01", "10", "11")]
    cert = certificate_of(tree, [Layer(5, "1", 0)], 12, roots)
    report = verify_escape(tree, ESCAPE_MAPS, 600, 3, cert)
    assert list(report.per_map) == reference_verify_escape(tree, ESCAPE_MAPS, 600, 3, cert, predicate=True)
    shift = report.per_map[1]
    assert shift["undetermined"] > shift["uncovered"]  # some samples are certified


# -- the mask pass against the per-sample loop ----------------------------


def certificate_of(tree, layers, scan_depth, certified):
    """A certificate holding only what verify_escape reads: the tree's
    schedule, the layers, the scan depth and the certified (map, root)
    requirements."""
    return GameState(schedule=tree.schedule, maps=[], depth=tree.depth, scan_depth=scan_depth,
                     layers=list(layers), requirements=[Requirement(mi, root) for mi, root in certified])


@st.composite
def free_transducers(draw):
    """At most 3 states, every move emitting 0 to 3 bits, so images may run
    short of the sample or outrun it."""
    size = draw(st.integers(1, 3))
    delta = {(q, b): (draw(st.integers(0, size - 1)), draw(st.text(alphabet="01", max_size=3)))
             for q in range(size) for b in (0, 1)}
    return TransducerMap(start=draw(st.integers(0, size - 1)), delta=delta, lag=2)


@st.composite
def escape_property_cases(draw):
    depth = draw(st.integers(1, 40))
    indices = tuple(sorted(draw(st.sets(st.integers(0, depth - 1), max_size=depth // 2 + 1))))
    schedule = BranchSchedule(depth=depth, indices=indices)
    short = st.text(alphabet="01", max_size=3)

    def layers():
        levels = draw(st.permutations(indices))[: draw(st.integers(0, len(indices)))]
        return [Layer(n, draw(short), draw(st.integers(0, 1))) for n in levels]

    maps = draw(st.lists(st.one_of(free_transducers(), transducers(), st.sampled_from(
        [BitFlipMap(), ShiftMap()])), min_size=1, max_size=3))
    tree_layers = layers()
    tree = SplittingTree(schedule, GameBuiltSelector(tree_layers, default=draw(st.integers(0, 1))), depth)
    # the sampled tree's own layers, or those of another game; a scan depth
    # that may pass the tree depth, kept small for the enumerating reference
    cert_layers = tree_layers if draw(st.booleans()) else layers()
    forced = len(indices)
    scan_depth = draw(st.integers(0, min(depth + 3, forced + 10)))
    roots = draw(st.lists(st.text(alphabet="01", min_size=1, max_size=3), max_size=4, unique=True))
    certified = [(mi, r) for mi in range(len(maps)) for r in roots if draw(st.booleans())]
    cert = certificate_of(tree, cert_layers, scan_depth, certified)
    return tree, maps, cert, draw(st.sampled_from([1, 255, 256, 257, 600])), draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(escape_property_cases())
def test_verify_escape_mask_pass_matches_per_sample_loop(case):
    tree, maps, cert, count, seed = case
    report = verify_escape(tree, maps, count, seed, cert)
    assert list(report.per_map) == reference_verify_escape(tree, maps, count, seed, cert, predicate=True)


@settings(max_examples=150, deadline=None)
@given(escape_property_cases(), st.integers(0, 42))
def test_count_weighs_sample_masks_like_the_enumerated_bad_set(case, level):
    """Weighed by a mask of the sampled rows, `_count` on the certificate's
    tree keeps exactly the rows whose cut to the scan depth is a leaf of the
    enumerated bad set, split by their image bit at `level`: a row outside
    that tree, whose certificate may come from another game, drops out."""
    tree, maps, cert, count, seed = case
    cut = min(cert.scan_depth, tree.depth)
    final = cert.tree(cut)
    cols, rows = Columns(tree, seed, count), reference_sample(tree, seed, count)
    for start in (cols.full, random.Random(seed).getrandbits(count)):
        for rep in cert.requirements:
            m = maps[rep.map_index]
            leaves = set(reference_bad_set(final, m, rep.root)[0])
            expected = dict.fromkeys(("0", "1", None), 0)
            for i, x in enumerate(rows):
                bit = 1 << (count - 1 - i)
                if start & bit and x[:cut] in leaves:
                    u = m.apply(x[:cut])
                    expected[u[level] if level < len(u) else None] |= bit
            assert game._count(final, m, rep.root, level, (cols, start)) == expected


ESCAPE_SCHEDULE = sparsity_schedule(parse_gauge_spec("power:1/2"), 24)  # forced: odd levels


def escape_tree(depth=24):
    layers = [Layer(1, "1", 1), Layer(5, "01", 0), Layer(9, "0", 1)]
    return SplittingTree(ESCAPE_SCHEDULE, GameBuiltSelector(layers, default=0), depth)


def test_identity_map_fixes_every_sample_to_the_full_depth():
    tree = escape_tree()
    cert = certificate_of(tree, tree.selector.layers, 12, [(0, "0"), (0, "1")])
    maps = [IDENTITY]
    (row,) = verify_escape(tree, maps, 300, 4, cert).per_map
    assert row == {"map": 0, "kind": "transducer", "fixed": 300, "escaped": 0,
                   "undetermined": 0, "unaccounted": 0, "uncovered": 0}
    assert [row] == reference_verify_escape(tree, maps, 300, 4, cert)


def test_doubling_map_matches_per_sample_loop():
    # every bit twice: the image outruns the sample, and leaves it at the
    # first bit that differs from the one before it
    doubling = TransducerMap(start=0, delta={(0, 0): (0, "00"), (0, 1): (0, "11")}, lag=8)
    layers = [Layer(3, "0", 1), Layer(6, "00", 1)]
    tree = SplittingTree(BranchSchedule(depth=8, indices=(3, 6)), GameBuiltSelector(layers, default=1), 8)
    cert = certificate_of(tree, layers, 6, [(0, "01"), (0, "10"), (0, "0110"), (0, "1001")])
    report = verify_escape(tree, [doubling], 600, 9, cert)
    assert list(report.per_map) == reference_verify_escape(tree, [doubling], 600, 9, cert)
    (row,) = report.per_map
    assert all(row[k] for k in ("fixed", "escaped", "unaccounted", "uncovered"))


def test_a_scan_deeper_than_the_tree_cuts_samples_at_its_depth():
    # the shift image of a depth-6 sample stops short of the decided level
    # 5; a sample read past the depth would put a level-6 bit there
    tree = SplittingTree(BranchSchedule(depth=6, indices=(1, 5)),
                         GameBuiltSelector([Layer(5, "1", 1)], default=0), 6)
    roots = [(0, r) for r in ("0", "1", "00", "01", "10", "11")]
    reports = [verify_escape(tree, [ShiftMap()], 300, 1, certificate_of(tree, tree.selector.layers, d, roots))
               for d in (6, 9)]
    assert reports[0].per_map == reports[1].per_map
    cert = certificate_of(tree, tree.selector.layers, 9, roots)
    assert list(reports[1].per_map) == reference_verify_escape(tree, [ShiftMap()], 300, 1, cert, predicate=True)
    (row,) = reports[1].per_map
    assert row["undetermined"] > row["uncovered"] > 0 and not row["unaccounted"]


def test_explicit_table_of_a_transducer_classifies_like_it():
    # an image for every leaf of the depth-8 tree: prefix parity as a table,
    # next to the same map as a transducer, both on the mask pass
    tree = escape_tree(8)
    leaves = tree.materialize().leaves
    table = ExplicitNodeMap({x: reference_transduce(PARITY, x) for x in leaves}, lag=0)
    certified = [(mi, r) for mi in (0, 1) for r in ("0", "1", "01", "10")]
    cert = certificate_of(tree, tree.selector.layers, 8, certified)
    report = verify_escape(tree, [table, PARITY], 500, 2, cert)
    assert list(report.per_map) == reference_verify_escape(tree, [table, PARITY], 500, 2, cert)
    assert report.per_map[0] == {**report.per_map[1], "map": 0, "kind": "explicit"}
    assert report.per_map[0]["undetermined"]


def test_a_row_outside_the_certificates_tree_is_unaccounted():
    # the sampled tree keeps 1 at the forced level 0, where the certificate's
    # tree (no layers, default 0) keeps 0: each sample's root "1" is
    # certified, yet no cut row is a leaf of the certificate's tree
    tree = SplittingTree(BranchSchedule(depth=8, indices=(0, 1, 2, 3, 4)),
                         GameBuiltSelector([Layer(1, "0", 0)], default=1), 8)
    cert = certificate_of(tree, (), 1, [(0, "1")])
    report = verify_escape(tree, [BitFlipMap()], 5, 0, cert)
    assert report.per_map[0]["undetermined"] == report.per_map[0]["unaccounted"] == 5
    assert list(report.per_map) == reference_verify_escape(tree, [BitFlipMap()], 5, 0, cert, predicate=True)
    # with level 0 free, the roots "0" and "1" pass, but every row keeps 1 at
    # the forced level 2 where the certificate's tree keeps 0: no row cut to
    # depth 3 is a leaf there, though with 0 at level 2 it would be a bad one
    tree = SplittingTree(BranchSchedule(depth=8, indices=(1, 2, 3, 4)), tree.selector, 8)
    cert = certificate_of(tree, (), 3, [(0, "0"), (0, "1")])
    report = verify_escape(tree, [BitFlipMap()], 50, 0, cert)
    assert report.per_map[0]["undetermined"] == report.per_map[0]["unaccounted"] == 50
    assert list(report.per_map) == reference_verify_escape(tree, [BitFlipMap()], 50, 0, cert, predicate=True)


@pytest.mark.parametrize("tree", [escape_tree(), SplittingTree(ESCAPE_SCHEDULE, SeededSelector(3), 24)])
def test_verify_escape_refuses_zero_samples(tree):
    cert = certificate_of(tree, (), 12, [(0, "0")])
    with pytest.raises(ValueError, match="count must be >= 1"):
        verify_escape(tree, [BitFlipMap()], 0, 0, cert)
