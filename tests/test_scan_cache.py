"""The game's fast kernels against full-recomputation references: after
every stage, each requirement's bad set must equal a scan that materialises
the frontier and applies every map afresh; the block-wise sampler, the
chunked transducer and the per-layer consistency test must match their
per-bit, per-character and per-level definitions.  The list kernels must
match their per-element forms: `apply_all` against `apply` and a
per-character definition of each map, `keep_consistent` against the
per-node `consistent` filter, and the block-wise `verify_escape` against
the per-sample loop it replaced."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaugetree import (
    BitFlipMap,
    BranchSchedule,
    BranchSelector,
    ConstantSelector,
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
from gaugetree.cli import parse_gauge_spec
from gaugetree.errors import UndefinedNodeError
from gaugetree.game import ExplicitNodeMap
from gaugetree.tree import SAMPLE_BLOCK, check_node, compatible

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


def reference_leaves(tree, d):
    """Depth-d strings that obey the selector at every forced level."""
    forced = set(tree.schedule.indices)
    return tuple(
        node
        for node in ("".join(bits) for bits in itertools.product("01", repeat=d))
        if all(int(node[n]) == tree.selector.bit(node[:n]) for n in range(d) if n in forced)
    )


def reference_transduce(t, node):
    state, out = t.start, []
    for ch in node:
        state, emitted = t.delta[state, int(ch)]
        out.append(emitted)
    return "".join(out)


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


def test_bad_set_memo_dropped_with_its_frontier():
    # scan depth d, then d - 1, then d again, with a layer appended between
    # rounds: every call sees a frontier other than the previous call's
    schedule = BranchSchedule(depth=12, indices=(2, 4, 6, 8), n0=0)
    reqs = [Requirement(0, "0"), Requirement(0, "1"), Requirement(1, "0"), Requirement(2, "01")]
    state = GameState(
        schedule=schedule, maps=[BitFlipMap(), ShiftMap(), PARITY],
        requirements=reqs, depth=12, scan_depth=10,
    )
    d = state.scan_depth
    seen = set()
    for layer in [None, Layer(4, "1", 1), Layer(2, "0", 1), Layer(8, "11", 1)]:
        if layer is not None:
            state.layers.append(layer)
        for depth in (d, d - 1, d):
            for req in reqs:
                got = bad_set(state, req, depth)
                assert got.depth == depth
                assert (got.leaves, got.measure) == reference_bad_set(state, req, depth)
                # a repeat on the unchanged tree is served from the memo
                assert bad_set(state, req, depth) is got
                seen.add((req, depth, got.leaves))
    # the layers change the bad sets, so a stale memo would show
    assert len(seen) > 2 * len(reqs)


def flip_shift_parity_state():
    schedule = BranchSchedule(depth=12, indices=(2, 4, 6, 8), n0=0)
    return GameState(
        schedule=schedule, maps=[BitFlipMap(), ShiftMap(), PARITY],
        requirements=[Requirement(0, "0"), Requirement(1, "1"), Requirement(2, "01")],
        depth=12, scan_depth=10,
    )


def test_default_bit_layer_keeps_frontier_and_drops_memo():
    state = flip_shift_parity_state()
    req = Requirement(0, "0")
    before = bad_set(state, req)
    frontier = state.frontier(state.scan_depth)
    # the flipped images start with "1", so they reach level 4 inside the
    # layer's root and get the default 0 there, against their own bit 1
    state.layers.append(Layer(4, "1", 0))
    after = bad_set(state, req)
    assert state.frontier(state.scan_depth) is frontier
    assert before.leaves and not after.leaves
    assert_scans_match(state)


def test_non_default_layer_rematerialises_frontier():
    state = flip_shift_parity_state()
    assert_scans_match(state)
    frontier = state.frontier(state.scan_depth)
    state.layers.append(Layer(6, "1", 1))  # leaves under "0" now carry 1 at level 6
    assert state.frontier(state.scan_depth) is not frontier
    assert state.frontier(state.scan_depth) != frontier
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
    tree, cert = run_game(schedule, maps, roots, depth, stages, scan_depth=scan_depth)
    assert cert.scan_depth > scan_depth
    state = GameState(
        schedule=schedule, maps=list(maps),
        requirements=[Requirement(r.map_index, r.root) for r in cert.requirements],
        depth=depth, scan_depth=cert.scan_depth, layers=list(cert.layers),
    )
    for rep, req in zip(cert.requirements, state.requirements):
        leaves, measure = reference_bad_set(state, req)
        assert rep.final_bad.depth == cert.scan_depth
        assert (rep.final_bad.leaves, rep.recomputed) == (leaves, measure)
    # samples are cut to the final scan depth before the bad-set lookup
    report = verify_escape(tree, maps, 2000, seed=4, certificate=cert)
    certified = sum(m["undetermined"] - m["uncovered"] for m in report.per_map)
    assert certified > 0
    assert all(m["unaccounted"] == 0 for m in report.per_map)


# every requirement's bad set after each hand-appended layer of either bit

MAPS = {"bit_flip": BitFlipMap(), "shift": ShiftMap(), "parity": PARITY,
        "identity": TransducerMap.identity()}
binary = st.text(alphabet="01", max_size=4)


@st.composite
def games(draw):
    depth = draw(st.integers(3, 10))
    indices = sorted(draw(st.sets(st.integers(0, depth - 1), max_size=depth // 2 + 1)))
    maps = [MAPS[k] for k in draw(st.lists(st.sampled_from(sorted(MAPS)), min_size=1, max_size=3))]
    roots = draw(st.lists(binary, min_size=1, max_size=3, unique=True))
    state = GameState(
        schedule=BranchSchedule(depth=depth, indices=tuple(indices), n0=0), maps=maps,
        requirements=[Requirement(i, r) for i in range(len(maps)) for r in roots],
        depth=depth, scan_depth=draw(st.integers(1, depth)),
        default_bit=draw(st.integers(0, 1)),
    )
    levels = draw(st.permutations(indices))[: draw(st.integers(0, len(indices)))]
    layers = [Layer(n, draw(binary), draw(st.integers(0, 1))) for n in levels]
    return state, layers


@given(games())
def test_bad_set_matches_reference_after_each_appended_layer(game):
    state, layers = game
    d = state.scan_depth
    for layer in [None, *layers]:
        if layer is not None:
            state.layers.append(layer)
        for depth in (d, d - 1, d):
            assert_scans_match(state, depth)


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
            BranchSchedule(depth=12, indices=tuple(range(12)), n0=0), SeededSelector(4), 12
        ),
        "no_forced_levels": SplittingTree(
            BranchSchedule(depth=40, indices=(), n0=0), ConstantSelector(0), 40
        ),
    }


@pytest.mark.parametrize("count", [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 1000])
@pytest.mark.parametrize("name", sorted(block_edge_trees()))
def test_sample_matches_per_bit_reference_across_blocks(name, count):
    tree = block_edge_trees()[name]
    got = tree.sample(3, count)
    assert got == reference_sample(tree, 3, count)
    if name == "game_built_long_root" and count == 1000:
        assert {x[7] for x in got} == {"0", "1"}


@pytest.mark.parametrize("name", sorted(block_edge_trees()))
def test_materialize_matches_per_bit_reference(name):
    tree = block_edge_trees()[name]
    for d in (0, 9, 12):
        assert tree.materialize(d).leaves == reference_leaves(tree, d)


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
    t.apply("0" * 32)  # fill the chunk table first
    with pytest.raises(ValueError):
        t.apply(node)


# -- selector consistency --------------------------------------------------


def test_game_built_consistent_matches_base_loop():
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
            expected = BranchSelector.consistent(sel, node, levels)
            assert sel.consistent(node, levels) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}
    assert long_roots > 0


# -- apply_all -------------------------------------------------------------

STUTTER_MAP = TransducerMap(start="a", delta=STUTTER, lag=300)
# every node up to length 6 with its prefix-parity image: monotone
EXPLICIT = ExplicitNodeMap(
    {n: reference_transduce(PARITY, n)
     for k in range(7) for n in map("".join, itertools.product("01", repeat=k))},
    lag=0,
)

REFERENCES = {
    "bit_flip": (BitFlipMap(), lambda n: "".join("1" if c == "0" else "0" for c in n)),
    "shift": (ShiftMap(), lambda n: n[1:]),
    "parity": (PARITY, lambda n: reference_transduce(PARITY, n)),
    "stutter": (STUTTER_MAP, lambda n: reference_transduce(STUTTER_MAP, n)),
    "identity": (TransducerMap.identity(), lambda n: n),
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
        images = m.apply_all(nodes)
        assert images == [m.apply(n) for n in nodes] == [reference(n) for n in nodes]


@pytest.mark.parametrize("name", sorted(REFERENCES))
@pytest.mark.parametrize("bad", ["2", "0000000012", "01010101" * 3 + "x", "0" * 16 + " ", "٠١"])
def test_apply_all_rejects_non_binary_like_apply(name, bad):
    m, _ = REFERENCES[name]
    m.apply_all(node_lists(name == "explicit")[-1])  # the map has been used
    with pytest.raises(ValueError, match="not a binary string"):
        m.apply(bad)
    with pytest.raises(ValueError, match="not a binary string"):
        m.apply_all(["0", bad, "1"])


def test_explicit_apply_all_reports_the_missing_node():
    with pytest.raises(UndefinedNodeError, match="'0000000'"):
        EXPLICIT.apply_all(["0", "0000000", "1"])


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


# -- keep_consistent -------------------------------------------------------


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
def test_keep_consistent_matches_per_node_filter(case):
    sel, levels, pairs = case
    expected = [p for p in pairs if BranchSelector.consistent(sel, p[1], levels)]
    assert sel.keep_consistent(pairs, levels) == expected
    assert BranchSelector.keep_consistent(sel, pairs, levels) == expected
    assert sel.keep_consistent(tuple(pairs), levels) == expected


# -- verify_escape ---------------------------------------------------------


def reference_verify_escape(tree, maps, samples, seed, certificate=None):
    """The per-sample loop: one apply, compatible and consistent per sample."""
    xs = tree.sample(seed, samples)
    decided = sorted(tree.selector.decided_levels(tree.schedule))
    consistent = tree.selector.consistent
    cert_bad = {
        (r.map_index, r.root): set(r.final_bad.leaves)
        for r in (certificate.requirements if certificate is not None else ())
    }
    per_map = []
    for mi, m in enumerate(maps):
        counts = {"fixed": 0, "escaped": 0, "undetermined": 0, "unaccounted": 0, "uncovered": 0}
        for x in xs:
            u = m.apply(x)
            if compatible(u, x):
                counts["fixed"] += 1
                continue
            if not consistent(u, decided):
                counts["escaped"] += 1
                continue
            counts["undetermined"] += 1
            if certificate is not None:
                p = next(i for i in range(min(len(u), len(x))) if u[i] != x[i])
                key = (mi, x[: p + 1])
                if key not in cert_bad:
                    counts["uncovered"] += 1
                elif x[: certificate.scan_depth] not in cert_bad[key]:
                    counts["unaccounted"] += 1
        per_map.append({"map": mi, "kind": m.kind, **counts})
    return per_map


ESCAPE_MAPS = [BitFlipMap(), ShiftMap(), PARITY]


def escape_cases():
    schedule = sparsity_schedule(parse_gauge_spec("power:1/2"), 61)
    tree, cert = run_game(schedule, ESCAPE_MAPS, ["0", "1"], 61, 3)
    seeded = SplittingTree(BranchSchedule(depth=30, indices=tuple(range(1, 30, 3)), n0=0),
                           SeededSelector(2), 30)
    return {"game_d61": (tree, cert), "game_d61_no_certificate": (tree, None),
            "seeded_d30": (seeded, None)}


@pytest.mark.parametrize("count", [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 1000])
@pytest.mark.parametrize("name", sorted(escape_cases()))
def test_verify_escape_matches_per_sample_loop(name, count):
    tree, cert = escape_cases()[name]
    report = verify_escape(tree, ESCAPE_MAPS, count, seed=5, certificate=cert)
    expected = reference_verify_escape(tree, ESCAPE_MAPS, count, 5, cert)
    assert list(report.per_map) == expected
    assert all(sum(row[k] for k in ("fixed", "escaped", "undetermined")) == count
               for row in report.per_map)
    if name == "game_d61" and count == 1000:
        # every branch of the check is reached
        assert all(row["escaped"] and row["undetermined"] for row in expected[1:])
        assert sum(row["uncovered"] for row in expected) > 0
