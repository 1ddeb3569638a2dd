"""Antichain-forcing game: bad sets, halving stages, certificates, escape."""

import itertools
import json
from fractions import Fraction

import pytest
from fraction_oracles import IDENTITY, parse_dyadic, reference_contains
from hypothesis import given, settings
from hypothesis import strategies as st
from test_scan_cache import MAPS, transducers

from gaugetree import (
    BitFlipMap,
    BranchSchedule,
    GameState,
    Requirement,
    ShiftMap,
    SplittingTree,
    TransducerMap,
    bad_set,
    run_game,
    stage_step,
    verify_escape,
)
from gaugetree.errors import InfeasibleError
from gaugetree.game import ExplicitNodeMap, map_from_json_dict
from gaugetree.tree import compatible


def make_state(indices, depth, maps, roots, scan_depth):
    sched = BranchSchedule(depth=depth, indices=tuple(sorted(indices)), n0=0)
    reqs = [Requirement(i, r) for i in range(len(maps)) for r in roots]
    return GameState(
        schedule=sched, maps=list(maps), requirements=reqs,
        depth=depth, scan_depth=scan_depth,
    ).open()


# -- maps -------------------------------------------------------------------


def test_map_basics():
    assert BitFlipMap().apply("0110") == "1001"
    assert ShiftMap().apply("0110") == "110"
    assert IDENTITY.apply("0110") == "0110"


def test_transducer_custom():
    # duplicate every bit; lag grows with length, bounded here by input size
    t = TransducerMap(start=0, delta={(0, 0): (0, "00"), (0, 1): (0, "11")}, lag=4)
    assert t.apply("01") == "0011"


def test_explicit_map_monotone_validation():
    ExplicitNodeMap({"0": "1", "01": "10"}, lag=0)
    with pytest.raises(ValueError):
        ExplicitNodeMap({"0": "1", "01": "01"}, lag=0)


# each kind as a `--maps` file holds it; maps are only read
MAP_JSON = {
    "bit_flip": {"kind": "bit_flip"},
    "shift": {"kind": "shift"},
    "transducer": {"kind": "transducer", "start": 0, "delta": [[0, 0, 0, "0"], [0, 1, 0, "1"]], "lag": 0},
    "explicit": {"kind": "explicit", "entries": [["0", "1"], ["01", "10"]], "lag": 0},
}


def test_map_json_round_trips():
    """Each kind reads back as the map it names."""
    for kind, m in [
        ("bit_flip", BitFlipMap()),
        ("shift", ShiftMap()),
        ("transducer", IDENTITY),
        ("explicit", ExplicitNodeMap({"0": "1", "01": "10"}, lag=0)),
    ]:
        back = map_from_json_dict(json.loads(json.dumps(MAP_JSON[kind])))
        assert (type(back), back.kind, back.lag) == (type(m), m.kind, m.lag)
        node = "01" if kind == "explicit" else "0101"
        assert back.apply(node) == m.apply(node)
    with pytest.raises(ValueError, match="unknown map kind"):
        map_from_json_dict({"kind": "warp"})


@pytest.mark.parametrize("lag", [0.5, 1.0, True, "1", -3])
@pytest.mark.parametrize("kind", ["transducer", "explicit"])
def test_map_lag_must_be_a_non_negative_integer(kind, lag):
    with pytest.raises(ValueError, match="not an integer"):
        map_from_json_dict({**MAP_JSON[kind], "lag": lag})


# -- bad sets ---------------------------------------------------------------


def bad_set_oracle(state, req, d):
    """Independent enumeration straight from the definitions."""
    m = state.maps[req.map_index]
    sel = state.tree().selector
    decided = {l.level for l in state.layers}
    forced = set(state.schedule.indices)
    out = []
    for bits in itertools.product("01", repeat=d):
        t = "".join(bits)
        if any(n < d and int(t[n]) != sel.bit(t[:n]) for n in forced):
            continue
        if not t.startswith(req.root):
            continue
        u = m.apply(t)
        if u.startswith(req.root) or req.root.startswith(u):
            continue
        if any(
            n in decided and n < len(u) and int(u[n]) != sel.bit(u[:n])
            for n in forced
        ):
            continue
        out.append(t)
    cnt = sum(1 for n in forced if n < d)
    return tuple(sorted(out)), len(out) * Fraction(1, 2 ** (d - cnt))


def test_bad_set_matches_oracle():
    maps = [BitFlipMap(), ShiftMap(), IDENTITY]
    for indices in [set(), {1, 3}, {0, 2, 4}, {2}]:
        state = make_state(indices, 8, maps, ["0", "1", "01"], scan_depth=6)
        for req in state.requirements:
            got = bad_set(state, req, 6)
            leaves, measure = bad_set_oracle(state, req, 6)
            assert len(got.leaves) == len(leaves)
            assert got.measure == measure


def test_bad_set_identity_map_empty():
    state = make_state({1, 3}, 8, [IDENTITY], ["0"], 6)
    b = bad_set(state, state.requirements[0])
    assert len(b.leaves) == 0
    assert b.measure == 0


def test_stage_halves_exactly():
    state = make_state({1, 3, 5, 7}, 16, [BitFlipMap()], ["1"], 10)
    initial = state.initial[0]
    assert initial > 0
    stage_step(state, state.requirements[0])
    assert state.bound(0) == initial / 2
    assert bad_set(state, state.requirements[0]).measure <= initial / 2
    stage_step(state, state.requirements[0])
    assert state.bound(0) == initial / 4
    assert state.stages == [2]


def test_stage_noop_consumes_no_level():
    state = make_state({1, 3}, 8, [IDENTITY], ["0"], 6)
    stage_step(state, state.requirements[0])
    assert state.layers == []
    assert state.bound(0) == 0


def test_run_game_certificate_bounds():
    sched = BranchSchedule(depth=64, indices=tuple(range(1, 64, 2)), n0=0)
    tree, cert = run_game(
        sched, [BitFlipMap(), ShiftMap()], ["0", "1"], depth=64,
        stages_per_requirement=5,
    )
    assert len(cert.stage_log) == 20
    for key, req in enumerate(cert.requirements):
        assert cert.bound(key) == cert.initial[key] / 2**5
        assert bad_set(cert, req).measure <= cert.bound(key)
    # decided levels form a subset of the schedule, one layer per level
    levels = [l.level for l in cert.layers]
    assert len(levels) == len(set(levels))
    assert set(levels) <= set(sched.indices)


def test_run_game_infeasible():
    sched = BranchSchedule(depth=8, indices=(1, 3), n0=0)
    with pytest.raises(InfeasibleError):
        run_game(sched, [ShiftMap()], ["1"], depth=8, stages_per_requirement=5)


@pytest.mark.parametrize("roots", [["0", "0"], ["1", "0", "1"], ["", ""], ["2"], ["0", "1a"]])
def test_run_game_rejects_duplicate_or_non_binary_roots(roots):
    sched = BranchSchedule(depth=16, indices=(1, 3), n0=0)
    with pytest.raises(ValueError):
        run_game(sched, [BitFlipMap()], roots, 16, 1)


@pytest.mark.parametrize("stages, ok", [(-1, False), (-7, False), (0, True), (1, True)])
def test_run_game_checks_stage_count(stages, ok):
    sched = BranchSchedule(depth=16, indices=(1, 3, 5), n0=0)
    if not ok:
        with pytest.raises(ValueError, match="negative stage count"):
            run_game(sched, [BitFlipMap()], ["0", "1"], 16, stages)
        return
    _, cert = run_game(sched, [BitFlipMap()], ["0", "1"], 16, stages)
    assert cert.to_json_dict()["stages_executed"] == 2 * stages


def test_run_game_deterministic():
    sched = BranchSchedule(depth=32, indices=tuple(range(1, 32, 2)), n0=0)
    _, c1 = run_game(sched, [BitFlipMap()], ["0", "1"], 32, 3)
    _, c2 = run_game(sched, [BitFlipMap()], ["0", "1"], 32, 3)
    assert c1.to_json_dict() == c2.to_json_dict()


@st.composite
def small_games(draw):
    """A random schedule to depth 20, a random lag-2 transducer and maybe a
    fixed map, roots up to length 3 and 1 to 3 stages each."""
    depth = draw(st.integers(4, 20))
    indices = sorted(draw(st.sets(st.integers(0, depth - 1), min_size=1, max_size=depth // 2 + 1)))
    maps = [draw(transducers()), *draw(st.lists(st.sampled_from(sorted(MAPS)).map(MAPS.get), max_size=1))]
    roots = draw(st.lists(st.text(alphabet="01", min_size=1, max_size=3), min_size=1, max_size=3, unique=True))
    return BranchSchedule(depth=depth, indices=tuple(indices), n0=0), maps, roots, depth, draw(st.integers(1, 3))


@settings(max_examples=100)
@given(small_games())
def test_certificate_agrees_with_its_stage_log(case):
    """Read from the JSON alone: each requirement's stages are its log
    entries, its final bound is initial / 2^stages and its last entry's
    bound, and the layers are the log's staged levels in order."""
    try:
        _, cert = run_game(*case)
    except InfeasibleError:
        return
    doc = json.loads(json.dumps(cert.to_json_dict()))
    log = doc["stage_log"]
    assert doc["stages_executed"] == len(log)
    for r in doc["requirements"]:
        entries = [e for e in log if (e["map"], e["root"]) == (r["map"], r["root"])]
        assert r["stages"] == len(entries)
        assert parse_dyadic(r["final_bound"]) == parse_dyadic(r["initial"]) / 2 ** r["stages"]
        assert r["final_bound"] == entries[-1]["bound"]
    assert doc["layers"] == [[e["level"], e["root"], e["chosen_bit"]] for e in log if e["level"] is not None]


# -- escape verification ----------------------------------------------------


def test_verify_escape_identity_all_fixed():
    sched = BranchSchedule(depth=16, indices=(1, 3), n0=0)
    tree, cert = run_game(sched, [IDENTITY], ["0"], 16, 2)
    rep = verify_escape(tree, [IDENTITY], 200, seed=0, certificate=cert)
    assert rep.per_map[0]["fixed"] == 200
    assert rep.per_map[0]["unaccounted"] == 0


def test_verify_escape_flip_counts_consistent():
    sched = BranchSchedule(depth=32, indices=tuple(range(1, 32, 2)), n0=0)
    tree, cert = run_game(sched, [BitFlipMap()], ["0", "1"], 32, 4)
    rep = verify_escape(tree, [BitFlipMap()], 500, seed=7, certificate=cert)
    row = rep.per_map[0]
    assert row["fixed"] + row["escaped"] + row["undetermined"] == 500
    assert row["unaccounted"] == 0
    assert row["uncovered"] == 0
    # a branch and its flip differ at position 0, so nothing is fixed
    assert row["fixed"] == 0


def test_verify_escape_sampled_images_really_escape():
    # independent spot check: "escaped" means the image leaves the tree
    sched = BranchSchedule(depth=32, indices=tuple(range(1, 32, 2)), n0=0)
    tree, cert = run_game(sched, [BitFlipMap()], ["0", "1"], 32, 4)
    m = BitFlipMap()
    for x in tree.sample(3, 100):
        u = m.apply(x)
        if not compatible(u, x):
            in_tree_prefix = reference_contains(tree, u)
            decided = set(tree.selector.decided_levels(tree.schedule))
            escaped = any(
                n < len(u) and int(u[n]) != tree.selector.bit(u[:n]) for n in decided
            )
            if escaped:
                assert not in_tree_prefix
