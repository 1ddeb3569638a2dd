"""Finite-stage antichain forcing against a family of monotone node maps.

The construction decides the selector one forced level at a time.  At each
stage the current "bad" leaves (those whose image under an adversary map is
still consistent with the tree) are split by the image bit at a fresh forced
level, the thinner half is kept alive, and the other is killed by the level
assignment.  All measures are exact dyadic rationals, so the halving
guarantee in the certificate is an equality, not an estimate.

Every bad-set scan reads one cached frontier: the sorted leaves of the tree
at the scan depth, kept on the `GameState`.  The frontier key is the tree's,
not the layer list's: the layers whose bit differs from the default, plus the
scan depth.  A default-bit layer leaves the tree unchanged, so appending one
keeps the frontier.  Beside the frontier sit the candidate lists, one per
requirement: the (leaf, image) pairs above the root whose image is
incompatible with the root, dropped with the frontier.  A bad set is the
candidates whose image is consistent with every decided level.  It is
memoised per requirement under a key of all the layers plus the scan depth,
so every in-stage check and non-interference rescan filters afresh against
the current selector.

The hot loops run over whole lists: `TreeMap.apply_all` maps a list with
one kernel per map kind, `BranchSelector.keep_consistent` filters one
decided level at a time, and `verify_escape` takes its samples in blocks of
SAMPLE_BLOCK, so that only one block of images is held at a time.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .dyadic import format_dyadic
from .errors import (
    DepthExhaustedError,
    GameInvariantError,
    InfeasibleError,
    UndefinedNodeError,
)
from .gauge import BranchSchedule
from .tree import (
    SAMPLE_BLOCK,
    GameBuiltSelector,
    Layer,
    SplittingTree,
    check_node,
)

DEFAULT_SCAN_DEPTH_BUDGET = 2**12
MAX_SCAN_LEAVES = 2**18


# ---------------------------------------------------------------------------
# adversary maps


class TreeMap:
    """Monotone map on finite binary strings with a bounded length lag."""

    kind = "abstract"
    lag = 0

    def apply_all(self, nodes: Sequence[str]) -> List[str]:
        """Each node's image, after one `check_node` on the nodes' join."""
        raise NotImplementedError

    def apply(self, node: str) -> str:
        return self.apply_all([node])[0]

    def to_json_dict(self) -> dict:
        raise NotImplementedError


_FLIP = str.maketrans("01", "10")


@dataclass(frozen=True)
class BitFlipMap(TreeMap):
    kind = "bit_flip"
    lag = 0

    def apply_all(self, nodes: Sequence[str]) -> List[str]:
        check_node("".join(nodes))
        return [node.translate(_FLIP) for node in nodes]

    def to_json_dict(self) -> dict:
        return {"kind": "bit_flip"}


@dataclass(frozen=True)
class ShiftMap(TreeMap):
    kind = "shift"
    lag = 1

    def apply_all(self, nodes: Sequence[str]) -> List[str]:
        check_node("".join(nodes))
        return [node[1:] for node in nodes]

    def to_json_dict(self) -> dict:
        return {"kind": "shift"}


class TransducerMap(TreeMap):
    """Finite-state transducer: each input bit moves the state and emits an
    output chunk.  `lag` must bound |len(output) - len(input)| over prefixes;
    `__init__` does not check that (see `min_drift`).  Every move must read a
    bit 0 or 1, the start and every target state need a move on both, and
    every output chunk must be binary, else `__init__` raises ValueError."""

    kind = "transducer"

    def __init__(self, start, delta: Dict[Tuple[object, int], Tuple[object, str]], lag: int):
        self.start = start
        self.delta = dict(delta)
        self.lag = int(lag)
        if any(b not in (0, 1) for _, b in self.delta):
            raise ValueError("a transducer move must read the bit 0 or 1")
        states = self._states = {start, *(s2 for s2, _ in self.delta.values())}
        for s in states:
            if (s, 0) not in self.delta or (s, 1) not in self.delta:
                raise ValueError(f"transducer state {s!r} lacks a move on 0 or 1")
        check_node("".join(out for _, out in self.delta.values()))
        step = self._step = {(s, str(b)): move for (s, b), move in self.delta.items()}
        # the chunk table: state -> its 256 byte moves (row of the next
        # state, output, next state), indexed by the byte read high bit first
        self._rows = {s: [] for s in states}
        for s, row in self._rows.items():
            moves = [(s, "")]  # after k rounds: the moves on each k-bit string
            for _ in range(8):
                moves = [(t, out + e) for r, out in moves for t, e in (step[r, "0"], step[r, "1"])]
            row.extend((self._rows[t], out, t) for t, out in moves)

    def _run(self, state, bits: str) -> Tuple[object, str]:
        step = self._step
        out = []
        for ch in bits:
            state, emitted = step[state, ch]
            out.append(emitted)
        return state, "".join(out)

    def apply_all(self, nodes: Sequence[str]) -> List[str]:
        """Whole bytes of each node step through the chunk table, the tail
        of fewer than 8 characters through `_run`."""
        check_node("".join(nodes))
        start, images = self._rows[self.start], []
        for node in nodes:
            row, state, out = start, self.start, []
            full = len(node) - len(node) % 8
            if full:
                for byte in int(node[:full], 2).to_bytes(full // 8, "big"):
                    row, emitted, state = row[byte]
                    out.append(emitted)
            if full < len(node):
                out.append(self._run(state, node[full:])[1])
            images.append("".join(out))
        return images

    def min_drift(self, depth: int) -> int:
        """min of len(image) - len(input) over the inputs of length <= depth
        (0 for the empty input), by a per-state minimum over one more input
        bit at a time: O(depth × moves), or less once that minimum repeats."""
        drift = dict.fromkeys(self._states, 0)  # per state, over inputs of the current length
        least = 0
        for _ in range(depth):
            longer = {
                s: min(len(out) - 1 + drift[t] for t, out in (self.delta[s, 0], self.delta[s, 1]))
                for s in self._states
            }
            if longer == drift:  # a fixed point: every longer input drifts the same
                break
            drift = longer
            least = min(least, drift[self.start])
        return least

    @staticmethod
    def identity() -> "TransducerMap":
        return TransducerMap(start=0, delta={(0, 0): (0, "0"), (0, 1): (0, "1")}, lag=0)

    def to_json_dict(self) -> dict:
        return {
            "kind": "transducer",
            "start": self.start,
            "delta": [[s, b, s2, out] for (s, b), (s2, out) in sorted(
                self.delta.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
            )],
            "lag": self.lag,
        }

    def __eq__(self, other):
        return (
            isinstance(other, TransducerMap)
            and self.start == other.start
            and self.delta == other.delta
            and self.lag == other.lag
        )


class ExplicitNodeMap(TreeMap):
    kind = "explicit"

    def __init__(self, entries: Dict[str, str], lag: int):
        self.entries = {check_node(k): check_node(v) for k, v in entries.items()}
        self.lag = int(lag)
        keys = sorted(self.entries, key=len)
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                if b.startswith(a) and not self.entries[b].startswith(self.entries[a]):
                    raise ValueError(f"map entries not monotone at {a!r} < {b!r}")

    def apply_all(self, nodes: Sequence[str]) -> List[str]:
        check_node("".join(nodes))
        try:
            return [self.entries[node] for node in nodes]
        except KeyError as err:
            raise UndefinedNodeError(f"no image recorded for node {err.args[0]!r}") from None

    def to_json_dict(self) -> dict:
        return {
            "kind": "explicit",
            "entries": sorted([k, v] for k, v in self.entries.items()),
            "lag": self.lag,
        }


def map_from_json_dict(d: dict) -> TreeMap:
    kind = d["kind"]
    if kind == "bit_flip":
        return BitFlipMap()
    if kind == "shift":
        return ShiftMap()
    if kind == "transducer":
        delta = {(s, int(b)): (s2, out) for s, b, s2, out in d["delta"]}
        return TransducerMap(start=d["start"], delta=delta, lag=int(d["lag"]))
    if kind == "explicit":
        return ExplicitNodeMap({k: v for k, v in d["entries"]}, int(d["lag"]))
    raise ValueError(f"unknown map kind {kind!r}")


# ---------------------------------------------------------------------------
# requirements, bad sets, game state


@dataclass(frozen=True)
class Requirement:
    map_index: int
    root: str


@dataclass(frozen=True)
class BadSet:
    requirement: Requirement
    depth: int
    leaves: Tuple[str, ...]
    measure: Fraction


@dataclass
class GameState:
    schedule: BranchSchedule
    maps: Sequence[TreeMap]
    requirements: List[Requirement]
    depth: int
    scan_depth: int
    default_bit: int = 0
    layers: List[Layer] = field(default_factory=list)
    bounds: Dict[int, Fraction] = field(default_factory=dict)
    initial: Dict[int, Fraction] = field(default_factory=dict)
    stage_counts: Dict[int, int] = field(default_factory=dict)
    consulted: Dict[int, int] = field(default_factory=dict)
    stage_log: List[dict] = field(default_factory=list)
    # scan cache; schedule, maps and default_bit stay fixed for the state's lifetime
    _frontier_key: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _frontier: Tuple[str, ...] = field(default=(), init=False, repr=False, compare=False)
    _candidates: Dict[Requirement, List[Tuple[str, str]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _bad_key: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _bad: Dict[Requirement, BadSet] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def selector(self) -> GameBuiltSelector:
        return GameBuiltSelector(self.layers, default=self.default_bit)

    def tree(self, depth: Optional[int] = None) -> SplittingTree:
        return SplittingTree(self.schedule, self.selector(), depth or self.depth)

    def decided(self) -> set:
        return {l.level for l in self.layers}

    def frontier(self, d: int) -> Tuple[str, ...]:
        """Sorted depth-d leaves of the current tree (see the module
        docstring for when they are materialised again)."""
        key = (tuple(l for l in self.layers if l.bit != self.default_bit), d)
        if key != self._frontier_key:
            self._frontier = self.tree(d).materialize(d).leaves
            self._frontier_key = key
            self._candidates = {}
        return self._frontier


def bad_set(state: GameState, req: Requirement, depth: Optional[int] = None) -> BadSet:
    """Depth-d leaves above the root whose image is incomparable with the
    root yet still consistent with every decided selector level."""
    d = state.scan_depth if depth is None else depth
    if d > state.depth:
        raise ValueError(f"scan depth {d} > working depth {state.depth}")
    leaves = state.frontier(d)
    key = (tuple(state.layers), d)
    if key != state._bad_key:
        state._bad_key, state._bad = key, {}
    memo = state._bad.get(req)
    if memo is not None:
        return memo
    candidates = state._candidates.get(req)
    if candidates is None:
        s = req.root
        # the leaves extending s are contiguous in the sorted frontier
        above = leaves[bisect_left(leaves, s) : bisect_left(leaves, s + "2")]
        images = state.maps[req.map_index].apply_all(above)
        candidates = state._candidates[req] = [
            (leaf, image) for leaf, image in zip(above, images)
            if not (image.startswith(s) or s.startswith(image))  # not compatible()
        ]
    decided = sorted(state.decided().intersection(state.schedule.indices))
    bad = tuple(leaf for leaf, _ in state.selector().keep_consistent(candidates, decided))
    unit = Fraction(1, 2 ** (d - state.schedule.count_below(d)))
    result = BadSet(requirement=req, depth=d, leaves=bad, measure=len(bad) * unit)
    state._bad[req] = result
    return result


def _eligible_level(state: GameState, req: Requirement, lag: int) -> Optional[int]:
    """Least fresh forced level whose image bit is visible at the scan depth.

    Growing the scan depth is sound: a depth-d bad set over-approximates all
    deeper ones, so earlier bounds remain valid upper bounds.
    """
    decided = state.decided()
    floor = max(len(req.root), state.consulted.get(_req_key(state, req), -1) + 1)
    for n in state.schedule.indices:
        if n < floor or n in decided:
            continue
        needed = n + lag + 1
        if needed <= state.scan_depth:
            return n
        if needed <= state.depth:
            leaves = 2 ** (needed - state.schedule.count_below(needed))
            if leaves <= MAX_SCAN_LEAVES:
                state.scan_depth = needed
                return n
        return None
    return None


def _req_key(state: GameState, req: Requirement) -> int:
    return state.requirements.index(req)


def stage_step(state: GameState, req: Requirement) -> GameState:
    """One halving stage for a single requirement (mutates and returns state).

    Empty bad sets record their (vacuously halved) bound without consuming a
    schedule level.
    """
    key = _req_key(state, req)
    m = state.maps[req.map_index]
    current = bad_set(state, req)
    state.stage_counts[key] = state.stage_counts.get(key, 0) + 1
    state.bounds[key] = state.initial[key] / 2 ** state.stage_counts[key]

    level = None
    chosen = None
    if current.leaves:
        before = state.scan_depth
        level = _eligible_level(state, req, m.lag)
        if level is None:
            raise DepthExhaustedError(req)
        if state.scan_depth != before:
            current = bad_set(state, req)
        # the images are applied afresh, not read from the candidate lists:
        # they are the independent side of the `after` check below
        halves = {0: [], 1: []}
        for leaf, image in zip(current.leaves, m.apply_all(current.leaves)):
            if level >= len(image):
                raise GameInvariantError(
                    f"image too short at level {level} for leaf {leaf!r}"
                )
            halves[int(image[level])].append(leaf)
        chosen = 0 if len(halves[0]) <= len(halves[1]) else 1
        state.layers.append(Layer(level=level, root=req.root, bit=chosen))
        state.consulted[key] = level

        after = bad_set(state, req)
        if not set(after.leaves) <= set(halves[chosen]):
            raise GameInvariantError("post-stage bad set escapes the chosen half")
    else:
        after = current

    if after.measure > state.bounds[key]:
        raise GameInvariantError(
            f"recomputed bad measure {after.measure} exceeds bound {state.bounds[key]}"
        )
    # non-interference: no other requirement's bad set may outgrow its bound
    for other_key, other in enumerate(state.requirements):
        if other_key == key or other_key not in state.bounds:
            continue
        recomputed = bad_set(state, other)
        if recomputed.measure > state.bounds[other_key]:
            raise GameInvariantError(
                f"stage for {req} pushed {other} above its bound"
            )

    state.stage_log.append(
        {
            "stage": len(state.stage_log),
            "map": req.map_index,
            "root": req.root,
            "level": level,
            "chosen_bit": chosen,
            "bound": format_dyadic(state.bounds[key]),
        }
    )
    return state


@dataclass(frozen=True)
class RequirementReport:
    map_index: int
    root: str
    initial: Fraction
    final_bound: Fraction
    final_bad: BadSet
    stages: int

    @property
    def recomputed(self) -> Fraction:
        return self.final_bad.measure


@dataclass(frozen=True)
class AntichainCertificate:
    schedule: BranchSchedule
    layers: Tuple[Layer, ...]
    requirements: Tuple[RequirementReport, ...]
    stages_executed: int
    scan_depth: int
    stage_log: Tuple[dict, ...]
    measure_note: str = (
        "bad-set measures are taken with respect to the tree's own uniform "
        "branch measure at the scan depth"
    )

    def to_json_dict(self) -> dict:
        return {
            "requirements": [
                {
                    "map": r.map_index,
                    "root": r.root,
                    "initial": format_dyadic(r.initial),
                    "final_bound": format_dyadic(r.final_bound),
                    "recomputed": format_dyadic(r.recomputed),
                    "stages": r.stages,
                }
                for r in self.requirements
            ],
            "layers": [[l.level, l.root, l.bit] for l in self.layers],
            "stages_executed": self.stages_executed,
            "scan_depth": self.scan_depth,
            "measure_note": self.measure_note,
            "stage_log": list(self.stage_log),
        }


def _pick_scan_depth(schedule: BranchSchedule, depth: int, budget: int) -> int:
    best = 0
    for d in range(depth + 1):
        if 2 ** (d - schedule.count_below(d)) <= budget:
            best = d
    return best


def run_game(
    schedule: BranchSchedule,
    maps: Sequence[TreeMap],
    roots: Sequence[str],
    depth: int,
    stages_per_requirement: int,
    scan_depth: Optional[int] = None,
    leaf_budget: int = DEFAULT_SCAN_DEPTH_BUDGET,
) -> Tuple[SplittingTree, AntichainCertificate]:
    """Round-robin the halving stage over all (map, root) requirements.

    Bad sets are evaluated at a scan depth bounded by the leaf budget; their
    depth-d measures over-approximate the deeper bad sets, so the certified
    bounds are sound for the full working depth.
    """
    if len(set(roots)) != len(roots):
        raise ValueError(f"duplicate roots in {list(roots)!r}")
    if stages_per_requirement < 0:
        raise ValueError(f"negative stage count {stages_per_requirement}")
    if scan_depth is None:
        scan_depth = _pick_scan_depth(schedule, depth, leaf_budget)
    requirements = [
        Requirement(map_index=i, root=check_node(r))
        for i in range(len(maps))
        for r in roots
    ]
    state = GameState(
        schedule=schedule,
        maps=list(maps),
        requirements=requirements,
        depth=depth,
        scan_depth=scan_depth,
    )
    for key, req in enumerate(requirements):
        initial = bad_set(state, req)
        state.initial[key] = initial.measure
        state.bounds[key] = initial.measure
        state.stage_counts[key] = 0

    for round_no in range(stages_per_requirement):
        for req in requirements:
            try:
                stage_step(state, req)
            except DepthExhaustedError as err:
                raise InfeasibleError(stages_per_requirement, round_no) from err

    reports = tuple(
        RequirementReport(
            map_index=req.map_index,
            root=req.root,
            initial=state.initial[key],
            final_bound=state.bounds[key],
            final_bad=bad_set(state, req),
            stages=state.stage_counts[key],
        )
        for key, req in enumerate(requirements)
    )
    certificate = AntichainCertificate(
        schedule=schedule,
        layers=tuple(state.layers),
        requirements=reports,
        stages_executed=len(state.stage_log),
        scan_depth=state.scan_depth,
        stage_log=tuple(state.stage_log),
    )
    return state.tree(), certificate


# ---------------------------------------------------------------------------
# escape verification


@dataclass(frozen=True)
class EscapeReport:
    per_map: Tuple[dict, ...]
    samples: int
    seed: int

    def to_json_dict(self) -> dict:
        return {"samples": self.samples, "seed": self.seed, "per_map": list(self.per_map)}


def verify_escape(
    tree: SplittingTree,
    maps: Sequence[TreeMap],
    samples: int,
    seed: int,
    certificate: Optional[AntichainCertificate] = None,
) -> EscapeReport:
    """Sample branches and classify each image prefix per adversary map.

    escaped: some decided forced level already disagrees with the selector;
    fixed: the image prefix is comparable with the sampled branch;
    undetermined: neither is visible at this depth.  With a certificate, an
    undetermined sample whose divergence root is certified must lie, cut to
    the certificate's scan depth, in the final bad set the game recorded for
    that requirement, else it counts as unaccounted.
    """
    xs = tree.sample(seed, samples)
    decided = sorted(tree.selector.decided_levels(tree.schedule))

    cert_bad = {
        (r.map_index, r.root): set(r.final_bad.leaves)
        for r in (certificate.requirements if certificate is not None else ())
    }

    per_map = []
    for mi, m in enumerate(maps):
        counts = {"fixed": 0, "escaped": 0, "undetermined": 0, "unaccounted": 0, "uncovered": 0}
        for start in range(0, len(xs), SAMPLE_BLOCK):
            block = xs[start : start + SAMPLE_BLOCK]
            moved = [(x, u) for x, u in zip(block, m.apply_all(block))
                     if not (u.startswith(x) or x.startswith(u))]  # not compatible()
            kept = tree.selector.keep_consistent(moved, decided)
            counts["fixed"] += len(block) - len(moved)
            counts["escaped"] += len(moved) - len(kept)
            counts["undetermined"] += len(kept)
            if certificate is None:
                continue
            for x, u in kept:
                p = next(i for i in range(min(len(u), len(x))) if u[i] != x[i])
                key = (mi, x[: p + 1])
                if key not in cert_bad:
                    counts["uncovered"] += 1
                elif x[: certificate.scan_depth] not in cert_bad[key]:
                    counts["unaccounted"] += 1
        per_map.append({"map": mi, "kind": m.kind, **counts})
    return EscapeReport(per_map=tuple(per_map), samples=samples, seed=seed)
