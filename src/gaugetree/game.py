"""Finite-stage antichain forcing against a family of monotone node maps.

The construction decides the selector one forced level at a time.  At each
stage the current "bad" leaves (those whose image under an adversary map is
still consistent with the tree) are split by the image bit at a fresh forced
level, the thinner half is kept alive, and the other is killed by the level
assignment.  Every measure and bound is an exact dyadic pair (m, e), the
value m·2^-e (see :mod:`gaugetree.dyadic`), so the halving guarantee in the
certificate is an equality, not an estimate.

A leaf x at the scan depth is bad for (map T, root s) when x extends s and
y = T(x) is incompatible with s yet consistent with every decided level.
Every map is a sequential transducer with a step table (state, bit) ->
(state, output): `bit_flip` and `shift` have 1 and 2 states, and an
`explicit` map's table is compiled into the trie of its keys.  `_count`
counts bad sets by a transfer matrix over the product of T's step table
with the tree's automaton, in one pass over the levels with a count per
state (x's first R bits, T's state, y's first R bits, |y|, y's bit at the
stage level; R the longest requirement or layer root).  Those bits decide
every cut of the selector, so x's forced levels follow it and each bit of y
at a decided level is checked as it is emitted; one pass gives a count and
both stage halves.  `bad_set` counts each (requirement, scan depth, number
of layers) once per game, in a memo on the `GameState`: the schedule and the
maps never change in a game, every game plays default bit 0, and layers only
ever append, so the key decides the tree and a hit is the count it replaces.

A game starts at the scan depth min(working depth, longest root + largest
lag + 1).  From there on every image is at least as long as its root, so a
bad leaf's image stays incompatible with the root below it, and a count
over-approximates the bad set at every deeper level: each certified bound
holds at every depth from the scan depth to the working depth.

The escape check samples a tree's `Columns`, one int per level with a bit
per sample, and classifies them bit parallel: each map runs once over the
levels with a sample mask per state (`_escape_masks`).  Which certified
samples lie in their final bad sets `_count` decides on the certificate's
tree, with a mask of rows in place of each count: the bad-set predicate has
one implementation, for counts and for samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .dyadic import Pair, dyadic_pair, format_dyadic, to_number, value_le
from .errors import DepthExhaustedError, GameInvariantError, InfeasibleError, UsageError
from .tree import BranchSchedule, Columns, GameBuiltSelector, Layer, SplittingTree, check_bit, check_int, check_node, compatible


# ---------------------------------------------------------------------------
# adversary maps


class TreeMap:
    """Monotone map on finite binary strings with a bounded length lag, read
    through its step table (state, "0" or "1") -> (state, output), built once
    when the map is made."""

    kind = "abstract"
    lag = 0
    start = 0

    def apply(self, node: str) -> str:
        """The binary node's image, one step of the table per bit."""
        step, state, out = self.steps(), self.start, []
        for ch in check_node(node):
            state, emitted = step[state, ch]
            out.append(emitted)
        self.check_end(state)
        return "".join(out)

    def steps(self) -> Dict[Tuple[object, str], Tuple[object, str]]:
        """The step table keyed by (state, "0" or "1")."""
        return self._steps

    def check_end(self, state) -> None:
        """The end test of every walk: raise UsageError when no image
        ends in `state`.  A transducer's images end in every state."""


class BitFlipMap(TreeMap):
    kind = "bit_flip"
    lag = 0
    _steps = {(0, "0"): (0, "1"), (0, "1"): (0, "0")}


class ShiftMap(TreeMap):
    kind = "shift"
    lag = 1
    _steps = {(0, "0"): (1, ""), (0, "1"): (1, ""), (1, "0"): (1, "0"), (1, "1"): (1, "1")}


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
        self.lag = check_int(lag, 0)
        for _, b in self.delta:
            check_bit(b)
        states = self._states = {start, *(s2 for s2, _ in self.delta.values())}
        for s in states:
            if (s, 0) not in self.delta or (s, 1) not in self.delta:
                raise ValueError(f"transducer state {s!r} lacks a move on 0 or 1")
        check_node("".join(out for _, out in self.delta.values()))
        self._steps = {(q, str(b)): move for (q, b), move in self.delta.items()}

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


class _TrieSteps(dict):
    """An explicit map's step table: a move that leaves the trie has no image."""

    def __missing__(self, move):
        node, bit = move
        raise UsageError(f"no image recorded for node {node + bit!r}")


class ExplicitNodeMap(TreeMap):
    """A table of nodes and their images, compiled once into a step table over
    the trie of its keys.  A state is the node read so far; a move to σb
    exists iff some key extends σb, and it emits the new part of σb's image
    when σb is a key, else nothing.  Leaving the trie, or ending a walk on a
    node that is not a key, raises UsageError.  A step table emits
    nothing before the first bit, so a non-empty image of the empty node is
    refused with ValueError, as are images that are not monotone along the
    keys or shorter than their node by more than the lag."""

    kind = "explicit"
    start = ""

    def __init__(self, entries: Dict[str, str], lag: int):
        self.entries = {check_node(k): check_node(v) for k, v in entries.items()}
        self.lag = check_int(lag, 0)
        if self.entries.get(""):
            raise ValueError(f"the empty node has the non-empty image {self.entries['']!r}")
        # trie node -> (its longest key prefix, that key's image)
        reached, self._steps = {"": ("", "")}, _TrieSteps()
        for node in sorted({k[:i] for k in self.entries for i in range(1, len(k) + 1)}):
            key, image = reached[node[:-1]]  # a prefix sorts before its extensions
            out = ""
            if (new := self.entries.get(node)) is not None:
                if not new.startswith(image):
                    raise ValueError(f"map entries not monotone at {key!r} < {node!r}")
                # the game reads image bit n only of nodes of length n + lag + 1 or more
                if len(new) < len(node) - self.lag:
                    raise ValueError(f"the image of {node!r} is shorter than it by more than the lag {self.lag}")
                key, image, out = node, new, new[len(image):]
            reached[node] = key, image
            self._steps[node[:-1], node[-1]] = node, out

    def check_end(self, state: str) -> None:
        if state not in self.entries:
            raise UsageError(f"no image recorded for node {state!r}")


def map_from_json_dict(d: dict) -> TreeMap:
    """A map from its `--maps` entry; maps are only read, never written."""
    kind = d["kind"]
    if kind == "bit_flip":
        return BitFlipMap()
    if kind == "shift":
        return ShiftMap()
    if kind == "transducer":
        delta = {(s, b): (s2, out) for s, b, s2, out in d["delta"]}
        return TransducerMap(start=d["start"], delta=delta, lag=d["lag"])
    if kind == "explicit":
        return ExplicitNodeMap({k: v for k, v in d["entries"]}, d["lag"])
    raise ValueError(f"unknown map kind {kind!r}")


# ---------------------------------------------------------------------------
# requirements, bad sets, game state


class Requirement(NamedTuple):
    map_index: int
    root: str


class BadLeaves(NamedTuple):
    """A bad set's leaves, counted: `len` is their count."""

    count: int

    def __len__(self) -> int:
        return self.count


class BadSet(NamedTuple):
    requirement: Requirement
    depth: int
    leaves: BadLeaves
    measure: Pair


MEASURE_NOTE = (
    "bad-set measures are taken with respect to the tree's own uniform "
    "branch measure at the scan depth, and every bound holds at each depth "
    "from scan_depth to the working depth"
)


@dataclass
class GameState:
    """One game, from its opening counts to its certificate, which `run_game`
    returns.  Per requirement, by its index, each held once: the opening bad
    measure, the stages played and the last level consulted (-1 for none);
    the bound after k stages, initial · 2^-k, is derived and never stored."""

    schedule: BranchSchedule
    maps: Sequence[TreeMap]
    requirements: List[Requirement]
    depth: int
    scan_depth: int
    layers: List[Layer] = field(default_factory=list)
    initial: List[Pair] = field(default_factory=list)
    stages: List[int] = field(default_factory=list)
    consulted: List[int] = field(default_factory=list)
    stage_log: List[dict] = field(default_factory=list)
    # (requirement, scan depth, number of layers) -> its BadSet; see the module docstring
    counted: Dict[tuple, BadSet] = field(default_factory=dict, compare=False, repr=False)

    def open(self) -> GameState:
        """Count every requirement's opening bad set, before any stage."""
        self.initial = [bad_set(self, req).measure for req in self.requirements]
        self.stages = [0] * len(self.requirements)
        self.consulted = [-1] * len(self.requirements)
        return self

    def bound(self, key: int) -> Pair:
        m, e = self.initial[key]
        return dyadic_pair(m, e + self.stages[key])

    def tree(self, depth: Optional[int] = None) -> SplittingTree:
        return SplittingTree(self.schedule, GameBuiltSelector(self.layers), self.depth if depth is None else depth)

    def decided(self) -> set:
        return {l.level for l in self.layers}

    def to_json_dict(self) -> dict:
        """The `game_certificate` block; `recomputed` is each final bad set."""
        return {
            "requirements": [
                {
                    "map": req.map_index,
                    "root": req.root,
                    "initial": format_dyadic(self.initial[key]),
                    "final_bound": format_dyadic(self.bound(key)),
                    "recomputed": format_dyadic(bad_set(self, req).measure),
                    "stages": self.stages[key],
                }
                for key, req in enumerate(self.requirements)
            ],
            "stages_executed": len(self.stage_log),
            "scan_depth": self.scan_depth,
            "measure_note": MEASURE_NOTE,
            "stage_log": list(self.stage_log),
        }


def _count(tree: SplittingTree, m: TreeMap, root: str, level: Optional[int] = None,
           samples: Optional[Tuple[Columns, int]] = None) -> Dict:
    """The bad leaves of (m, root) at the tree's depth, tallied by their image
    bit at `level`: keys "0", "1", and None for no bit there.  With `samples`,
    another tree's `Columns` and a mask of its rows, each weight is a mask in
    place of a count: the rows, cut to the depth, that are such a leaf.  A
    row's bit at a forced level other than the tree's drops it."""
    tally = dict.fromkeys(("0", "1", None), 0)
    rule, d = tree.selector.bit_under, tree.depth
    r = max([len(root), *(len(l.root) for l in tree.selector.layers)])
    forced, decided = tree.schedule.forced, set(tree.selector.decided_levels(tree.schedule))
    step, (cols, start) = m.steps(), samples or (None, 1)
    counts = {("", m.start, "", 0, None): start} if d >= len(root) else {}
    for i in range(d):
        grown, one = {}, cols and cols[i]
        for (xh, q, yh, n0, yb), c in counts.items():
            for b in (rule(xh, i),) if i in forced else "01":
                w = c if cols is None else c & one if b == "1" else c & ~one
                if not w or i < len(root) and b != root[i]:
                    continue
                q2, out = step[q, b]
                n, head, bit = n0, yh, yb
                for ch in out:
                    if n in decided and ch != rule(head, n):
                        break  # y breaks a decided level
                    if n == level:
                        bit = ch
                    if n < r:
                        head += ch
                    n += 1
                else:
                    key = (xh + b if i < r else xh, q2, head, n, bit)
                    grown[key] = grown.get(key, 0) + w
        counts = grown
    for (_, q, yh, _, yb), c in counts.items():
        m.check_end(q)
        if not compatible(yh, root):  # y's first r bits decide it (r >= |root|)
            tally[yb] += c
    return tally


def bad_set(state: GameState, req: Requirement, depth: Optional[int] = None) -> BadSet:
    """Depth-d leaves above the root whose image is incomparable with the
    root yet still consistent with every decided selector level, counted."""
    d = state.scan_depth if depth is None else depth
    if d > state.depth:
        raise ValueError(f"scan depth {d} > working depth {state.depth}")
    # sound: the memo lives on one game, whose layers only append, so their number names them
    if (key := (req, d, len(state.layers))) in state.counted:
        return state.counted[key]
    tree, m = state.tree(d), state.maps[req.map_index]
    count = sum(_count(tree, m, req.root).values())
    measure = dyadic_pair(count, d - state.schedule.count_below(d))
    state.counted[key] = BadSet(requirement=req, depth=d, leaves=BadLeaves(count), measure=measure)
    return state.counted[key]


def _eligible_level(state: GameState, key: int, lag: int) -> int:
    """Least fresh forced level n whose image bit is visible at the scan
    depth, which grows to n + lag + 1 when needed, else DepthExhaustedError
    naming the first fresh level and why it is out: n + lag + 1 is past the
    working depth, or no forced level is fresh.

    Growing the scan depth is sound: a depth-d bad set over-approximates all
    deeper ones, so earlier bounds remain valid upper bounds.
    """
    req, decided = state.requirements[key], state.decided()
    floor = max(len(req.root), state.consulted[key] + 1)
    for n in state.schedule.indices:
        if n < floor or n in decided:
            continue
        needed = n + lag + 1
        if needed <= state.scan_depth:
            return n
        if needed > state.depth:
            raise DepthExhaustedError(req, f"forced level {n}: n + lag + 1 = {needed} > --depth {state.depth}")
        state.scan_depth = needed
        return n
    raise DepthExhaustedError(
        req, f"no fresh forced level from level {floor} on, and a forced level holds at most one layer"
    )


def stage_step(state: GameState, req: Requirement) -> GameState:
    """One halving stage for a single requirement (mutates and returns state).

    Empty bad sets record their (vacuously halved) bound without consuming a
    schedule level.
    """
    key = state.requirements.index(req)
    m = state.maps[req.map_index]
    measure = bad_set(state, req).measure
    state.stages[key] += 1
    bound = state.bound(key)

    level = chosen = None
    if measure[0]:  # the pair (0, 0) is truthy
        level = _eligible_level(state, key, m.lag)
        d = state.scan_depth
        # one count at the scan depth, which may have grown, gives both halves
        halves = _count(state.tree(d), m, req.root, level)
        if halves[None]:
            raise GameInvariantError(f"image too short at level {level} for {halves[None]} bad leaves")
        chosen = 0 if halves["0"] <= halves["1"] else 1
        state.layers.append(Layer(level=level, root=req.root, bit=chosen))
        state.consulted[key] = level

        # a second count under the new layer: no surviving bad leaf may have
        # an image bit other than the chosen one
        survivors = _count(state.tree(d), m, req.root, level)
        if survivors[str(1 - chosen)] or survivors[None]:
            raise GameInvariantError("post-stage bad set escapes the chosen half")
        measure = dyadic_pair(survivors[str(chosen)], d - state.schedule.count_below(d))

    if not value_le(measure, bound):
        raise GameInvariantError(f"recomputed bad measure {to_number(measure)} exceeds bound {to_number(bound)}")
    # non-interference: no other requirement's fresh count may outgrow its bound
    if chosen is not None:  # else no layer was appended, and no other count or bound changed
        for other_key, other in enumerate(state.requirements):
            if other_key != key and not value_le(fresh := bad_set(state, other).measure, state.bound(other_key)):
                raise InfeasibleError(
                    f"the layer at level {level} for {req} raises the bad measure of {other} "
                    f"to {to_number(fresh)}, above its bound {to_number(state.bound(other_key))}"
                )

    state.stage_log.append(
        {
            "map": req.map_index,
            "root": req.root,
            "level": level,
            "chosen_bit": chosen,
            "bound": format_dyadic(bound),
        }
    )
    return state


def run_game(
    schedule: BranchSchedule,
    maps: Sequence[TreeMap],
    roots: Sequence[str],
    depth: int,
    stages_per_requirement: int,
) -> Tuple[SplittingTree, GameState]:
    """Round-robin the halving stage over all (map, root) requirements; the
    finished state is the game certificate.

    Bad sets are evaluated at the scan depth, which starts at min(depth,
    longest root + largest lag + 1) and which stages may deepen; the
    certified bounds hold at every depth from the final scan depth to
    `depth` (see the module docstring).
    """
    if len(set(roots)) != len(roots):
        raise ValueError(f"duplicate roots in {list(roots)!r}")
    if stages_per_requirement < 0:
        raise ValueError(f"negative stage count {stages_per_requirement}")
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
        scan_depth=min(depth, max(map(len, roots), default=0) + max((m.lag for m in maps), default=0) + 1),
    ).open()

    for round_no in range(stages_per_requirement):
        for req in requirements:
            try:
                stage_step(state, req)
            except DepthExhaustedError as err:
                used = sorted(state.decided())
                free = [n for n in schedule.indices if n < depth and n not in used]
                levels = lambda ns: ", ".join(map(str, ns)) or "none"
                raise InfeasibleError(
                    f"requested {stages_per_requirement} stages per requirement, only {round_no} "
                    f"completed fairly ({err}); the layers of {len(requirements)} requirements consumed "
                    f"forced levels {levels(used)}; forced levels still free below the working depth: "
                    f"{levels(free)}"
                ) from err
    return state.tree(), state


# ---------------------------------------------------------------------------
# escape verification


class EscapeReport(NamedTuple):
    per_map: Tuple[dict, ...]
    samples: int
    seed: int

    def to_json_dict(self) -> dict:
        return {"samples": self.samples, "seed": self.seed, "per_map": list(self.per_map)}


def _escape_masks(cols: Columns, m: TreeMap, depth: int, decided, cap: int) -> Tuple[dict, dict]:
    """Every sample classified under m to `depth`, by one pass with a sample
    mask per state: m's state, |u|, u's first R bits, and u's first
    difference from x capped at `cap` (None while u agrees with x, and so
    obeys every decided level below the depth as x does).  A moved u that
    breaks a decided level escapes; past the last one it is undetermined for
    good, so the pass stops once no state is left.  Returns the counts and
    the undetermined samples as masks keyed by first difference."""
    r, rule, step = cols.r, cols.rule, m.steps()
    last, decided = max(decided, default=-1), set(decided)
    counts = dict.fromkeys(("fixed", "escaped", "undetermined"), 0)
    und, states = {}, {(m.start, 0, "", None): cols.full}  # first difference -> samples

    def emit(n, h, p, part, ch):
        """The parts of `part` after u's bit ch at n."""
        if p is None:
            if n >= depth:  # x is a prefix of u
                counts["fixed"] += part.bit_count()
                return
            same = part & cols[n] if ch == "1" else part & ~cols[n]
            if same:
                yield n + 1, h + ch if n < r else h, None, same
            part, p = part ^ same, min(n, cap)
        if part and n in decided and ch != rule(h, n):
            counts["escaped"] += part.bit_count()
        elif part:
            yield n + 1, h + ch if n < r else h, p, part

    for i in range(depth):
        grown = {}
        for (q, n0, h0, p0), mask in states.items():
            one = mask & cols[i]
            for b, part in (("0", mask ^ one), ("1", one)):
                if not part:
                    continue
                q2, out = step[q, b]
                items = [(n0, h0, p0, part)]
                for ch in out:
                    items = [e for item in items for e in emit(*item, ch)]
                for n, h, p, part in items:
                    if p is not None and n > last:
                        und[p] = und.get(p, 0) | part
                    else:
                        grown[q2, n, h, p] = grown.get((q2, n, h, p), 0) | part
        if not (states := grown):
            break
    for (q, _, _, p), mask in states.items():  # the branch has ended
        m.check_end(q)
        und[p] = und.get(p, 0) | mask
    counts["fixed"] += und.pop(None, 0).bit_count()  # u and x are comparable
    counts["undetermined"] = sum(mask.bit_count() for mask in und.values())
    return counts, und


def verify_escape(
    tree: SplittingTree,
    maps: Sequence[TreeMap],
    samples: int,
    seed: int,
    certificate: GameState,
) -> EscapeReport:
    """Sample branches and classify each image prefix per adversary map.

    escaped: some decided forced level already disagrees with the selector;
    fixed: the image prefix is comparable with the sampled branch;
    undetermined: neither is visible at this depth.  An undetermined sample
    whose divergence root is certified must, cut to the certificate's scan
    depth, be a leaf of the certificate's tree that satisfies the per-leaf
    predicate of that requirement's final bad set, else it counts as
    unaccounted; one whose root is not certified counts as uncovered.

    Each map's classifier runs once, on the tree's `Columns` to its depth.
    The bad-set predicate is `_count`'s, weighing the certified samples of
    each root as a mask over the certificate's tree to the cut."""
    final = certificate.tree(min(certificate.scan_depth, tree.depth))
    cols = Columns(tree, seed, samples)
    decided = tree.selector.decided_levels(tree.schedule)
    per_map = []
    for mi, m in enumerate(maps):
        roots = {r.root for r in certificate.requirements if r.map_index == mi}
        counts, und = _escape_masks(cols, m, tree.depth, decided, max(map(len, roots), default=0))
        certified = counts["unaccounted"] = 0
        for root in roots:
            mask = und.get(len(root) - 1, 0)
            for j, ch in enumerate(root if mask else ""):
                mask &= cols[j] if ch == "1" else ~cols[j]
            if mask:
                certified |= mask
                bad = sum(_count(final, m, root, samples=(cols, mask)).values())
                counts["unaccounted"] += (mask & ~bad).bit_count()
        counts["uncovered"] = counts["undetermined"] - certified.bit_count()
        per_map.append({"map": mi, "kind": m.kind, **counts})
    return EscapeReport(per_map=tuple(per_map), samples=samples, seed=seed)
