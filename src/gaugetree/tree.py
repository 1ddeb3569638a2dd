"""Splitting trees on binary strings and their uniform cylinder measures.

A tree is determined by a schedule of forced levels and a selector picking
the surviving bit at each forced node.  A pass works at the tree's depth, so
a shallower one reads `tree._replace(depth=n)`.  Level counts and the free-level
profile are exact; nothing is materialized unless asked.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

NODE_BUDGET = 2**22
# a level pass keeps a few ints per level: `schedule` to 2^20 levels takes 3 s and 210 MB
MAX_DEPTH = 2**20
# a sample is one bit of each column `Columns` builds, or one row of a transfer batch:
# 2^20 keep a column at 128 KiB and a batch's rows at tens of MB
MAX_SAMPLES = 2**20
# count x (length + ITEM_BITS) of an interleave-check batch: each item draws 2 x length bits
MAX_BATCH_BITS = 2**24
# an item's fixed cost, about 15 us of Python whatever its length: 256 bits at 60 ns a bit;
# batches at the bound take 1.1-1.4 s, from 64 527 items of 4 bits to 16 of 2^20 bits
ITEM_BITS = 256
# stages x max(1, requirements) of an antichain game, its stage log's length: a stage reads
# bounds initial / 2^stages, so a game's time grows about as the square of its stages; at the
# bound 16 384 x 1 root or 8 192 x 2 roots take 0.6-1 s, and 16 384 x 2 roots took 3 s
MAX_STAGE_LOG = 2**14
# byte -> "1" if its top bit is set, else "0"
_TOP_BIT = bytes(48 + (b >> 7) for b in range(256))
# draws per getrandbits call in random_bits: 16 KB temporaries stay below the
# allocator's large-block threshold, so no call maps and unmaps fresh pages
BITS_CHUNK = 4096


def random_bits(rng: random.Random, n: int) -> str:
    """The next n draws of rng's `getrandbits(1)` stream as "0"/"1": draw i is
    the top bit of the i-th 32-bit word of `getrandbits(32 * n)`, low end first."""
    return "".join(
        rng.getrandbits(32 * k).to_bytes(4 * k, "little")[3::4].translate(_TOP_BIT).decode()
        for k in [BITS_CHUNK] * (n // BITS_CHUNK) + [n % BITS_CHUNK]
    )


_DELETE_01 = str.maketrans("", "", "01")


def check_node(bits: str) -> str:
    # whatever survives deleting every "0" and "1" is a character outside them
    if not isinstance(bits, str) or bits.translate(_DELETE_01):
        raise ValueError(f"not a binary string: {bits!r}")
    return bits


def check_int(value, least: Optional[int] = None, most: Optional[int] = None, what: str = "an integer") -> int:
    """`value` when it is an int, not a bool, and in [least, most]; the error names it `what`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"not {what}: {value!r}")
    if least is not None and value < least:
        raise ValueError(f"not {what} >= {least}: {value!r}")
    if most is not None and value > most:
        raise ValueError(f"not {what} <= {most}: {value!r}")
    return value


def check_bit(bit) -> int:
    if check_int(bit) not in (0, 1):
        raise ValueError(f"not a bit 0 or 1: {bit!r}")
    return bit


def compatible(a: str, b: str) -> bool:
    """True when one string is a prefix of the other."""
    return a.startswith(b) or b.startswith(a)


@dataclass(frozen=True)
class BranchSchedule:
    """The set of forced (non-splitting) levels of a splitting tree."""

    depth: int
    indices: Tuple[int, ...]
    n0: int = 0

    def __post_init__(self):
        if any(i >= self.depth or i < 0 for i in self.indices):
            raise ValueError("every schedule index must lie in [0, depth)")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("schedule indices must be strictly increasing")

    @cached_property
    def forced(self) -> frozenset:
        """The forced levels as a set, built on first use."""
        return frozenset(self.indices)

    def count_below(self, n: int) -> int:
        """|A ∩ n|: how many forced levels lie strictly below n."""
        return bisect_left(self.indices, n)

    def free_levels(self, depth: int) -> List[int]:
        """free(n) = n - |A ∩ n|, the free levels above level n, for n = 0..depth."""
        if depth < 0:
            raise ValueError(f"negative depth {depth}")
        steps = [1] * depth  # level n's step to free(n + 1)
        for i in self.indices[: self.count_below(depth)]:
            steps[i] = 0
        return list(accumulate(steps, initial=0))

    def __contains__(self, n: int) -> bool:
        return n in self.forced

    def to_json_dict(self) -> dict:
        return {"depth": self.depth, "indices": list(self.indices), "n0": self.n0}

    @staticmethod
    def from_json_dict(d: dict) -> "BranchSchedule":
        return BranchSchedule(
            depth=check_int(d["depth"], 0, MAX_DEPTH, "a depth"),
            indices=tuple(map(check_int, d["indices"])),
            n0=check_int(d.get("n0", 0)),
        )


class BranchSelector:
    """Total assignment of a surviving bit to every finite binary string."""

    def bit(self, node: str) -> int:
        raise NotImplementedError

    def constant_bit(self, level: int) -> Optional[int]:
        """The bit of every node at `level` when it does not depend on the
        node, else None."""
        return None

    def decided_levels(self, schedule: BranchSchedule) -> Tuple[int, ...]:
        """Forced levels whose values this selector actively pins down."""
        return schedule.indices


@dataclass(frozen=True)
class ConstantSelector(BranchSelector):
    value: int = 0

    def __post_init__(self):
        check_bit(self.value)

    def bit(self, node: str) -> int:
        return self.value

    def constant_bit(self, level: int) -> Optional[int]:
        return self.value


@dataclass(frozen=True)
class SeededSelector(BranchSelector):
    """Deterministic pseudo-random selector keyed by (seed, node)."""

    seed: int = 0

    def bit(self, node: str) -> int:
        import hashlib  # here, not at the top: only seeded selectors hash

        digest = hashlib.blake2b(
            f"{self.seed}:{node}".encode(), digest_size=8
        ).digest()
        return digest[-1] & 1


class ExplicitSelector(BranchSelector):
    def __init__(self, assignments: Dict[str, int], default: int = 0):
        self.assignments = {check_node(k): check_bit(v) for k, v in assignments.items()}
        self.default = check_bit(default)

    def bit(self, node: str) -> int:
        return self.assignments.get(node, self.default)


class Layer(NamedTuple):
    """One decided level: every node incomparable with the root gets `bit`,
    nodes compatible with the root fall back to the default rule.  A layer
    whose bit is the default therefore leaves the tree unchanged; it only
    marks the level as decided."""

    level: int
    root: str
    bit: int


class GameBuiltSelector(BranchSelector):
    def __init__(self, layers: Sequence[Layer], default: int = 0):
        self.layers = tuple(sorted(layers, key=lambda l: l.level))
        self.default = check_bit(default)
        # level -> (root cut to the level, layer bit): a node reaching the
        # level is compatible with the root there iff it starts with the cut;
        # a level without a layer has the empty cut
        self._cuts, self._uncut = {}, ("", str(self.default))
        for layer in self.layers:
            if layer.level in self._cuts:
                raise ValueError(f"two layers decide level {layer.level}")
            self._cuts[layer.level] = (check_node(layer.root)[: layer.level], str(check_bit(layer.bit)))

    def bit(self, node: str) -> int:
        return int(self.bit_under(node, len(node)))

    def bit_under(self, head: str, level: int) -> str:
        """The bit at `level` of each node that starts with `head`, if `head` covers its cut."""
        cut, bit = self._cuts.get(level, self._uncut)
        return self._uncut[1] if head.startswith(cut) else bit

    def constant_bit(self, level: int) -> Optional[int]:
        _, bit = self._cuts.get(level, self._uncut)
        return self.default if bit == self._uncut[1] else None

    def decided_levels(self, schedule: BranchSchedule) -> Tuple[int, ...]:
        return tuple(l.level for l in self.layers if l.level in schedule)

    def to_json_dict(self) -> dict:
        return {
            "kind": "game_built",
            "default": self.default,
            "layers": [[l.level, l.root, l.bit] for l in self.layers],
        }


class Columns:
    """`count` branches of a tree as one int per level with branch 0 at the
    top bit, each column made on first use, in level order.  A free level's
    column is the next `random.Random(seed).getrandbits(count)`, so two
    `Columns` on one schedule and seed share every free column, whatever
    their selector or depth.  A forced level's column is read off the masks
    of the branches' first R bits by `rule`: R is the longest layer root
    under the layer cut rule `bit_under` of a game-built selector; any other
    selector's `bit` reads the whole prefix, up to its last level whose bit
    is not constant."""

    def __init__(self, tree: SplittingTree, seed: int, count: int):
        if count < 1:
            raise ValueError("count must be >= 1")
        self.forced, self.rng = tree.schedule.forced, random.Random(seed)
        self.sel, self.count, self.full = tree.selector, count, (1 << count) - 1
        if isinstance(self.sel, GameBuiltSelector):
            self.r, self.rule = max((len(l.root) for l in self.sel.layers), default=0), self.sel.bit_under
        else:
            self.r = max((n for n in self.forced if self.sel.constant_bit(n) is None), default=0)
            self.rule = lambda head, n: str(self.sel.bit(head))
        self.cols, self.heads = [], {"": self.full}

    def __getitem__(self, n: int) -> int:
        cols, sel = self.cols, self.sel
        while len(cols) <= n:
            k = len(cols)
            if k not in self.forced:
                col = self.rng.getrandbits(self.count)
            elif (bit := sel.constant_bit(k)) is not None:
                col = self.full if bit else 0
            else:
                col = sum(mask for head, mask in self.heads.items() if self.rule(head, k) == "1")
            cols.append(col)
            if k < self.r:
                self.heads = {head + b: part for head, mask in self.heads.items()
                              for b, part in (("0", mask & ~col), ("1", mask & col)) if part}
        return cols[n]

    def rows(self, width: int) -> List[str]:
        """Every branch cut to its first `width` levels, branch 0 first."""
        c, block = self.count, bytearray(self.count * width)
        for n in range(width):  # row i of the c x width block is branch i
            block[n::width] = format(self[n], f"0{c}b").encode()
        text = block.decode()
        return [text[i * width : (i + 1) * width] for i in range(c)]


def selector_from_json_dict(d: dict) -> BranchSelector:
    kind = d["kind"]
    if kind == "constant":
        return ConstantSelector(d["bit"])
    if kind == "seeded":
        return SeededSelector(check_int(d["seed"]))
    if kind == "explicit":
        return ExplicitSelector({k: v for k, v in d.get("assignments", [])}, d.get("default", 0))
    if kind == "game_built":
        return GameBuiltSelector(
            [Layer(check_int(n), r, b) for n, r, b in d.get("layers", [])], d.get("default", 0)
        )
    raise ValueError(f"unknown selector kind {kind!r}")


@dataclass(frozen=True)
class ExplicitTree:
    """Materialized truncation: the sorted leaf set at a fixed depth."""

    depth: int
    leaves: Tuple[str, ...]

    def __post_init__(self):
        if not self.leaves:
            raise ValueError("explicit tree needs at least one leaf")
        if any(len(l) != self.depth for l in self.leaves):
            raise ValueError("all leaves must have the tree depth")


class SplittingTree(NamedTuple):
    """Tree with forced levels from the schedule and free (splitting) levels
    elsewhere; carries its uniform branch measure."""

    schedule: BranchSchedule
    selector: BranchSelector
    depth: int

    def level_count(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"negative level {n}")
        if n > self.depth:
            raise ValueError(f"level {n} > depth {self.depth}")
        return 2 ** (n - self.schedule.count_below(n))

    def sample(self, seed: int, count: int) -> List[str]:
        """Draw `count` depth-length branches distributed as the uniform
        branch measure: the rows of the `Columns` sampler, which the per-bit
        reference sampler in the tests pins."""
        return Columns(self, seed, count).rows(self.depth)

    def materialize(self, *, budget: int = NODE_BUDGET) -> ExplicitTree:
        count = self.level_count(self.depth)
        if count > budget:
            raise ValueError(f"materialization needs {count} leaves, budget is {budget}")
        forced = self.schedule.forced
        constant_bit, selector_bit = self.selector.constant_bit, self.selector.bit
        level = [""]
        for n in range(self.depth):
            if n not in forced:
                level = [t + b for t in level for b in ("0", "1")]
            elif (b := constant_bit(n)) is not None:
                level = [t + str(b) for t in level]
            else:
                level = [t + str(selector_bit(t)) for t in level]
        return ExplicitTree(depth=self.depth, leaves=tuple(sorted(level)))

    def to_json_dict(self) -> dict:
        """The tree as `measure --tree` reads it; only the game-built trees
        that `antichain` reports are written."""
        return {
            "schedule": self.schedule.to_json_dict(),
            "selector": self.selector.to_json_dict(),
            "depth": self.depth,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "SplittingTree":
        return SplittingTree(
            schedule=BranchSchedule.from_json_dict(d["schedule"]),
            selector=selector_from_json_dict(d["selector"]),
            depth=check_int(d["depth"], 0, MAX_DEPTH, "a depth"),
        )
