"""Tracing of gaugetree's layers from outside the program.

The tracer rebinds the public functions and methods of each layer (the
modules under ``src/gaugetree/``) to wrappers, in every gaugetree module
namespace that holds them and on the classes that define them, and restores
the originals afterwards.  The source stays unedited.  A wrapper records a
span (name, start, end, parent, op id) in memory; functions called hundreds
of thousands of times per op only bump a counter.  A layer's self time is its
spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "gauge", "tree", "hausdorff", "game", "transfer", "dyadic")

# (module, attribute, span name); "Class.method" rebinds on the class.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "write_json", "cli.write"),
    ("cli", "write_csv", "cli.write"),
    ("gauge", "sparsity_schedule", "gauge.sparsity_schedule"),
    ("gauge", "bound_table", "gauge.bound_table"),
    ("gauge", "Gauge.at_scale", "gauge.at_scale"),
    ("gauge", "Gauge.log2_at_scale", "gauge.log2_at_scale"),
    ("tree", "SplittingTree.materialize", "tree.materialize"),
    ("tree", "SplittingTree.sample", "tree.sample"),
    ("hausdorff", "frostman_lower", "hausdorff.frostman_lower"),
    ("hausdorff", "level_dp_cost", "hausdorff.level_dp_cost"),
    ("hausdorff", "level_dp_witness_level", "hausdorff.level_dp_witness_level"),
    ("hausdorff", "measure_certificate", "hausdorff.measure_certificate"),
    ("hausdorff", "dimension_estimate", "hausdorff.dimension_estimate"),
    ("game", "run_game", "game.run_game"),
    ("game", "bad_set", "game.bad_set"),
    ("game", "stage_step", "game.stage_step"),
    ("game", "verify_escape", "game.verify_escape"),
    ("transfer", "dyadic_four_cover", "transfer.dyadic_four_cover"),
    ("transfer", "interleave_metric_check", "transfer.interleave_metric_check"),
    ("dyadic", "format_dyadic", "dyadic.format_dyadic"),
)

# No span, only counters: the hot functions, and atomic_write for the bytes.
COUNTERS = (
    ("tree", "GameBuiltSelector.bit", "tree.selector_bit"),
    ("game", "TreeMap.apply", "game.map_apply"),
    ("dyadic", "floor_log2", "dyadic.floor_log2"),
    ("cli", "atomic_write", "cli.atomic_write"),
)

_T, _G, _D, _A = "antichain", "deep_certify", "transfer_batch", "all three"

# (name, unit, better, end-to-end metric and workload it should move)
PER_LAYER = (
    ("game.bad_set.calls", "count/op", "lower", f"op_p50_s, ops_per_s on {_T}; flat on {_G}, {_D}"),
    ("game.bad_set.s", "s/op", "lower", f"op_p50_s, ops_per_s on {_T}; flat on {_G}, {_D}"),
    ("game.bad_set.leaves_scanned", "count/op", "lower", f"op_p50_s, ops_per_s on {_T}"),
    ("game.bad_set.hit_ratio", "ratio", "higher", f"op_p50_s, ops_per_s on {_T}"),
    ("game.stage_step.calls", "count/op", "lower", f"op_p50_s, ops_per_s on {_T}"),
    ("game.stage_step.s", "s/op", "lower", f"op_p50_s, ops_per_s on {_T}"),
    ("game.rescans_per_stage", "count", "lower", f"op_p50_s, ops_per_s on {_T}"),
    ("game.scan_depth", "levels", "higher", f"op_p50_s, ops_per_s on {_T}"),
    ("game.map_apply.calls", "count/op", "lower", f"op_p50_s, ops_per_s on {_T}"),
    ("game.verify_escape.s", "s/op", "lower", f"op_p50_s on {_T}"),
    ("game.verify_escape.samples", "count/op", "higher", f"op_p50_s on {_T}"),
    ("game.escape.uncovered", "count/op", "lower", f"op_p50_s on {_T}"),
    ("tree.sample.s", "s/op", "lower", f"op_p50_s on {_T}"),
    ("tree.materialize.calls", "count/op", "lower", f"op_p50_s, peak_rss_mb on {_T}"),
    ("tree.materialize.leaves", "count/op", "lower", f"op_p50_s, peak_rss_mb on {_T}"),
    ("tree.materialize.s", "s/op", "lower", f"op_p50_s, peak_rss_mb on {_T}"),
    ("tree.selector_bit.calls", "count/op", "lower", f"op_p50_s, peak_rss_mb on {_T}"),
    ("gauge.sparsity_schedule.s", "s/op", "lower", f"op_p50_s on {_G}"),
    ("gauge.bound_table.calls", "count/op", "lower", f"op_p50_s on {_G}"),
    ("gauge.bound_table.s", "s/op", "lower", f"op_p50_s on {_G}"),
    ("gauge.at_scale.calls", "count/op", "lower", f"op_p50_s on {_G}"),
    ("gauge.at_scale.s", "s/op", "lower", f"op_p50_s on {_G}"),
    ("gauge.at_scale.float_share", "ratio", "lower", f"op_p50_s, ok_ratio on {_G}"),
    ("gauge.log2_at_scale.calls", "count/op", "lower", f"op_p50_s on {_G}"),
    ("hausdorff.frostman_lower.s", "s/op", "lower", f"op_p50_s on {_G}"),
    ("hausdorff.level_dp_cost.calls", "count/op", "lower", f"op_p50_s on {_G}"),
    ("hausdorff.level_dp_cost.s", "s/op", "lower", f"op_p50_s on {_G}"),
    ("hausdorff.level_dp_witness_level.s", "s/op", "lower", f"op_p50_s on {_G}"),
    ("hausdorff.measure_certificate.s", "s/op", "lower", f"op_p50_s on {_G}"),
    ("hausdorff.dp_passes_per_certificate", "count", "lower", f"op_p50_s on {_G}"),
    ("hausdorff.dimension_estimate.s", "s/op", "lower", f"op_p50_s on {_T}"),
    ("hausdorff.dimension.inconclusive", "count/op", "lower", f"ok_ratio on {_T}"),
    ("dyadic.format_dyadic.calls", "count/op", "lower", f"op_p50_s, peak_rss_mb on {_G}"),
    ("dyadic.format_dyadic.s", "s/op", "lower", f"op_p50_s, peak_rss_mb on {_G}"),
    ("cli.write.calls", "count/op", "lower", f"op_p50_s on {_D}, {_G}"),
    ("cli.write.s", "s/op", "lower", f"op_p50_s on {_D}, {_G}"),
    ("cli.write.bytes", "B/op", "lower", f"op_p50_s on {_D}, {_G}"),
    ("transfer.dyadic_four_cover.calls", "count/op", "lower", f"ops_per_s on {_D}; flat on {_T}, {_G}"),
    ("transfer.dyadic_four_cover.s", "s/op", "lower", f"ops_per_s on {_D}; flat on {_T}, {_G}"),
    ("transfer.interleave_metric_check.calls", "count/op", "lower", f"ops_per_s on {_D}; flat on {_T}, {_G}"),
    ("transfer.interleave_metric_check.s", "s/op", "lower", f"ops_per_s on {_D}; flat on {_T}, {_G}"),
    ("dyadic.floor_log2.calls", "count/op", "lower", f"ops_per_s on {_D}; flat on {_T}, {_G}"),
    ("cli.self_s", "s/op", "lower", f"op_p50_s, peak_rss_mb on {_G}"),
    ("gauge.self_s", "s/op", "lower", f"op_p50_s on {_G}"),
    ("tree.self_s", "s/op", "lower", f"op_p50_s on {_T}"),
    ("hausdorff.self_s", "s/op", "lower", f"op_p50_s on {_G}"),
    ("game.self_s", "s/op", "lower", f"op_p50_s, ops_per_s on {_T}"),
    ("transfer.self_s", "s/op", "lower", f"ops_per_s on {_D}"),
    ("dyadic.self_s", "s/op", "lower", f"op_p50_s on {_G}, {_D}"),
    ("trace.overhead_s", "s", "lower", f"none: traced minus untraced op_p50_s, on {_A}"),
)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.counts = Counter()
        self.op_id = -1
        self._stack = []
        self._scan_depth = defaultdict(int)  # op id -> deepest bad-set scan
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        stack, start, end = self._stack, self.start, self.end

        def wrapper(*args, **kwargs):
            idx = len(start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                start[idx] = t0
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        key = name + ".calls"
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # -- per-call facts read from arguments and results --------------------

    def _after_game_bad_set(self, args, result):
        schedule = args[0].schedule
        self.counts["game.bad_set.leaves_scanned"] += 2 ** (result.depth - schedule.count_below(result.depth))
        self.counts["game.bad_set.bad_leaves"] += len(result.leaves)
        self._scan_depth[self.op_id] = max(self._scan_depth[self.op_id], result.depth)

    def _after_tree_materialize(self, args, result):
        self.counts["tree.materialize.leaves"] += len(result.leaves)

    def _after_gauge_at_scale(self, args, result):
        self.counts["gauge.at_scale.floats"] += isinstance(result, float)

    def _after_game_verify_escape(self, args, result):
        self.counts["game.verify_escape.samples"] += result.samples
        self.counts["game.escape.uncovered"] += sum(m["uncovered"] for m in result.per_map)

    def _after_hausdorff_dimension_estimate(self, args, result):
        self.counts["hausdorff.dimension.inconclusive"] += not result.conclusive

    def _after_cli_atomic_write(self, args, result):
        self.counts["cli.write.bytes"] += len(args[1])

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function and method of the imported package."""
        modules = [m for n, m in sys.modules.items() if n == "gaugetree" or n.startswith("gaugetree.")]
        for targets, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for module, attr, name in targets:
                owner = sys.modules[f"gaugetree.{module}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    root = getattr(owner, cls_name)
                    for cls in (root, *root.__subclasses__()):
                        if method in vars(cls):
                            self._rebind(cls, method, make(name, vars(cls)[method]))
                    continue
                original = getattr(owner, attr)
                wrapper = make(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)

    def _rebind(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- results ------------------------------------------------------------

    def metrics(self, ops: int) -> tuple:
        """(every PER_LAYER metric except the tracing overhead, self seconds
        of each span name), both per traced op."""
        n = len(self.start)
        dur = array("q", (e - s for s, e in zip(self.start, self.end)))
        own = array("q", dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= dur[i]
        calls, total, own_by_name = Counter(), Counter(), Counter()
        nested = Counter()  # (child name, parent name) -> calls
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            total[name] += dur[i]
            own_by_name[name] += own[i]
            p = self.parent[i]
            if p >= 0:
                nested[name, self.names[self.name[p]]] += 1
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        values = {
            "game.bad_set.leaves_scanned": c["game.bad_set.leaves_scanned"] / ops,
            "game.bad_set.hit_ratio": ratio(c["game.bad_set.bad_leaves"], c["game.bad_set.leaves_scanned"]),
            "game.rescans_per_stage": ratio(nested["game.bad_set", "game.stage_step"], calls["game.stage_step"]),
            "game.scan_depth": sum(self._scan_depth.values()) / ops,
            "game.map_apply.calls": c["game.map_apply.calls"] / ops,
            "game.verify_escape.samples": c["game.verify_escape.samples"] / ops,
            "game.escape.uncovered": c["game.escape.uncovered"] / ops,
            "tree.materialize.leaves": c["tree.materialize.leaves"] / ops,
            "tree.selector_bit.calls": c["tree.selector_bit.calls"] / ops,
            "gauge.at_scale.float_share": ratio(c["gauge.at_scale.floats"], calls["gauge.at_scale"]),
            "hausdorff.dp_passes_per_certificate": ratio(
                nested["hausdorff.level_dp_cost", "hausdorff.measure_certificate"]
                + nested["hausdorff.level_dp_witness_level", "hausdorff.measure_certificate"],
                calls["hausdorff.measure_certificate"],
            ),
            "hausdorff.dimension.inconclusive": c["hausdorff.dimension.inconclusive"] / ops,
            "cli.write.bytes": c["cli.write.bytes"] / ops,
            "dyadic.floor_log2.calls": c["dyadic.floor_log2.calls"] / ops,
        }
        self_s = {name: ns / 1e9 / ops for name, ns in own_by_name.items()}
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        for name, unit, _, _ in PER_LAYER:
            if name in values:
                continue
            span, _, kind = name.rpartition(".")
            if kind == "calls":
                values[name] = calls[span] / ops
            elif kind == "s":
                values[name] = total[span] / 1e9 / ops
        return values, self_s

    def write(self, path: str) -> None:
        """Write every span as gzipped JSON columns, times in ns from the first."""
        t0 = self.start[0] if len(self.start) else 0
        payload = {
            "names": self.names,
            "name": self.name.tolist(),
            "start_ns": [t - t0 for t in self.start],
            "end_ns": [t - t0 for t in self.end],
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))
