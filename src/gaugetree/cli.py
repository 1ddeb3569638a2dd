"""Command-line surface: reproducible schedule, measure, antichain, transfer,
and plot runs with deterministic JSON/CSV/SVG outputs.

Exit codes: 0 success (including informative failures inside certificates),
2 usage or parse errors, 3 infeasible configuration.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence

from . import __version__
from .dyadic import Value, format_dyadic, format_exact, format_pair, format_rational, parse_dyadic
from .errors import (
    FrostmanConditionError, InfeasibleError, OutOfRangeError, UndefinedNodeError, UsageError,
)
from .gauge import GUARD_EXP, Gauge, BranchSchedule, bound_table, sparsity_schedule
from .hausdorff import (
    dimension_estimate,
    frostman_lower,
    level_dp_cost,
    measure_certificate,
)
from .game import TransducerMap, map_from_json_dict, run_game, verify_escape
from .transfer import (
    dyadic_four_cover,
    interleave_metric_check,
    to_cube,
)
from .tree import NODE_BUDGET, SplittingTree, check_node, random_bits

TOOL_NAME = "gaugetree"
# the levels CSV forms a float level cost as 2^free·g, and 2^1024 overflows
FLOAT_FREE_LIMIT = 1024


# ---------------------------------------------------------------------------
# manifest and output plumbing


def build_manifest(command: str, args: argparse.Namespace, inputs: Sequence[str]) -> dict:
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "command": command,
        "inputs": sorted(inputs),
        "seed": getattr(args, "seed", 0),
        "config": {
            "node_budget": NODE_BUDGET,
            "guard_exp": GUARD_EXP,
        },
    }


def atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gaugetree-")
    except OSError as err:
        raise UsageError(f"cannot write {path}: {err.strerror}") from err
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, payload: dict, manifest: dict) -> None:
    payload = {"manifest": manifest, **payload}
    atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_csv(path: str, header: List[str], lines: Iterable[str], manifest: dict) -> None:
    """Write the header and the given lines, each a row whose fields the
    caller has already joined by commas.  A quote or line break in a line, or
    a comma count other than (columns - 1) × lines, raises ValueError instead."""
    out = ["# manifest: " + json.dumps(manifest, sort_keys=True), ",".join(header), *lines, ""]
    data = "\n".join(out)
    start, records = len(out[0]) + 1, len(out) - 2  # the header and the rows
    if (
        data.find('"', start) >= 0
        or data.find("\r", start) >= 0
        or data.count(",", start) != (len(header) - 1) * records
        or data.count("\n", start) != records
    ):
        raise ValueError(f"{path}: a field holds a quote, comma or line break, or a row is ragged")
    atomic_write(path, data)


def read_csv_table(path: str):
    try:
        with open(path) as fh:
            lines = [l for l in fh if not l.startswith("#")]
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err.strerror}") from err
    reader = csv.reader(lines)
    rows = list(reader)
    if not rows:
        return [], []
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# flag parsing


def parse_gauge_spec(spec: str) -> Gauge:
    try:
        kind, _, rest = spec.partition(":")
        if kind == "power":
            return Gauge.power(Fraction(rest))
        if kind == "power_log":
            s, c = rest.split(",")
            return Gauge.power_log(Fraction(s), Fraction(c))
        if kind == "table":
            entries = [tuple(pair.split("=")) for pair in rest.split(",")]
            return Gauge.table([(int(n), Fraction(v)) for n, v in entries])
        raise ValueError(f"unknown gauge kind {kind!r}")
    except (ValueError, ZeroDivisionError, ArithmeticError) as err:
        raise argparse.ArgumentTypeError(f"bad gauge spec {spec!r}: {err}") from err


def parse_roots(spec: str) -> List[str]:
    try:
        roots = [check_node(root) for root in spec.split(",")]
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad root in {spec!r}: {err}") from err
    if len(set(roots)) != len(roots):
        raise argparse.ArgumentTypeError(f"duplicate root in {spec!r}")
    return roots


def parse_bits(spec: str) -> str:
    try:
        return check_node(spec)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from err


def output_path(path: str) -> str:
    """argparse type: a path in an existing directory, so that no command
    writes one output and then fails on the next."""
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise argparse.ArgumentTypeError(f"no directory for {path!r}")
    return path


def int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a ValueError as "invalid int value"
    return parse


def load_json(path: str, parse):
    """parse() of the JSON document in `path`; a file that cannot be read, is
    not JSON or does not parse raises UsageError."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err.strerror}") from err
    except (ValueError, KeyError, TypeError) as err:  # JSONDecodeError is a ValueError
        raise UsageError(f"bad input {path}: {type(err).__name__}: {err}") from err


def load_maps(path: str):
    return load_json(path, lambda data: [map_from_json_dict(d) for d in data])


# ---------------------------------------------------------------------------
# subcommands


def cmd_schedule(args) -> int:
    g = args.gauge
    caps = bound_table(g, args.depth + 1)
    schedule = sparsity_schedule(g, args.depth, caps)
    manifest = build_manifest("schedule", args, [])
    payload = {"schedule": schedule.to_json_dict(gauge=g)}
    if not schedule.indices:
        payload["warning"] = "empty schedule: the caps are zero on the whole range"
        print("warning: empty schedule (full binary tree)", file=sys.stderr)
    write_json(args.out, payload, manifest)
    if args.csv:
        forced = set(schedule.indices)
        lines = (f"{n},{caps[n]},{int(n in forced)}" for n in range(args.depth))
        write_csv(args.csv, ["n", "cap", "in_schedule"], lines, manifest)
    return 0


def _level_rows(tree: SplittingTree, values: Sequence[Value], depth: int):
    """Yield the levels CSV lines 0..depth.  The count 2^free is an exact
    Decimal doubled at each free level: rendering a large int is quadratic
    and refused beyond the interpreter's 4 300-digit limit."""
    forced = set(tree.schedule.indices)
    exact = decimal.Context(prec=decimal.MAX_PREC)
    count, free = decimal.Decimal(1), 0  # free levels above level n
    for n in range(depth + 1):
        gv = values[n]
        if type(gv) is tuple:
            m, e = gv
            gauge_value = format_pair(m, e)
            level_cost = format_pair(m, e - free) if m else "0"
        else:
            cost = 2**free * gv
            gauge_value = format_exact(gv) if isinstance(gv, Fraction) else repr(float(gv))
            level_cost = format_exact(cost) if isinstance(cost, Fraction) else repr(float(cost))
        yield f"{n},{count},{format_pair(1, free)},{gauge_value},{level_cost}"
        if n not in forced:
            count = exact.add(count, count)
            free += 1


def _float_cost_overflow(tree: SplittingTree, values: Sequence[Value], depth: int):
    """(level, free levels above it) of the first level whose level cost
    2^free·g(2^-n) cannot be formed: a float value with at least
    FLOAT_FREE_LIMIT free levels above it, as 2^1024 exceeds every float.
    None when there is no such level."""
    forced = set(tree.schedule.indices)
    free = 0
    for n in range(depth + 1):
        if free >= FLOAT_FREE_LIMIT and isinstance(values[n], float):
            return n, free
        free += n not in forced
    return None


def cmd_measure(args) -> int:
    tree = load_json(args.tree, SplittingTree.from_json_dict)
    g = args.gauge
    depth = tree.depth if args.depth is None else args.depth
    if depth > tree.depth:
        print(f"error: --depth {depth} exceeds the tree depth {tree.depth}", file=sys.stderr)
        return 2
    if args.delta_exp > depth:
        print(f"error: --delta-exp {args.delta_exp} exceeds the depth {depth}", file=sys.stderr)
        return 2
    values = g.scale_values(depth)
    overflow = _float_cost_overflow(tree, values, depth) if args.csv else None
    if overflow:
        print(
            f"error: level {overflow[0]} has a float gauge value and {overflow[1]} free levels "
            "above it, so its level cost overflows a float; see ROADMAP item 1 (integer "
            "enclosures)", file=sys.stderr,
        )
        return 3
    cert = measure_certificate(tree, g, args.delta_exp, depth, values)
    manifest = build_manifest("measure", args, [args.tree])
    write_json(args.out, {"certificate": cert.to_json_dict()}, manifest)
    if args.csv:
        write_csv(
            args.csv,
            ["n", "count", "mu_cylinder", "gauge_value", "level_cost"],
            _level_rows(tree, values, depth),
            manifest,
        )
    return 0


def cmd_antichain(args) -> int:
    g = args.gauge
    if args.delta_exp > args.depth:
        print(f"error: --delta-exp {args.delta_exp} exceeds --depth {args.depth}", file=sys.stderr)
        return 2
    maps = load_maps(args.maps)
    for i, m in enumerate(maps):
        # the game reads image bit n only of leaves of length n + lag + 1 or more
        if isinstance(m, TransducerMap) and (drift := m.min_drift(args.depth)) < -m.lag:
            raise UsageError(
                f"map {i} in {args.maps}: an input of length <= {args.depth} loses "
                f"{-drift} bits in its image, more than the lag {m.lag}"
            )
    roots = args.roots
    values = g.scale_values(args.depth)
    schedule = sparsity_schedule(g, args.depth, bound_table(g, args.depth + 1, values))
    try:
        tree, certificate = run_game(
            schedule, maps, roots, args.depth, args.stages
        )
    except InfeasibleError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return 3
    escape = verify_escape(tree, maps, args.escape_samples, args.seed, certificate)
    try:
        lower, n0 = frostman_lower(tree, g, values)
        frostman = {"lower": format_dyadic(lower), "n0": n0}
    except FrostmanConditionError as err:
        n0 = 0
        frostman = {"lower": None, "violating_level": err.worst_level}
    # the lower bound only constrains covers finer than 2^-n0
    delta_used = max(args.delta_exp, n0)
    upper = level_dp_cost(tree, g, delta_used, min(args.depth, tree.depth), values)
    dim = dimension_estimate(tree, tolerance=0.01, depth=min(args.depth, 60))
    manifest = build_manifest("antichain", args, [args.maps])
    report = {
        "gauge": g.to_json_dict(),
        "schedule": schedule.to_json_dict(),
        "tree": tree.to_json_dict(),
        "game_certificate": {
            **certificate.to_json_dict(),
            "escape_report": escape.to_json_dict(),
        },
        "measure_certificate": {
            "frostman": frostman,
            "upper": format_exact(upper) if isinstance(upper, Fraction) else repr(float(upper)),
            "delta_exp": delta_used,
        },
        "dimension": {
            "s_lo": dim.s_lo,
            "s_hi": dim.s_hi,
            "depth": dim.depth,
            "conclusive": dim.conclusive,
        },
    }
    write_json(args.out, report, manifest)
    return 0


def cmd_transfer(args) -> int:
    manifest = build_manifest(f"transfer-{args.mode}", args, [])
    rng = random.Random(args.seed)
    lines = []
    if args.mode == "four-cover":
        for i in range(args.count):
            den = rng.randrange(8, 1 << 16)
            lo = rng.randrange(den - 1)
            hi = rng.randrange(lo + 1, den)
            a, b = Fraction(lo, den), Fraction(hi, den)
            cover = dyadic_four_cover(a, b)
            m = cover[0].level
            # [min index, max index + 1] / 2^m contains [lo, hi] / den
            ok = (
                len(cover) <= 4
                and all(iv.level == m for iv in cover)
                and min(iv.index for iv in cover) * den <= lo << m
                and (max(iv.index for iv in cover) + 1) * den >= hi << m
            )
            lines.append(f"{i},{format_rational(a)},{format_rational(b)},{m},{len(cover)},{int(ok)}")
        write_csv(args.out, ["item", "a", "b", "level", "intervals", "pass"], lines, manifest)
    elif args.mode == "interleave-check":
        for i in range(args.count):
            n = rng.choice([2, 3, 4])
            length = args.length - args.length % n
            x = y = random_bits(rng, length)
            while y == x:
                y = random_bits(rng, length)
            chk = interleave_metric_check(x, y, n)
            lines.append(
                f"{i},{n},{chk.first_difference},{format_rational(chk.expected)},"
                f"{format_rational(chk.observed)},{int(chk.expected == chk.observed)}"
            )
        write_csv(args.out, ["item", "n", "k", "expected", "observed", "pass"], lines, manifest)
    else:  # cube-map
        point = to_cube(args.bits, args.n)
        lines = [f"{i},{format_rational(c)}" for i, c in enumerate(point.coords)]
        write_csv(args.out, ["coordinate", "value"], lines, manifest)
    return 0


def cmd_plot(args) -> int:
    header, rows = read_csv_table(args.table)
    if not rows:
        print("error: empty table", file=sys.stderr)
        return 2
    y_cols = args.y.split(",")
    for col in [args.x, *y_cols]:
        if col not in header:
            print(f"error: missing column {col!r}", file=sys.stderr)
            return 2
    xi = header.index(args.x)
    try:
        xs = [float(parse_dyadic(r[xi])) for r in rows]
        series = []
        for col in y_cols:
            yi = header.index(col)
            series.append((col, [float(parse_dyadic(r[yi])) for r in rows]))
    except (ValueError, ZeroDivisionError, OverflowError, IndexError) as err:
        # IndexError: a row shorter than the header
        print(f"error: bad cell in {args.table}: {err}", file=sys.stderr)
        return 2
    manifest = build_manifest("plot", args, [args.table])
    atomic_write(args.out, render_svg(xs, series, args.x, manifest))
    return 0


def render_svg(xs, series, x_label, manifest) -> str:
    """Standalone SVG 1.1 line plot; byte-deterministic for fixed input."""
    width, height, pad = 640, 420, 50
    all_y = [v for _, ys in series for v in ys]
    x0, x1 = min(xs), max(xs) or 1
    y0, y1 = min(all_y), max(all_y)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1

    def sx(v):
        return pad + (v - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - y0) / (y1 - y0) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- manifest: {json.dumps(manifest, sort_keys=True)} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" font-size="12" text-anchor="middle">{x_label}</text>',
    ]
    for idx, (label, ys) in enumerate(series):
        color = colors[idx % len(colors)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        ly = pad + 16 * idx
        parts.append(
            f'<line x1="{width - pad - 90}" y1="{ly}" x2="{width - pad - 70}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - pad - 64}" y="{ly + 4}" font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=TOOL_NAME, description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="compute a sparsity schedule for a gauge")
    p.add_argument("--gauge", type=parse_gauge_spec, required=True)
    p.add_argument("--depth", type=int_at_least(0), required=True)
    p.add_argument("--out", type=output_path, required=True)
    p.add_argument("--csv", type=output_path)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("measure", help="certify gauge-measure bounds for a tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--gauge", type=parse_gauge_spec, required=True)
    p.add_argument("--delta-exp", type=int_at_least(0), default=0)
    p.add_argument("--depth", type=int_at_least(0))
    p.add_argument("--out", type=output_path, required=True)
    p.add_argument("--csv", type=output_path)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("antichain", help="run the full antichain pipeline")
    p.add_argument("--gauge", type=parse_gauge_spec, required=True)
    p.add_argument("--maps", required=True)
    p.add_argument("--depth", type=int_at_least(0), required=True)
    p.add_argument("--stages", type=int_at_least(0), required=True)
    p.add_argument("--roots", type=parse_roots, default="0,1")
    p.add_argument("--delta-exp", type=int_at_least(0), default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--escape-samples", type=int_at_least(1), default=1000)
    p.add_argument("--out", type=output_path, required=True)
    p.set_defaults(func=cmd_antichain)

    p = sub.add_parser("transfer", help="batch-check the transfer laws")
    p.add_argument("mode", choices=["four-cover", "interleave-check", "cube-map"])
    p.add_argument("--count", type=int_at_least(1), default=1000)
    # every n in {2, 3, 4} leaves a nonempty string of length - length % n
    p.add_argument("--length", type=int_at_least(4), default=60)
    p.add_argument("--bits", type=parse_bits, default="")
    p.add_argument("--n", type=int_at_least(1), default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=output_path, required=True)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("plot", help="render a CSV table as an SVG plot")
    p.add_argument("--table", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--out", type=output_path, required=True)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OutOfRangeError, UndefinedNodeError, UsageError) as err:  # before any output
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
