"""Command-line surface: reproducible schedule, measure, antichain, transfer,
and plot runs with deterministic JSON/CSV/SVG outputs.

Exit codes: 0 success (including informative failures inside certificates),
2 usage or parse errors, 3 infeasible configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys
import tempfile
from typing import Iterable, List, Optional, Sequence

from . import __version__
from .dyadic import Value, format_dyadic, format_ratio, format_rational, parse_float, parse_rational
from .errors import InfeasibleError, UsageError
from .gauge import Gauge, bound_table, sparsity_schedule
from .hausdorff import dimension_estimate, level_walk, measure_certificate
from .game import TransducerMap, map_from_json_dict, run_game, verify_escape
from .transfer import (
    ITEM_BITS, MAX_BATCH_BITS, MAX_DIMENSION, WordReader, four_cover_span, interleave_metric_check, to_cube,
)
from .tree import MAX_DEPTH, MAX_SAMPLES, MAX_STAGE_LOG, NODE_BUDGET, SplittingTree, check_node

TOOL_NAME = "gaugetree"
COMMANDS = ("schedule", "measure", "antichain", "transfer", "plot")


# ---------------------------------------------------------------------------
# manifest and output plumbing


def build_manifest(command: str, args: argparse.Namespace, inputs: Sequence[str]) -> dict:
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "command": command,
        "inputs": sorted(inputs),
        "seed": getattr(args, "seed", 0),
        "config": {"node_budget": NODE_BUDGET},
    }


def atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gaugetree-")
    except OSError as err:
        raise UsageError(f"cannot write {path}: {err.strerror}") from err
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:  # the SVG declares UTF-8
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, payload: dict, manifest: dict) -> None:
    """Write json.dumps(payload, sort_keys=True, indent=2) under the manifest,
    each dict value that is a list of more than 64 ints by one join: the
    indented encoder is pure Python, and walks such a list item by item."""
    payload, lists, mark = {"manifest": manifest, **payload}, [], "\x00long int list"

    def marked(d: dict, pad: str) -> dict:  # d, keys at indent pad, with its long int lists' texts moved out
        out = {}
        for k, v in sorted(d.items()):  # the order in which json.dumps writes the lists
            if isinstance(v, dict):
                v = marked(v, pad + "  ")
            elif type(v) is list and len(v) > 64 and all(type(x) is int for x in v):
                lists.append(f"[\n{pad}  " + f",\n{pad}  ".join(map(str, v)) + f"\n{pad}]")
                v = mark
            out[k] = v
        return out

    parts = json.dumps(marked(payload, "  "), sort_keys=True, indent=2).split(json.dumps(mark))
    if len(parts) == len(lists) + 1:
        text = parts[0] + "".join(map(str.__add__, lists, parts[1:]))
    else:  # a string of the payload is the mark
        text = json.dumps(payload, sort_keys=True, indent=2)
    atomic_write(path, text + "\n")


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
    """(header, rows) of a UTF-8 CSV table; a leading ``# manifest:`` line is
    skipped, and every other line is data."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err.strerror}") from err
    except UnicodeDecodeError as err:
        raise UsageError(f"cannot read {path}: not UTF-8: {err.reason} at byte {err.start}") from err
    if lines and lines[0].startswith("# manifest:"):
        del lines[0]
    try:
        rows = list(csv.reader(lines)) or [[]]
    except csv.Error as err:  # a field past csv.field_size_limit()
        raise UsageError(f"bad table {path}: {err}") from err
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# flag parsing


def parse_gauge_spec(spec: str) -> Gauge:
    try:
        kind, _, rest = spec.partition(":")
        if kind == "power":
            return Gauge.power(parse_rational(rest))
        if kind == "power_log":
            s, c = rest.split(",")
            return Gauge.power_log(parse_rational(s), parse_rational(c))
        if kind == "table":
            entries = [tuple(pair.split("=")) for pair in rest.split(",")]
            return Gauge.table([(int(n), parse_rational(v)) for n, v in entries])
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


def int_at_least(low: int, most: Optional[int] = None):
    """argparse type: an integer no smaller than `low`, and no larger than `most`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be <= {most}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a ValueError as "invalid int value"
    return parse


def load_json(path: str, parse):
    """parse() of the JSON document in `path`; a file that cannot be read, is
    not JSON, nests deeper than the decoder recurses or does not parse raises
    UsageError."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err.strerror}") from err
    except (ValueError, KeyError, TypeError, RecursionError) as err:  # JSONDecodeError is a ValueError
        raise UsageError(f"bad input {path}: {type(err).__name__}: {err}") from err


def load_maps(path: str):
    return load_json(path, lambda data: [map_from_json_dict(d) for d in data])


# ---------------------------------------------------------------------------
# subcommands


def cmd_schedule(args) -> None:
    g = args.gauge
    caps = bound_table(g, args.depth + 1)
    schedule = sparsity_schedule(g, args.depth, caps)
    manifest = build_manifest("schedule", args, [])
    payload = {"schedule": {**schedule.to_json_dict(), "gauge": g.to_json_dict()}}
    if not schedule.indices:
        payload["warning"] = "empty schedule: the caps are zero on the whole range"
        print("warning: empty schedule (full binary tree)", file=sys.stderr)
    write_json(args.out, payload, manifest)
    if args.csv:
        flags = [0] * args.depth
        for n in schedule.indices:
            flags[n] = 1
        lines = map("%d,%d,%d".__mod__, zip(range(args.depth), caps, flags))
        write_csv(args.csv, ["n", "cap", "in_schedule"], lines, manifest)


def _level_rows(tree: SplittingTree, values: Sequence[Value]):
    """Yield the levels CSV lines 0..the tree's depth: n, the free levels above
    n, the cylinder measure 2^-free, g(2^-n) and the level cost 2^free·g(2^-n),
    the last two from the upper end (m, e) of the enclosure, written as ``m/2^e``
    with that e, not normalised, or as an integer when e <= 0."""
    for n, free, (_, m, e) in zip(range(tree.depth + 1), tree.schedule.free_levels(tree.depth), values):
        c, digits = e - free, str(m)
        yield (f"{n},{free},{f'1/2^{free}' if free else 1},"
               f"{f'{digits}/2^{e}' if e > 0 else m << -e},{f'{digits}/2^{c}' if c > 0 else m << -c}")


def cmd_measure(args) -> None:
    tree = load_json(args.tree, SplittingTree.from_json_dict)
    g = args.gauge
    depth = tree.depth if args.depth is None else args.depth
    if depth > tree.depth:
        raise UsageError(f"--depth {depth} exceeds the tree depth {tree.depth}")
    if args.delta_exp > depth:
        raise UsageError(f"--delta-exp {args.delta_exp} exceeds the depth {depth}")
    tree = tree._replace(depth=depth)
    values = g.scale_values(depth)
    cert = measure_certificate(tree, g, args.delta_exp, values)
    manifest = build_manifest("measure", args, [args.tree])
    write_json(args.out, {"certificate": cert.to_json_dict()}, manifest)
    if args.csv:
        write_csv(
            args.csv,
            ["n", "free", "mu_cylinder", "gauge_value", "level_cost"],
            _level_rows(tree, values),
            manifest,
        )


def cmd_antichain(args) -> None:
    g = args.gauge
    if args.delta_exp > args.depth:
        raise UsageError(f"--delta-exp {args.delta_exp} exceeds --depth {args.depth}")
    maps = load_maps(args.maps)
    for i, m in enumerate(maps):
        # the game reads image bit n only of leaves of length n + lag + 1 or more
        if isinstance(m, TransducerMap) and (drift := m.min_drift(args.depth)) < -m.lag:
            raise UsageError(
                f"map {i} in {args.maps}: an input of length <= {args.depth} loses "
                f"{-drift} bits in its image, more than the lag {m.lag}"
            )
    roots = args.roots
    if args.stages * max(1, len(maps) * len(roots)) > MAX_STAGE_LOG:
        raise UsageError(f"--stages {args.stages} * max(1, {len(maps) * len(roots)} requirements) "
                         f"exceeds {MAX_STAGE_LOG} stages")
    values = g.scale_values(args.depth)
    schedule = sparsity_schedule(g, args.depth, bound_table(g, args.depth + 1, values))
    tree, certificate = run_game(schedule, maps, roots, args.depth, args.stages)
    escape = verify_escape(tree, maps, args.escape_samples, args.seed, certificate)
    walk = level_walk(tree, g, args.delta_exp, values)
    # the report reads both ends at a cut where the lower end is at least 1
    delta_used = max(args.delta_exp, walk.n0 or 0)
    if delta_used > args.delta_exp:
        walk = level_walk(tree, g, delta_used, values)
    dim = dimension_estimate(tree, delta_used)
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
            "frostman": {"lower": format_dyadic(walk.lower), "n0": walk.n0},
            "upper": format_dyadic(walk.upper),
            "delta_exp": delta_used,
        },
        "dimension": {"value": format_rational(dim.value), "witness_level": dim.witness_level},
    }
    write_json(args.out, report, manifest)


def cmd_transfer(args) -> None:
    manifest = build_manifest(f"transfer-{args.mode}", args, [])
    rng = random.Random(args.seed)
    lines = []
    if args.mode == "four-cover":
        draw = rng.getrandbits  # randrange(w) by the stdlib's rule: top w.bit_length() bits, redrawn while >= w
        for i in range(args.count):
            while (den := 8 + draw(16)) >= 1 << 16:  # randrange(8, 2^16)
                pass
            while (lo := draw((den - 1).bit_length())) >= den - 1:  # randrange(den - 1)
                pass
            while (hi := lo + 1 + draw((den - lo - 1).bit_length())) >= den:  # randrange(lo + 1, den)
                pass
            m, first, stop = four_cover_span(lo, hi, den)
            # re-check the span: [first, stop] / 2^m contains [lo, hi] / den
            ok = (0 <= first < stop <= 1 << m and stop - first <= 4
                  and first * den <= lo << m and stop * den >= hi << m)
            lines.append(f"{i},{format_ratio(lo, den)},{format_ratio(hi, den)},{m},{stop - first},{ok:d}")
        write_csv(args.out, ["item", "a", "b", "level", "intervals", "pass"], lines, manifest)
    elif args.mode == "interleave-check":
        if args.count * (args.length + ITEM_BITS) > MAX_BATCH_BITS:
            raise UsageError(f"--count {args.count} * (--length {args.length} + {ITEM_BITS}) exceeds "
                             f"{MAX_BATCH_BITS} bits")
        words = WordReader(rng)
        for i in range(args.count):
            n = 2 + words.below(3)  # rng.choice([2, 3, 4])
            length = args.length - args.length % n
            x = y = words.bits(length)
            while y == x:
                y = words.bits(length)
            k, e, o = interleave_metric_check(x, y, n)
            lines.append(f"{i},{n},{k},{format_ratio(1, 1 << e)},{format_ratio(1, 1 << o)},{e == o:d}")
        write_csv(args.out, ["item", "n", "k", "expected", "observed", "pass"], lines, manifest)
    else:  # cube-map
        lines = [f"{i},{format_rational(c)}" for i, c in enumerate(to_cube(args.bits, args.n))]
        write_csv(args.out, ["coordinate", "value"], lines, manifest)


def cmd_plot(args) -> None:
    header, rows = read_csv_table(args.table)
    if not rows:
        raise UsageError("empty table")
    y_cols = args.y.split(",")
    for col in [args.x, *y_cols]:
        if col not in header:
            raise UsageError(f"missing column {col!r}")
    xi = header.index(args.x)
    try:
        xs = [parse_float(r[xi]) for r in rows]
        series = []
        for col in y_cols:
            yi = header.index(col)
            series.append((col, [parse_float(r[yi]) for r in rows]))
    except (ValueError, ZeroDivisionError, OverflowError, IndexError) as err:
        # IndexError: a row shorter than the header
        raise UsageError(f"bad cell in {args.table}: {err}") from err
    manifest = build_manifest("plot", args, [args.table])
    atomic_write(args.out, render_svg(xs, series, args.x, manifest))


def render_svg(xs, series, x_label, manifest) -> str:
    """Standalone SVG 1.1 line plot; byte-deterministic for fixed input."""
    from xml.sax.saxutils import escape  # not at the top: it imports urllib.request
    width, height, pad = 640, 420, 50
    all_y = [v for _, ys in series for v in ys]

    def axis(lo, hi, length):
        """v in [lo, hi] -> its finite offset along an axis of `length`: a
        flat range puts every v at 0, and one wider than the largest float
        is read at half scale."""
        k = 0.5 if hi - lo == math.inf else 1.0
        lo, span = lo * k, (hi * k - lo * k) or 1.0
        return lambda v: (v * k - lo) / span * length

    sx, sy = axis(min(xs), max(xs), width - 2 * pad), axis(min(all_y), max(all_y), height - 2 * pad)

    comment = json.dumps(manifest, sort_keys=True).replace("--", "-\\u002d")  # no "--" in a comment
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- manifest: {comment} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" font-size="12" text-anchor="middle">{escape(x_label)}</text>',
    ]
    for idx, (label, ys) in enumerate(series):
        color = colors[idx % len(colors)]
        points = " ".join(f"{pad + sx(x):.2f},{height - pad - sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        ly = pad + 16 * idx
        parts.append(
            f'<line x1="{width - pad - 90}" y1="{ly}" x2="{width - pad - 70}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - pad - 64}" y="{ly + 4}" font-size="11">{escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# argument wiring


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone; the usage lists them all."""
    only = command if command in COMMANDS else None
    parser = argparse.ArgumentParser(prog=TOOL_NAME, description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar=only and "{%s}" % ",".join(COMMANDS))

    if only in (None, "schedule"):
        p = sub.add_parser("schedule", help="compute a sparsity schedule for a gauge")
        p.add_argument("--gauge", type=parse_gauge_spec, required=True)
        p.add_argument("--depth", type=int_at_least(0, MAX_DEPTH), required=True)
        p.add_argument("--out", type=output_path, required=True)
        p.add_argument("--csv", type=output_path)
        p.set_defaults(func=cmd_schedule)

    if only in (None, "measure"):
        p = sub.add_parser("measure", help="certify gauge-measure bounds for a tree")
        p.add_argument("--tree", required=True)
        p.add_argument("--gauge", type=parse_gauge_spec, required=True)
        p.add_argument("--delta-exp", type=int_at_least(0), default=0)
        p.add_argument("--depth", type=int_at_least(0, MAX_DEPTH))
        p.add_argument("--out", type=output_path, required=True)
        p.add_argument("--csv", type=output_path)
        p.set_defaults(func=cmd_measure)

    if only in (None, "antichain"):
        p = sub.add_parser("antichain", help="run the full antichain pipeline")
        p.add_argument("--gauge", type=parse_gauge_spec, required=True)
        p.add_argument("--maps", required=True)
        p.add_argument("--depth", type=int_at_least(0, MAX_DEPTH), required=True)
        p.add_argument("--stages", type=int_at_least(0), required=True)
        p.add_argument("--roots", type=parse_roots, default="0,1")
        p.add_argument("--delta-exp", type=int_at_least(0), default=0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--escape-samples", type=int_at_least(1, MAX_SAMPLES), default=1000)
        p.add_argument("--out", type=output_path, required=True)
        p.set_defaults(func=cmd_antichain)

    if only in (None, "transfer"):
        p = sub.add_parser("transfer", help="batch-check the transfer laws")
        p.add_argument("mode", choices=["four-cover", "interleave-check", "cube-map"])
        p.add_argument("--count", type=int_at_least(1, MAX_SAMPLES), default=1000)
        # every n in {2, 3, 4} leaves a nonempty string of length - length % n
        p.add_argument("--length", type=int_at_least(4, MAX_DEPTH), default=60)
        p.add_argument("--bits", type=parse_bits, default="")
        p.add_argument("--n", type=int_at_least(1, MAX_DIMENSION), default=2)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=output_path, required=True)
        p.set_defaults(func=cmd_transfer)

    if only in (None, "plot"):
        p = sub.add_parser("plot", help="render a CSV table as an SVG plot")
        p.add_argument("--table", required=True)
        p.add_argument("--x", required=True)
        p.add_argument("--y", required=True)
        p.add_argument("--out", type=output_path, required=True)
        p.set_defaults(func=cmd_plot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command, parsed by its own subparser alone, and end it: exit 0,
    or a UsageError exits 2 with one `error:` line and an InfeasibleError 3
    with one `infeasible:` line, both before any output (see errors.py)."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InfeasibleError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
