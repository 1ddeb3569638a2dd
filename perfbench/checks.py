"""Independent checks of every op's outputs.

Each check re-derives what it needs with its own exact integer or Fraction
arithmetic and reads only the files the CLI wrote; none of it calls into
gaugetree.  A check returns a list of problems, empty when the output holds.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from fractions import Fraction

from workloads import ANTICHAIN_ROOTS, ANTICHAIN_STAGES, MAP_SETS

# four-cover rows re-checked per op
COVER_SAMPLE = 64


def number(value) -> Fraction:
    """A certificate value: ``p/2^q``, a decimal string, or a JSON number."""
    if isinstance(value, str) and "/2^" in value:
        p, q = value.split("/2^")
        return Fraction(int(p), 2 ** int(q))
    return Fraction(value)


def cap(gauge: str, m: int) -> int:
    """floor(log2(g(2^-m) * 2^m)), clamped at 0, for the two gauges in use."""
    if m == 0:
        return 0
    if gauge == "power_log:1,1":  # g(2^-m) * 2^m = m
        return m.bit_length() - 1
    if gauge == "power:1/2":  # g(2^-m) * 2^m = 2^(m/2)
        return m // 2
    raise ValueError(f"no independent cap for gauge {gauge!r}")


def schedule_problems(gauge: str, depth: int, schedule: dict) -> list:
    indices = schedule["indices"]
    if schedule["depth"] != depth:
        return [f"schedule depth {schedule['depth']} != {depth}"]
    if any(not 0 <= i < depth for i in indices) or indices != sorted(set(indices)):
        return ["schedule indices not strictly increasing in [0, depth)"]
    below = 0
    for m in range(depth + 1):
        if below > cap(gauge, m):
            return [f"schedule has {below} forced levels below {m}, cap {cap(gauge, m)}"]
        if below < len(indices) and indices[below] == m:
            below += 1
    return []


def read_csv(path: str):
    with open(path) as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[0], rows[1:]


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def antichain(spec: dict, workdir: str) -> list:
    report = _load(os.path.join(workdir, "report.json"))
    problems = schedule_problems(spec["gauge"], spec["depth"], report["schedule"])
    game = report["game_certificate"]
    for r in game["requirements"]:
        initial, final = number(r["initial"]), number(r["final_bound"])
        if r["stages"] != ANTICHAIN_STAGES or final != initial / 2**ANTICHAIN_STAGES:
            problems.append(f"requirement {r['map']}/{r['root']}: final bound {final} != initial/2^stages")
        if number(r["recomputed"]) > final:
            problems.append(f"requirement {r['map']}/{r['root']}: recomputed {r['recomputed']} > bound {final}")
    expected = ANTICHAIN_STAGES * len(MAP_SETS[spec["maps"]]) * len(ANTICHAIN_ROOTS)
    if game["stages_executed"] != expected:
        problems.append(f"stages_executed {game['stages_executed']} != {expected}")
    for per_map in game["escape_report"]["per_map"]:
        if per_map["unaccounted"] != 0:
            problems.append(f"map {per_map['map']}: {per_map['unaccounted']} unaccounted escapes")
    cert = report["measure_certificate"]
    lower = cert["frostman"]["lower"]
    if lower is not None and number(lower) > number(cert["upper"]):
        problems.append(f"frostman lower {lower} > cover upper {cert['upper']}")
    return problems


def deep_certify(spec: dict, workdir: str) -> list:
    depth = spec["depth"]
    schedule = _load(os.path.join(workdir, "schedule.json"))["schedule"]
    problems = schedule_problems(spec["gauge"], depth, schedule)
    _, rows = read_csv(os.path.join(workdir, "levels.csv"))
    if len(rows) != depth + 1:
        problems.append(f"levels CSV has {len(rows)} rows, expected {depth + 1}")
    cert = _load(os.path.join(workdir, "cert.json"))["certificate"]
    lower, upper = cert["lower"]["value"], number(cert["upper"]["value"])
    # The Frostman floor holds for covers finer than 2^-n0 only; a coarser
    # --delta-exp may legitimately cost less (power_log has g(1) = 0).
    if lower is not None and spec["delta_exp"] >= cert["lower"]["n0"]:
        if number(lower) > upper:
            problems.append(f"lower {lower} > upper {cert['upper']['value']}")
        if upper <= 0:
            problems.append(f"upper {cert['upper']['value']} is not positive")
    return problems


def cover_problem(row: list):
    """Re-check one four-cover row: some `intervals` (at most 4) level-m
    dyadic intervals cover [a, b], and m is the level the construction
    prescribes.  For b - a <= 1/2 that is the unique m with
    2^-m < b - a <= 2^-(m-1); for b - a > 1/2 it is the unit interval."""
    a, b = Fraction(row[1]), Fraction(row[2])
    m, k = int(row[3]), int(row[4])
    diam = b - a
    if not 0 <= a < b <= 1:
        return f"item {row[0]}: [{a}, {b}] is not a subinterval of [0, 1]"
    if not 1 <= k <= 4:
        return f"item {row[0]}: {k} intervals"
    if diam > Fraction(1, 2):
        level_ok = m == 0
    else:
        level_ok = m >= 1 and Fraction(1, 2**m) < diam <= Fraction(1, 2 ** (m - 1))
    if not level_ok:
        return f"item {row[0]}: level {m} does not match diameter {diam}"
    needed = math.ceil(b * 2**m) - math.floor(a * 2**m)
    if needed > k:
        return f"item {row[0]}: [{a}, {b}] needs {needed} level-{m} intervals, row has {k}"
    return None


def transfer_batch(spec: dict, workdir: str) -> list:
    problems = []
    for name, count in (("covers.csv", spec["cover_count"]), ("metric.csv", spec["check_count"])):
        header, rows = read_csv(os.path.join(workdir, name))
        if len(rows) != count:
            problems.append(f"{name}: {len(rows)} rows, expected {count}")
        col = header.index("pass")
        failing = sum(row[col] != "1" for row in rows)
        if failing:
            problems.append(f"{name}: {failing} rows with pass != 1")
        if name == "covers.csv":
            sample = random.Random(spec["sample_seed"]).sample(rows, min(COVER_SAMPLE, len(rows)))
            problems.extend(p for p in map(cover_problem, sample) if p)
    return problems


CHECK = {
    "antichain": antichain,
    "deep_certify": deep_certify,
    "transfer_batch": transfer_batch,
}
