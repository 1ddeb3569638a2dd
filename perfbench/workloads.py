"""Seeded inputs and CLI steps for the three benchmark workloads.

Every workload is a fixed set of op configurations.  One round runs each
configuration once; the seed shuffles the order of every round and draws the
free parameters (escape seed, ``--delta-exp``, selector, the transfer
``--seed`` values).  Keeping the configuration set fixed keeps the amount of
work per round the same for every seed, so runs with different seeds are
comparable.  The program sees only the argv and the files written here.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("antichain", "deep_certify", "transfer_batch")

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "antichain": "game.bad_set and tree.materialize do most of the work while the deep numerics barely run, so it shows game-engine changes",
    "deep_certify": "gauge, hausdorff, dyadic.format_dyadic and cli CSV formatting do all the work and game does none, over a depth ladder up to 8000",
    "transfer_batch": "the only workload running transfer and dyadic.floor_log2, writing large CSVs with no gauge or game work; the control workload",
}

# Seconds one round took on the code this benchmark was written against
# (2-core x86-64 container, CPython 3.11).  A run executes a fixed number of
# rounds, --seconds // ROUND_SECONDS (at least two), so a faster program is
# compared on exactly the same op list, with the same sample count behind
# each percentile.
ROUND_SECONDS = {"antichain": 22.5, "deep_certify": 4.2, "transfer_batch": 2.0}

ANTICHAIN_GAUGES = ("power_log:1,1", "power:1/2")
ANTICHAIN_DEPTHS = (64, 256)
ANTICHAIN_STAGES = 3
ANTICHAIN_ROOTS = ("0", "1")
# Large enough that verify_escape is roughly a quarter of an antichain op.
ESCAPE_SAMPLES = 4000
# Prefix parity: a two-state lag-0 transducer that keeps every gauge and depth
# above feasible for 3 stages.
PARITY = {
    "kind": "transducer",
    "start": 0,
    "delta": [[0, 0, 0, "0"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "0"]],
    "lag": 0,
}
MAP_SETS = {
    "flip_shift": [{"kind": "bit_flip"}, {"kind": "shift"}],
    "flip_shift_parity": [{"kind": "bit_flip"}, {"kind": "shift"}, PARITY],
}

# power_log:1,1 stays on the exact Fraction path; power:1/2 mixes exact
# (even n) and float (odd n) values and underflows past depth ~2200.
DEEP_GAUGES = ("power_log:1,1", "power:1/2")
DEEP_DEPTHS = (1000, 2000, 4000, 8000)
DELTA_EXPS = range(0, 9)

# (four-cover count, interleave-check count, interleave-check length): each
# op takes about 0.3-1 s.
TRANSFER_SIZES = ((4000, 1200, 120), (6000, 800, 300), (8000, 1800, 60), (10000, 1000, 240))


def configurations(workload: str) -> list:
    if workload == "antichain":
        return [
            {"gauge": g, "maps": m, "depth": d}
            for g in ANTICHAIN_GAUGES
            for m in MAP_SETS
            for d in ANTICHAIN_DEPTHS
        ]
    if workload == "deep_certify":
        return [{"gauge": g, "depth": d} for g in DEEP_GAUGES for d in DEEP_DEPTHS]
    if workload == "transfer_batch":
        return [
            {"cover_count": c, "check_count": n, "length": length}
            for c, n, length in TRANSFER_SIZES
        ]
    raise ValueError(f"unknown workload {workload!r}")


def label(spec: dict) -> str:
    if "cover_count" in spec:
        return f"covers={spec['cover_count']} checks={spec['check_count']}x{spec['length']}"
    parts = [spec["gauge"], f"d={spec['depth']}"]
    if "maps" in spec:
        parts.insert(1, spec["maps"])
    return " ".join(parts)


def generate(workload: str, seed: int, rounds: int, workdir: str) -> list:
    """Write the input files and return the op specs for `rounds` rounds."""
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(workdir, exist_ok=True)
    if workload == "antichain":
        for name, maps in MAP_SETS.items():
            with open(os.path.join(workdir, f"{name}.json"), "w") as fh:
                json.dump(maps, fh)
    specs = []
    for _ in range(rounds):
        batch = configurations(workload)
        rng.shuffle(batch)
        for spec in batch:
            if workload == "antichain":
                spec["escape_seed"] = rng.randrange(2**31)
            elif workload == "deep_certify":
                spec["delta_exp"] = rng.choice(DELTA_EXPS)
                spec["selector"] = rng.choice(
                    [
                        {"kind": "constant", "bit": 0},
                        {"kind": "constant", "bit": 1},
                        {"kind": "seeded", "seed": rng.randrange(2**31)},
                    ]
                )
            else:
                spec["cover_seed"] = rng.randrange(2**31)
                spec["check_seed"] = rng.randrange(2**31)
                spec["sample_seed"] = rng.randrange(2**31)
            specs.append(spec)
    return specs


# ---------------------------------------------------------------------------
# the CLI steps of one op


class ExitCodeError(Exception):
    """A CLI step returned a non-zero exit code."""


def _cli(main, argv) -> None:
    code = main([str(a) for a in argv])
    if code != 0:
        raise ExitCodeError(f"{argv[0]} exited {code}")


def _fresh(workdir: str, *names: str) -> list:
    """Paths of this op's outputs, with any previous op's copies removed."""
    paths = [os.path.join(workdir, n) for n in names]
    for p in paths:
        if os.path.exists(p):
            os.unlink(p)
    return paths


def run_antichain(main, spec: dict, workdir: str) -> None:
    (report,) = _fresh(workdir, "report.json")
    _cli(main, [
        "antichain", "--gauge", spec["gauge"],
        "--maps", os.path.join(workdir, f"{spec['maps']}.json"),
        "--depth", spec["depth"], "--stages", ANTICHAIN_STAGES,
        "--roots", ",".join(ANTICHAIN_ROOTS), "--seed", spec["escape_seed"],
        "--escape-samples", ESCAPE_SAMPLES, "--out", report,
    ])


def run_deep_certify(main, spec: dict, workdir: str) -> None:
    sched, caps, tree, cert, levels = _fresh(
        workdir, "schedule.json", "caps.csv", "tree.json", "cert.json", "levels.csv"
    )
    _cli(main, ["schedule", "--gauge", spec["gauge"], "--depth", spec["depth"],
                "--out", sched, "--csv", caps])
    with open(sched) as fh:
        schedule = json.load(fh)["schedule"]
    with open(tree, "w") as fh:
        json.dump({"schedule": schedule, "selector": spec["selector"], "depth": spec["depth"]}, fh)
    _cli(main, ["measure", "--tree", tree, "--gauge", spec["gauge"],
                "--delta-exp", spec["delta_exp"], "--out", cert, "--csv", levels])


def run_transfer_batch(main, spec: dict, workdir: str) -> None:
    covers, metric = _fresh(workdir, "covers.csv", "metric.csv")
    _cli(main, ["transfer", "four-cover", "--count", spec["cover_count"],
                "--seed", spec["cover_seed"], "--out", covers])
    _cli(main, ["transfer", "interleave-check", "--count", spec["check_count"],
                "--length", spec["length"], "--seed", spec["check_seed"], "--out", metric])


RUN = {
    "antichain": run_antichain,
    "deep_certify": run_deep_certify,
    "transfer_batch": run_transfer_batch,
}
