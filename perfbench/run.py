"""gaugetree benchmark: drives ``gaugetree.cli.main(argv)`` in-process.

    python3 perfbench/run.py --workload antichain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One client, one process, no threads, closed loop: each op starts when the
previous one has finished.  Every op's outputs are checked independently
(checks.py); an op that raises, exits non-zero or fails a check is a failed
op.  ``correct`` in the result line is false when an op exited 0 yet failed
a check, that is when the program returned a wrong answer as a success.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` every op runs twice, untraced and then traced (spans.py), and
the line holds the per-layer metrics plus the tracing overhead.  Spans are
written to ``.perfbench_work/<workload>/spans.json.gz``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import checks
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Fresh processes that each time the set-up; setup_s is their median
# together with the run's own set-up.
SETUP_PROBES = 8
# op_tail_s is the highest percentile with at least this many samples above it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import gaugetree.cli from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "gaugetree", "cli.py")):
        sys.exit(f"error: no gaugetree sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "gaugetree" or n.startswith("gaugetree.")]:
        del sys.modules[name]
    cli = importlib.import_module("gaugetree.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported gaugetree from {cli.__file__}, not {SRC}")
    return cli


def workdir_for(workload: str) -> str:
    return os.path.join(ROOT, ".perfbench_work", workload)


def rounds_for(workload: str, seconds: int) -> int:
    """At least two rounds, so every configuration is timed twice."""
    return max(2, int(seconds // workloads.ROUND_SECONDS[workload]))


def set_up(args, rounds: int):
    """Import the program and generate the inputs: the timed set-up."""
    t0 = time.perf_counter()
    cli = import_program()
    specs = workloads.generate(args.workload, args.seed, rounds, workdir_for(args.workload))
    return time.perf_counter() - t0, cli, specs


def probe_setup(args) -> list:
    """Set-up times of SETUP_PROBES fresh interpreters, one after another."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(proc.returncode or 1)
        times.append(float(proc.stdout.split()[-1]))
    return times


# ---------------------------------------------------------------------------
# one op


@dataclass
class Outcome:
    spec: dict
    seconds: float
    exited_ok: bool
    problems: list


def execute(workload: str, spec: dict, cli, workdir: str) -> Outcome:
    gc.collect()  # start every op from the same heap state, outside the timing
    t0 = time.perf_counter()
    try:
        workloads.RUN[workload](cli.main, spec, workdir)
        problems = []
    except Exception as err:  # the op failed; record why and go on
        problems = [f"{type(err).__name__}: {err}"]
    except SystemExit as err:  # argparse rejected the argv
        problems = [f"SystemExit: {err.code}"]
    seconds = time.perf_counter() - t0
    exited_ok = not problems
    if exited_ok:
        try:
            problems = checks.CHECK[workload](spec, workdir)
        except (OSError, ValueError, KeyError, TypeError, IndexError, ArithmeticError) as err:
            problems = [f"unreadable output: {type(err).__name__}: {err}"]
    return Outcome(spec, seconds, exited_ok, problems)


# ---------------------------------------------------------------------------
# metrics


def tail(times: list):
    """(value, percentile, count): the highest percentile with at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(times)
    i = len(ordered) - 1 - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered)


def end_to_end(outcomes: list, wall: float, setup: list) -> tuple:
    ok = [o.seconds for o in outcomes if not o.problems]
    value, pct, count = tail(ok) if ok else (0.0, 0.0, 0)
    metrics = {
        "ops_per_s": len(ok) / wall,
        "op_p50_s": statistics.median(ok) if ok else 0.0,
        "op_tail_s": value,
        "ok_ratio": len(ok) / len(outcomes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "op_tail_s": f"p{pct:.1f} of {count} successful ops",
        "ok_ratio": f"failed_ratio {1 - metrics['ok_ratio']:.4f}",
        "setup_s": f"median of {len(setup)} set-ups",
    }
    return metrics, notes


def report_failures(outcomes: list) -> None:
    by_label = {}
    for o in outcomes:
        if o.problems:
            by_label.setdefault(workloads.label(o.spec), []).append(o)
    for name, failed in sorted(by_label.items()):
        print(f"  failed {len(failed)}x {name}: {'; '.join(failed[0].problems[:3])}")


def result_line(outcomes: list, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": not any(o.exited_ok and o.problems for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(bool(o.problems) for o in outcomes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def run_plain(workload: str, specs: list, cli, setup: list) -> tuple:
    workdir = workdir_for(workload)
    wall0 = time.perf_counter()
    outcomes = [execute(workload, spec, cli, workdir) for spec in specs]
    wall = time.perf_counter() - wall0
    metrics, notes = end_to_end(outcomes, wall, setup)
    return outcomes, metrics, notes


def run_traced(workload: str, specs: list, cli) -> tuple:
    """Each op untraced, then traced, so both medians cover the same ops."""
    workdir = workdir_for(workload)
    tracer = spans.Tracer()
    plain, traced = [], []
    for i, spec in enumerate(specs):
        plain.append(execute(workload, spec, cli, workdir))
        tracer.op_id = i
        tracer.install()
        try:
            traced.append(execute(workload, spec, cli, workdir))
        finally:
            tracer.uninstall()
    metrics, self_s = tracer.metrics(len(specs))

    def p50(outcomes):
        ok = [o.seconds for o in outcomes if not o.problems]
        return statistics.median(ok) if ok else 0.0

    metrics["trace.overhead_s"] = p50(traced) - p50(plain)
    tracer.write(os.path.join(workdir, "spans.json.gz"))
    return plain + traced, metrics, self_s


def run_one(args) -> int:
    rounds = rounds_for(args.workload, args.seconds)
    if args.trace:
        rounds = max(1, rounds // 2)
    probes = [] if args.trace else probe_setup(args)
    own, cli, specs = set_up(args, rounds)
    setup = probes + [own]
    print(f"workload {args.workload}: seed {args.seed}, {rounds} round(s) of "
          f"{len(specs) // rounds} ops, trace {args.trace}")
    if args.trace:
        outcomes, metrics, self_s = run_traced(args.workload, specs, cli)
        units = {name: unit for name, unit, _, _ in spans.PER_LAYER}
        for name, _, _, moves in spans.PER_LAYER:
            print(f"  {name:40s} {metrics[name]:14.6g} {units[name]:9s} -> {moves}")
        top = sorted(self_s.items(), key=lambda kv: -kv[1])[:5]
        print("  largest self times: " + ", ".join(f"{k} {v:.4g} s/op" for k, v in top))
    else:
        outcomes, metrics, notes = run_plain(args.workload, specs, cli, setup)
        units = END_TO_END_UNITS
        for name, value in metrics.items():
            print(f"  {name:12s} {value:12.6g} {units[name]:6s} {notes.get(name, '')}")
    report_failures(outcomes)
    print(result_line(outcomes, metrics, units))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak_rss_mb stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        seconds, _, _ = set_up(args, rounds_for(args.workload, args.seconds))
        print(seconds)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
