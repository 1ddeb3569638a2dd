"""Self-test of the benchmark itself; takes about fifteen seconds.

    python3 perfbench/selftest.py

A tiny run of each workload must emit every metric BENCHMARK.json names,
deliberately corrupted outputs must count as failed ops, and the benchmark
must refuse to run without the gaugetree sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from types import SimpleNamespace

import checks
import run
import spans
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def tiny_specs(workload: str) -> list:
    """The cheapest ops of one round, plus one op that fails today."""
    specs = workloads.generate(workload, 7, 1, run.workdir_for(workload))
    if workload == "antichain":
        return [s for s in specs if s["depth"] == 64 and s["maps"] == "flip_shift"]
    if workload == "deep_certify":
        return [s for s in specs if s["depth"] == 1000 or (s["depth"] == 4000 and s["gauge"] == "power:1/2")]
    for s in specs[:1]:
        s.update(cover_count=300, check_count=100)
    return specs[:1]


class MetricNames(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        self.assertEqual(
            [(w["name"], w["why"]) for w in BENCHMARK["workloads"]],
            [(w, workloads.WHY[w]) for w in workloads.WORKLOADS],
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}, run.END_TO_END_UNITS
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]],
            [row[:3] for row in spans.PER_LAYER],
        )


class TinyRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = run.import_program()

    def assert_metrics(self, metrics: dict, section: str):
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in BENCHMARK[section]))
        for name, value in metrics.items():
            self.assertTrue(math.isfinite(value), name)

    def test_every_workload_emits_every_metric(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                specs = tiny_specs(workload)
                outcomes, metrics, _ = run.run_plain(workload, specs, self.cli, [0.01])
                self.assert_metrics(metrics, "end_to_end")
                _, traced, _ = run.run_traced(workload, specs, self.cli)
                self.assert_metrics(traced, "per_layer")
                failed = [o for o in outcomes if o.problems]
                if workload == "deep_certify":
                    # the known float underflow at depth 4000 stays a failed op
                    self.assertEqual([workloads.label(o.spec) for o in failed], ["power:1/2 d=4000"])
                    self.assertFalse(failed[0].exited_ok)
                else:
                    self.assertEqual(failed, [])
                self.assertTrue(json.loads(run.result_line(outcomes, metrics, run.END_TO_END_UNITS))["correct"])

    def corrupted(self, workload: str, spec: dict, step: str, corrupt) -> run.Outcome:
        """Run one op whose `step` output is rewritten by `corrupt(workdir)`."""
        workdir = run.workdir_for(workload)

        def main(argv):
            code = self.cli.main(argv)
            if argv[0] == step or argv[:2] == ["transfer", step]:
                corrupt(workdir)
            return code

        return run.execute(workload, spec, SimpleNamespace(main=main), workdir)

    def test_certificate_with_lower_above_upper_fails(self):
        spec = next(s for s in tiny_specs("deep_certify") if s["gauge"] == "power_log:1,1")
        spec["delta_exp"] = 4  # at or past the Frostman threshold, so lower <= upper is claimed

        def corrupt(workdir):
            path = os.path.join(workdir, "cert.json")
            with open(path) as fh:
                doc = json.load(fh)
            doc["certificate"]["upper"]["value"] = "1/2^1"
            with open(path, "w") as fh:
                json.dump(doc, fh)

        outcome = self.corrupted("deep_certify", spec, "measure", corrupt)
        self.assertTrue(outcome.exited_ok)
        self.assertIn("lower 1 > upper 1/2^1", outcome.problems)
        line = json.loads(run.result_line([outcome], {}, {}))
        self.assertEqual((line["correct"], line["failed"]), (False, 1))

    def test_csv_row_with_pass_zero_fails(self):
        spec = tiny_specs("transfer_batch")[0]

        def corrupt(workdir):
            path = os.path.join(workdir, "covers.csv")
            with open(path) as fh:
                lines = fh.read().splitlines()
            lines[2] = lines[2][:-1] + "0"  # first data row, after manifest and header
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")

        outcome = self.corrupted("transfer_batch", spec, "four-cover", corrupt)
        self.assertIn("covers.csv: 1 rows with pass != 1", outcome.problems)

    def test_cover_recheck_rejects_a_wrong_level(self):
        self.assertIsNone(checks.cover_problem(["0", "1/3", "1/2", "3", "3", "1"]))
        self.assertIsNotNone(checks.cover_problem(["0", "1/3", "1/2", "4", "3", "1"]))
        self.assertIsNotNone(checks.cover_problem(["0", "1/3", "1/2", "3", "1", "1"]))


class BareDirectory(unittest.TestCase):
    def test_refuses_to_run_without_the_program(self):
        bare = os.path.join(run.ROOT, ".perfbench_work", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, *BENCHMARK["command"][1:], "--workload", "transfer_batch",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
