"""Mutation check: every certificate check must fail some test.

Each mutant replaces one piece of text in a file of a temporary copy of the
repository, runs its named tests there with ``pytest -x``, and is killed when
they fail.  A mutant whose tests pass is a survivor; unless it is listed in
EQUIVALENT with the reason it cannot change a result, the script exits 1.

    python tests/mutants.py              # every mutant
    python tests/mutants.py memo bound   # mutants whose name contains a word

Stdlib only; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("pyproject.toml", "src", "tests", "perfbench")
TIMEOUT = 900  # seconds per mutant


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    reason: str
    tests: Tuple[str, ...]


MUTANTS = (
    Mutant(
        "stage_bound_doubled", "src/gaugetree/game.py",
        "if measure > bound:", "if measure > 2 * bound:",
        "stage_step lets a post-stage count exceed its halved bound",
        ("tests/test_scan_cache.py::test_post_stage_count_over_the_bound_is_caught",),
    ),
    Mutant(
        "interference_bound_doubled", "src/gaugetree/game.py",
        "> state.bound(other_key):", "> 2 * state.bound(other_key):",
        "the non-interference check lets another requirement's count double",
        ("tests/test_cli.py::test_antichain_interference_exits_3",),
    ),
    Mutant(
        "bound_exponent_off_by_one", "src/gaugetree/game.py",
        "return self.initial[key] / 2 ** self.stages[key]",
        "return self.initial[key] / 2 ** (self.stages[key] - 1)",
        "every bound, logged and final, is twice the halving the stages earned",
        ("tests/test_game.py::test_certificate_agrees_with_its_stage_log",),
    ),
    Mutant(
        "memo_keyed_by_req_and_depth", "src/gaugetree/game.py",
        "(key := (req, d, len(state.layers)))", "(key := (req, d))",
        "the count memo returns a bad set counted before the latest layer",
        ("tests/test_scan_cache.py",),
    ),
    Mutant(
        "bit_under_takes_every_layer_bit", "src/gaugetree/tree.py",
        "return self._uncut[1] if head.startswith(cut) else bit", "return bit",
        "a node under the layer's root gets the layer's bit, not the default",
        ("tests/test_scan_cache.py::test_game_built_consistent_matches_layer_definition",
         "tests/test_scan_cache.py::test_consistent_matches_per_node_definition"),
    ),
    Mutant(
        "bit_under_takes_no_layer_bit", "src/gaugetree/tree.py",
        "return self._uncut[1] if head.startswith(cut) else bit", "return self._uncut[1]",
        "every node gets the default bit, as if no layer were cut",
        ("tests/test_scan_cache.py::test_game_built_consistent_matches_layer_definition",
         "tests/test_scan_cache.py::test_consistent_matches_per_node_definition"),
    ),
    Mutant(
        "parse_float_reads_a_negative_power", "src/gaugetree/dyadic.py",
        "        if k < 0:\n            raise ValueError(f\"negative power of two in {s!r}\")\n", "",
        "a p/2^-k cell is refused only by the shift's 'negative shift count', which names no cell",
        ("tests/test_dyadic.py", "tests/test_cli.py::test_plot_bad_cell_exits_2"),
    ),
    Mutant(
        "exponent_unbounded", "src/gaugetree/dyadic.py",
        "if e and digits.isdecimal() and", "if False and",
        "a gauge number like 1e999999999 makes Fraction build 10^999999999",
        ("tests/test_dyadic.py", "tests/test_gauge.py", "tests/test_cli.py::test_bad_gauge_exits_2"),
    ),
    Mutant(
        "value_bits_unbounded", "src/gaugetree/dyadic.py",
        "if max(abs(x.numerator), x.denominator).bit_length() > MAX_BITS:", "if False:",
        "table:0=1e4300 is read, and its 4 301-digit value fails only when the JSON is written",
        ("tests/test_dyadic.py", "tests/test_cli.py::test_bad_gauge_exits_2"),
    ),
    Mutant(
        "digit_run_unbounded", "src/gaugetree/dyadic.py",
        "default=0) > MAX_EXPONENT:", "default=0) > 10 * MAX_EXPONENT:",
        "a 4 401-digit decimal is refused by the interpreter's int limit, whose message names no spec",
        ("tests/test_dyadic.py", "tests/test_cli.py::test_bad_gauge_exits_2"),
    ),
    Mutant(
        "power_log_c_unbounded", "src/gaugetree/gauge.py",
        "if max(abs(c.numerator), c.denominator) > MAX_TERM:", "if False:",
        "power_log:1,1/1000000000 takes a 10^9-th root of a 6.4·10^10-bit number at every level",
        ("tests/test_gauge.py", "tests/test_cli.py::test_bad_gauge_exits_2"),
    ),
    Mutant(
        "count_mask_kept_whole_at_a_forced_level", "src/gaugetree/game.py",
        "w = c if cols is None else", "w = c if cols is None or i in forced else",
        "a sampled row whose forced bit differs from the certificate's tree stays in its bad set",
        ("tests/test_scan_cache.py::test_count_weighs_sample_masks_like_the_enumerated_bad_set",
         "tests/test_scan_cache.py::test_a_row_outside_the_certificates_tree_is_unaccounted"),
    ),
    Mutant(
        "count_mask_halves_swapped", "src/gaugetree/game.py",
        'c & one if b == "1" else c & ~one', 'c & ~one if b == "1" else c & one',
        "each sampled row follows the bit it does not have",
        ("tests/test_scan_cache.py::test_count_weighs_sample_masks_like_the_enumerated_bad_set",
         "tests/test_scan_cache.py::test_verify_escape_mask_pass_matches_per_sample_loop"),
    ),
    Mutant(
        "escape_first_difference_capped_short", "src/gaugetree/game.py",
        "part, p = part ^ same, min(n, cap)", "part, p = part ^ same, min(n, cap - 1)",
        "a sample whose image leaves it at its longest root's last bit is filed under the level before",
        ("tests/test_scan_cache.py::test_verify_escape_matches_per_sample_loop",
         "tests/test_scan_cache.py::test_verify_escape_mask_pass_matches_per_sample_loop"),
    ),
    Mutant(
        "certified_mask_skips_the_root_filter", "src/gaugetree/game.py",
        'for j, ch in enumerate(root if mask else ""):', 'for j, ch in enumerate(""):',
        "a root certifies every sample whose first difference has its length, under any root",
        ("tests/test_scan_cache.py::test_verify_escape_matches_per_sample_loop",
         "tests/test_scan_cache.py::test_verify_escape_mask_pass_matches_per_sample_loop"),
    ),
    Mutant(
        "level_dp_keeps_the_last_least_cost", "src/gaugetree/hausdorff.py",
        "if least is None or not value_le(least, (hi, e - free[n])):",
        "if least is None or value_le((hi, e - free[n]), least):",
        "a tie of level costs names the deeper level as the witness",
        ("tests/test_certify_oracles.py::test_level_dp_matches_both_reference_passes",
         "tests/test_cli.py::test_levels_csv_is_the_evidence_of_the_upper_bound"),
    ),
    Mutant(
        "level_dp_starts_past_the_cut_level", "src/gaugetree/hausdorff.py",
        "for n in range(k, tree.depth + 1):",
        "for n in range(k + 1, tree.depth + 1):",
        "the cover never cuts at level k itself, so a cheapest cut there is missed",
        ("tests/test_certify_oracles.py::test_level_dp_matches_both_reference_passes",
         "tests/test_cli.py::test_levels_csv_is_the_evidence_of_the_upper_bound"),
    ),
    Mutant(
        "frostman_worst_keeps_the_last_least_cost", "src/gaugetree/hausdorff.py",
        "if worst is None or not value_le(worst[1], (lo, c)):",
        "if worst is None or value_le((lo, c), worst[1]):",
        "a tie of failing level costs names the deeper level",
        ("tests/test_certify_oracles.py::test_frostman_lower_matches_reference",
         "tests/test_cli.py::test_frostman_failure_names_the_first_least_level_cost"),
    ),
    Mutant(
        "frostman_deepest_failure_passes", "src/gaugetree/hausdorff.py",
        "if last == tree.depth:", "if last == tree.depth + 1:",
        "a tree whose deepest level fails the mass distribution test gets a floor from n0 = depth + 1",
        ("tests/test_hausdorff.py::test_frostman_failure_when_tree_too_thin",
         "tests/test_certify_oracles.py::test_frostman_lower_matches_reference"),
    ),
    Mutant(
        "free_levels_counts_level_n_itself", "src/gaugetree/tree.py",
        "return list(accumulate(steps, initial=0))",
        "return list(accumulate(steps + [1]))",
        "every level pass weighs a level's cylinders as if the level itself had split",
        ("tests/test_tree.py::test_free_levels_count_the_free_levels_above_each_level",
         "tests/test_certify_oracles.py::test_frostman_lower_matches_reference",
         "tests/test_cli.py::test_frostman_failure_names_the_first_least_level_cost"),
    ),
    Mutant(
        "dimension_keeps_the_last_least_ratio", "src/gaugetree/hausdorff.py",
        "for n in range(max(k, 1), tree.depth + 1):",
        "for n in reversed(range(max(k, 1), tree.depth + 1)):",
        "a tie of free(n)/n names the deepest level as the witness",
        ("tests/test_hausdorff.py::test_dimension_odds_half",
         "tests/test_hausdorff.py::test_dimension_matches_the_naive_minimum",
         "tests/test_cli.py::test_levels_csv_is_the_evidence_of_the_pinned_dimension"),
    ),
    Mutant(
        "dimension_starts_past_the_cut_level", "src/gaugetree/hausdorff.py",
        "for n in range(max(k, 1), tree.depth + 1):",
        "for n in range(k + 1, tree.depth + 1):",
        "the pass skips level k itself, so a least ratio there is missed",
        ("tests/test_hausdorff.py::test_dimension_matches_the_naive_minimum",),
    ),
    Mutant(
        "dimension_ties_replace_the_witness", "src/gaugetree/hausdorff.py",
        "free[n] * w < free[w] * n", "free[n] * w <= free[w] * n",
        "each later level of an equal ratio takes the witness over",
        ("tests/test_hausdorff.py::test_dimension_matches_the_naive_minimum",
         "tests/test_cli.py::test_levels_csv_is_the_evidence_of_the_pinned_dimension"),
    ),
    Mutant(
        "interleave_batch_unbounded", "src/gaugetree/cli.py",
        "if args.count * (args.length + ITEM_BITS) > MAX_BATCH_BITS:", "if False:",
        "transfer interleave-check draws count × length bits however many that is",
        ("tests/test_cli.py::test_interleave_check_work_is_bounded",),
    ),
    Mutant(
        "interleave_item_cost_dropped", "src/gaugetree/cli.py",
        "if args.count * (args.length + ITEM_BITS) > MAX_BATCH_BITS:",
        "if args.count * args.length > MAX_BATCH_BITS:",
        "2^20 items of 16 bits pass the bound and take 16.5 s of per-item work",
        ("tests/test_cli.py::test_interleave_check_work_is_bounded",),
    ),
    Mutant(
        "stage_log_unbounded", "src/gaugetree/cli.py",
        "if args.stages * max(1, len(maps) * len(roots)) > MAX_STAGE_LOG:", "if False:",
        "antichain plays any stage count, at a cost that grows with its square",
        ("tests/test_cli.py::test_antichain_stage_log_is_bounded",),
    ),
    Mutant(
        "measure_does_not_cut_to_depth", "src/gaugetree/cli.py",
        "    tree = tree._replace(depth=depth)\n", "",
        "measure --depth below the tree's depth certifies, or fails on, levels it was not asked for",
        ("tests/test_cli.py::test_measure_depth_zero_is_honoured",),
    ),
)

# name -> why the mutant cannot change any result; such a mutant may survive
EQUIVALENT = {}


def copy_repo(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_work")
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, name), ignore=ignore)
        else:
            shutil.copy2(src, dest)


def apply(dest: str, m: Mutant) -> None:
    path = os.path.join(dest, m.path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(m.old) != 1:
        raise SystemExit(f"mutant {m.name}: {m.old!r} occurs {text.count(m.old)} times in {m.path}, not once")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(m.old, m.new))


def run(m: Mutant) -> str:
    """'killed', 'survived' or 'timeout'."""
    with tempfile.TemporaryDirectory(prefix="gaugetree-mutant-") as dest:
        copy_repo(dest)
        apply(dest, m)
        env = {**os.environ, "PYTHONPATH": os.path.join(dest, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *m.tests]
        try:
            proc = subprocess.run(argv, cwd=dest, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timeout"
    if proc.returncode not in (0, 1):  # 1: tests failed; anything else: pytest itself stopped
        raise SystemExit(f"mutant {m.name}: pytest exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return "survived" if proc.returncode == 0 else "killed"


def main(words) -> int:
    chosen = [m for m in MUTANTS if not words or any(w in m.name for w in words)]
    survivors = []
    for m in chosen:
        t0 = time.perf_counter()
        verdict = run(m)
        note = f" (equivalent: {EQUIVALENT[m.name]})" if verdict == "survived" and m.name in EQUIVALENT else ""
        print(f"{verdict:8} {time.perf_counter() - t0:6.1f}s  {m.name}: {m.reason}{note}", flush=True)
        if verdict == "survived" and m.name not in EQUIVALENT:
            survivors.append(m.name)
    print(f"{len(chosen)} mutants, {len(chosen) - len(survivors)} killed or equivalent, survivors: {survivors or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
