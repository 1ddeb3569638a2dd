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
        "if not value_le(measure, bound):", "if not value_le(measure, (bound[0], bound[1] - 1)):",
        "stage_step lets a post-stage count exceed its halved bound",
        ("tests/test_scan_cache.py::test_post_stage_count_over_the_bound_is_caught",),
    ),
    Mutant(
        "interference_check_always_skipped", "src/gaugetree/game.py",
        "if chosen is not None:", "if False:",
        "a layer that raises another requirement's bad set above its bound is kept",
        ("tests/test_cli.py::test_antichain_interference_exits_3[depth6_halved_bound]",),
    ),
    Mutant(
        "interference_bound_doubled", "src/gaugetree/game.py",
        ", state.bound(other_key)):", ", (state.bound(other_key)[0], state.bound(other_key)[1] - 1)):",
        "the non-interference check lets another requirement's count double",
        ("tests/test_cli.py::test_antichain_interference_exits_3",),
    ),
    Mutant(
        "bound_exponent_off_by_one", "src/gaugetree/game.py",
        "return dyadic_pair(m, e + self.stages[key])",
        "return dyadic_pair(m, e + self.stages[key] - 1)",
        "every bound, logged and final, is twice the halving the stages earned",
        ("tests/test_game.py::test_certificate_agrees_with_its_stage_log",),
    ),
    Mutant(
        "recomputed_restates_the_bound", "src/gaugetree/game.py",
        '"recomputed": format_dyadic(bad_set(self, req).measure)', '"recomputed": format_dyadic(self.bound(key))',
        "the certificate's recomputed measure restates the final bound instead of counting the final bad set",
        ("tests/test_cli.py::test_antichain_report_matches_pinned_fixture",),
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
        "format_dyadic_skips_normal_form", "src/gaugetree/dyadic.py",
        "m, e = dyadic_pair(*v)", "m, e = v",
        "a pair with an even mantissa, such as a level walk's end, is written as m/2^e and not in normal form",
        ("tests/test_dyadic.py", "tests/test_cli.py::test_measure_command"),
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
        "power_log_classes_drop_the_log_term", "src/gaugetree/gauge.py",
        "range((p << t) - t * a,", "range((p << t),",
        "an exact power-log value written by class misses the factor 2^(ta) of n^a = (2^t·u)^a",
        ("tests/test_certify_oracles.py::test_exact_power_log_classes_match_the_kernel",),
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
        "if (hi << ue - c <= um) if c <= ue else (hi <= um << c - ue):",
        "if (hi << ue - c < um) if c <= ue else (hi < um << c - ue):",
        "a tie of upper-end level costs names the deeper level as the witness",
        ("tests/test_certify_oracles.py::test_level_dp_matches_both_reference_passes",
         "tests/test_cli.py::test_levels_csv_is_the_evidence_of_the_upper_bound"),
    ),
    Mutant(
        "level_dp_starts_past_the_cut_level", "src/gaugetree/hausdorff.py",
        "zip(range(top - 1, k - 1, -1),", "zip(range(top - 1, k, -1),",
        "the walk never reads level k itself, so a least cost there is missed at both ends",
        ("tests/test_certify_oracles.py::test_level_dp_matches_both_reference_passes",
         "tests/test_cli.py::test_levels_csv_is_the_evidence_of_the_upper_bound"),
    ),
    Mutant(
        "frostman_worst_keeps_the_last_least_cost", "src/gaugetree/hausdorff.py",
        "((lo << le - c <= lm) if c <= le else (lo <= lm << c - le))",
        "((lo << le - c < lm) if c <= le else (lo < lm << c - le))",
        "a tie of lower-end level costs names the deeper level as the failure",
        ("tests/test_certify_oracles.py::test_frostman_lower_matches_reference",
         "tests/test_certify_oracles.py::test_the_power_four_fifths_tie_names_level_1"),
    ),
    Mutant(
        "frostman_deepest_failure_passes", "src/gaugetree/hausdorff.py",
        "below + 1 if below < top else None", "below + 1 if below < top + 1 else None",
        "a tree whose deepest level fails the mass distribution test gets n0 = depth + 1",
        ("tests/test_hausdorff.py::test_frostman_failure_when_tree_too_thin",
         "tests/test_certify_oracles.py::test_frostman_lower_matches_reference"),
    ),
    Mutant(
        "lower_reads_the_hi_end", "src/gaugetree/hausdorff.py",
        "(lm, le), (um, ue), w, v)", "(um, ue), (um, ue), w, v)",
        "the lower end is the cover's upper end, above the exact cover wherever the least level is inexact",
        ("tests/test_certify_oracles.py::test_the_exact_cover_lies_between_both_ends",
         "tests/test_certify_oracles.py::test_measure_certificate_matches_reference"),
    ),
    Mutant(
        "lower_drops_the_exact_levels", "src/gaugetree/hausdorff.py",
        "if (lo != hi or w == n) and", "if lo != hi and",
        "the lower end skips the exact levels, min(upper, ...) dropped, so it misses a least cost there",
        ("tests/test_certify_oracles.py::test_level_dp_matches_both_reference_passes",
         "tests/test_certify_oracles.py::test_lower_never_exceeds_upper"),
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
        "2^20 items of 16 bits pass the bound and take 8.2 s of per-item work",
        ("tests/test_cli.py::test_interleave_check_work_is_bounded",),
    ),
    Mutant(
        "interleave_observed_read_from_k", "src/gaugetree/transfer.py",
        'min(c.index("1") for c in interleave(d, n) if "1" in c)', "k // n",
        "the observed exponent restates the law, so the pass column cannot read 0",
        ("tests/test_cli.py::test_interleave_pass_column_rejects_a_wrong_split",),
    ),
    Mutant(
        "word_reader_keeps_the_low_byte", "src/gaugetree/transfer.py",
        "[3::4]", "[0::4]",
        "every drawn bit and choice is read off a word's low byte, not the top bits getrandbits returns",
        ("tests/test_transfer.py::test_random_bits_is_the_per_bit_stream",
         "tests/test_cli.py::test_transfer_rows_match_the_stdlib_draws"),
    ),
    Mutant(
        "rejection_keeps_the_bound", "src/gaugetree/transfer.py",
        ") >= n:", ") > n:",
        "a draw equal to n is kept, so choice([2, 3, 4]) can yield 5 and every later draw shifts",
        ("tests/test_transfer.py::test_random_bits_is_the_per_bit_stream",
         "tests/test_cli.py::test_transfer_rows_match_the_stdlib_draws"),
    ),
    Mutant(
        "stage_log_unbounded", "src/gaugetree/cli.py",
        "if args.stages * max(1, len(maps) * len(roots)) > MAX_STAGE_LOG:", "if False:",
        "antichain plays any stage count, at a cost that grows with its square",
        ("tests/test_cli.py::test_antichain_stage_log_is_bounded",),
    ),
    Mutant(
        "schedule_csv_flags_shifted_a_level", "src/gaugetree/cli.py",
        "flags[n] = 1", "flags[n - 1] = 1",
        "the caps CSV flags the level before each forced level, and the last level for level 0",
        ("tests/test_cli.py::test_certify_outputs_match_pinned_fixtures",
         "tests/test_cli.py::test_certify_outputs_at_depth_8000_match_their_pins"),
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
