"""CLI subcommands: outputs, exit codes, determinism."""

import csv
import decimal
import importlib
import importlib.util
import io
import json
import math
import os
from fractions import Fraction

import pytest

import gaugetree
from gaugetree.cli import main, parse_gauge_spec, read_csv_table, render_svg, write_csv
from gaugetree.transfer import DyadicInterval, dyadic_four_cover


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def maps_file(tmp_path):
    path = tmp_path / "maps.json"
    path.write_text(json.dumps([{"kind": "bit_flip"}, {"kind": "shift"}]))
    return str(path)


def test_parse_gauge_spec():
    g = parse_gauge_spec("power:1/2")
    assert g.kind == "power"
    g = parse_gauge_spec("power_log:1,1")
    assert g.kind == "power_log"
    g = parse_gauge_spec("table:1=1/2,2=1/4")
    assert g.kind == "table"
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_gauge_spec("power:sideways")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_gauge_spec("nope:1")


def test_bad_gauge_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        run(["schedule", "--gauge", "power:x", "--depth", 8, "--out", tmp_path / "o.json"])
    assert e.value.code == 2


def test_schedule_outputs(tmp_path):
    out = tmp_path / "sched.json"
    csv_out = tmp_path / "sched.csv"
    assert run([
        "schedule", "--gauge", "power_log:1,1", "--depth", 64,
        "--out", out, "--csv", csv_out,
    ]) == 0
    data = json.loads(out.read_text())
    assert data["schedule"]["indices"] == [1, 3, 7, 15, 31, 63]
    assert data["manifest"]["command"] == "schedule"
    header, rows = read_csv_table(str(csv_out))
    assert header == ["n", "cap", "in_schedule"]
    assert len(rows) == 64
    assert csv_out.read_text().startswith("# manifest: ")


def test_schedule_empty_warns(tmp_path, capsys):
    out = tmp_path / "empty.json"
    assert run(["schedule", "--gauge", "power:1", "--depth", 16, "--out", out]) == 0
    assert "warning" in json.loads(out.read_text())
    assert "empty schedule" in capsys.readouterr().err


def test_measure_command(tmp_path):
    sched_out = tmp_path / "s.json"
    run(["schedule", "--gauge", "power:1/2", "--depth", 20, "--out", sched_out])
    schedule = json.loads(sched_out.read_text())["schedule"]
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps({
        "schedule": schedule,
        "selector": {"kind": "constant", "bit": 0},
        "depth": 20,
    }))
    out = tmp_path / "m.json"
    csv_out = tmp_path / "m.csv"
    assert run([
        "measure", "--tree", tree_file, "--gauge", "power:1/2",
        "--delta-exp", 4, "--out", out, "--csv", csv_out,
    ]) == 0
    cert = json.loads(out.read_text())["certificate"]
    assert cert["lower"]["value"] == "1"
    assert cert["upper"]["value"] == "1"
    header, rows = read_csv_table(str(csv_out))
    assert header[0] == "n"
    assert len(rows) == 21


def test_antichain_pipeline_and_determinism(tmp_path, maps_file):
    out1, out2 = tmp_path / "a1.json", tmp_path / "a2.json"
    argv = [
        "antichain", "--gauge", "power_log:1,1", "--maps", maps_file,
        "--depth", 64, "--stages", 3, "--out",
    ]
    assert run(argv + [out1]) == 0
    assert run(argv + [out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    cert = report["game_certificate"]
    assert cert["stages_executed"] == 12
    for req in cert["requirements"]:
        assert req["stages"] == 3
    for row in cert["escape_report"]["per_map"]:
        assert row["unaccounted"] == 0
    assert report["measure_certificate"]["frostman"]["lower"] == "1"
    assert report["measure_certificate"]["delta_exp"] >= 1
    assert report["dimension"]["depth"] == 60


def test_antichain_infeasible_exits_3(tmp_path, maps_file, capsys):
    out = tmp_path / "x.json"
    code = run([
        "antichain", "--gauge", "power_log:1,1", "--maps", maps_file,
        "--depth", 16, "--stages", 9, "--out", out,
    ])
    assert code == 3
    assert "infeasible" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("roots", ["0,0", "1,0,1", "0,2", "0, 1", "x", "01\n"])
def test_antichain_bad_roots_exit_2(tmp_path, maps_file, capsys, roots):
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as e:
        run([
            "antichain", "--gauge", "power_log:1,1", "--maps", maps_file,
            "--depth", 16, "--stages", 1, "--roots", roots, "--out", out,
        ])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("gaugetree antichain: error: argument --roots:")
    assert not out.exists()


# (command line of int_flag_argv, flag, value): that flag alone is out of range
BAD_INT_FLAGS = [
    ("antichain", "--escape-samples", "0"),
    ("antichain", "--escape-samples", "-2"),
    ("antichain", "--stages", "-1"),
    ("antichain", "--depth", "-3"),
    ("antichain", "--depth", "2.5"),
    ("schedule", "--depth", "-3"),
    ("schedule", "--depth", "x"),
    ("measure", "--depth", "-1"),
    ("measure", "--delta-exp", "-3"),
    ("antichain", "--delta-exp", "-1"),
    # length - length % n is 0 for some n in {2, 3, 4}: used to loop forever
    ("transfer", "--length", "1"),
    ("transfer", "--length", "3"),
    ("transfer", "--length", "-4"),
    ("cube-map", "--n", "0"),
    # a count below 1 used to write a table with only its header
    ("transfer", "--count", "-5"),
    ("four-cover", "--count", "-5"),
    ("four-cover", "--count", "0"),
]


def int_flag_argv(tmp_path, command, maps_file):
    out = tmp_path / "x.out"
    return {
        "antichain": ["antichain", "--gauge", "power_log:1,1", "--maps", maps_file,
                      "--depth", 16, "--stages", 1, "--escape-samples", 10, "--out", out],
        "schedule": ["schedule", "--gauge", "power:1/2", "--depth", 8, "--out", out],
        "measure": ["measure", "--tree", tmp_path / "absent.json", "--gauge", "power:1/2",
                    "--out", out],
        "transfer": ["transfer", "interleave-check", "--count", 20, "--out", out],
        "cube-map": ["transfer", "cube-map", "--bits", "0110", "--out", out],
        "four-cover": ["transfer", "four-cover", "--count", 20, "--out", out],
    }[command], out


@pytest.mark.parametrize("command, flag, value", BAD_INT_FLAGS)
def test_bad_integer_flag_exits_2(tmp_path, maps_file, capsys, command, flag, value):
    argv, out = int_flag_argv(tmp_path, command, maps_file)
    with pytest.raises(SystemExit) as e:
        run(argv + [flag, value])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"gaugetree {argv[0]}: error: argument {flag}:")
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("antichain", "--escape-samples", 1),
    ("antichain", "--stages", 0),
    ("schedule", "--depth", 0),
    ("transfer", "--length", 4),
    ("transfer", "--length", 5),
    ("cube-map", "--n", 1),
    ("four-cover", "--count", 1),
])
def test_smallest_integer_flag_accepted(tmp_path, maps_file, command, flag, value):
    argv, out = int_flag_argv(tmp_path, command, maps_file)
    assert run(argv + [flag, value]) == 0
    if command == "four-cover":
        _, rows = read_csv_table(str(out))
        assert len(rows) == 1 and rows[0][-1] == "1"
    if command == "transfer":
        _, rows = read_csv_table(str(out))
        assert len(rows) == 20 and all(r[-1] == "1" for r in rows)
    if command == "antichain":
        report = json.loads(out.read_text())
        assert report["game_certificate"]["escape_report"]["samples"] == (
            1 if flag == "--escape-samples" else 10
        )


def write_tree(tmp_path, gauge, depth, selector=None):
    """A tree file over the schedule `schedule` computes for the gauge."""
    sched_out = tmp_path / "sched.json"
    assert run(["schedule", "--gauge", gauge, "--depth", depth, "--out", sched_out]) == 0
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps({
        "schedule": json.loads(sched_out.read_text())["schedule"],
        "selector": selector or {"kind": "constant", "bit": 0},
        "depth": depth,
    }))
    return tree_file


# flags beyond a depth known only once the tree or the command is read
@pytest.mark.parametrize("command, flags", [
    ("measure", ["--delta-exp", 9]),
    ("measure", ["--depth", 9]),
    ("measure", ["--depth", 9, "--delta-exp", 9]),
    ("measure", ["--depth", 2, "--delta-exp", 3]),
    ("antichain", ["--depth", 16, "--delta-exp", 40]),
    ("antichain", ["--depth", 16, "--delta-exp", 17]),
])
def test_flag_beyond_depth_exits_2(tmp_path, maps_file, capsys, command, flags):
    out, csv_out = tmp_path / "x.json", tmp_path / "x.csv"
    if command == "measure":
        argv = ["measure", "--tree", write_tree(tmp_path, "power:1/2", 8),
                "--gauge", "power:1/2", "--csv", csv_out]
    else:
        argv = ["antichain", "--gauge", "power_log:1,1", "--maps", maps_file, "--stages", 1]
    capsys.readouterr()
    assert run(argv + flags + ["--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists() and not csv_out.exists()


# a table gauge needs an entry at every level 0..depth
@pytest.mark.parametrize("gauge, level", [
    ("table:0=1,1=1/3,2=1/4,3=1/8,4=1/16", 5),
    ("table:1=1/3,2=1/4,3=1/8,4=1/16,5=1/32", 0),
])
@pytest.mark.parametrize("command", ["schedule", "measure", "antichain"])
def test_table_gauge_out_of_range_exits_2(tmp_path, maps_file, capsys, command, gauge, level):
    out, csv_out = tmp_path / "x.json", tmp_path / "x.csv"
    argv = {
        "schedule": ["schedule", "--depth", 5, "--csv", csv_out],
        "measure": ["measure", "--tree", write_tree(tmp_path, "power:1/2", 5), "--csv", csv_out],
        "antichain": ["antichain", "--maps", maps_file, "--depth", 5, "--stages", 1],
    }[command]
    capsys.readouterr()
    assert run(argv + ["--gauge", gauge, "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: table gauge has no entry at exponent {level}"]
    assert not out.exists() and not csv_out.exists()


# the shift map as a transducer: drops the first bit, within its lag 1
DROP_FIRST = {
    "kind": "transducer",
    "start": "a",
    "delta": [["a", 0, "b", ""], ["a", 1, "b", ""], ["b", 0, "b", "0"], ["b", 1, "b", "1"]],
    "lag": 1,
}


def test_transducer_within_its_lag_is_played(tmp_path):
    maps, out = tmp_path / "maps.json", tmp_path / "r.json"
    maps.write_text(json.dumps([DROP_FIRST]))
    assert run(["antichain", "--gauge", "power:1/2", "--maps", maps, "--depth", 32,
                "--stages", 2, "--out", out]) == 0
    requirements = json.loads(out.read_text())["game_certificate"]["requirements"]
    assert [r["stages"] for r in requirements] == [2, 2]


# unreadable or malformed inputs and unwritable outputs: (input files, argv),
# with paths relative to the run's directory
BAD_INPUTS = {
    "tree_without_schedule": (
        {"tree.json": '{"selector": {"kind": "constant", "bit": 0}, "depth": 4}'},
        ["measure", "--tree", "tree.json", "--gauge", "power:1/2", "--out", "out"],
    ),
    "tree_not_json": (
        {"tree.json": "depth: 4\n"},
        ["measure", "--tree", "tree.json", "--gauge", "power:1/2", "--out", "out"],
    ),
    "tree_missing": (
        {}, ["measure", "--tree", "tree.json", "--gauge", "power:1/2", "--out", "out"],
    ),
    "maps_not_json": (
        {"maps.json": "[{kind: bit_flip}]"},
        ["antichain", "--gauge", "power:1/2", "--maps", "maps.json", "--depth", 8,
         "--stages", 1, "--out", "out"],
    ),
    "maps_missing": (
        {}, ["antichain", "--gauge", "power:1/2", "--maps", "maps.json", "--depth", 8,
             "--stages", 1, "--out", "out"],
    ),
    "maps_unknown_kind": (
        {"maps.json": '[{"kind": "bit_flip"}, {"kind": "warp"}]'},
        ["antichain", "--gauge", "power:1/2", "--maps", "maps.json", "--depth", 8,
         "--stages", 1, "--out", "out"],
    ),
    "maps_not_a_list_of_maps": (
        {"maps.json": "[1, 2]"},
        ["antichain", "--gauge", "power:1/2", "--maps", "maps.json", "--depth", 8,
         "--stages", 1, "--out", "out"],
    ),
    "maps_explicit_missing_image": (
        {"maps.json": '[{"kind": "explicit", "entries": [["0", "1"]], "lag": 0}]'},
        ["antichain", "--gauge", "power:1/2", "--maps", "maps.json", "--depth", 8,
         "--stages", 1, "--out", "out"],
    ),
    "transducer_missing_move": (
        {"maps.json": '[{"kind": "transducer", "start": 0, "delta": [[0, 0, 0, "0"]], "lag": 0}]'},
        ["antichain", "--gauge", "power:1/2", "--maps", "maps.json", "--depth", 8,
         "--stages", 1, "--out", "out"],
    ),
    "transducer_output_not_binary": (
        {"maps.json": '[{"kind": "transducer", "start": 0, '
                      '"delta": [[0, 0, 0, "0"], [0, 1, 0, "2"]], "lag": 0}]'},
        ["antichain", "--gauge", "power:1/2", "--maps", "maps.json", "--depth", 8,
         "--stages", 1, "--out", "out"],
    ),
    "transducer_shorter_than_lag": (
        {"maps.json": '[{"kind": "transducer", "start": 0, '
                      '"delta": [[0, 0, 0, ""], [0, 1, 0, "1"]], "lag": 0}]'},
        ["antichain", "--gauge", "power:1/2", "--maps", "maps.json", "--depth", 32,
         "--stages", 2, "--out", "out"],
    ),
    "transducer_lag_1_drops_2_bits": (
        {"maps.json": json.dumps([dict(DROP_FIRST, delta=[
            ["a", 0, "b", ""], ["a", 1, "b", ""], ["b", 0, "c", ""], ["b", 1, "c", ""],
            ["c", 0, "c", "0"], ["c", 1, "c", "1"]])])},
        ["antichain", "--gauge", "power:1/2", "--maps", "maps.json", "--depth", 32,
         "--stages", 1, "--out", "out"],
    ),
    "transducer_move_on_bit_2": (
        {"maps.json": '[{"kind": "transducer", "start": 0, '
                      '"delta": [[0, 0, 0, "0"], [0, 1, 0, "1"], [0, 2, 0, "1"]], "lag": 0}]'},
        ["antichain", "--gauge", "power:1/2", "--maps", "maps.json", "--depth", 16,
         "--stages", 1, "--out", "out"],
    ),
    "out_dir_missing": (
        {}, ["schedule", "--gauge", "power:1/2", "--depth", 8, "--out", "nodir/out"],
    ),
    "csv_dir_missing": (
        {}, ["schedule", "--gauge", "power:1/2", "--depth", 8, "--out", "out",
             "--csv", "nodir/out.csv"],
    ),
    "plot_table_missing": (
        {}, ["plot", "--table", "t.csv", "--x", "n", "--y", "cap", "--out", "out"],
    ),
    "cube_map_non_binary_bits": (
        {}, ["transfer", "cube-map", "--bits", "0121", "--out", "out"],
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_exits_2(tmp_path, monkeypatch, capsys, name):
    files, argv = BAD_INPUTS[name]
    for file_name, text in files.items():
        (tmp_path / file_name).write_text(text)
    monkeypatch.chdir(tmp_path)
    try:
        code = run(argv)
    except SystemExit as e:  # argparse rejects a flag
        code = e.code
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([l for l in err.splitlines() if "error:" in l]) == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(files)


@pytest.mark.parametrize("flags", [[], ["--delta-exp", 8]])
def test_measure_depth_bound_accepted(tmp_path, flags):
    out = tmp_path / "m.json"
    tree_file = write_tree(tmp_path, "power:1/2", 8)
    assert run(["measure", "--tree", tree_file, "--gauge", "power:1/2",
                "--depth", 8, "--out", out] + flags) == 0
    assert json.loads(out.read_text())["certificate"]["delta_exp"] == (flags or [0, 0])[1]


def test_measure_depth_zero_is_honoured(tmp_path):
    tree_file = write_tree(tmp_path, "power:1/2", 8)
    reports = {}
    for depth in (0, 8):
        out = tmp_path / f"m{depth}.json"
        csv_out = tmp_path / f"m{depth}.csv"
        assert run(["measure", "--tree", tree_file, "--gauge", "power:1",
                    "--depth", depth, "--out", out, "--csv", csv_out]) == 0
        reports[depth] = json.loads(out.read_text())["certificate"]
        assert len(read_csv_table(str(csv_out))[1]) == depth + 1
    assert reports[0]["upper"] == {"provenance": "optimal_cover", "value": "1", "witness_level": 0}
    assert reports[0]["witness"] == [""]
    # 16 nodes of measure 2^-8 at the full depth
    assert reports[8]["upper"]["witness_level"] == 8
    assert reports[8]["upper"]["value"] == "1/2^4"


def test_levels_csv_count_beyond_int_digit_limit(tmp_path):
    """2^14400 has 4335 digits, over the interpreter's 4300-digit limit on
    int-to-string conversion, which the levels CSV must not depend on."""
    depth = 14400
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps({
        "schedule": {"depth": depth, "indices": [], "n0": 0},
        "selector": {"kind": "constant", "bit": 0},
        "depth": depth,
    }))
    out, csv_out = tmp_path / "m.json", tmp_path / "m.csv"
    assert run(["measure", "--tree", tree_file, "--gauge", "power:1",
                "--out", out, "--csv", csv_out]) == 0
    _, rows = read_csv_table(str(csv_out))
    assert len(rows) == depth + 1
    exact = decimal.Context(prec=4400)
    assert len(rows[-1][1]) == 4335
    assert exact.create_decimal(rows[-1][1]) == exact.power(2, depth)
    assert rows[-1][2:] == [f"1/2^{depth}", f"1/2^{depth}", "1"]
    assert rows[1000][1:3] == [str(2**1000), "1/2^1000"]


@pytest.mark.parametrize("depth, code", [(1023, 0), (1024, 3)])
def test_levels_csv_refuses_a_float_level_cost_past_2_to_1024(tmp_path, capsys, depth, code):
    """power_log:1,-1 is a float at every level n >= 1; with no forced level,
    level n has n free levels above it and a level cost of 2^n·g(2^-n), which
    a float holds up to n = 1023 only.  Nothing is written on exit 3."""
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps({
        "schedule": {"depth": depth, "indices": [], "n0": 0},
        "selector": {"kind": "constant", "bit": 0},
        "depth": depth,
    }))
    out, csv_out = tmp_path / "m.json", tmp_path / "m.csv"
    argv = ["measure", "--tree", tree_file, "--gauge", "power_log:1,-1", "--out", out]
    assert run(argv + ["--csv", csv_out]) == code
    err = capsys.readouterr().err
    if code:
        (line,) = err.splitlines()
        assert line.startswith("error: level 1024 ") and "ROADMAP item 1" in line
        assert not out.exists() and not csv_out.exists()
        assert run(argv) == 0  # the certificate alone is still written
    else:
        _, rows = read_csv_table(str(csv_out))
        assert rows[-1][0] == "1023" and float(rows[-1][-1]) > 0


PARITY = {
    "kind": "transducer",
    "start": 0,
    "delta": [[0, 0, 0, "0"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "0"]],
    "lag": 0,
}
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.mark.parametrize("gauge, maps, depth, fixture", [
    ("power_log:1,1", [{"kind": "bit_flip"}, {"kind": "shift"}, PARITY], 64,
     "antichain_power_log_flip_shift_parity_d64.json"),
    ("power:1/2", [{"kind": "bit_flip"}, {"kind": "shift"}], 32,
     "antichain_power_half_flip_shift_d32.json"),
    # 61 is odd and not a multiple of 8: the transducer's tail chunk and a
    # partial last block of the 1 000 escape samples
    ("power:1/2", [{"kind": "bit_flip"}, {"kind": "shift"}, PARITY], 61,
     "antichain_power_half_flip_shift_parity_d61.json"),
])
def test_antichain_report_matches_pinned_fixture(tmp_path, gauge, maps, depth, fixture):
    maps_path = tmp_path / "maps.json"
    maps_path.write_text(json.dumps(maps))
    out = tmp_path / "report.json"
    assert run([
        "antichain", "--gauge", gauge, "--maps", maps_path,
        "--depth", depth, "--stages", 3, "--out", out,
    ]) == 0
    report = json.loads(out.read_text())
    del report["manifest"]  # holds the input's temporary path
    with open(os.path.join(FIXTURES, fixture)) as fh:
        assert report == json.load(fh)


@pytest.mark.parametrize("gauge, depth, name", [
    ("power_log:1,1", 300, "power_log_d300"),
    ("power:1/2", 301, "power_half_d301"),
])
def test_certify_outputs_match_pinned_fixtures(tmp_path, gauge, depth, name):
    """schedule --csv and measure --delta-exp 3 --csv, without manifests."""
    selector = {"power_log_d300": {"kind": "constant", "bit": 0},
                "power_half_d301": {"kind": "seeded", "seed": 7}}[name]
    sched, caps = tmp_path / "s.json", tmp_path / "caps.csv"
    assert run(["schedule", "--gauge", gauge, "--depth", depth,
                "--out", sched, "--csv", caps]) == 0
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps({
        "schedule": json.loads(sched.read_text())["schedule"],
        "selector": selector,
        "depth": depth,
    }))
    cert, levels = tmp_path / "m.json", tmp_path / "levels.csv"
    assert run(["measure", "--tree", tree_file, "--gauge", gauge, "--delta-exp", 3,
                "--out", cert, "--csv", levels]) == 0
    for produced, fixture in ((sched, f"schedule_{name}.json"), (cert, f"measure_{name}.json")):
        data = json.loads(produced.read_text())
        del data["manifest"]  # the measure manifest holds the tree's temporary path
        with open(os.path.join(FIXTURES, fixture)) as fh:
            assert json.dumps(data, sort_keys=True, indent=2) + "\n" == fh.read()
    for produced, fixture in ((caps, f"caps_{name}.csv"), (levels, f"levels_{name}.csv")):
        manifest, body = produced.read_text().split("\n", 1)
        assert manifest.startswith("# manifest: ")
        with open(os.path.join(FIXTURES, fixture)) as fh:
            assert body == fh.read()


def test_transfer_four_cover(tmp_path):
    out = tmp_path / "fc.csv"
    assert run(["transfer", "four-cover", "--count", 50, "--out", out]) == 0
    header, rows = read_csv_table(str(out))
    assert header[-1] == "pass"
    assert all(r[-1] == "1" for r in rows)


def test_transfer_interleave_check(tmp_path):
    out = tmp_path / "ic.csv"
    assert run([
        "transfer", "interleave-check", "--count", 50, "--length", 60, "--out", out,
    ]) == 0
    _, rows = read_csv_table(str(out))
    assert len(rows) == 50
    assert all(r[-1] == "1" for r in rows)


def test_transfer_cube_map(tmp_path):
    out = tmp_path / "cm.csv"
    assert run([
        "transfer", "cube-map", "--bits", "011011", "--n", 2, "--out", out,
    ]) == 0
    _, rows = read_csv_table(str(out))
    assert rows == [["0", "3/8"], ["1", "5/8"]]


@pytest.mark.parametrize("argv, fixture", [
    (["four-cover", "--count", 500, "--seed", 11], "transfer_four_cover_c500_s11.csv"),
    (["interleave-check", "--count", 300, "--length", 61, "--seed", 5],
     "transfer_interleave_check_c300_l61_s5.csv"),
    (["cube-map", "--bits", "0110110", "--n", 3], "transfer_cube_map_0110110_n3.csv"),
])
def test_transfer_outputs_match_pinned_fixtures(tmp_path, argv, fixture):
    out = tmp_path / "t.csv"
    assert run(["transfer", *argv, "--out", out]) == 0
    manifest, body = out.read_text().split("\n", 1)
    assert manifest.startswith("# manifest: ")
    with open(os.path.join(FIXTURES, fixture)) as fh:
        assert body == fh.read()


def test_four_cover_pass_column_rejects_bad_covers(tmp_path, monkeypatch):
    """The pass column re-checks each cover; it does not trust the construction."""

    def drop_first(a, b):
        cover = dyadic_four_cover(a, b)
        return cover[1:] if len(cover) > 1 else cover

    def drop_last(a, b):
        cover = dyadic_four_cover(a, b)
        return cover[:-1] if len(cover) > 1 else cover

    def shift_right(a, b):
        cover = dyadic_four_cover(a, b)
        m = cover[0].level
        return [DyadicInterval(m, min(iv.index + 1, 2**m - 1)) for iv in cover]

    def mixed_levels(a, b):
        cover = dyadic_four_cover(a, b)
        return cover + [DyadicInterval(cover[0].level + 1, 0)]

    for bad in (drop_first, drop_last, shift_right, mixed_levels):
        monkeypatch.setattr(gaugetree.cli, "dyadic_four_cover", bad)
        out = tmp_path / f"{bad.__name__}.csv"
        assert run(["transfer", "four-cover", "--count", 200, "--out", out]) == 0
        _, rows = read_csv_table(str(out))
        assert any(r[-1] == "0" for r in rows), bad.__name__
        for r in rows:
            a, b = Fraction(r[1]), Fraction(r[2])
            assert r[-1] == str(int(cli_pass_reference(bad(a, b), a, b))), (bad.__name__, r)


def cli_pass_reference(cover, a, b):
    """The pass check in Fractions."""
    return (
        len(cover) <= 4
        and min(iv.left for iv in cover) <= a
        and max(iv.right for iv in cover) >= b
        and len({iv.level for iv in cover}) == 1
    )


def test_write_csv_matches_csv_module(tmp_path):
    header = ["n", "count", "value", "x"]
    rows = [[0, decimal.Decimal(1), "1/2^3", 0.25], [17, decimal.Decimal(2) ** 80, Fraction(2, 3), -1],
            [2, "", "a b", 1e-300], [3, True, "x;y", float("inf")]]
    manifest = {"tool": "gaugetree", "inputs": ["a,b.json"], "note": 'say "hi"'}
    out = tmp_path / "t.csv"
    write_csv(str(out), header, (",".join(map(str, row)) for row in rows), manifest)
    buf = io.StringIO()
    buf.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    assert out.read_text() == buf.getvalue()
    write_csv(str(out), header, [], manifest)
    assert out.read_text().split("\n")[1:] == ["n,count,value,x", ""]


@pytest.mark.parametrize("row", [
    [1, 'say "hi"'], [1, "a,b"], [1, "a\nb"], [1, "a\rb"], [1], [1, 2, 3],
])
def test_write_csv_refuses_fields_csv_would_quote(tmp_path, row):
    out = tmp_path / "t.csv"
    lines = [",".join(map(str, r)) for r in ([0, 0], row, [2, 2])]
    with pytest.raises(ValueError):
        write_csv(str(out), ["a", "b"], lines, {"tool": "gaugetree"})
    assert not out.exists()


def test_non_dyadic_gauge_values_are_rendered_exactly(tmp_path):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"schedule": {"indices": [], "depth": 4},
                                "selector": {"kind": "constant", "bit": 0}, "depth": 4}))
    cert, levels = tmp_path / "c.json", tmp_path / "l.csv"
    assert run(["measure", "--tree", tree, "--gauge", "table:0=1,1=1/3,2=1/4,3=1/8,4=1/16",
                "--out", cert, "--csv", levels]) == 0
    assert json.loads(cert.read_text())["certificate"]["upper"]["value"] == "2/3"
    _, rows = read_csv_table(str(levels))
    assert rows[1] == ["1", "2", "1/2^1", "1/3", "2/3"]
    maps = tmp_path / "maps.json"
    maps.write_text(json.dumps([{"kind": "bit_flip"}]))
    report = tmp_path / "r.json"
    assert run(["antichain", "--gauge", "table:0=1,1=1/3,2=1/5,3=1/7,4=1/9", "--maps", maps,
                "--depth", 4, "--stages", 0, "--out", report]) == 0
    assert json.loads(report.read_text())["measure_certificate"]["upper"] == "8/7"


def test_plot_svg(tmp_path):
    table = tmp_path / "t.csv"
    run(["schedule", "--gauge", "power_log:1,1", "--depth", 32,
         "--out", tmp_path / "s.json", "--csv", table])
    out1, out2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
    assert run(["plot", "--table", table, "--x", "n", "--y", "cap", "--out", out1]) == 0
    assert run(["plot", "--table", table, "--x", "n", "--y", "cap", "--out", out2]) == 0
    svg = out1.read_text()
    assert svg.startswith('<?xml version="1.0"')
    assert "<polyline" in svg and "</svg>" in svg
    assert out1.read_bytes() == out2.read_bytes()


def _cell_value(cell):
    """A levels CSV cell as a float, reading p/2^q without Fractions."""
    if "/2^" in cell:
        p, q = cell.split("/2^")
        return math.ldexp(int(p), -int(q))
    return float(cell)


@pytest.mark.parametrize("name", ["levels_power_log_d300.csv", "levels_power_half_d301.csv"])
def test_plot_reads_exact_columns(tmp_path, name):
    """plot reads the p/2^q cells the levels CSV writes."""
    table = os.path.join(FIXTURES, name)
    out = tmp_path / "p.svg"
    assert run(["plot", "--table", table, "--x", "n", "--y", "gauge_value,level_cost",
                "--out", out]) == 0
    header, rows = read_csv_table(table)
    assert any("/2^" in r[header.index("gauge_value")] for r in rows)
    xs = [float(r[0]) for r in rows]
    series = [(col, [_cell_value(r[header.index(col)]) for r in rows])
              for col in ("gauge_value", "level_cost")]
    # line 2 is the manifest, which names the table's path
    assert out.read_text().splitlines()[2:] == render_svg(xs, series, "n", {}).splitlines()[2:]


@pytest.mark.parametrize("last_row", ["2,x", "2,1/0", "2,1/2^x", "2,1e999", "2,", "2,inf", "2"])
def test_plot_bad_cell_exits_2(tmp_path, capsys, last_row):
    table = tmp_path / "t.csv"
    table.write_text(f"n,y\n0,1/2^1\n1,3/7\n{last_row}\n")
    out = tmp_path / "p.svg"
    assert run(["plot", "--table", table, "--x", "n", "--y", "y", "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_plot_missing_column_exits_2(tmp_path, capsys):
    table = tmp_path / "t.csv"
    run(["schedule", "--gauge", "power_log:1,1", "--depth", 16,
         "--out", tmp_path / "s.json", "--csv", table])
    assert run(["plot", "--table", table, "--x", "n", "--y", "bogus",
                "--out", tmp_path / "p.svg"]) == 2
    assert "missing column" in capsys.readouterr().err


def test_json_outputs_are_sorted_and_manifested(tmp_path):
    out = tmp_path / "s.json"
    run(["schedule", "--gauge", "power:1/2", "--depth", 8, "--out", out])
    text = out.read_text()
    data = json.loads(text)
    assert text == json.dumps(data, sort_keys=True, indent=2) + "\n"
    m = data["manifest"]
    assert m["tool"] == "gaugetree"
    assert m["version"] == gaugetree.__version__
    assert "version" in m and "config" in m


def test_benchmark_tracer_targets_exist():
    """Every function and method perfbench/spans.py rebinds still exists in
    its gaugetree module: the tracer skips a missing method silently."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, _ in spans.SPANS + spans.COUNTERS:
        owner = importlib.import_module(f"gaugetree.{module}")
        if "." in attr:
            cls_name, method = attr.split(".")
            root = getattr(owner, cls_name)
            assert any(method in vars(cls) for cls in (root, *root.__subclasses__())), attr
        else:
            assert callable(getattr(owner, attr, None)), f"{module}.{attr}"
