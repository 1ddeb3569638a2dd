"""CLI subcommands: outputs, exit codes, determinism."""

import argparse
import csv
import dataclasses
import decimal
import hashlib
import importlib
import importlib.util
import inspect
import io
import itertools
import json
import math
import os
import pathlib
import pkgutil
import resource
import subprocess
import sys
import tempfile
from fractions import Fraction
from xml.etree import ElementTree

import pytest
from fraction_oracles import parse_dyadic, reference_transfer_rows, right_end
from hypothesis import given, settings, strategies as st

import gaugetree
from gaugetree.cli import (
    COMMANDS, build_manifest, build_parser, int_at_least, main, parse_gauge_spec, read_csv_table, render_svg,
    write_csv, write_json,
)
from gaugetree.game import map_from_json_dict
from gaugetree.transfer import ITEM_BITS, MAX_BATCH_BITS, MAX_DIMENSION, DyadicInterval, four_cover_span
from gaugetree.tree import MAX_DEPTH, MAX_SAMPLES, MAX_STAGE_LOG


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
    # a number past its bound is refused before any work, in a child capped
    # at 1 GiB and 20 s: Fraction would build 10^999999999, and _enclose a
    # 10^9-th root, at every level; a number no int reads or writes as text
    # is refused as the spec's, not with the interpreter's own limit
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(gaugetree.__file__))}
    for spec in ["power:1e999999999", "table:0=1,1=1e-999999999", "power_log:1,1/1000000000",
                 "power:1e4000", "power_log:1,1e4000", "table:0=1,1=1e-4300", "table:0=1e4300",
                 "table:0=12345e4299", "power:1e-4300", "power_log:1e-4300,1", "power:0." + "0" * 4399 + "1"]:
        proc = subprocess.run(
            [sys.executable, "-m", "gaugetree.cli", "schedule", "--gauge", spec, "--depth", "8",
             "--out", tmp_path / "o.json"],
            capture_output=True, text=True, timeout=20, env=env, preexec_fn=_cap_memory,
        )
        assert proc.returncode == 2, proc.stderr
        errors = [line for line in proc.stderr.splitlines() if "error" in line.lower()]
        assert errors == [proc.stderr.splitlines()[-1]], proc.stderr
        assert errors[0].startswith(f"gaugetree schedule: error: argument --gauge: bad gauge spec {spec!r}: ")
    assert not (tmp_path / "o.json").exists()


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
    cases = [  # (schedule, depth, --delta-exp, lower, upper)
        (json.loads(sched_out.read_text())["schedule"], 20, 4, "1", "1"),
        # the walk ends at lower = (13043817825332782212, 63), an even mantissa, written in normal form
        ({"depth": 10, "indices": [0, 3, 6, 9]}, 10, 5,
         "3260954456333195553/2^61", "13043817825332782213/2^63"),
        # a tree written while schedules carried a constant "n0": 0 reads as the same tree
        ({"depth": 10, "indices": [0, 3, 6, 9], "n0": 0}, 10, 5,
         "3260954456333195553/2^61", "13043817825332782213/2^63"),
    ]
    written = []
    for schedule, depth, delta_exp, lower, upper in cases:
        tree_file = tmp_path / "tree.json"
        tree_file.write_text(json.dumps({
            "schedule": schedule,
            "selector": {"kind": "constant", "bit": 0},
            "depth": depth,
        }))
        out = tmp_path / "m.json"
        csv_out = tmp_path / "m.csv"
        assert run([
            "measure", "--tree", tree_file, "--gauge", "power:1/2",
            "--delta-exp", delta_exp, "--out", out, "--csv", csv_out,
        ]) == 0
        cert = json.loads(out.read_text())["certificate"]
        assert cert["lower"]["value"] == lower
        assert cert["upper"]["value"] == upper
        header, rows = read_csv_table(str(csv_out))
        assert header[0] == "n"
        assert len(rows) == depth + 1
        written.append((out.read_bytes(), csv_out.read_bytes()))
    assert written[2] == written[1]


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
    # the least free(n)/n from delta_exp = 1 to the depth 64: level 2, whose level 1 is forced
    assert report["dimension"] == {"value": "1/2", "witness_level": 2}


def test_antichain_infeasible_exits_3(tmp_path, maps_file, capsys):
    out = tmp_path / "x.json"
    code = run([
        "antichain", "--gauge", "power_log:1,1", "--maps", maps_file,
        "--depth", 16, "--stages", 9, "--out", out,
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "infeasible" in err
    # the stages that completed, the levels their layers consumed, the forced
    # levels left below the depth, and how many requirements shared them
    assert "requested 9 stages per requirement, only 2 completed fairly" in err
    assert "the layers of 4 requirements consumed forced levels 1, 3, 7;" in err
    assert "forced levels still free below the working depth: 15\n" in err
    # the requirement that ran out, its first fresh forced level and why
    assert ("(no eligible level left for requirement Requirement(map_index=1, root='1'): "
            "forced level 15: n + lag + 1 = 17 > --depth 16)") in err
    assert not out.exists()
    # at depth 17 the layers have used every forced level, one layer each
    code = run([
        "antichain", "--gauge", "power_log:1,1", "--maps", maps_file,
        "--depth", 17, "--stages", 9, "--out", out,
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "the layers of 4 requirements consumed forced levels 1, 3, 7, 15;" in err
    assert ("(no eligible level left for requirement Requirement(map_index=1, root='1'): "
            "no fresh forced level from level 16 on, and a forced level holds at most one layer)") in err
    assert "forced levels still free below the working depth: none\n" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()
    # at depth 64 the scan deepens to 33 for level 31; level 63 needs 65
    code = run([
        "antichain", "--gauge", "power_log:1,1", "--maps", maps_file,
        "--depth", 64, "--stages", 9, "--out", out,
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "only 4 completed fairly" in err
    assert "forced level 63: n + lag + 1 = 65 > --depth 64)" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_antichain_counts_a_long_root_past_its_length(tmp_path, maps_file, capsys):
    # 19 zeros: at depth 16 every image is shorter than the root, so a count
    # there finds no bad leaf; the game starts at 19 + shift's lag 1 + 1 = 21
    root, out = "0" * 19, tmp_path / "x.json"
    argv = ["antichain", "--gauge", "power_log:1,1", "--maps", maps_file, "--stages", 1,
            "--roots", root, "--out", out]
    assert run([*argv, "--depth", 128]) == 0
    report = json.loads(out.read_text())
    game, tree = report["game_certificate"], report["tree"]
    assert [r["initial"] for r in game["requirements"]] == ["1/2^15", "1/2^16"]
    assert tree["selector"]["layers"] == [[31, root, 0], [63, root, 0]]
    out.unlink()
    # the shift requirement needs level 63, and so a scan to depth 65
    assert run([*argv, "--depth", 64]) == 3
    err = capsys.readouterr().err
    assert "forced level 63: n + lag + 1 = 65 > --depth 64)" in err
    assert not out.exists()


# a layer decides its level off its root too: there it can raise another
# requirement's bad set above its bound, which no later stage can undo
INTERFERENCE = {
    "depth3": ([
        {"kind": "transducer", "start": 0, "lag": 1, "delta": [
            [0, 0, 2, "10"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, ""], [2, 0, 2, ""], [2, 1, 2, ""]]},
        {"kind": "bit_flip"},
    ], ["--depth", 3, "--stages", 1, "--roots", "0,11"],
        "the layer at level 1 for Requirement(map_index=0, root='0') raises the bad measure "
        "of Requirement(map_index=1, root='11') to 1/2, above its bound 0"),
    "depth23_three_maps": ([
        {"kind": "transducer", "start": 0, "lag": 2, "delta": [[0, 0, 0, "10"], [0, 1, 0, "10"]]},
        {"kind": "transducer", "start": 0, "lag": 1, "delta": [[0, 0, 0, "1"], [0, 1, 0, "0"]]},
        {"kind": "bit_flip"},
    ], ["--depth", 23, "--stages", 2, "--roots", "0,000,111"],
        "the layer at level 1 for Requirement(map_index=0, root='0') raises the bad measure "
        "of Requirement(map_index=1, root='111') to 1/4, above its bound 0"),
    # a bound that a stage has halved: 3/16 is above 1/8 and below twice it
    "depth6_halved_bound": ([
        {"kind": "transducer", "start": 0, "lag": 2, "delta": [
            [0, 0, 1, ""], [0, 1, 1, ""], [1, 0, 2, ""], [1, 1, 2, ""], [2, 0, 1, "10"], [2, 1, 2, "0"]]},
    ], ["--depth", 6, "--stages", 1, "--roots", "1,0"],
        "the layer at level 3 for Requirement(map_index=0, root='0') raises the bad measure "
        "of Requirement(map_index=0, root='1') to 3/16, above its bound 1/8"),
}


@pytest.mark.parametrize("name", sorted(INTERFERENCE))
def test_antichain_interference_exits_3(tmp_path, capsys, name):
    maps, flags, message = INTERFERENCE[name]
    path, out = tmp_path / "maps.json", tmp_path / "x.json"
    path.write_text(json.dumps(maps))
    code = run(["antichain", "--gauge", "power_log:1,1", "--maps", path, *flags, "--out", out])
    assert code == 3
    assert capsys.readouterr().err == f"infeasible: {message}\n"
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
    # past its bound a size would exhaust memory before the command could fail
    ("schedule", "--depth", "100000000"),
    ("schedule", "--depth", str(MAX_DEPTH + 1)),
    ("measure", "--depth", str(MAX_DEPTH + 1)),
    ("antichain", "--depth", "100000000"),
    ("antichain", "--escape-samples", "100000000000"),
    ("antichain", "--escape-samples", str(MAX_SAMPLES + 1)),
    ("transfer", "--length", "10000000000"),
    ("transfer", "--length", str(MAX_DEPTH + 1)),
    ("cube-map", "--n", "100000000000"),
    ("cube-map", "--n", str(MAX_DIMENSION + 1)),
    ("four-cover", "--count", "100000000000"),
    ("transfer", "--count", str(MAX_SAMPLES + 1)),
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


@pytest.mark.parametrize("command, flag, value", [
    ("schedule", "--depth", MAX_DEPTH),
    ("measure", "--depth", MAX_DEPTH),
    ("antichain", "--depth", MAX_DEPTH),
    ("antichain", "--escape-samples", MAX_SAMPLES),
    ("transfer", "--length", MAX_DEPTH),
    ("cube-map", "--n", MAX_DIMENSION),
    ("four-cover", "--count", MAX_SAMPLES),
])
def test_largest_integer_flag_is_parsed(tmp_path, maps_file, command, flag, value):
    """Each size flag takes its bound; parsed only, so that nothing is allocated."""
    argv, _ = int_flag_argv(tmp_path, command, maps_file)
    args = build_parser().parse_args([str(a) for a in argv + [flag, value]])
    assert getattr(args, flag[2:].replace("-", "_")) == value


def test_int_at_least_takes_its_bounds():
    parse = int_at_least(4, MAX_DEPTH)
    assert parse("4") == 4 and parse(str(MAX_DEPTH)) == MAX_DEPTH
    for text in ("3", str(MAX_DEPTH + 1)):
        with pytest.raises(argparse.ArgumentTypeError, match=text):
            parse(text)
    assert int_at_least(0)(str(10**30)) == 10**30


@pytest.mark.parametrize("schedule, depth", [({}, 100000000), ({"depth": 100000000}, 6)])
def test_tree_depth_past_the_bound_exits_2_naming_it(tmp_path, capsys, schedule, depth):
    """A tree or schedule `depth` past MAX_DEPTH is refused as it is read,
    before any level is computed."""
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps({"schedule": {"depth": 6, "indices": [1, 3], **schedule},
                                     "selector": {"kind": "constant", "bit": 0}, "depth": depth}))
    assert run(["measure", "--tree", tree_file, "--gauge", "power:1/2", "--out", tmp_path / "m.json"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and f"not a depth <= {MAX_DEPTH}: 100000000" in line
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tree.json"]


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
    **{
        f"selector_{name}": (
            {"tree.json": json.dumps({"schedule": {"depth": 6, "indices": [1, 3]},
                                      "selector": selector, "depth": 6})},
            ["measure", "--tree", "tree.json", "--gauge", "power:1/2", "--delta-exp", 4,
             "--out", "out"],
        )
        for name, selector in {
            "constant_bit_2": {"kind": "constant", "bit": 2},
            "game_built_default_3": {"kind": "game_built", "default": 3, "layers": []},
            "game_built_root_not_binary": {"kind": "game_built", "layers": [[1, "2", 1]]},
            "game_built_root_not_a_string": {"kind": "game_built", "layers": [[1, 2, 1]]},
            "explicit_bit_5": {"kind": "explicit", "assignments": [["0", 5]]},
            "explicit_node_not_a_string": {"kind": "explicit", "assignments": [[0, 1]]},
            # JSON integers are checked, not truncated by int()
            "constant_bit_1_5": {"kind": "constant", "bit": 1.5},
            "constant_bit_true": {"kind": "constant", "bit": True},
            "constant_bit_string": {"kind": "constant", "bit": "1"},
            "explicit_default_1_0": {"kind": "explicit", "default": 1.0, "assignments": []},
            "seeded_seed_string": {"kind": "seeded", "seed": "5"},
            "game_built_level_1_5": {"kind": "game_built", "layers": [[1.5, "0", 1]]},
        }.items()
    },
    **{
        f"tree_{name}": (
            {"tree.json": json.dumps({"schedule": {"depth": 6, "indices": [1, 3], **schedule},
                                      "selector": {"kind": "constant", "bit": 0}, "depth": depth})},
            ["measure", "--tree", "tree.json", "--gauge", "power:1/2", "--out", "out"],
        )
        for name, schedule, depth in [
            ("schedule_index_1_5", {"indices": [1.5, 3]}, 6),
            ("schedule_depth_negative", {"depth": -1, "indices": []}, 6),
            ("depth_negative", {}, -1),
            ("depth_6_0", {}, 6.0),
        ]
    },
    **{
        f"transducer_{name}": (
            {"maps.json": json.dumps([dict(DROP_FIRST, **fields)])},
            ["antichain", "--gauge", "power:1/2", "--maps", "maps.json", "--depth", 16,
             "--stages", 1, "--out", "out"],
        )
        for name, fields in [
            ("move_on_bit_1_5", {"delta": [["a", 0, "b", ""], ["a", 1.5, "b", ""],
                                           ["b", 0, "b", "0"], ["b", 1, "b", "1"]]}),
            ("move_on_bit_true", {"delta": [["a", 0, "b", ""], ["a", True, "b", ""],
                                            ["b", 0, "b", "0"], ["b", 1, "b", "1"]]}),
            ("lag_1_5", {"lag": 1.5}),
            ("lag_negative", {"lag": -3}),
        ]
    },
    # a step table emits nothing before the first bit
    "maps_explicit_empty_node_image": (
        {"maps.json": '[{"kind": "explicit", "entries": [["", "1"], ["0", "1"], ["1", "1"]], "lag": 0}]'},
        ["antichain", "--gauge", "power:1/2", "--maps", "maps.json", "--depth", 8,
         "--stages", 1, "--out", "out"],
    ),
    # the shift map as a table that declares lag 0
    "maps_explicit_image_shorter_than_lag": (
        {"maps.json": json.dumps([{"kind": "explicit", "lag": 0, "entries": [
            [x, x[1:]] for k in range(9) for x in map("".join, itertools.product("01", repeat=k))]}])},
        ["antichain", "--gauge", "power:1/2", "--maps", "maps.json", "--depth", 8,
         "--stages", 1, "--out", "out"],
    ),
    "maps_explicit_node_not_a_string": (
        {"maps.json": '[{"kind": "explicit", "entries": [[0, "1"]], "lag": 0}]'},
        ["antichain", "--gauge", "power:1/2", "--maps", "maps.json", "--depth", 8,
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
    "plot_table_not_utf8": (
        {"t.csv": b"n,y\n0,\xff\n1,2\n"},
        ["plot", "--table", "t.csv", "--x", "n", "--y", "y", "--out", "out"],
    ),
    "cube_map_non_binary_bits": (
        {}, ["transfer", "cube-map", "--bits", "0121", "--out", "out"],
    ),
    # nested deeper than the JSON decoder recurses
    "tree_nested_100000_deep": (
        {"tree.json": "[" * 100_000}, ["measure", "--tree", "tree.json", "--gauge", "power:1/2", "--out", "out"],
    ),
    "maps_nested_100000_deep": (
        {"maps.json": "[" * 100_000},
        ["antichain", "--gauge", "power:1/2", "--maps", "maps.json", "--depth", 8, "--stages", 1, "--out", "out"],
    ),
    # a field past csv.field_size_limit(), 131 072 characters
    "plot_field_of_200000_characters": (
        {"t.csv": "n,y\n0," + "1" * 200_000 + "\n"},
        ["plot", "--table", "t.csv", "--x", "n", "--y", "y", "--out", "out"],
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_exits_2(tmp_path, monkeypatch, capsys, name):
    files, argv = BAD_INPUTS[name]
    for file_name, text in files.items():
        if isinstance(text, bytes):
            (tmp_path / file_name).write_bytes(text)
        else:
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


# every ending a command reaches by raising, as main writes it: the exit code
# and the whole stderr, byte for byte as the commands wrote them themselves
ENDINGS = {
    "measure_depth_past_the_tree": (
        ["measure", "--tree", "tree.json", "--gauge", "power:1/2", "--depth", 9, "--out", "out"], 2,
        "error: --depth 9 exceeds the tree depth 8\n"),
    "measure_delta_exp_past_the_tree": (
        ["measure", "--tree", "tree.json", "--gauge", "power:1/2", "--delta-exp", 9, "--out", "out"], 2,
        "error: --delta-exp 9 exceeds the depth 8\n"),
    "measure_delta_exp_past_the_depth": (
        ["measure", "--tree", "tree.json", "--gauge", "power:1/2", "--depth", 2, "--delta-exp", 3, "--out", "out"],
        2, "error: --delta-exp 3 exceeds the depth 2\n"),
    "antichain_delta_exp_past_the_depth": (
        ["antichain", "--gauge", "power_log:1,1", "--maps", "maps.json", "--depth", 16, "--stages", 1,
         "--delta-exp", 17, "--out", "out"], 2,
        "error: --delta-exp 17 exceeds --depth 16\n"),
    "interleave_check_past_the_batch_bits": (
        ["transfer", "interleave-check", "--count", 100000, "--length", 4000, "--out", "out"], 2,
        "error: --count 100000 * (--length 4000 + 256) exceeds 16777216 bits\n"),
    "plot_empty_table": (
        ["plot", "--table", "empty.csv", "--x", "n", "--y", "y", "--out", "out"], 2, "error: empty table\n"),
    "plot_missing_column": (
        ["plot", "--table", "cell.csv", "--x", "n", "--y", "y,bogus", "--out", "out"], 2,
        "error: missing column 'bogus'\n"),
    "plot_bad_cell": (
        ["plot", "--table", "cell.csv", "--x", "n", "--y", "y", "--out", "out"], 2,
        "error: bad cell in cell.csv: could not convert string to float: 'x'\n"),
    "antichain_infeasible": (
        ["antichain", "--gauge", "power_log:1,1", "--maps", "maps.json", "--depth", 16, "--stages", 9,
         "--out", "out"], 3,
        "infeasible: requested 9 stages per requirement, only 2 completed fairly (no eligible level left for "
        "requirement Requirement(map_index=1, root='1'): forced level 15: n + lag + 1 = 17 > --depth 16); the "
        "layers of 4 requirements consumed forced levels 1, 3, 7; forced levels still free below the working "
        "depth: 15\n"),
}


@pytest.mark.parametrize("name", ENDINGS)
def test_every_ending_is_pinned(tmp_path, monkeypatch, capsys, name):
    argv, code, err = ENDINGS[name]
    write_tree(tmp_path, "power:1/2", 8)
    (tmp_path / "maps.json").write_text(json.dumps([{"kind": "bit_flip"}, {"kind": "shift"}]))
    (tmp_path / "empty.csv").write_text("n,y\n")
    (tmp_path / "cell.csv").write_text("n,y\n0,1\n1,x\n")
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert run(argv) == code
    assert capsys.readouterr() == ("", err)
    assert not (tmp_path / "out").exists()


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


def _full_tree(path, depth):
    path.write_text(json.dumps({
        "schedule": {"depth": depth, "indices": []},
        "selector": {"kind": "constant", "bit": 0},
        "depth": depth,
    }))


def test_levels_csv_count_beyond_int_digit_limit(tmp_path):
    """A level with 14 400 free levels above it has 2^14400 cylinders, a
    count of 4 335 digits, over the interpreter's 4 300-digit limit on
    int-to-string conversion; the levels CSV writes the exponent `free`
    instead, so each line stays short."""
    depth = 14400
    tree_file = tmp_path / "tree.json"
    _full_tree(tree_file, depth)
    out, csv_out = tmp_path / "m.json", tmp_path / "m.csv"
    assert run(["measure", "--tree", tree_file, "--gauge", "power:1",
                "--out", out, "--csv", csv_out]) == 0
    header, rows = read_csv_table(str(csv_out))
    assert header == ["n", "free", "mu_cylinder", "gauge_value", "level_cost"]
    assert len(rows) == depth + 1
    assert rows[-1] == [str(depth), str(depth), f"1/2^{depth}", f"1/2^{depth}", "1"]
    assert rows[1000][1:3] == ["1000", "1/2^1000"]
    assert max(len(",".join(r)) for r in rows) < 40


@pytest.mark.parametrize("depth", [1023, 1024])
def test_levels_csv_writes_a_level_cost_past_2_to_1024(tmp_path, capsys, depth):
    """power_log:1,-1 is not dyadic at most levels; with no forced level,
    level n has n free levels above it and a level cost of 2^n·g(2^-n) = 1/n,
    once a float that held level 1023 but not level 1024.  Both are written,
    each cost as the upper end of its enclosure."""
    tree_file = tmp_path / "tree.json"
    _full_tree(tree_file, depth)
    out, csv_out = tmp_path / "m.json", tmp_path / "m.csv"
    assert run(["measure", "--tree", tree_file, "--gauge", "power_log:1,-1",
                "--out", out, "--csv", csv_out]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv_table(str(csv_out))
    assert len(rows) == depth + 1
    if depth == 1024:
        assert rows[1024] == ["1024", "1024", "1/2^1024", "1/2^1034", "1/2^10"]
    m, e = rows[1023][-1].split("/2^")
    cost = Fraction(int(m), 2 ** int(e))
    assert Fraction(1, 1023) <= cost <= Fraction(1, 1023) * (1 + Fraction(1, 2**58))


def test_levels_csv_power_half_at_depth_8000(tmp_path):
    """The t^(1/2) schedule tree at depth 8 000 once exited 3 from level
    2 047 on, where a float level cost passed 2^1024."""
    sched, tree_file = tmp_path / "s.json", tmp_path / "tree.json"
    assert run(["schedule", "--gauge", "power:1/2", "--depth", 8000, "--out", sched]) == 0
    tree_file.write_text(json.dumps({
        "schedule": json.loads(sched.read_text())["schedule"],
        "selector": {"kind": "constant", "bit": 1},
        "depth": 8000,
    }))
    out, csv_out = tmp_path / "m.json", tmp_path / "m.csv"
    assert run(["measure", "--tree", tree_file, "--gauge", "power:1/2", "--delta-exp", 3,
                "--out", out, "--csv", csv_out]) == 0
    _, rows = read_csv_table(str(csv_out))
    assert len(rows) == 8001
    cert = json.loads(out.read_text())["certificate"]
    assert cert["lower"]["value"] == "1" and cert["upper"]["value"] == "1"


PARITY = {
    "kind": "transducer",
    "start": 0,
    "delta": [[0, 0, 0, "0"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "0"]],
    "lag": 0,
}
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def antichain_report(tmp_path, gauge, maps, depth):
    """The report of `antichain --stages 3`, without its manifest, which
    holds the input's temporary path."""
    maps_path = tmp_path / "maps.json"
    maps_path.write_text(json.dumps(maps))
    out = tmp_path / "report.json"
    assert run([
        "antichain", "--gauge", gauge, "--maps", maps_path,
        "--depth", depth, "--stages", 3, "--out", out,
    ]) == 0
    report = json.loads(out.read_text())
    del report["manifest"]
    return report


ANTICHAIN_FIXTURES = [
    ("power_log:1,1", [{"kind": "bit_flip"}, {"kind": "shift"}, PARITY], 64,
     "antichain_power_log_flip_shift_parity_d64.json"),
    ("power:1/2", [{"kind": "bit_flip"}, {"kind": "shift"}], 32,
     "antichain_power_half_flip_shift_d32.json"),
    # 61 is odd and not a multiple of 8: the transducer's tail chunk and a
    # partial last block of the 1 000 escape samples
    ("power:1/2", [{"kind": "bit_flip"}, {"kind": "shift"}, PARITY], 61,
     "antichain_power_half_flip_shift_parity_d61.json"),
]


@pytest.mark.parametrize("gauge, maps, depth, fixture", ANTICHAIN_FIXTURES)
def test_antichain_report_matches_pinned_fixture(tmp_path, gauge, maps, depth, fixture):
    report = antichain_report(tmp_path, gauge, maps, depth)
    with open(os.path.join(FIXTURES, fixture)) as fh:
        # text, not parsed dicts: 1 == 1.0 would hide a float turned int
        assert json.dumps(report, sort_keys=True, indent=2) + "\n" == fh.read()


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


# sha1 of every output of schedule --csv and measure --delta-exp 3 --csv at
# depth 8 000, recorded while the values were evaluated level by level, the CSV
# rows formatted field by field and every JSON list written by json.dumps: the
# pinned fixtures stop at depth 301, short of the classes n = 2^t·u with t up to
# 12 and of a 4 000-entry schedule.  The schedule.json pins were re-recorded when
# schedules stopped writing a constant "n0": 0, their only change
DEEP_PINS = {
    "power_log:1,1": {
        "schedule.json": "53fe0ce023fa06e18e4af3ab020de6190f1a1b22",
        "caps.csv": "f78de0042647d5b23b4fa6ab1ad18afdcbe9bf55",
        "measure.json": "dd706583680563fadaf5aed2528e4a34cb9f5ccc",
        "levels.csv": "45b161cc814c5f1d8664b7ee5688d79523816a23",
    },
    "power:1/2": {
        "schedule.json": "9070862775cd44ecffb97fb2278db20a3230d6b5",
        "caps.csv": "d43432a47c5e02645497b2abebcbde3645caf7b7",
        "measure.json": "abe07b3130e344b9202fa6f2f932231e56523e99",
        "levels.csv": "68165dc047a0923f5087d0469258680b702961d4",
    },
}


@pytest.mark.parametrize("gauge", sorted(DEEP_PINS))
def test_certify_outputs_at_depth_8000_match_their_pins(tmp_path, monkeypatch, gauge):
    """Relative paths, so that each manifest, and so each whole file, is fixed."""
    monkeypatch.chdir(tmp_path)
    assert run(["schedule", "--gauge", gauge, "--depth", 8000, "--out", "schedule.json", "--csv", "caps.csv"]) == 0
    pathlib.Path("tree.json").write_text(json.dumps({
        "schedule": json.loads(pathlib.Path("schedule.json").read_text())["schedule"],
        "selector": {"kind": "seeded", "seed": 7}, "depth": 8000}))
    assert run(["measure", "--tree", "tree.json", "--gauge", gauge, "--delta-exp", 3,
                "--out", "measure.json", "--csv", "levels.csv"]) == 0
    assert {name: hashlib.sha1(pathlib.Path(name).read_bytes()).hexdigest() for name in DEEP_PINS[gauge]} \
        == DEEP_PINS[gauge]


def measure_with_levels(tmp_path, tree, gauge, delta_exp):
    """The certificate and the levels CSV rows of `measure --csv` on a tree dict."""
    tree_file, out, levels = tmp_path / "t.json", tmp_path / "m.json", tmp_path / "m.csv"
    tree_file.write_text(json.dumps(tree))
    assert run(["measure", "--tree", tree_file, "--gauge", gauge, "--delta-exp", delta_exp,
                "--out", out, "--csv", levels]) == 0
    return json.loads(out.read_text())["certificate"], read_csv_table(str(levels))[1]


def assert_upper_is_the_first_least_level_cost(cert, rows):
    """`upper` is, byte for byte, the level_cost cell of row witness_level,
    and that row is the first least level_cost from row delta_exp on."""
    k, w = cert["delta_exp"], cert["upper"]["witness_level"]
    assert cert["upper"]["value"] == rows[w][4]
    costs = [parse_dyadic(row[4]) for row in rows[k:]]
    assert k + costs.index(min(costs)) == w


@pytest.mark.parametrize("gauge, depth, selector", [
    ("power_log:1,1", 300, {"kind": "constant", "bit": 0}),
    ("power:1/2", 301, {"kind": "seeded", "seed": 7}),
])
def test_levels_csv_is_the_evidence_of_the_pinned_upper_bounds(tmp_path, gauge, depth, selector):
    """The inputs of the pinned measure fixtures: the ceiling 1 is the level
    cost of level 4, the first least from --delta-exp 3."""
    tree_file = write_tree(tmp_path, gauge, depth, selector)
    cert, rows = measure_with_levels(tmp_path, json.loads(tree_file.read_text()), gauge, 3)
    assert (cert["delta_exp"], cert["upper"]["witness_level"], cert["upper"]["value"]) == (3, 4, "1")
    assert_upper_is_the_first_least_level_cost(cert, rows)


@pytest.mark.parametrize("gauge, maps, depth, fixture", ANTICHAIN_FIXTURES)
def test_levels_csv_is_the_evidence_of_the_pinned_dimension(tmp_path, gauge, maps, depth, fixture):
    """`dimension` is the first least free/n of the report tree's levels CSV
    rows from n = max(delta_exp, 1) on, and `witness_level` is that row."""
    report = antichain_report(tmp_path, gauge, maps, depth)
    k = report["measure_certificate"]["delta_exp"]
    _, rows = measure_with_levels(tmp_path, report["tree"], gauge, k)
    assert len(rows) == depth + 1
    ratios = [Fraction(int(row[1]), int(row[0])) for row in rows[max(k, 1):]]
    least = min(ratios)
    dim = report["dimension"]
    assert (Fraction(dim["value"]), dim["witness_level"]) == (least, max(k, 1) + ratios.index(least))


# level n has value (n + 1)/2^n, except a non-dyadic 1/7 at level 5
LEVEL_TABLE = "table:" + ",".join(f"{n}={'1/7' if n == 5 else f'{n + 1}/{2 ** n}'}" for n in range(121))


@st.composite
def forced_trees(draw):
    """A tree dict of depth <= 120 with a random forced set and a constant
    or seeded selector, and a --delta-exp at most its depth."""
    depth = draw(st.integers(0, 120))
    indices = sorted(draw(st.sets(st.integers(0, depth - 1)))) if depth else []
    selector = draw(st.sampled_from([{"kind": "constant", "bit": 0}, {"kind": "constant", "bit": 1}])
                    | st.integers(0, 2**31).map(lambda seed: {"kind": "seeded", "seed": seed}))
    tree = {"schedule": {"depth": depth, "indices": indices}, "selector": selector, "depth": depth}
    return tree, draw(st.integers(0, depth))


@settings(max_examples=120, deadline=None)
@given(case=forced_trees(), gauge=st.sampled_from(["power:1/2", "power_log:1,1", "power:1", LEVEL_TABLE]))
def test_levels_csv_is_the_evidence_of_the_upper_bound(case, gauge):
    tree, delta_exp = case
    with tempfile.TemporaryDirectory() as tmp:
        cert, rows = measure_with_levels(pathlib.Path(tmp), tree, gauge, delta_exp)
    assert len(rows) == tree["depth"] + 1
    assert_upper_is_the_first_least_level_cost(cert, rows)


def test_frostman_failure_names_the_first_least_level_cost(tmp_path):
    """Under power:4/5 levels 1 and 6 of this tree tie exactly at the least
    level cost, below 1, at both ends of the enclosure: no cut reaches 1, the
    lower end is the tied lo cost and the upper end names level 1, the first.
    Their float excesses, 0.8 and 6·0.8 - 4, differ, since -6·0.8 rounds to
    -4.800000000000001, so only an exact comparison finds the tie."""
    tree = {"schedule": {"depth": 6, "indices": [0, 5]},
            "selector": {"kind": "constant", "bit": 0}, "depth": 6}
    cert, rows = measure_with_levels(tmp_path, tree, "power:4/5", 0)
    assert cert["lower"] == {"value": "10594872286260733109/2^64", "provenance": "frostman", "n0": None}
    assert cert["upper"]["witness_level"] == 1
    assert rows[1][4] == rows[6][4] == cert["upper"]["value"] == "10594872286260733111/2^64"
    assert min(parse_dyadic(row[4]) for row in rows) == parse_dyadic(rows[1][4]) < 1


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


@pytest.mark.parametrize("mode, count, length, seed", [
    ("four-cover", 2000, 4, 0),
    ("four-cover", 500, 4, -(1 << 70) - 3),
    ("four-cover", 500, 4, (1 << 64) + 1),
    # at most 4 bits a string, so x == y is redrawn in about one item of 8
    ("interleave-check", 400, 4, 1),
    ("interleave-check", 400, 5, -2),
    # strings that cross a chunk of BITS_CHUNK words, or span several
    ("interleave-check", 200, 61, (1 << 64) + 5),
    ("interleave-check", 5, 4095, 3),
    ("interleave-check", 5, 4096, -(1 << 70)),
    ("interleave-check", 5, 4097, 4),
    ("interleave-check", 3, 9000, 1 << 70),
])
def test_transfer_rows_match_the_stdlib_draws(tmp_path, mode, count, length, seed):
    """Each row equals the one drawn by the stdlib's `randrange`, `choice`
    and per-bit `getrandbits(1)` and checked by the Fraction references."""
    out = tmp_path / "t.csv"
    assert run(["transfer", mode, "--count", count, "--length", length, "--seed", seed, "--out", out]) == 0
    _, rows = read_csv_table(str(out))
    assert rows == reference_transfer_rows(mode, count, seed, length)


def test_interleave_pass_column_rejects_a_wrong_split(tmp_path, monkeypatch):
    """The observed exponent comes from the components `interleave` splits,
    never from k: with a wrong split some rows read pass 0."""

    def late(node, n):  # each component one bit late
        return tuple(node[i + 1::n] for i in range(n))

    def blocks(node, n):  # n runs of consecutive bits
        size = -(-len(node) // n)
        return tuple(node[i * size:(i + 1) * size] for i in range(n))

    def whole(node, n):
        return (node,)

    for bad in (late, blocks, whole):
        monkeypatch.setattr(gaugetree.transfer, "interleave", bad)
        out = tmp_path / f"{bad.__name__}.csv"
        assert run(["transfer", "interleave-check", "--count", 200, "--length", 60, "--out", out]) == 0
        _, rows = read_csv_table(str(out))
        assert any(r[-1] == "0" for r in rows), bad.__name__
        for r in rows:
            assert r[3] == str(Fraction(1, 2 ** (int(r[2]) // int(r[1])))), (bad.__name__, r)
            assert r[-1] == str(int(r[3] == r[4])), (bad.__name__, r)


class Drew(Exception):
    """A transfer batch reached its first draw."""


@pytest.mark.parametrize("count, length, refused", [
    (1000, MAX_DEPTH, True),  # each flag in range; the batch took 40 s
    (MAX_SAMPLES, MAX_DEPTH, True),
    (MAX_BATCH_BITS // 64 + 1, 64, True),
    (MAX_BATCH_BITS // (64 + ITEM_BITS) + 1, 64, True),
    (MAX_BATCH_BITS // (64 + ITEM_BITS), 64, False),
    (16, MAX_DEPTH - ITEM_BITS, False),
    (16, MAX_DEPTH, True),
    (64527, 4, False),  # the most items the bound admits; each costs ~7 us whatever its length
    (64528, 4, True),
    (2**20, 16, True),  # 2^24 bits by count x length alone; the batch takes 8.2 s
])
def test_interleave_check_work_is_bounded(tmp_path, capsys, monkeypatch, count, length, refused):
    """count × (length + ITEM_BITS) past MAX_BATCH_BITS exits 2 with one line
    before any draw; up to it the batch runs (stopped here at its first draw)."""

    def no_draw(words, n):
        raise Drew

    monkeypatch.setattr(gaugetree.cli.WordReader, "take", no_draw)
    out = tmp_path / "ic.csv"
    argv = ["transfer", "interleave-check", "--count", count, "--length", length, "--out", out]
    if refused:
        assert run(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: --count {count} * (--length {length} + 256) exceeds 16777216 bits"
    else:
        with pytest.raises(Drew):
            run(argv)
    assert not out.exists()


def perfbench_workloads():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_transfer_batches_stay_far_inside_the_work_bound():
    """The default interleave-check batch and each of perfbench's take at
    most 1/64 of MAX_BATCH_BITS, and 1/16 of it with each item's cost."""
    workloads = perfbench_workloads()
    args = build_parser().parse_args(["transfer", "interleave-check", "--out", "ic.csv"])
    batches = [(args.count, args.length)] + [(n, length) for _, n, length in workloads.TRANSFER_SIZES]
    assert all(64 * n * length <= MAX_BATCH_BITS for n, length in batches)
    assert all(16 * n * (length + ITEM_BITS) <= MAX_BATCH_BITS for n, length in batches)


class Played(Exception):
    """An antichain game reached its first count."""


IDENTITY_MAP = {"kind": "transducer", "start": 0, "lag": 0, "delta": [[0, 0, 0, "0"], [0, 1, 0, "1"]]}


@pytest.mark.parametrize("maps, stages, roots, refused", [
    (1, MAX_STAGE_LOG, "0", False),  # took 0.6 s
    (1, MAX_STAGE_LOG + 1, "0", True),
    (1, MAX_STAGE_LOG // 2, "0,1", False),
    (1, MAX_STAGE_LOG // 2 + 1, "0,1", True),
    (2, MAX_STAGE_LOG // 4 + 1, "0,1", True),
    (0, MAX_STAGE_LOG, "0", False),  # no requirement: the rounds still run
    (0, MAX_STAGE_LOG + 1, "0,1", True),
    (0, 10**8, "0", True),  # ran 6 s and exited 0 before the bound
])
def test_antichain_stage_log_is_bounded(tmp_path, capsys, monkeypatch, maps, stages, roots, refused):
    """stages × max(1, requirements) past MAX_STAGE_LOG exits 2 with one
    line before any count; up to it the game is played (stopped here at
    its start)."""

    def no_game(*args):
        raise Played

    monkeypatch.setattr(gaugetree.cli, "run_game", no_game)
    maps_path, out = tmp_path / "maps.json", tmp_path / "a.json"
    maps_path.write_text(json.dumps([IDENTITY_MAP] * maps))
    argv = ["antichain", "--gauge", "power:1/2", "--maps", maps_path, "--depth", 8,
            "--stages", stages, "--roots", roots, "--out", out]
    if refused:
        assert run(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        requirements = maps * len(roots.split(","))
        assert line == f"error: --stages {stages} * max(1, {requirements} requirements) exceeds 16384 stages"
    else:
        with pytest.raises(Played):
            run(argv)
    assert not out.exists()


def test_perfbench_games_stay_far_inside_the_stage_log_bound():
    """Each of perfbench's antichain games logs at most 1/64 of MAX_STAGE_LOG stages."""
    workloads = perfbench_workloads()
    for maps in workloads.MAP_SETS.values():
        assert 64 * workloads.ANTICHAIN_STAGES * len(maps) * len(workloads.ANTICHAIN_ROOTS) <= MAX_STAGE_LOG


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
    """The pass column re-checks each span; it does not trust the construction."""

    def drop_first(lo, hi, den):
        m, first, stop = four_cover_span(lo, hi, den)
        return m, first + (stop - first > 1), stop

    def drop_last(lo, hi, den):
        m, first, stop = four_cover_span(lo, hi, den)
        return m, first, stop - (stop - first > 1)

    def shift_right(lo, hi, den):
        m, first, stop = four_cover_span(lo, hi, den)
        return m, min(first + 1, (1 << m) - 1), min(stop + 1, 1 << m)

    def wrong_level(lo, hi, den):
        m, first, stop = four_cover_span(lo, hi, den)
        return m + 1, first, stop

    def widen(lo, hi, den):  # still covers, with up to six intervals
        m, first, stop = four_cover_span(lo, hi, den)
        return m, max(first - 1, 0), min(stop + 1, 1 << m)

    def extend_left(lo, hi, den):  # from index -1 where first is 0
        m, first, stop = four_cover_span(lo, hi, den)
        return m, first - 1, stop

    for bad in (drop_first, drop_last, shift_right, wrong_level, widen, extend_left):
        monkeypatch.setattr(gaugetree.cli, "four_cover_span", bad)
        out = tmp_path / f"{bad.__name__}.csv"
        assert run(["transfer", "four-cover", "--count", 200, "--out", out]) == 0
        _, rows = read_csv_table(str(out))
        assert any(r[-1] == "0" for r in rows), bad.__name__
        for r in rows:
            a, b = Fraction(r[1]), Fraction(r[2])
            qa, qb = a.denominator, b.denominator
            m, first, stop = bad(a.numerator * qb, b.numerator * qa, qa * qb)
            assert r[3:5] == [str(m), str(stop - first)], (bad.__name__, r)
            if not 0 <= first < stop <= 1 << m:  # no level-m dyadic intervals
                assert r[-1] == "0", (bad.__name__, r)
                continue
            cover = [DyadicInterval(m, idx) for idx in range(first, stop)]
            assert r[-1] == str(int(cli_pass_reference(cover, a, b))), (bad.__name__, r)


def cli_pass_reference(cover, a, b):
    """The pass check in Fractions."""
    return (
        len(cover) <= 4
        and min(iv.left for iv in cover) <= a
        and max(map(right_end, cover)) >= b
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
    """A non-dyadic table entry is enclosed at 64 bits, and the levels CSV
    and the certificates write the upper end exactly, as m/2^e."""
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"schedule": {"indices": [], "depth": 4},
                                "selector": {"kind": "constant", "bit": 0}, "depth": 4}))
    cert, levels = tmp_path / "c.json", tmp_path / "l.csv"
    assert run(["measure", "--tree", tree, "--gauge", "table:0=1,1=1/3,2=1/4,3=1/8,4=1/16",
                "--out", cert, "--csv", levels]) == 0
    third = "12297829382473034411/2^65"  # ceil(2^65/3)/2^65
    assert json.loads(cert.read_text())["certificate"]["upper"]["value"] == "12297829382473034411/2^64"
    _, rows = read_csv_table(str(levels))
    assert rows[1] == ["1", "1", "1/2^1", third, "12297829382473034411/2^64"]
    assert rows[2] == ["2", "2", "1/2^2", "1/2^2", "1"]
    maps = tmp_path / "maps.json"
    maps.write_text(json.dumps([{"kind": "bit_flip"}]))
    report = tmp_path / "r.json"
    assert run(["antichain", "--gauge", "table:0=1,1=1/3,2=1/5,3=1/7,4=1/9", "--maps", maps,
                "--depth", 4, "--stages", 0, "--out", report]) == 0
    upper = json.loads(report.read_text())["measure_certificate"]["upper"]
    m, e = upper.split("/2^")
    assert Fraction(8, 7) < Fraction(int(m), 2 ** int(e)) < Fraction(8, 7) * (1 + Fraction(1, 2**62))


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


SVG_TEXT = "{http://www.w3.org/2000/svg}text"
SVG_POLYLINE = "{http://www.w3.org/2000/svg}polyline"


def svg_manifest(path):
    """The manifest in the SVG's comment, which may not hold "--"."""
    with open(path, encoding="utf-8") as fh:
        comment = fh.read().splitlines()[1]
    assert comment.startswith("<!-- manifest: ") and comment.endswith(" -->")
    body = comment[len("<!-- manifest: "):-len(" -->")]
    assert "--" not in body
    return json.loads(body)


def test_plot_escapes_labels_and_manifest(tmp_path):
    """Markup characters in the labels and a "--" in the table's path still
    give well-formed XML, and the comment decodes to the manifest."""
    (tmp_path / "d--x").mkdir()
    table, out = tmp_path / "d--x" / "t.csv", tmp_path / "p.svg"
    table.write_text("a&b,y<1\n0,1\n1,1/2^1\n")
    assert run(["plot", "--table", table, "--x", "a&b", "--y", "y<1", "--out", out]) == 0
    root = ElementTree.parse(out).getroot()
    assert [t.text for t in root.iter(SVG_TEXT)] == ["a&b", "y<1"]
    assert svg_manifest(out) == build_manifest("plot", argparse.Namespace(), [str(table)])


def test_plot_x_axis_spans_a_column_whose_maximum_is_zero():
    svg = render_svg([-3.0, 0.0], [("y", [0.0, 1.0])], "x", {})
    assert 'points="50.00,370.00 590.00,50.00"' in svg


@pytest.mark.parametrize("table, points", [
    # a flat column of magnitude >= 2^53, where x0 + 1 == x0
    ("n,y\n0,1e300\n1,1e300\n", "50.00,370.00 590.00,370.00"),
    ("n,y\n1e20,1\n1e20,2\n", "50.00,370.00 50.00,50.00"),
    # a range wider than the largest float
    ("n,y\n-1.7e308,-1.7e308\n1.7e308,1.7e308\n", "50.00,370.00 590.00,50.00"),
], ids=["flat_y_1e300", "flat_x_1e20", "range_past_the_largest_float"])
def test_plot_coordinates_are_finite_at_any_magnitude(tmp_path, table, points):
    (tmp_path / "t.csv").write_text(table)
    out = tmp_path / "p.svg"
    assert run(["plot", "--table", tmp_path / "t.csv", "--x", "n", "--y", "y", "--out", out]) == 0
    assert f'points="{points}"' in out.read_text()


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


@pytest.mark.parametrize("last_row", ["2,x", "2,1/0", "2,1/2^x", "2,1/2^-5", "2,1e999", "2,", "2,inf", "2"])
def test_plot_bad_cell_exits_2(tmp_path, capsys, last_row):
    table = tmp_path / "t.csv"
    table.write_text(f"n,y\n0,1/2^1\n1,3/7\n{last_row}\n")
    out = tmp_path / "p.svg"
    assert run(["plot", "--table", table, "--x", "n", "--y", "y", "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("cell, code", [
    ("1/2^99999999999", 0),  # 2^(10^11) has 10^11 bits; the value rounds to 0.0
    ("1e-999999999", 0),
    ("1e999999999", 2),  # Fraction would build 10^999999999
])
def test_plot_reads_a_huge_cell_in_linear_time(tmp_path, cell, code):
    """A cell whose exact value is huge is read in time and memory linear in
    its length, in a child capped at 1 GiB and 20 s."""
    table, out = tmp_path / "t.csv", tmp_path / "p.svg"
    table.write_text(f"n,y\n0,1/2^1\n1,{cell}\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(gaugetree.__file__))}
    proc = subprocess.run(
        [sys.executable, "-m", "gaugetree.cli", "plot", "--table", table, "--x", "n", "--y", "y", "--out", out],
        capture_output=True, text=True, timeout=20, env=env, preexec_fn=_cap_memory,
    )
    assert proc.returncode == code, proc.stderr
    err = proc.stderr.splitlines()
    assert out.exists() if code == 0 else len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("text, x", [
    ("#n,y\n0,1\n1,1/2^1\n", "#n"),  # a header that starts with "#" is a header
    ('# manifest: {"tool": "gaugetree"}\nn,y\n0,1\n1,1/2^1\n', "n"),
])
def test_plot_skips_only_a_leading_manifest_line(tmp_path, text, x):
    table, out = tmp_path / "t.csv", tmp_path / "p.svg"
    table.write_text(text)
    assert run(["plot", "--table", table, "--x", x, "--y", "y", "--out", out]) == 0
    assert read_csv_table(str(table)) == ([x, "y"], [["0", "1"], ["1", "1/2^1"]])
    root = ElementTree.parse(out).getroot()
    assert [t.text for t in root.iter(SVG_TEXT)] == [x, "y"]


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


@pytest.mark.parametrize("payload", [
    {"a": {"indices": list(range(4000)), "b": [1, 2]}, "c": list(range(65)), "d": [[1, 2]] * 70,
     "e": {"f": {"g": list(range(-40, 40)), "h": "x"}, "i": {}}, "j": [10**40, -3] * 40},
    {"short": list(range(64)), "bools": [True] * 70, "floats": [1.0] * 70, "mark": "\x00long int list",
     "ints": list(range(70))},
], ids=["nested", "mark_in_a_string"])
def test_write_json_is_json_dumps_byte_for_byte(tmp_path, payload):
    """Long int lists are spliced in by one join at their indent, and a
    payload string equal to the splice mark leaves every list to json.dumps."""
    out = tmp_path / "o.json"
    write_json(str(out), payload, {"tool": "t"})
    assert out.read_text() == json.dumps({"manifest": {"tool": "t"}, **payload}, sort_keys=True, indent=2) + "\n"


def parser_outcome(parse, argv, capsys):
    """(exit code, stdout, stderr) of parse(argv), which argparse ends by SystemExit."""
    with pytest.raises(SystemExit) as e:
        parse(argv)
    return (e.value.code, *capsys.readouterr())


FRONT_END_CASES = [
    *([c, "--help"] for c in COMMANDS), *([c, "--bogus"] for c in COMMANDS), [], ["bogus"], ["-h"],
    # a stray argument is the top-level parser's error, whose usage lists every command
    ["schedule", "--gauge", "power:1/2", "--depth", "4", "--out", "s.json", "extra"],
]


@pytest.mark.parametrize("argv", FRONT_END_CASES, ids=lambda argv: " ".join(argv) or "empty")
def test_front_end_writes_what_the_full_parser_writes(tmp_path, monkeypatch, capsys, argv):
    """main builds the subparser argv[0] names, or all of them when it names
    none; help, usage errors and exit codes are the full parser's."""
    monkeypatch.chdir(tmp_path)
    expected = parser_outcome(build_parser().parse_args, argv, capsys)
    assert expected[0] == (0 if {"-h", "--help"} & set(argv) else 2)
    assert parser_outcome(main, argv, capsys) == expected
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_builds_only_its_own_subparser(monkeypatch, command):
    """main adds one subparser, the command's; build_parser() adds all five."""
    built, add_parser = [], argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kwargs: built.append(name) or add_parser(self, name, **kwargs))
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert built == [command]
    build_parser()
    assert built == [command, *COMMANDS]


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


# the classes with invariants checked in __post_init__, mutable state, or a
# base class a NamedTuple cannot have
KEPT_DATACLASSES = {"GameState", "BranchSchedule", "ExplicitTree", "DyadicInterval",
                    "ConstantSelector", "SeededSelector"}
RECORDS = {
    "game": ("Requirement", "BadLeaves", "BadSet", "EscapeReport"),
    "gauge": ("Gauge", "OrderVerdict"),
    "hausdorff": ("DimensionEstimate", "MeasureCertificate"),
    "transfer": ("MetricCheck",),
    "tree": ("Layer", "SplittingTree"),
}


def test_only_the_kept_classes_are_dataclasses():
    """Every CLI process builds gaugetree's classes at import; a frozen
    dataclass compiles each generated method by its own exec."""
    found = set()
    for info in pkgutil.iter_modules(gaugetree.__path__):
        module = importlib.import_module(f"gaugetree.{info.name}")
        found |= {cls.__name__ for cls in vars(module).values()
                  if isinstance(cls, type) and cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)}
    assert found == KEPT_DATACLASSES, (
        "each frozen dataclass costs ~0.6 ms of every CLI start; make a value record a NamedTuple"
    )


@pytest.mark.parametrize("module, name", [(m, n) for m, names in RECORDS.items() for n in names])
def test_records_compare_and_hash_by_their_fields(module, name):
    """Records with equal fields are equal and hash equal (the count memo keys
    on Requirement), differ when a field does, and refuse assignment."""
    cls = getattr(importlib.import_module(f"gaugetree.{module}"), name)
    fields = list(inspect.signature(cls).parameters)
    values = [f"field {i}" for i in range(len(fields))]
    a, b = cls(*values), cls(*values)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != cls(*values[:-1], "another")
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(a, field, None)


def exit_code(argv):
    """main's return value, or the code argparse exits with."""
    try:
        return main([str(a) for a in argv])
    except SystemExit as err:
        return err.code


TRANSFER_HEADERS = {
    "four-cover": ["item", "a", "b", "level", "intervals", "pass"],
    "interleave-check": ["item", "n", "k", "expected", "observed", "pass"],
    "cube-map": ["coordinate", "value"],
}


@settings(max_examples=200)
@given(
    mode=st.sampled_from(sorted(TRANSFER_HEADERS)),
    count=st.integers(1, 50),
    length=st.integers(4, 400),
    n=st.integers(1, 12),
    seed=st.integers(-(1 << 70), 1 << 70),
    bits=st.text("01", max_size=40),
    flaw=st.sampled_from([None, None, None, "length", "n", "bits"]),
    bad=st.data(),
)
def test_transfer_cli_fuzz(mode, count, length, n, seed, bits, flaw, bad):
    """Exit 0 or 2, also with a --length or --n out of range or --bits not
    binary; a table is absent or complete, with every law passing."""
    if flaw == "length":
        length = bad.draw(st.integers(-3, 3))
    elif flaw == "n":
        n = bad.draw(st.integers(-3, 0))
    elif flaw == "bits":
        bits = bad.draw(st.text(st.characters(exclude_categories=("Cs",)), max_size=8).filter(
            lambda b: b.strip("01")))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "t.csv")
        code = exit_code(["transfer", mode, "--count", count, "--length", length, "--n", n,
                          "--seed", seed, f"--bits={bits}", "--out", out])
        assert code in (0, 2)
        if code == 2:
            assert not os.path.exists(out)
            return
        header, rows = read_csv_table(out)
    assert flaw is None
    assert header == TRANSFER_HEADERS[mode]
    if mode == "cube-map":
        assert [r[0] for r in rows] == [str(i) for i in range(n)]
    else:
        assert len(rows) == count and all(r[-1] == "1" for r in rows)


MAP_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.text("01x", max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["kind", "entries", "lag", "start", "delta"]), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def map_jsons(draw):
    """A random transducer, which may break its lag; bit_flip or shift; an
    explicit table of a random transducer's images on every node up to a
    random length, complete or with images missing; or malformed map JSON:
    a known kind with junk fields, or any small JSON value."""
    kind = draw(st.sampled_from(["transducer", "transducer", "bit_flip", "shift", "explicit", "malformed"]))
    if kind in ("bit_flip", "shift"):
        return {"kind": kind}
    if kind == "malformed":
        if draw(st.booleans()):
            return {"kind": draw(st.sampled_from(["transducer", "explicit", "bit_flip", "warp"])),
                    **draw(st.dictionaries(st.sampled_from(["entries", "lag", "start", "delta"]), MAP_JUNK))}
        return draw(MAP_JUNK)
    size = draw(st.integers(1, 3))
    delta = [[q, b, draw(st.integers(0, size - 1)), draw(st.text("01", max_size=3))]
             for q in range(size) for b in (0, 1)]
    transducer = {"kind": "transducer", "start": 0, "delta": delta, "lag": draw(st.integers(0, 2))}
    if kind == "transducer":
        return transducer
    nodes = ["".join(bits) for k in range(draw(st.integers(0, 6)) + 1) for bits in itertools.product("01", repeat=k)]
    missing = draw(st.sets(st.sampled_from(nodes), max_size=3)) if draw(st.booleans()) else set()
    images = map(map_from_json_dict(transducer).apply, nodes)
    return {"kind": "explicit", "entries": [[x, u] for x, u in zip(nodes, images) if x not in missing],
            "lag": transducer["lag"]}


@settings(max_examples=80, deadline=None)
@given(
    maps=st.lists(map_jsons(), min_size=1, max_size=3),
    gauge=st.sampled_from(["power_log:1,1", "power:1/2", "power:2/3", "power_log:1,1/2"]),
    depth=st.integers(0, 48),
    stages=st.integers(0, 2),
    roots=st.lists(st.text("01", min_size=1, max_size=3), min_size=1, max_size=3, unique=True),
    samples=st.integers(1, 300),
    seed=st.integers(0, 2**20),
)
def test_antichain_cli_fuzz(maps, gauge, depth, stages, roots, samples, seed):
    """Exit 0, 2 or 3 and never a traceback; a report is absent or complete,
    and each map's escape classes split its samples."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "maps.json"), os.path.join(tmp, "a.json")
        with open(path, "w") as fh:
            json.dump(maps, fh)
        code = exit_code(["antichain", "--gauge", gauge, "--maps", path, "--depth", depth,
                          "--stages", stages, "--roots", ",".join(roots), "--seed", seed,
                          "--escape-samples", samples, "--out", out])
        assert code in (0, 2, 3)
        if code:
            assert not os.path.exists(out)
            return
        with open(out) as fh:
            report = json.load(fh)
    assert {"gauge", "schedule", "tree", "game_certificate", "measure_certificate",
            "dimension", "manifest"} <= set(report)
    escape = report["game_certificate"]["escape_report"]
    assert escape["samples"] == samples and len(escape["per_map"]) == len(maps)
    for row in escape["per_map"]:
        assert row["fixed"] + row["escaped"] + row["undetermined"] == samples
        assert row["unaccounted"] + row["uncovered"] <= row["undetermined"]


RATIONALS = st.sampled_from(
    ["1", "1/2", "2/3", "1/3", "3/2", "2", "5/2", "0.5", "-1/2", "-1", "-3/2", "0", "x", "", "1/0"])


@st.composite
def gauge_specs(draw):
    """A power, power_log or table spec, well formed or not: a negative or
    fractional log exponent, a table with gaps, or a stray separator."""
    kind = draw(st.sampled_from(["power", "power_log", "table", "junk"]))
    if kind == "power":
        return f"power:{draw(RATIONALS)}"
    if kind == "power_log":
        return f"power_log:{draw(RATIONALS)},{draw(RATIONALS)}"
    if kind == "table":
        if draw(st.booleans()):  # every level up to a last one, like power:1/2
            return "table:" + ",".join(f"{n}=1/{2 ** (n // 2)}" for n in range(draw(st.integers(0, 40)) + 1))
        levels = draw(st.lists(st.integers(-1, 40), min_size=1, max_size=8))
        return "table:" + ",".join(f"{n}={draw(RATIONALS)}" for n in levels)
    return draw(st.sampled_from(["power", "power:", "power_log:1", "table:", "table:1", "nope:1", ":"]))


JUNK = st.sampled_from([-1, 2, 1.5, "1", "01", None, True, [], {}, [[0, "1", 1]], [["0", 1]]])
SELECTORS = st.sampled_from([
    {"kind": "constant", "bit": 0}, {"kind": "constant", "bit": 1}, {"kind": "seeded", "seed": 7},
    {"kind": "explicit", "default": 1, "assignments": [["0", 0], ["01", 1]]},
    {"kind": "game_built", "layers": [[1, "0", 1], [3, "", 0]]}, {"kind": "game_built"},
    {"kind": "nope"}, {},
])


@st.composite
def tree_jsons(draw):
    """Tree JSON text: a schedule, a selector and a depth, with one field
    replaced by junk or dropped, or a document that is not a tree at all."""
    depth = draw(st.integers(0, 40))
    indices = sorted(draw(st.sets(st.integers(0, max(depth - 1, 0)), max_size=depth // 2)))
    tree = {"schedule": {"depth": depth, "indices": indices},
            "selector": dict(draw(SELECTORS)), "depth": draw(st.integers(0, depth + 2))}
    flaw = draw(st.sampled_from([None, None, "junk", "drop", "indices", "document"]))
    if flaw in ("junk", "drop"):
        part = draw(st.sampled_from([tree, tree["schedule"], tree["selector"]]))
        key = draw(st.sampled_from(sorted(part) or ["depth"]))
        if flaw == "junk":
            part[key] = draw(JUNK)
        else:
            part.pop(key, None)
    elif flaw == "indices":
        tree["schedule"]["indices"] = draw(st.lists(st.integers(-2, depth + 2), max_size=4))
    elif flaw == "document":
        return draw(st.sampled_from(["", "{", "[]", "3", "null", '"tree"', "{}"]))
    return json.dumps(tree)


def output_complete(path, kind):
    """True when the file at `path` is absent or holds a whole output."""
    if not os.path.exists(path):
        return True
    if kind == "json":
        with open(path) as fh:
            return "manifest" in json.load(fh)
    header, rows = read_csv_table(path)
    return bool(header) and all(len(r) == len(header) for r in rows)


@settings(max_examples=150, deadline=None)
@given(gauge=gauge_specs(), depth=st.integers(-2, 120), csv_out=st.booleans())
def test_schedule_cli_fuzz(gauge, depth, csv_out):
    """Exit 0, 2 or 3 on any gauge spec and depth; the JSON and the CSV are
    each absent or complete, and a 0 exit writes a CSV row per level."""
    with tempfile.TemporaryDirectory() as tmp:
        out, table = os.path.join(tmp, "s.json"), os.path.join(tmp, "s.csv")
        code = exit_code(["schedule", f"--gauge={gauge}", f"--depth={depth}", "--out", out,
                          *(["--csv", table] if csv_out else [])])
        assert code in (0, 2, 3)
        assert output_complete(out, "json") and output_complete(table, "csv")
        if code == 0:
            assert os.path.exists(out) and os.path.exists(table) == csv_out
            if csv_out:
                assert len(read_csv_table(table)[1]) == depth


@settings(max_examples=150, deadline=None)
@given(
    tree=tree_jsons(),
    gauge=gauge_specs(),
    delta_exp=st.none() | st.integers(-1, 45),
    depth=st.none() | st.integers(-1, 45),
    csv_out=st.booleans(),
)
def test_measure_cli_fuzz(tree, gauge, delta_exp, depth, csv_out):
    """Exit 0, 2 or 3 on any tree JSON, gauge spec, --delta-exp and --depth;
    the certificate and the levels CSV are each absent or complete."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out, table = (os.path.join(tmp, name) for name in ("t.json", "m.json", "m.csv"))
        with open(path, "w") as fh:
            fh.write(tree)
        argv = ["measure", "--tree", path, f"--gauge={gauge}", "--out", out]
        argv += [f"--delta-exp={delta_exp}"] if delta_exp is not None else []
        argv += [f"--depth={depth}"] if depth is not None else []
        code = exit_code(argv + (["--csv", table] if csv_out else []))
        assert code in (0, 2, 3)
        assert output_complete(out, "json") and output_complete(table, "csv")
        if code == 0:
            with open(out) as fh:
                assert "certificate" in json.load(fh)
            assert os.path.exists(table) == csv_out


PRINTABLE = st.text(st.characters(exclude_categories=("Cs",)).filter(str.isprintable), max_size=8)
CELLS = st.integers(-1000, 1000).map(str) | st.sampled_from(
    ["1/2^3", "3/7", "-5/2^1", "1e20", "1e300", "-1.7e308", "1.7e308"])


@settings(max_examples=200)
@given(
    headers=st.lists(PRINTABLE, min_size=1, max_size=4),
    rows=st.lists(st.lists(CELLS, min_size=4, max_size=4), min_size=1, max_size=5),
    bad_cell=st.sampled_from([None, "x", "", "inf"]),
    picks=st.lists(st.integers(0, 3), min_size=2, max_size=3),
)
def test_plot_cli_fuzz(headers, rows, bad_cell, picks):
    """Exit 0 or 2 on any printable header; an SVG is absent or parses as XML
    with the requested labels, the manifest in its comment and every plotted
    coordinate finite."""
    with tempfile.TemporaryDirectory() as tmp:
        os.mkdir(os.path.join(tmp, "d--x"))
        table, out = os.path.join(tmp, "d--x", "t.csv"), os.path.join(tmp, "p.svg")
        if bad_cell is not None:
            rows[-1][picks[0] % len(headers)] = bad_cell
        with open(table, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([headers] + [r[:len(headers)] for r in rows])
        x, *ys = [headers[i % len(headers)] for i in picks]
        code = exit_code(["plot", "--table", table, f"--x={x}", f"--y={','.join(ys)}", "--out", out])
        assert code in (0, 2)
        if code == 2:
            assert not os.path.exists(out)
            return
        root = ElementTree.parse(out).getroot()
        assert [t.text or "" for t in root.iter(SVG_TEXT)] == [x, *ys]
        assert svg_manifest(out)["inputs"] == [table]
        coordinates = [float(c) for line in root.iter(SVG_POLYLINE)
                       for point in line.get("points").split() for c in point.split(",")]
        assert all(map(math.isfinite, coordinates))
