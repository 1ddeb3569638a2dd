"""CERTIFICATE.md has one row for each JSON path and CSV column a command
writes, no row for anything else, and each row names tests and mutants that
exist.

The written paths are read off the pinned fixtures, the keys of
`build_manifest`, and two runs for the paths no fixture holds: an empty
schedule (`warning`) and a `table:` gauge (`entries`).  A list is one path
segment `[]` whatever its items, so `indices[]` and `layers[][]`.  A block
section of the ledger, such as `<gauge>`, is applied at each place its
`Written at:` line names; a block row is stale only when no place writes it.
A named test is looked up by parsing its file, without running it.
"""

import argparse
import ast
import importlib.util
import json
import pathlib
import re

import pytest

from gaugetree.cli import build_manifest, main

ROOT = pathlib.Path(__file__).resolve().parents[1]
LEDGER = ROOT / "CERTIFICATE.md"
FIXTURES = ROOT / "tests" / "fixtures"
# fixture name prefix -> the output it pins, named as the ledger's sections name it
OUTPUTS = {
    "schedule_": "schedule.json",
    "caps_": "schedule.csv",
    "measure_": "measure.json",
    "levels_": "measure.csv",
    "antichain_": "antichain.json",
    "transfer_four_cover_": "four-cover.csv",
    "transfer_interleave_check_": "interleave-check.csv",
    "transfer_cube_map_": "cube-map.csv",
}
TEST_NAME = re.compile(r"(tests/\w+\.py)::(\w+)")


def json_paths(value, prefix: str = "") -> set:
    """Every leaf path of a JSON value, with a list's items under one `[]`."""
    if isinstance(value, dict):
        return set().union(*(json_paths(v, f"{prefix}.{k}" if prefix else k) for k, v in value.items()))
    if isinstance(value, list):
        return set().union({prefix + "[]"} if not value else set(), *(json_paths(v, prefix + "[]") for v in value))
    return {prefix}


@pytest.fixture(scope="module")
def written(tmp_path_factory) -> set:
    """Every written path, as "output:path"."""
    paths = set()
    for fixture in sorted(FIXTURES.iterdir()):
        (output,) = [out for prefix, out in OUTPUTS.items() if fixture.name.startswith(prefix)]
        with open(fixture, encoding="utf-8") as fh:
            found = json_paths(json.load(fh)) if output.endswith(".json") else fh.readline().strip().split(",")
        paths |= {f"{output}:{p}" for p in found}
    manifest = build_manifest("schedule", argparse.Namespace(), ["in.json"])
    paths |= {f"manifest:{p}" for p in json_paths(manifest)}
    tmp = tmp_path_factory.mktemp("ledger")
    for gauge, depth in (("power:1", 4), ("table:0=1,1=1/2", 1)):  # an empty schedule; a table gauge
        out = tmp / "s.json"
        assert main(["schedule", "--gauge", gauge, "--depth", str(depth), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        del data["manifest"]
        paths |= {f"schedule.json:{p}" for p in json_paths(data)}
    return paths


def read_ledger():
    """(rows, places): each row's "section:path" -> its five cells, and each
    block section -> the "output:prefix" places it is written at."""
    rows, places, section = {}, {}, None
    for line in LEDGER.read_text(encoding="utf-8").splitlines():
        if heading := re.match(r"## `([^`]+)`", line):
            section = heading[1]
        elif line.startswith("Written at:"):
            places[section] = re.findall(r"`([^`]+)`", line)
        elif line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            assert section and len(cells) == 5, f"a row outside a section, or not of five cells: {line}"
            (path,) = re.findall(r"`([^`]+)`", cells[0])
            key = f"{section}:{path}"
            assert key not in rows, f"two rows for {key}"
            rows[key] = cells
    return rows, places


def expand(key: str, places: dict) -> set:
    """The written paths a row stands for: a block row's at each of its places."""
    section, path = key.split(":", 1)
    return {f"{place}.{path}" for place in places[section]} if section in places else {key}


def test_every_written_path_has_a_row(written):
    rows, places = read_ledger()
    rowed = set().union(*(expand(key, places) for key in rows))
    assert sorted(written - rowed) == []


def test_every_row_is_written(written):
    rows, places = read_ledger()
    assert [key for key in rows if not expand(key, places) & written] == []


def test_every_named_test_is_a_function_of_its_file():
    rows, _ = read_ledger()
    defined = {}
    for key, cells in rows.items():
        names = re.findall(r"`([^`]+)`", cells[3])
        assert names or cells[3] == "—", f"{key}: tests cell is neither test names nor —"
        for name in names:
            match = TEST_NAME.fullmatch(name)
            assert match, f"{key}: {name!r} is not tests/FILE.py::FUNCTION"
            path, function = match.groups()
            if path not in defined:
                source = (ROOT / path).read_text(encoding="utf-8") if (ROOT / path).is_file() else ""
                defined[path] = {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
            assert function in defined[path], f"{key}: no function {function} in {path}"


def test_every_named_mutant_is_in_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    known = {m.name for m in mutants.MUTANTS}
    rows, _ = read_ledger()
    for key, cells in rows.items():
        names = re.findall(r"`([^`]+)`", cells[4])
        assert names or cells[4] == "—", f"{key}: mutants cell is neither mutant names nor —"
        assert set(names) <= known, f"{key}: no mutant {sorted(set(names) - known)} in tests/mutants.py"
