"""The benchmark's `deep_certify` checker (perfbench/checks.py) compares
`--delta-exp` with `cert["lower"]["n0"]`, which is null when the deepest
level of a tree is below 1.  Every gauge x depth that the benchmark runs must
certify with an n0, so a change to its op space that yields `n0: null` fails
here rather than inside the checker.  The perfbench files are loaded by path
and left unedited."""

import importlib.util
import json
import pathlib
import sys

import pytest

from gaugetree.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load("workloads")
sys.modules["workloads"] = WORKLOADS  # checks.py imports it by this name
try:
    CHECKS = load("checks")
finally:
    del sys.modules["workloads"]


@pytest.mark.parametrize(
    "config", WORKLOADS.configurations("deep_certify"), ids=WORKLOADS.label
)
def test_every_deep_certify_op_has_a_frostman_threshold(config, tmp_path):
    for delta_exp in (min(WORKLOADS.DELTA_EXPS), max(WORKLOADS.DELTA_EXPS)):
        spec = {**config, "delta_exp": delta_exp, "selector": {"kind": "constant", "bit": 0}}
        WORKLOADS.run_deep_certify(main, spec, str(tmp_path))
        cert = json.loads((tmp_path / "cert.json").read_text())["certificate"]
        assert cert["lower"]["n0"] in (0, 1)
        assert CHECKS.deep_certify(spec, str(tmp_path)) == []
