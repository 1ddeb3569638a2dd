"""Every function and method in `src/gaugetree/` serves a command: one CLI
run per command and input kind, under `sys.setprofile`, must reach it, or
the benchmark's tracer (perfbench/spans.py, loaded by path and left
unedited) must bind it, or it is on `KEEP` with its reason.  A name that
only the tests call belongs in `tests/`, next to the oracles."""

import importlib
import importlib.util
import inspect
import json
import pathlib
import pkgutil
import sys
from functools import cached_property

import gaugetree
from gaugetree.cli import main

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

KEEP = {
    # bound or read by perfbench/spans.py, which ROADMAP item 5 re-binds
    "tree.Columns.rows": "the sampler behind SplittingTree.sample, which perfbench times",
    "game.BadLeaves.__len__": "perfbench/spans.py reads len(result.leaves) of every bad set",
    # interface contracts
    "tree.BranchSelector.bit": "the selector interface every tree reads",
    "tree.ConstantSelector.bit": "a constant selector answers bit like every selector",
    "tree.BranchSelector.decided_levels": "the interface default: every forced level is decided",
    # work done at import
    "gauge._halvings": "runs at import, before any command",
    # ROADMAP items 12 and 2
    "gauge.compare_order": "the order hypothesis of the closed-set theorem (ROADMAP item 12)",
    "gauge.Gauge.from_json_dict": "the certificate checker reads the report's gauge block (ROADMAP item 2)",
}

TREE = {"schedule": {"depth": 10, "indices": [1, 3, 5, 7], "n0": 0}, "depth": 10}
SELECTORS = [
    {"kind": "constant", "bit": 1},
    {"kind": "seeded", "seed": 3},
    {"kind": "explicit", "default": 1, "assignments": [["0", 0], ["01", 1]]},
    {"kind": "game_built", "default": 0, "layers": [[1, "0", 1], [5, "11", 0]]},
]
PARITY = {"kind": "transducer", "start": 0, "lag": 0,
          "delta": [[0, 0, 0, "0"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "0"]]}


def parity(node):
    return "".join(str(node[: i + 1].count("1") % 2) for i in range(len(node)))


def explicit(depth):
    """The parity map as a table of every node up to `depth`."""
    nodes = [format(i, "b")[1:] for i in range(1, 1 << (depth + 1))]
    return {"kind": "explicit", "lag": 0, "entries": [[x, parity(x)] for x in nodes]}


def runs(tmp):
    """(argv, exit code) of every command and input kind."""
    out = lambda name: str(tmp / name)
    for i, selector in enumerate(SELECTORS):
        (tmp / f"tree{i}.json").write_text(json.dumps({**TREE, "selector": selector}))
    maps = {"all": [{"kind": "bit_flip"}, {"kind": "shift"}, PARITY, explicit(8)],
            "lacking": [explicit(3)], "shift": [{"kind": "shift"}]}
    for name, data in maps.items():
        (tmp / f"{name}.json").write_text(json.dumps(data))
    for gauge in ("power:1/2", "power_log:1,1/2", "table:0=1,1=1/3,2=1/9,3=1/27,4=1/81"):
        yield ["schedule", "--gauge", gauge, "--depth", 4, "--out", out("s.json"), "--csv", out("s.csv")], 0
    for i in range(len(SELECTORS)):
        for gauge in ("power:1/2", "power:1"):  # power:1 breaks the Frostman condition
            yield ["measure", "--tree", out(f"tree{i}.json"), "--gauge", gauge, "--delta-exp", 4,
                   "--out", out("m.json"), "--csv", out("m.csv")], 0
    yield ["antichain", "--gauge", "power_log:1,1", "--maps", out("all.json"), "--depth", 8,
           "--stages", 1, "--escape-samples", 50, "--out", out("a.json")], 0
    yield ["antichain", "--gauge", "power:1/2", "--maps", out("lacking.json"), "--depth", 8,
           "--stages", 1, "--out", out("a.json")], 2
    yield ["antichain", "--gauge", "power:1/2", "--maps", out("shift.json"), "--depth", 8,
           "--stages", 5, "--roots", "1", "--out", out("a.json")], 3
    yield ["transfer", "four-cover", "--count", 20, "--out", out("t.csv")], 0
    yield ["transfer", "interleave-check", "--count", 20, "--out", out("t.csv")], 0
    yield ["transfer", "cube-map", "--bits", "0110110", "--n", 3, "--out", out("t.csv")], 0
    yield ["plot", "--table", out("m.csv"), "--x", "n", "--y", "free", "--out", out("p.svg")], 0


def modules():
    return [importlib.import_module(f"gaugetree.{info.name}") for info in pkgutil.iter_modules(gaugetree.__path__)]


def defined():
    """Qualified name -> code object of every function and method whose
    source is in the package (generated dataclass and NamedTuple methods
    are not)."""
    found = {}
    for module in modules():
        name = module.__name__.rpartition(".")[2]
        owners = [(name, module)] + [
            (f"{name}.{cls.__name__}", cls) for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module.__name__
        ]
        for prefix, owner in owners:
            for key, value in vars(owner).items():
                if isinstance(value, (staticmethod, classmethod)):
                    value = value.__func__
                elif isinstance(value, property):
                    value = value.fget
                elif isinstance(value, cached_property):
                    value = value.func
                value = getattr(value, "__wrapped__", value)  # lru_cache
                code = getattr(value, "__code__", None)
                if code is not None and code.co_filename == module.__file__ and (
                    owner is not module or value.__module__ == module.__name__
                ):
                    found[f"{prefix}.{key}"] = code
    return found


def bound():
    """The qualified names perfbench/spans.py rebinds, as its install() does."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = set()
    for module, attr, _ in spans.SPANS + spans.COUNTERS:
        if "." not in attr:
            names.add(f"{module}.{attr}")
            continue
        cls_name, method = attr.split(".")
        root = getattr(importlib.import_module(f"gaugetree.{module}"), cls_name)
        names |= {f"{module}.{c.__name__}.{method}" for c in (root, *root.__subclasses__()) if method in vars(c)}
    return names


def test_every_function_is_reached_bound_or_kept(tmp_path):
    code_names = {code: name for name, code in defined().items()}
    reached = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in code_names:
            reached.add(code_names[frame.f_code])

    for module in modules():  # a cached function's body runs on a miss only
        for value in vars(module).values():
            getattr(value, "cache_clear", lambda: None)()
    cases, codes = list(runs(tmp_path)), []
    sys.setprofile(profile)
    try:
        for argv, _ in cases:
            codes.append(main([str(a) for a in argv]))
    finally:
        sys.setprofile(None)
    assert codes == [code for _, code in cases]
    names = set(code_names.values())
    assert not set(KEEP) - names, f"kept names no longer defined: {sorted(set(KEEP) - names)}"
    assert not set(KEEP) & reached, f"kept names a command reaches: {sorted(set(KEEP) & reached)}"
    unreached = sorted(names - reached - bound() - set(KEEP))
    assert not unreached, (
        f"no command reaches {unreached}, perfbench/spans.py binds none of them, and none is on KEEP: "
        "delete each, or move it to tests/ if only the tests use it"
    )
