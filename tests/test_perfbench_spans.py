"""The benchmark's tracer (perfbench/spans.py) rebinds the gaugetree names it
lists: each must resolve on the imported package, and installing then
uninstalling the tracer must leave every rebound attribute as it was.  The
tracer is loaded by path and left unedited."""

import importlib
import importlib.util
import inspect
import pathlib
import sys

import pytest

from gaugetree import BranchSchedule, SeededSelector, SplittingTree

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for layer in module.LAYERS:
        importlib.import_module(f"gaugetree.{layer}")
    return module


SPANS = load_spans()


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in SPANS.SPANS + SPANS.COUNTERS])
def test_every_traced_name_resolves(module, attr):
    owner = sys.modules[f"gaugetree.{module}"]
    if "." not in attr:
        assert callable(getattr(owner, attr, None))
        return
    # install() rebinds a method where the class or one of its direct
    # subclasses defines it, and skips a class that defines it nowhere
    cls_name, method = attr.split(".")
    cls = getattr(owner, cls_name)
    assert any(method in vars(c) for c in (cls, *cls.__subclasses__()))


def attributes():
    """Every attribute of every gaugetree module and of the classes they define."""
    owners = [m for n, m in sys.modules.items() if n == "gaugetree" or n.startswith("gaugetree.")]
    owners += [c for m in list(owners) for c in vars(m).values()
               if inspect.isclass(c) and c.__module__.startswith("gaugetree")]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_install_then_uninstall_restores_every_attribute():
    before = attributes()
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        tree = SplittingTree(BranchSchedule(depth=6, indices=(1, 3)), SeededSelector(2), 6)
        tree.sample(0, 3)
        assert "tree.sample" in tracer.names
        changed = {key for key, value in attributes().items() if before.get(key) is not value}
        assert changed
    finally:
        tracer.uninstall()
    after = attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
