"""The modules of `src/gaugetree/` import one another at the top only, and
`tree.py`, which owns the level structure every other layer reads, imports
no gaugetree module.  So a new import cycle fails here instead of hiding
behind an import inside a function.  Every exception class is one way a
command ends, and sits in `errors.py`; any other error is a builtin one."""

import ast
import builtins
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "gaugetree"
MODULES = sorted(SRC.glob("*.py"))


def gaugetree_imports(node):
    """(line, module) of each import of a gaugetree module under `node`;
    the package itself is "__init__"."""
    for n in ast.walk(node):
        if isinstance(n, ast.ImportFrom) and n.level:
            yield n.lineno, n.module or "__init__"
        elif isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "gaugetree":
            yield n.lineno, n.module.partition(".")[2] or "__init__"
        elif isinstance(n, ast.Import):
            for alias in n.names:
                if alias.name.split(".")[0] == "gaugetree":
                    yield n.lineno, alias.name.partition(".")[2] or "__init__"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_gaugetree_import_inside_a_function(path):
    functions = [n for n in ast.walk(parse(path)) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert [(f.name, *imp) for f in functions for imp in gaugetree_imports(f)] == []


def test_tree_imports_no_gaugetree_module():
    assert list(gaugetree_imports(parse(SRC / "tree.py"))) == []


def test_the_guard_sees_relative_and_absolute_imports():
    code = "def f():\n    from .gauge import Gauge\n    import gaugetree.tree\n    from gaugetree import cli\n"
    assert list(gaugetree_imports(ast.parse(code))) == [(2, "gauge"), (3, "tree"), (4, "__init__")]


# exit 2, exit 3, a failed self-check, and the game's own signal that run_game turns into exit 3
ENDINGS = {"UsageError", "InfeasibleError", "GameInvariantError", "DepthExhaustedError"}
BUILTIN_ERRORS = {name for name, obj in vars(builtins).items()
                  if isinstance(obj, type) and issubclass(obj, BaseException)}
# argparse turns it into exit 2 with the message as given
ARGPARSE_ERROR = "argparse.ArgumentTypeError"


def test_errors_defines_exactly_the_four_endings():
    classes = [n for n in parse(SRC / "errors.py").body if isinstance(n, ast.ClassDef)]
    assert {c.name for c in classes} == ENDINGS
    assert all([ast.unparse(base) for base in c.bases] == ["Exception"] for c in classes)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"], ids=lambda p: p.name)
def test_no_exception_class_outside_errors(path):
    bases = [(c.name, ast.unparse(base)) for c in ast.walk(parse(path)) if isinstance(c, ast.ClassDef)
             for base in c.bases]
    assert [(name, base) for name, base in bases if base in BUILTIN_ERRORS | ENDINGS | {ARGPARSE_ERROR}] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_raise_names_a_builtin_error_or_an_ending(path):
    raised = [ast.unparse(r.exc.func if isinstance(r.exc, ast.Call) else r.exc)
              for r in ast.walk(parse(path)) if isinstance(r, ast.Raise) and r.exc is not None]
    assert [name for name in raised if name not in BUILTIN_ERRORS | ENDINGS | {ARGPARSE_ERROR}] == []
