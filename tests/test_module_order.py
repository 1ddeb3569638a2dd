"""The modules of `src/gaugetree/` import one another at the top only, and
`tree.py`, which owns the level structure every other layer reads, imports
no gaugetree module.  So a new import cycle fails here instead of hiding
behind an import inside a function.  Every exception class is one way a
command ends, and sits in `errors.py`; any other error is a builtin one.
A command ends only by returning nothing or by raising: `main` alone turns
an ending into its exit code and its one line."""

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


def self_endings(module):
    """(command, line) of each `return <value>` in a `cmd_*` function of
    `module`, and of each print of an `error:` or `infeasible:` line there."""
    for f in module.body:
        if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_"):
            for n in ast.walk(f):
                if isinstance(n, ast.Return) and n.value is not None:
                    yield f.name, n.lineno
                elif (isinstance(n, ast.Call) and ast.unparse(n.func) == "print"
                      and any(word in ast.unparse(a) for a in n.args for word in ("error:", "infeasible:"))):
                    yield f.name, n.lineno


def test_no_command_ends_itself():
    assert list(self_endings(parse(SRC / "cli.py"))) == []


def test_the_guard_sees_a_command_ending_itself():
    code = ("def cmd_a(args):\n    print(f'error: {args}', file=sys.stderr)\n    return 2\n"
            "def cmd_b(args):\n    print('infeasible: x')\n    return\n"
            "def helper(args):\n    return 2\n")
    assert sorted(self_endings(ast.parse(code))) == [("cmd_a", 2), ("cmd_a", 3), ("cmd_b", 5)]
