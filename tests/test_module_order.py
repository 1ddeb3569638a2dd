"""The modules of `src/gaugetree/` import one another at the top only, and
`tree.py`, which owns the level structure every other layer reads, imports
no gaugetree module but `errors`.  So a new import cycle fails here instead
of hiding behind an import inside a function."""

import ast
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


def test_tree_imports_only_errors():
    assert {module for _, module in gaugetree_imports(parse(SRC / "tree.py"))} == {"errors"}


def test_the_guard_sees_relative_and_absolute_imports():
    code = "def f():\n    from .gauge import Gauge\n    import gaugetree.tree\n    from gaugetree import cli\n"
    assert list(gaugetree_imports(ast.parse(code))) == [(2, "gauge"), (3, "tree"), (4, "__init__")]
