"""Checks on the package's source text."""

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).parent.parent / "src" / "ciore"
_MODULES = sorted(path for path in _PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names the module imports and never reads. `__init__.py` is left
    out: its imports are the package's exports."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c, d as e\nos.sep\nprint(e)\n") == ["c"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def self_referencing_closures(source: str) -> list[str]:
    """The functions nested in another function that read their own name.
    Such a function's closure holds the function itself, a reference cycle
    that only the cyclic collector frees, with everything the closure
    reaches."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    outers = [node for node in ast.walk(ast.parse(source)) if isinstance(node, functions)]
    nested = {inner for outer in outers for inner in ast.walk(outer) if inner is not outer and isinstance(inner, functions)}

    def reads_itself(function) -> bool:
        names = (node for node in ast.walk(function) if isinstance(node, ast.Name))
        return any(name.id == function.name and isinstance(name.ctx, ast.Load) for name in names)

    return [inner.name for inner in sorted(nested, key=lambda node: node.lineno) if reads_itself(inner)]


def test_the_check_sees_a_self_referencing_closure():
    source = (
        "def outer(n):\n"
        "    def walk(i):\n"
        "        return i and walk(i - 1)\n"
        "    def leaf(i):\n"
        "        return outer(i)\n"
        "    return walk(n), leaf(n)\n"
        "def top(i):\n"
        "    return top(i)\n"
    )
    assert self_referencing_closures(source) == ["walk"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: path.name)
def test_no_closure_refers_to_itself(path):
    assert self_referencing_closures(path.read_text(encoding="utf-8")) == []
