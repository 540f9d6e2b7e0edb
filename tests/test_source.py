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
