"""Every name imported into a `pql` module is used there. A name the module
re-exports through `__all__` counts as used."""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "pql").glob("*.py"))


def unused_imports(source: str):
    """(line, name) for each imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "from typing import List, Optional\nimport numpy as np\n__all__ = ['Optional']\n"
    assert unused_imports(source) == [(1, "List"), (2, "np")]
