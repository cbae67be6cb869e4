"""Every name imported into a `pql` module is used there, and every private
module-level name of `pql` is read somewhere in `pql`. A name the module
re-exports through `__all__` counts as used, and every such name resolves.
No module uses the csv module: `store` reads and writes every CSV file
without it. The command line starts no thread pool."""

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pql

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "pql").glob("*.py"))


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


def test_every_exported_name_resolves():
    assert [name for name in pql.__all__ if not hasattr(pql, name)] == []


def test_the_cli_imports_no_thread_pool():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, pql.cli; print('concurrent.futures' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def private_definitions(source: str):
    """(line, name) for each module-level function, class or assignment
    whose name starts with `_` (dunder names aside)."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found.extend((node.lineno, n) for n in names if n.startswith("_") and not n.endswith("__"))
    return found


def names_read(source: str):
    """Every name the source loads, bare or as an attribute."""
    tree = ast.parse(source)
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | {
        n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
    }


@functools.lru_cache(maxsize=None)
def package_reads():
    return set().union(*(names_read(m.read_text(encoding="utf-8")) for m in MODULES))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    read = package_reads()
    defined = private_definitions(path.read_text(encoding="utf-8"))
    assert [(line, name) for line, name in defined if name not in read] == []


def test_an_unread_private_name_is_found():
    source = "_A, _B = 1, 2\n_C: int = _A\ndef _f():\n    return _g.x\nclass _G:\n    pass\n__all__ = []\n"
    assert private_definitions(source) == [(1, "_A"), (1, "_B"), (2, "_C"), (3, "_f"), (5, "_G")]
    assert {"_A", "_g", "x"} <= names_read(source) and not {"_B", "_C", "_f", "_G"} & names_read(source)


def csv_module_uses(source: str):
    """(line, text) for each line that imports the csv module or reads a
    name from it: `store.write_csv` writes every CSV file and
    `store.load_table_data` reads every one."""
    lines = source.splitlines()
    found = {
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import) and any(alias.name == "csv" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "csv"
        or isinstance(node, ast.Name) and node.id == "csv"
    }
    return [(i, lines[i - 1].strip()) for i in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_second_csv_writer(path):
    assert csv_module_uses(path.read_text(encoding="utf-8")) == []


def test_a_second_csv_writer_is_found():
    source = ("import csv as c\nw = csv.writer(fh)\nq = csv.QUOTE_ALL\nr = csv.reader(fh)\n"
              "from csv import reader\npath = 'training.csv'\n# csv.reader\n")
    assert csv_module_uses(source) == [(1, "import csv as c"), (2, "w = csv.writer(fh)"), (3, "q = csv.QUOTE_ALL"),
                                       (4, "r = csv.reader(fh)"), (5, "from csv import reader")]
