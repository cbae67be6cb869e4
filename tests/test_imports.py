"""Every name imported into a `pql` module or a test module is used there,
and every private module-level name of `pql` is read somewhere in `pql`. A
name the module re-exports through `__all__` counts as used, and every such
name resolves. No `pql` module uses the csv module: `store` reads and
writes every CSV file without it. Only `store` and `kernels` read the row
graph's key layout. No module names `RowGraph`, and no function takes a
`g` but the two that ignore it. The command line starts no thread pool.
The oracle imports nothing from the modules it checks."""

import ast
import functools
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pql

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "pql").glob("*.py"))
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))


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


@pytest.mark.parametrize(
    "path", MODULES + TEST_MODULES, ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TEST_MODULES]
)
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


# The row graph's key layout: `EdgeIndex.keys` are `parent * radix + rank`,
# CSR-sliced by `indptr`, with ranks into `time_values`.
KEY_LAYOUT = {"radix", "indptr", "time_values"}


def key_layout_uses(source: str):
    """(line, attribute) for each use of an attribute in `KEY_LAYOUT`:
    only `store`, which builds the row graph, and `kernels`, which searches
    it, know how its keys are laid out."""
    return sorted({(node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr in KEY_LAYOUT})


@pytest.mark.parametrize("path", [m for m in MODULES if m.name not in ("store.py", "kernels.py")],
                         ids=lambda p: p.name)
def test_key_layout_stays_in_store_and_kernels(path):
    assert key_layout_uses(path.read_text(encoding="utf-8")) == []


def test_a_key_layout_use_is_found():
    source = ("base = rows * idx.radix\nend = g.edge_index(e).indptr[1:]\nhi = idx.time_values.searchsorted(t)\n"
              "radix = 3\nk = idx.keys\ntime_values = []\n# idx.indptr\ns = 'idx.radix'\n")
    assert key_layout_uses(source) == [(1, "radix"), (2, "indptr"), (3, "time_values")]


# What a table derives (its parent rows per foreign key, its time ranks and
# range) is kept and dropped by `store` alone, so one rule invalidates it.
DERIVED = {"fk_forward", "_ranks", "_time_range"}


def derived_uses(source: str):
    """(line, attribute) for each read or write of an attribute in `DERIVED`."""
    return sorted({(node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr in DERIVED})


@pytest.mark.parametrize("path", [m for m in MODULES if m.name != "store.py"], ids=lambda p: p.name)
def test_derived_data_stays_in_store(path):
    assert derived_uses(path.read_text(encoding="utf-8")) == []


def test_a_derived_data_use_is_found():
    source = ("f = t.fk_forward['A']\nt._ranks = None\ndel db._time_range\n"
              "fk_forward = {}\n_ranks = 1\n# t._time_range\ns = 't.fk_forward'\n")
    assert derived_uses(source) == [(1, "fk_forward"), (2, "_ranks"), (3, "_time_range")]


# The oracle is the independent second definition of PQL semantics, so it
# shares no code with the execution path it checks.
EXECUTION_MODULES = {"engine", "kernels", "sampler"}


def execution_imports(source: str):
    """(line, module) for each import of a pql module in
    `EXECUTION_MODULES`, relative (`from .engine import x`, `from . import
    kernels`) or absolute (`import pql.sampler`, `from pql import engine`)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["pql" if node.level else None, node.module]))
            dotted = [f"pql.{alias.name}" for alias in node.names] if module == "pql" else [module]
        elif isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        else:
            continue
        parts = [name.split(".") for name in dotted]
        found.update((node.lineno, p[1]) for p in parts if p[0] == "pql" and p[1:2] and p[1] in EXECUTION_MODULES)
    return sorted(found)


def test_the_oracle_imports_no_execution_module():
    assert execution_imports((SRC / "pql" / "oracle.py").read_text(encoding="utf-8")) == []


def test_an_execution_import_is_found():
    source = ("from .engine import _drop_empty_labels\nfrom .kernels import like_regex\nfrom . import sampler, times\n"
              "import pql.engine\nfrom pql.kernels import x\nfrom .binder import bind\nimport engine\n"
              "from . import store\nfrom engine import y\n# from .engine import z\ns = 'from .sampler import w'\n"
              "from pql import engine as e\n")
    assert execution_imports(source) == [(1, "engine"), (2, "kernels"), (3, "sampler"), (4, "engine"),
                                         (5, "kernels"), (12, "engine")]


# The database is the one handle every layer takes: no module names a graph
# type, and only these two keep a `g`, which they ignore, as the benchmark
# passes one.
IGNORED_GRAPHS = {("pql.engine", "materialize_training"), ("pql.engine", "materialize_prediction")}


def names_row_graph(source: str) -> bool:
    """Whether `source` defines or names `RowGraph`, in code or in text."""
    return re.search(r"\bRowGraph\b", source) is not None


def takes_a_graph(fn) -> bool:
    """Whether `fn` has a parameter named `g`."""
    return "g" in inspect.signature(fn).parameters


def pql_functions():
    """(module, qualified name, function) of every function and method the
    `pql` modules define."""
    for path in MODULES:
        module = importlib.import_module(f"pql.{path.stem}" if path.stem != "__init__" else "pql")
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                yield module.__name__, name, value
            elif inspect.isclass(value):
                for attr, method in vars(value).items():
                    if inspect.isfunction(method):
                        yield module.__name__, f"{name}.{attr}", method


def test_the_database_is_the_one_handle():
    assert [path.name for path in MODULES if names_row_graph(path.read_text(encoding="utf-8"))] == []
    found = {(module, name) for module, name, fn in pql_functions() if takes_a_graph(fn)}
    assert found == IGNORED_GRAPHS


def test_a_graph_handle_is_found():
    assert [names_row_graph(t) for t in ("class RowGraph:", "g: 'Optional[RowGraph]'", "# a RowGraph view",
                                         "RowGraphs", "row_graph = build_row_graph(db)")] == [
        True, True, True, False, False]

    def both(db, bound, g=None): ...
    def keyword(db, *, g): ...
    def graph_only(g, rows): ...
    def db_only(db: "Database", graph: "Graph", grid): ...
    assert [takes_a_graph(f) for f in (both, keyword, graph_only, db_only)] == [True, True, True, False]
