"""What the benchmark under perfbench/ looks up in pql: the layer functions
its tracer wraps, the flags its cold commands pass, what it reads of the
tables its warm operations return, and the store and kernel calls of its
set-up and reference. perfbench's own smoke test runs the workloads end to
end; this catches a renamed function, a dropped flag or a changed table in
a second. The perfbench files are only read."""

import importlib
import sys
import types
from pathlib import Path

import pytest

from conftest import ARTICLES_CSV, CUSTOMERS_CSV, TRANSACTIONS_CSV
from corpus import CORPUS_BY_NAME, schema

from pql import kernels, store
from pql.binder import bind
from pql.cli import build_parser
from pql.engine import materialize_prediction, materialize_training
from pql.parser import parse
from pql.planner import AnchorPolicy, plan_prediction, plan_training
from pql.sampler import build_request, collect, compute_on_subgraph, sample_pairs
from pql.times import parse_timestamp

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"_perfbench_{name}")
    sys.modules[module.__name__] = module  # dataclasses resolve annotations through it
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


layertrace = _load("layertrace")
workloads = _load("workloads")


@pytest.mark.parametrize(
    "module,function", sorted({(m, f) for m, f, _ in layertrace.LAYER_FUNCTIONS}), ids=".".join
)
def test_traced_layer_function_exists(module, function):
    assert callable(getattr(importlib.import_module(module), function, None))


@pytest.mark.parametrize("op", workloads.CLI_OPS, ids=lambda op: op.name)
def test_cold_command_flags_parse(op):
    args = build_parser().parse_args(op.cli_args("data", "out"))
    assert args.command == op.command


# perfbench/warm.py returns `rows`, `candidates` and `metadata` from each
# operation and compares them across rounds; perfbench/reference.py reads
# each row as (key, anchor, target, split) tuples, `row_count` and
# `candidate_count` from the metadata, and `candidates or []`.
TRAIN_QUERIES = ["next_month_spend", "impute_value", "impute_value_over_100", "blue_articles", "active_spender"]
PREDICT_QUERIES = ["blue_articles", "active_spender", "impute_value"]
PYTHON_SCALARS = (int, float, str, bool, type(None))


def _bind(name):
    return bind(parse(CORPUS_BY_NAME[name].text), schema("retail"))


def _check_rows(table, width):
    rows = table.rows
    assert type(rows) is list
    for row in rows:
        assert type(row) is tuple and len(row) == width
        for value in row:
            # A list target's value is a tuple of its elements.
            for v in value if type(value) is tuple else (value,):
                assert type(v) in PYTHON_SCALARS, (row, type(v))
    assert table.row_count == len(rows) == table.metadata["row_count"]
    assert rows == table.rows  # a fresh, equal list on every read


@pytest.mark.parametrize("name", TRAIN_QUERIES)
def test_training_table_reads(name, toy_db, toy_graph):
    plan = plan_training(_bind(name), AnchorPolicy(count=3))
    table = materialize_training(plan, toy_db, toy_graph, workers=1)
    assert table.row_count > 0
    _check_rows(table, 4)
    assert isinstance(table.metadata, dict)


@pytest.mark.parametrize("name", PREDICT_QUERIES)
def test_prediction_table_reads(name, toy_db, toy_graph):
    table = materialize_prediction(plan_prediction(_bind(name)), toy_db, toy_graph)
    assert table.row_count > 0
    _check_rows(table, 2)
    candidates = table.candidates
    assert candidates is None or type(candidates) is list
    assert (candidates is None) == (name != "blue_articles")
    if candidates is not None:
        assert all(type(c) in PYTHON_SCALARS for c in candidates)
        assert table.metadata["candidate_count"] == len(candidates)


@pytest.mark.parametrize("name", ["next_month_spend", "blue_articles"])
def test_sampled_table_reads(name, toy_db, toy_graph):
    bound = _bind(name)
    pairs = sample_pairs(toy_db, bound, 10)
    assert pairs
    sub = collect(toy_graph, build_request(bound, pairs))
    table = compute_on_subgraph(bound, sub, pairs)
    _check_rows(table, 4)
    assert table.metadata["pairs_expanded"] == len(pairs)


# perfbench/warm.py's set-up takes `store.build_row_graph(db)`, the database
# itself, builds every edge's full-scan slot arrays through its `edge_index`
# and reads the newest event time; its sampler requests map entity keys to
# rows through `pk_index`.
def test_warm_set_up_lookups(toy_db, toy_graph):
    assert store.build_row_graph(toy_db) is toy_db and toy_graph is toy_db
    for edge in toy_db.schema.edges():
        idx = toy_graph.edge_index(edge)
        assert type(idx) is store.EdgeIndex and idx.edge == edge
        assert len(kernels._edge_slot_arrays(idx)) == len(idx.order)
    assert toy_db.max_event_time() == parse_timestamp("2024-02-10")
    assert [toy_db.table("CUSTOMERS").pk_index[k] for k in (1, 2, 3)] == [0, 1, 2]


# perfbench/reference.py loads each table's CSV text into a new database.
def test_reference_loads_csv_text(retail_schema):
    db = store.new_database(retail_schema)
    for name, text in [("CUSTOMERS", CUSTOMERS_CSV), ("ARTICLES", ARTICLES_CSV), ("TRANSACTIONS", TRANSACTIONS_CSV)]:
        store.load_table_data(db, name, text)
    assert [db.nrows(name) for name in ("CUSTOMERS", "ARTICLES", "TRANSACTIONS")] == [3, 3, 8]
