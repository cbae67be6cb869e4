"""The parser's nesting bound: a query at `MAX_DEPTH` levels runs through
every stage, and one level deeper is a `ParseError`, not a RecursionError."""

import json

import pytest

from corpus import SCHEMA_DOCS
from conftest import ARTICLES_CSV, CUSTOMERS_CSV, NOTIFICATIONS_CSV, TRANSACTIONS_CSV

from pql.ast import unparse
from pql.binder import bind
from pql.cli import main
from pql.engine import materialize_training
from pql.errors import ParseError
from pql.oracle import oracle_training
from pql.parser import MAX_DEPTH, parse
from pql.planner import AnchorPolicy, explain, plan_to_json, plan_training, resolve_anchors
from pql.sampler import build_request, collect, compute_on_subgraph, sample_pairs
from pql.store import load_database

# Two tables with foreign keys into each other, so aggregation filters nest
# as deep as the query does.
CYCLIC_SCHEMA_DOC = {
    "tables": [
        {
            "name": name,
            "columns": [
                {"name": "ID", "dtype": "int64", "stype": "key"},
                {"name": f"{other}_ID", "dtype": "int64", "stype": "key"},
                {"name": "V", "dtype": "float64", "stype": "numerical"},
            ],
            "primary_key": "ID",
            "foreign_keys": [{"column": f"{other}_ID", "references": other}],
        }
        for name, other in (("A", "B"), ("B", "A"))
    ]
}

COUNT = "COUNT(TRANSACTIONS.*, 0, 30, days) > 0"
EACH = "FOR EACH CUSTOMERS.CUSTOMER_ID"
GOLD = 'CUSTOMERS.MEMBERSHIP_TYPE = "gold"'
ACTIVE = "COUNT(TRANSACTIONS.*, -30, 0, days) >= 0"


def _nested_filters(levels: int) -> str:
    """`levels` aggregation filters, each inside the last, alternating A and B."""
    table, body = "A", "A.V > 0"
    for _ in range(levels - 1):
        body = f"COUNT({table}.* WHERE {body}) > 0"
        table = "B" if table == "A" else "A"
    parent = "B" if table == "A" else "A"
    return f"PREDICT COUNT({table}.* WHERE {body}) FOR EACH {parent}.ID"


# Each shape builds a query of exactly `levels` levels.
SHAPES = {
    "parentheses": ("retail", lambda n: f"PREDICT {COUNT} {EACH} WHERE {'(' * n}{GOLD}{')' * n}"),
    "not": ("retail", lambda n: f"PREDICT {'NOT ' * n}{COUNT} {EACH}"),
    "and_chain": ("retail", lambda n: f"PREDICT {COUNT} {EACH} WHERE {' AND '.join([ACTIVE] * (n + 1))}"),
    "or_chain": ("retail", lambda n: f"PREDICT {' OR '.join([COUNT] * (n + 1))} {EACH} WHERE {GOLD}"),
    "aggregation_filter": ("cyclic", _nested_filters),
}


@pytest.fixture(scope="module")
def data_dirs(tmp_path_factory):
    retail = tmp_path_factory.mktemp("retail")
    (retail / "schema.json").write_text(json.dumps(SCHEMA_DOCS["retail"]))
    for name, text in (("customers", CUSTOMERS_CSV), ("articles", ARTICLES_CSV),
                       ("transactions", TRANSACTIONS_CSV), ("notifications", NOTIFICATIONS_CSV)):
        (retail / f"{name}.csv").write_text(text)
    cyclic = tmp_path_factory.mktemp("cyclic")
    (cyclic / "schema.json").write_text(json.dumps(CYCLIC_SCHEMA_DOC))
    (cyclic / "a.csv").write_text("ID,B_ID,V\n1,1,1.0\n2,2,2.0\n3,1,3.0\n")
    (cyclic / "b.csv").write_text("ID,A_ID,V\n1,1,1.0\n2,1,2.0\n3,3,3.0\n")
    return {"retail": retail, "cyclic": cyclic}


def _cli(data_dir, *args):
    return main([args[0], "--schema", str(data_dir / "schema.json"), *args[1:]])


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_query_at_the_limit_runs_everywhere(shape, data_dirs, tmp_path, capsys):
    key, build = SHAPES[shape]
    text = build(MAX_DEPTH)
    query = parse(text)
    assert parse(unparse(query)) == query
    db = load_database(data_dirs[key] / "schema.json", data_dirs[key], strict=False)
    bound = bind(query, db.schema)
    policy = AnchorPolicy(count=3)
    for optimized in (True, False):
        plan = plan_training(bound, policy, optimized=optimized)
        explain(plan)
        plan_to_json(plan)
        materialize_training(plan, db)
    oracle_training(bound, db, resolve_anchors(bound, policy, db))
    pairs = sample_pairs(db, bound, 3)
    compute_on_subgraph(bound, collect(db, build_request(bound, pairs)), pairs)

    data = ["--data-dir", str(data_dirs[key]), "--out-dir", str(tmp_path), "--anchors", "3", "--query", text]
    if key == "cyclic":  # the tables reference each other, so neither loads first under strict checks
        data.append("--lenient-fk")
    assert _cli(data_dirs[key], "plan", "--json", "--query", text) == 0
    for strategy in ("optimized", "naive"):
        assert _cli(data_dirs[key], "train-table", "--strategy", strategy, *data) in (0, 2)
    assert _cli(data_dirs[key], "sample", *data) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_one_level_past_the_limit_is_a_parse_error(shape, data_dirs, capsys):
    key, build = SHAPES[shape]
    text = build(MAX_DEPTH + 1)
    with pytest.raises(ParseError, match=f"nests deeper than {MAX_DEPTH} levels"):
        parse(text)
    assert _cli(data_dirs[key], "validate", "--query", text) == 1
    err = capsys.readouterr().err
    assert "[parse]" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    [
        f"PREDICT {COUNT} {EACH} WHERE {'(' * 250}{GOLD}{')' * 250}",
        f"PREDICT {COUNT} {EACH} WHERE {'NOT ' * 1000}{GOLD}",
        f"PREDICT {COUNT} {EACH} WHERE {' AND '.join([GOLD] * 2000)}",
        f"PREDICT {COUNT} {EACH} WHERE {' OR '.join([GOLD] * 2000)}",
    ],
    ids=["250_parentheses", "1000_nots", "2000_ands", "2000_ors"],
)
def test_far_past_the_limit_is_a_parse_error(text, data_dirs, capsys):
    assert _cli(data_dirs["retail"], "validate", "--query", text) == 1
    err = capsys.readouterr().err
    assert f"nests deeper than {MAX_DEPTH} levels" in err and "Traceback" not in err


def test_a_chain_counts_the_links_above_each_operand():
    # A left-deep chain puts its first operand under every link and its last
    # under one, as the tree does: a deep first operand and a long chain add
    # up, a deep last operand does not.
    half = MAX_DEPTH // 2
    deep = "NOT " * half + GOLD
    parse(f"PREDICT {COUNT} {EACH} WHERE {' AND '.join([deep] + [GOLD] * half)}")
    with pytest.raises(ParseError, match="nests deeper"):
        parse(f"PREDICT {COUNT} {EACH} WHERE {' AND '.join([deep] + [GOLD] * (half + 1))}")
    parse(f"PREDICT {COUNT} {EACH} WHERE {' AND '.join([GOLD] * (half + 1) + [deep])}")
