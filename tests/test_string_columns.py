"""String columns through every execution path, cell for cell.

The staged plan, the cross-product plan, `evaluate_pairs`, the sampler and
the brute-force oracle must give the same rows, compared by the `repr` of
each cell, on string keys with awkward text (a comma, a doubled quote,
non-ASCII), a null and a dangling string foreign key, categories that
differ only in case or accent, and a float column holding signed zeros and
infinities.
"""

import pytest

from pql.binder import bind
from pql.engine import evaluate_pairs, materialize_training
from pql.oracle import oracle_training
from pql.parser import parse
from pql.planner import AnchorPolicy, feasible_anchors, plan_training
from pql.sampler import build_request, collect, compute_on_subgraph
from pql.store import FkEdge, RowRef, build_row_graph, load_schema, load_table_data, new_database
from pql.times import MICROS_PER_DAY, parse_timestamp

KEY = {"dtype": "string", "stype": "key"}
CATEGORY = {"dtype": "string", "stype": "categorical"}
SCHEMA = {"tables": [
    {"name": "SHOPS", "columns": [{"name": "SHOP_ID", **KEY}, {"name": "REGION", **CATEGORY}],
     "primary_key": "SHOP_ID"},
    {"name": "CUSTOMERS",
     "columns": [{"name": "CID", **KEY}, {"name": "SHOP_ID", **KEY}, {"name": "TIER", **CATEGORY}],
     "primary_key": "CID", "foreign_keys": [{"column": "SHOP_ID", "references": "SHOPS"}]},
    {"name": "EVENTS",
     "columns": [{"name": "EV_ID", "dtype": "int64", "stype": "key"}, {"name": "CID", **KEY},
                 {"name": "SHOP_ID", **KEY}, {"name": "AT", "dtype": "timestamp", "stype": "temporal"},
                 {"name": "COLOR", **CATEGORY}, {"name": "SCORE", "dtype": "float64", "stype": "numerical"}],
     "primary_key": "EV_ID", "time_column": "AT",
     "foreign_keys": [{"column": "CID", "references": "CUSTOMERS"},
                      {"column": "SHOP_ID", "references": "SHOPS"}]},
]}

SHOPS_CSV = 'SHOP_ID,REGION\ns1,ré\n"s,""2""",Ré\nс3,red\n'
# CSV cells of the customer keys: a comma, a doubled quote, non-ASCII text,
# and keys that differ from each other only in case or accent.
CUSTOMER_KEYS = ['"a,b"', '"q""x"', "中", "é", "e", "E"]
# (shop cell, tier cell) per customer: `zz` dangles, an empty cell is null.
CUSTOMER_ROWS = [("s1", "red"), ('"s,""2"""', "Red"), ("", "ré"), ("zz", ""), ("s1", "red"), ("с3", "Ré")]
SHOP_CELLS = ["s1", '"s,""2"""', "с3", ""]
COLORS = ["red", "Red", "ré", "", "Ré", "rE", "red"]
SCORES = ["-0.0", "0.0", "inf", "-inf", "", "0.0", "1.5", "-0.0", "-inf"]


def _events_csv() -> str:
    lines = ["EV_ID,CID,SHOP_ID,AT,COLOR,SCORE"]
    for i in range(60):
        day = 1 + (i * 7) % 59
        at = f"2024-01-{day:02d}" if day <= 31 else f"2024-02-{day - 31:02d}"
        if i % 13 == 12:
            at = ""  # undated events count only in unwindowed aggregations
        lines.append(",".join([str(i), CUSTOMER_KEYS[(i * 5) % 6], SHOP_CELLS[i % 4], at,
                               COLORS[i % 7], SCORES[(i * 2) % 9]]))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def string_db():
    db = new_database(load_schema(SCHEMA))
    load_table_data(db, "SHOPS", SHOPS_CSV)
    load_table_data(db, "CUSTOMERS", "CID,SHOP_ID,TIER\n" + "".join(
        f"{key},{shop},{tier}\n" for key, (shop, tier) in zip(CUSTOMER_KEYS, CUSTOMER_ROWS)), strict=False)
    load_table_data(db, "EVENTS", _events_csv())
    return db, build_row_graph(db)


POLICY = AnchorPolicy(count=3, stride=10 * MICROS_PER_DAY, latest=parse_timestamp("2024-01-25"))

QUERIES = [
    # = on the entity, COUNT_DISTINCT over strings.
    "PREDICT COUNT_DISTINCT(EVENTS.COLOR, 0, 30, days) FOR EACH CUSTOMERS.CID WHERE CUSTOMERS.TIER = 'red'",
    # != on the entity and in an aggregation filter.
    "PREDICT COUNT_DISTINCT(EVENTS.COLOR WHERE EVENTS.COLOR != 'Red', 0, 30, days) "
    "FOR EACH CUSTOMERS.CID WHERE CUSTOMERS.TIER != 'Red'",
    # IN through a parent hop, LIST_DISTINCT over a string foreign key.
    "PREDICT LIST_DISTINCT(EVENTS.SHOP_ID, 0, 30, days) FOR EACH CUSTOMERS.CID "
    "WHERE SHOPS.REGION IN ['ré', 'red']",
    "PREDICT LIST_DISTINCT(EVENTS.SHOP_ID WHERE EVENTS.COLOR IN ['Red', 'ré'], 0, 30, days) "
    "FOR EACH CUSTOMERS.CID",
    # FIRST and LAST over strings, with = and != through a hop.
    "PREDICT FIRST(EVENTS.COLOR, 0, 30, days) FOR EACH CUSTOMERS.CID WHERE SHOPS.REGION = 'Ré'",
    "PREDICT LAST(EVENTS.COLOR, 0, 30, days) FOR EACH CUSTOMERS.CID WHERE SHOPS.REGION != 'red'",
    # FIRST and LAST compared, so undefined values meet the comparison kernels.
    "PREDICT FIRST(EVENTS.COLOR, 0, 30, days) = 'ré' FOR EACH CUSTOMERS.CID",
    "PREDICT LAST(EVENTS.COLOR, 0, 30, days) IN ['Red', 'rE'] FOR EACH CUSTOMERS.CID "
    "WHERE COUNT(EVENTS.* WHERE EVENTS.COLOR IN ['red', 'ré'], -30, 0, days) > 0",
    # Hops inside an aggregation filter: EVENTS -> CUSTOMERS.
    "PREDICT COUNT(EVENTS.* WHERE EVENTS.COLOR = 'Red' OR CUSTOMERS.TIER IN ['ré', 'Ré'], 0, 30, days) > 0 "
    "FOR EACH CUSTOMERS.CID WHERE LAST(EVENTS.COLOR, -30, 0, days) != 'red'",
    # Unwindowed aggregations see the undated events too.
    "PREDICT CUSTOMERS.TIER FOR EACH CUSTOMERS.CID WHERE COUNT_DISTINCT(EVENTS.COLOR) > 2",
    "PREDICT CUSTOMERS.TIER = 'red' FOR EACH CUSTOMERS.CID WHERE SHOPS.SHOP_ID != 's1'",
    # Signed zeros and infinities.
    "PREDICT COUNT_DISTINCT(EVENTS.SCORE, 0, 30, days) FOR EACH CUSTOMERS.CID",
    "PREDICT COUNT_DISTINCT(EVENTS.SCORE) > 2 FOR EACH CUSTOMERS.CID",
    "PREDICT LIST_DISTINCT(EVENTS.SCORE, 0, 30, days) FOR EACH CUSTOMERS.CID",
]


def _cells(rows):
    return [tuple(repr(cell) for cell in row) for row in rows]


@pytest.mark.parametrize("text", QUERIES)
def test_every_path_gives_the_same_cells(string_db, text):
    db, g = string_db
    b = bind(parse(text), db.schema)
    anchors = feasible_anchors(b, POLICY, db)
    staged = materialize_training(plan_training(b, POLICY), db, g)
    want = _cells(staged.rows)
    assert want, "the query should label some rows"
    naive = materialize_training(plan_training(b, POLICY, optimized=False), db, g)
    assert _cells(naive.rows) == want
    pairs = [(RowRef("CUSTOMERS", i), a) for i in range(db.nrows("CUSTOMERS"))
             for a in ([None] if b.is_static else anchors)]
    assert _cells(evaluate_pairs(db, b, pairs, anchors_for_split=anchors).rows) == want
    sub = collect(g, build_request(b, pairs))
    assert _cells(compute_on_subgraph(b, sub, pairs, anchors_for_split=anchors).rows) == want
    assert _cells(oracle_training(b, db, anchors).rows) == want


def test_awkward_keys_load_and_resolve(string_db):
    db, g = string_db
    customers = db.table("CUSTOMERS")
    assert customers.column("CID").to_pylist() == ["a,b", 'q"x', "中", "é", "e", "E"]
    assert customers.column("SHOP_ID").to_pylist() == ["s1", 's,"2"', None, "zz", "s1", "с3"]
    # The null and the dangling foreign key resolve to no parent row.
    assert g.forward(FkEdge("CUSTOMERS", "SHOP_ID", "SHOPS")).tolist() == [0, 1, -1, -1, 0, 2]


def test_get_and_to_pylist_on_every_dtype():
    types = {"I": ("int64", "numerical"), "F": ("float64", "numerical"), "B": ("bool", "categorical"),
             "S": ("string", "text"), "T": ("timestamp", "temporal")}
    db = new_database(load_schema({"tables": [{
        "name": "X",
        "columns": [{"name": "ID", "dtype": "int64", "stype": "key"}]
        + [{"name": n, "dtype": t, "stype": st} for n, (t, st) in types.items()],
        "primary_key": "ID"}]}))
    load_table_data(db, "X", "ID,I,F,B,S,T\n1,-7,-0.0,true,中,2024-01-02\n2,,,,,\n3,9,inf,false,\"a,b\",\n")
    table = db.table("X")
    want = {
        "I": [-7, None, 9],
        "F": [-0.0, None, float("inf")],
        "B": [True, None, False],
        "S": ["中", None, "a,b"],
        "T": [parse_timestamp("2024-01-02"), None, None],
    }
    for name, values in want.items():
        col = table.column(name)
        got = col.to_pylist()
        assert [repr(v) for v in got] == [repr(v) for v in values], name
        assert [type(v) for v in got] == [type(v) for v in values], name
        assert [repr(col.get(i)) for i in range(3)] == [repr(v) for v in values], name
        assert [type(col.get(i)) for i in range(3)] == [type(v) for v in values], name
