"""Relational store: schema validation, CSV loading, row graph, windows."""

import csv
import io
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import SCHEMA_DOCS
from conftest import TRANSACTIONS_CSV, build_toy_db

from pql.ast import TimeUnit, Window
from pql.binder import bind
from pql.engine import materialize_training
from pql.errors import DataError, ExecutionError, SchemaError
from pql.kernels import _edge_slot_arrays, gather_children
from pql.parser import parse
from pql.planner import AnchorPolicy, plan_training
from pql import store
from pql.store import (
    FkEdge,
    RowRef,
    _parse_cell,
    build_row_graph,
    load_schema,
    load_table_data,
    new_database,
    save_table_csv,
)
from pql.synth import generate, hm_genspec, random_database, random_schema
from pql.times import MICROS_PER_DAY, MICROS_PER_SECOND, parse_timestamp

T = parse_timestamp
RETAIL = load_schema(SCHEMA_DOCS["retail"])
# COUNT(TRANSACTIONS.*) grouped by customer, along TRANSACTIONS.CUSTOMER_ID;
# the tests below give it the windows they need.
TX_COUNT = bind(parse("PREDICT COUNT(TRANSACTIONS.*) FOR EACH CUSTOMERS.CUSTOMER_ID"), RETAIL).target
FAR_FUTURE = T("2100-01-01")


def all_children(g, parent):
    """Every child row of one customer, in CSR order (restricted gather)."""
    return gather_children(g, TX_COUNT, np.array([parent]), None).child_rows.tolist()


def children_in_window(g, parent, lo, hi):
    """Dated children of one customer with lo <= time < hi, in time order,
    through a restricted windowed gather. `lo` None is an unbounded past;
    hi - lo must be whole seconds."""
    start = None if lo is None else -((hi - lo) // MICROS_PER_SECOND)
    agg = replace(TX_COUNT, window=Window(start, 0, TimeUnit.SECONDS))
    return gather_children(g, agg, np.array([parent]), hi).child_rows.tolist()


class TestLoadSchema:
    def test_retail_schema(self):
        schema = load_schema(SCHEMA_DOCS["retail"])
        assert set(schema.tables) == {"CUSTOMERS", "ARTICLES", "TRANSACTIONS", "NOTIFICATIONS"}
        tx = schema.table("transactions")  # case-insensitive lookup
        assert tx.primary_key == "TRANSACTION_ID"
        assert len(tx.foreign_keys) == 2
        assert tx.time_column == "TIMESTAMP"
        assert schema.table("NOTIFICATIONS").primary_key is None

    def test_empty_tables(self):
        assert load_schema({"tables": []}).tables == {}

    def test_unresolved_fk_target(self):
        doc = {
            "tables": [
                {
                    "name": "A",
                    "columns": [
                        {"name": "ID", "dtype": "int64", "stype": "key"},
                        {"name": "B_ID", "dtype": "int64", "stype": "key"},
                    ],
                    "primary_key": "ID",
                    "foreign_keys": [{"column": "B_ID", "references": "B"}],
                }
            ]
        }
        with pytest.raises(SchemaError, match="unresolved foreign key"):
            load_schema(doc)

    def test_fk_target_without_pk(self):
        doc = {
            "tables": [
                {"name": "B", "columns": [{"name": "X", "dtype": "int64", "stype": "numerical"}]},
                {
                    "name": "A",
                    "columns": [{"name": "B_ID", "dtype": "int64", "stype": "key"}],
                    "foreign_keys": [{"column": "B_ID", "references": "B"}],
                },
            ]
        }
        with pytest.raises(SchemaError, match="no primary key"):
            load_schema(doc)

    def test_duplicate_column(self):
        doc = {
            "tables": [
                {
                    "name": "A",
                    "columns": [
                        {"name": "X", "dtype": "int64", "stype": "numerical"},
                        {"name": "x", "dtype": "int64", "stype": "numerical"},
                    ],
                }
            ]
        }
        with pytest.raises(SchemaError, match="duplicate column"):
            load_schema(doc)

    def test_bad_dtype_stype_combination(self):
        doc = {
            "tables": [
                {"name": "A", "columns": [{"name": "X", "dtype": "string", "stype": "numerical"}]}
            ]
        }
        with pytest.raises(SchemaError, match="bad dtype/stype"):
            load_schema(doc)

    def test_one_sided_validity(self):
        doc = {
            "tables": [
                {
                    "name": "A",
                    "columns": [
                        {"name": "ID", "dtype": "int64", "stype": "key"},
                        {"name": "SINCE", "dtype": "timestamp", "stype": "temporal"},
                    ],
                    "primary_key": "ID",
                    "validity": {"start": "SINCE"},
                }
            ]
        }
        schema = load_schema(doc)
        assert schema.table("A").validity == ("SINCE", None)

    def test_time_column_must_be_timestamp(self):
        doc = {
            "tables": [
                {
                    "name": "A",
                    "columns": [{"name": "X", "dtype": "int64", "stype": "numerical"}],
                    "time_column": "X",
                }
            ]
        }
        with pytest.raises(SchemaError, match="must be a timestamp"):
            load_schema(doc)

    def test_not_null_survives_schema_json_round_trip(self):
        doc = {
            "tables": [
                {
                    "name": "A",
                    "columns": [
                        {"name": "ID", "dtype": "int64", "stype": "key", "nullable": False},
                        {"name": "X", "dtype": "int64", "stype": "numerical"},
                    ],
                    "primary_key": "ID",
                }
            ]
        }
        raw = store.schema_to_json(load_schema(doc))
        # Nullable columns are written as before, without the key.
        assert raw["tables"][0]["columns"][1] == {"name": "X", "dtype": "int64", "stype": "numerical"}
        assert [c.nullable for c in load_schema(raw).table("A").columns] == [False, True]

    def test_oversized_integer_is_located_outside_strings(self):
        # Long digit runs in a string, a fraction and an exponent parse;
        # the error points at the integer literal that int() refuses.
        digits = "1" * 5000
        doc = f'{{"s": "{digits} ,{digits}", "f": 1.{digits}, "e": 1e-{digits}, "i": [2, -{digits}]}}'
        with pytest.raises(json.JSONDecodeError, match="integer of more than 4300 digits") as exc:
            store.parse_json(doc)
        assert exc.value.pos == doc.index(f"[2, -{digits}") + 4
        with pytest.raises(SchemaError, match="^schema document is not valid JSON: integer of more"):
            load_schema(doc)


class TestLoadData:
    def test_row_counts(self, toy_db):
        assert toy_db.nrows("CUSTOMERS") == 3
        assert toy_db.nrows("TRANSACTIONS") == 8
        assert toy_db.total_rows() == 16

    def test_every_schema_table_is_present(self, retail_schema):
        db = store.Database(retail_schema)
        assert [db.nrows(name) for name in retail_schema.tables] == [0] * len(retail_schema.tables)
        assert db.max_event_time() is None and db.min_event_time() is None
        with pytest.raises(DataError, match="^no data loaded for table NOPE$"):
            db.nrows("NOPE")

    def test_null_parsing(self, toy_db):
        col = toy_db.table("TRANSACTIONS").column("VALUE")
        assert col.get(5) is None  # row 6: empty VALUE cell
        assert col.get(0) == 10.0
        tcol = toy_db.table("TRANSACTIONS").column("TIMESTAMP")
        assert tcol.get(7) is None  # undated transaction

    def test_duplicate_pk(self, retail_schema):
        db = new_database(retail_schema)
        bad = "CUSTOMER_ID,LOCATION_ID,SIGNUP_DATE,MEMBERSHIP_TYPE\n1,a,,x\n1,b,,x\n"
        with pytest.raises(DataError, match="duplicate primary key"):
            load_table_data(db, "CUSTOMERS", bad)

    def test_parse_error_reports_row_and_column(self, retail_schema):
        db = new_database(retail_schema)
        bad = "CUSTOMER_ID,LOCATION_ID,SIGNUP_DATE,MEMBERSHIP_TYPE\nzap,a,,x\n"
        with pytest.raises(DataError, match="row 1, column CUSTOMER_ID"):
            load_table_data(db, "CUSTOMERS", bad)

    def test_header_mismatch(self, retail_schema):
        db = new_database(retail_schema)
        with pytest.raises(DataError, match="does not match schema columns"):
            load_table_data(db, "CUSTOMERS", "CUSTOMER_ID,WRONG\n1,x\n")

    def test_dangling_fk_strict_vs_lenient(self, retail_schema):
        rows = (
            "TRANSACTION_ID,VALUE,TIMESTAMP,CUSTOMER_ID,ARTICLE_ID\n"
            "1,5.0,2024-01-01,999,\n"
        )
        db = build_toy_db(retail_schema)
        with pytest.raises(DataError, match="no match in CUSTOMERS"):
            load_table_data(db, "TRANSACTIONS", rows, strict=True)
        db2 = build_toy_db(retail_schema)
        load_table_data(db2, "TRANSACTIONS", rows, strict=False)
        assert db2.nrows("TRANSACTIONS") == 1
        report = db2.reports[-1]
        assert report.dangling_fk == 1 and report.samples

    def test_null_fk_allowed_in_strict_mode(self, retail_schema):
        db = build_toy_db(retail_schema)
        rows = "TRANSACTION_ID,VALUE,TIMESTAMP,CUSTOMER_ID,ARTICLE_ID\n1,5.0,2024-01-01,,1\n"
        load_table_data(db, "TRANSACTIONS", rows, strict=True)
        assert db.nrows("TRANSACTIONS") == 1

    @pytest.mark.parametrize("dtype", ["int64", "string"])
    def test_a_key_into_its_own_table(self, dtype):
        """A foreign key into its own table resolves against the rows being
        loaded, so the load's check counts what the row graph reads."""
        key = {"dtype": dtype, "stype": "key"}
        schema = load_schema({"tables": [{"name": "E", "columns": [{"name": "ID", **key}, {"name": "BOSS", **key}],
                                          "primary_key": "ID", "foreign_keys": [{"column": "BOSS", "references": "E"}]}]})
        (edge,) = schema.edges()
        db = load_table_data(new_database(schema), "E", "ID,BOSS\n1,\n2,1\n3,1\n")
        assert db.reports[-1].dangling_fk == 0 and build_row_graph(db).forward(edge).tolist() == [-1, 0, 0]
        dangling = "ID,BOSS\n1,\n2,1\n3,4\n"
        with pytest.raises(DataError, match="row 3: foreign key BOSS=.?4.? has no match in E$"):
            load_table_data(new_database(schema), "E", dangling)
        db = load_table_data(new_database(schema), "E", dangling, strict=False)
        assert db.reports[-1].dangling_fk == 1 and build_row_graph(db).forward(edge).tolist() == [-1, 0, -1]


class TestRowGraph:
    def test_children_time_sorted(self, toy_db, toy_graph):
        kids = all_children(toy_graph, 0)
        times = [toy_db.value(RowRef("TRANSACTIONS", k), "TIMESTAMP") for k in kids]
        dated = [t for t in times if t is not None]
        assert dated == sorted(dated)
        assert times[-1] is None  # undated child sits last

    def test_shuffled_load_order_still_sorted(self, retail_schema):
        lines = TRANSACTIONS_CSV.strip().splitlines()
        shuffled = [lines[0]] + list(reversed(lines[1:]))
        # Two more purchases tied with tx 5's time: ties keep load order.
        shuffled += ["9,1.0,2024-01-20,2,1", "10,2.0,2024-01-20,2,2"]
        db = build_toy_db(retail_schema)
        load_table_data(db, "TRANSACTIONS", "\n".join(shuffled))
        g = build_row_graph(db)
        kids = all_children(g, 1)
        times = [db.value(RowRef("TRANSACTIONS", k), "TIMESTAMP") for k in kids]
        assert times == sorted(times)
        ids = [db.value(RowRef("TRANSACTIONS", k), "TRANSACTION_ID") for k in kids]
        assert ids[-3:] == [5, 9, 10]
        assert children_in_window(g, 1, T("2024-01-20"), T("2024-01-21")) == kids[-3:]

    def test_no_children(self, toy_graph):
        count = bind(
            parse("PREDICT COUNT(NOTIFICATIONS.*) FOR EACH CUSTOMERS.CUSTOMER_ID"), RETAIL
        ).target
        assert count.group_edge == FkEdge("NOTIFICATIONS", "CUSTOMER_ID", "CUSTOMERS")
        gathered = gather_children(toy_graph, count, np.array([2]), None)
        assert gathered.child_rows.tolist() == []

    def test_window_half_open(self, toy_graph, toy_db):
        lo, hi = T("2024-01-01"), T("2024-01-31")
        kids = children_in_window(toy_graph, 0, lo, hi)
        assert kids == [0, 1]  # tx 1 and 2; tx3 later, tx8 undated
        assert children_in_window(toy_graph, 0, lo - MICROS_PER_DAY, lo) == []

    def test_window_includes_lower_excludes_upper(self, toy_graph):
        exact = T("2024-01-05")  # tx 1's time
        second = MICROS_PER_SECOND
        assert children_in_window(toy_graph, 0, exact, exact + second) == [0]
        assert children_in_window(toy_graph, 0, exact + 1, exact + 1 + second) == []
        assert children_in_window(toy_graph, 0, exact - second, exact) == []
        assert children_in_window(toy_graph, 0, exact + 1 - second, exact + 1) == [0]

    def test_slot_arrays_are_built_once_per_edge(self, toy_graph, toy_db):
        idx = toy_graph.edge_index(FkEdge("TRANSACTIONS", "CUSTOMER_ID", "CUSTOMERS"))
        ranks = _edge_slot_arrays(idx)
        assert idx.slot_ranks is ranks
        assert _edge_slot_arrays(idx) is ranks
        tcol = toy_db.table("TRANSACTIONS").column("TIMESTAMP")
        dated = ~tcol.null[idx.order]
        assert (ranks[~dated] == idx.radix - 1).all()
        assert idx.time_values[ranks[dated]].tolist() == tcol.values[idx.order][dated].tolist()

    def test_wrong_parent_table(self, toy_graph):
        # Rows reach the kernels as indices of the aggregation's parent
        # table; a pair naming a row of another table is refused on entry.
        from pql.engine import evaluate_pairs
        from pql.sampler import build_request, collect

        b = bind(parse("PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID"),
                 RETAIL)
        pairs = [(RowRef("ARTICLES", 0), T("2024-01-01"))]
        with pytest.raises(ExecutionError, match="not from CUSTOMERS"):
            collect(toy_graph, build_request(b, pairs))
        with pytest.raises(ExecutionError, match="not from CUSTOMERS"):
            evaluate_pairs(toy_graph.db, b, pairs)
        with pytest.raises(DataError, match="no such foreign-key edge"):
            toy_graph.edge_index(FkEdge("ARTICLES", "CUSTOMER_ID", "CUSTOMERS"))
        with pytest.raises(DataError, match="no such foreign-key edge"):
            toy_graph.forward(FkEdge("ARTICLES", "CUSTOMER_ID", "CUSTOMERS"))

    def test_window_matches_linear_scan(self, toy_db, toy_graph):
        rng = np.random.default_rng(0)
        base = T("2023-12-01")
        tcol = toy_db.table("TRANSACTIONS").column("TIMESTAMP")
        ccol = toy_db.table("TRANSACTIONS").column("CUSTOMER_ID")
        for _ in range(200):
            lo = base + int(rng.integers(0, 90)) * MICROS_PER_DAY
            hi = lo + int(rng.integers(1, 40)) * MICROS_PER_DAY
            parent = int(rng.integers(0, 3))
            got = children_in_window(toy_graph, parent, lo, hi)
            key = parent + 1
            want = sorted(
                i
                for i in range(toy_db.nrows("TRANSACTIONS"))
                if ccol.get(i) == key and tcol.get(i) is not None and lo <= tcol.get(i) < hi
            )
            assert sorted(got) == want

    @settings(max_examples=60, deadline=None)
    @given(cuts=st.lists(st.integers(0, 120), min_size=0, max_size=6), parent=st.integers(0, 2))
    def test_partition_tiles_exactly_once(self, toy_graph, cuts, parent):
        base = T("2023-10-01")
        bounds = [None] + sorted({base + c * MICROS_PER_DAY for c in cuts}) + [FAR_FUTURE]
        pieces = []
        for lo, hi in zip(bounds, bounds[1:]):
            pieces.extend(children_in_window(toy_graph, parent, lo, hi))
        full = children_in_window(toy_graph, parent, None, FAR_FUTURE)
        assert sorted(pieces) == sorted(full)
        assert len(pieces) == len(full)



@st.composite
def keys_to_sort(draw):
    """(keys, rows, n_rows, bound) for `store._sort_by_key`: keys drawn from
    a few values, so that they tie, below a bound that packs into int64 or
    one that does not."""
    bound = draw(st.one_of(st.integers(1, 60), st.integers(2**61, 2**63 - 1)))
    values = draw(st.lists(st.integers(0, bound - 1), min_size=1, max_size=4))
    keys = draw(st.lists(st.sampled_from(values), max_size=30))
    rows = sorted(draw(st.sets(st.integers(0, 2 * len(keys)), min_size=len(keys), max_size=len(keys))))
    n_rows = (rows[-1] + 1 if rows else 0) + draw(st.integers(0, 3))
    return np.array(keys, dtype=np.int64), np.array(rows, dtype=np.int64), n_rows, bound


class TestEdgesOnFirstUse:
    COUNT_7D = "PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID"
    TX_CUSTOMER = FkEdge("TRANSACTIONS", "CUSTOMER_ID", "CUSTOMERS")

    @settings(max_examples=200, deadline=None)
    @given(keys_to_sort())
    # Packed into int64, and at the largest bound that still packs (the
    # packed key reaches 2**63 - 1); past int64, the stable argsort.
    @example((np.array([3, 1, 3, 0, 1], dtype=np.int64), np.array([0, 2, 3, 5, 6], dtype=np.int64), 7, 4))
    @example((np.array([2**62 - 1, 0], dtype=np.int64), np.array([0, 1], dtype=np.int64), 2, 2**62))
    @example((np.array([2**62 + 1, 5, 2**62 + 1], dtype=np.int64), np.array([0, 1, 4], dtype=np.int64), 5, 2**63 - 1))
    def test_sort_by_key_is_a_stable_argsort(self, case):
        keys, rows, n_rows, bound = case
        perm = np.argsort(keys, kind="stable")
        order, got = store._sort_by_key(keys.copy(), rows, n_rows, bound)
        assert order.dtype == got.dtype == np.int64
        assert order.tolist() == rows[perm].tolist()
        assert got.tolist() == keys[perm].tolist()

    def test_a_new_graph_builds_no_edge(self, retail_schema):
        db = build_toy_db(retail_schema)
        g = build_row_graph(db)
        assert built_edges(db) == []
        idx = g.edge_index(self.TX_CUSTOMER)
        assert built_edges(db) == [self.TX_CUSTOMER]
        # The edge is kept on its child table, so every view reads it.
        assert g.edge_index(self.TX_CUSTOMER) is idx
        assert build_row_graph(db).edge_index(self.TX_CUSTOMER) is idx
        # The edge into ARTICLES shares the child table's time ranks.
        other = g.edge_index(FkEdge("TRANSACTIONS", "ARTICLE_ID", "ARTICLES"))
        assert other.time_values is idx.time_values
        # With every edge of TRANSACTIONS built, its rows' ranks are let go.
        assert db.table("TRANSACTIONS")._ranks is None

    def test_a_windowed_count_builds_its_one_edge(self):
        db = generate(hm_genspec(scale=0.0005, seed=1))
        bound = bind(parse(self.COUNT_7D), db.schema)
        assert materialize_training(plan_training(bound, AnchorPolicy(count=3)), db).row_count
        assert built_edges(db) == [self.TX_CUSTOMER]

    def test_a_parent_hop_builds_no_edge(self, tmp_path):
        store.save_database(generate(hm_genspec(scale=0.0005, seed=1)), tmp_path)
        db = store.load_database(tmp_path / "schema.json", tmp_path)
        text = "PREDICT TRANSACTIONS.VALUE FOR EACH TRANSACTIONS.TRANSACTION_ID WHERE CUSTOMERS.AGE > 20"
        table = materialize_training(plan_training(bind(parse(text), db.schema)), db)
        assert 0 < table.row_count < db.nrows("TRANSACTIONS")
        assert built_edges(db) == []
        # The hop reads the array the load resolved.
        forward = db.table("TRANSACTIONS").fk_forward["CUSTOMER_ID"]
        assert build_row_graph(db).forward(self.TX_CUSTOMER) is forward

    def test_a_graph_held_across_a_reload_reads_the_reloaded_tables(self, retail_schema):
        db = build_toy_db(retail_schema)
        held = build_row_graph(db)
        held.edge_index(self.TX_CUSTOMER)
        load_table_data(db, "TRANSACTIONS", TRANSACTIONS_CSV.splitlines()[0])
        fresh = build_row_graph(db)
        # Built before the reload or not, every edge and hop is the fresh graph's.
        for edge in (self.TX_CUSTOMER, FkEdge("TRANSACTIONS", "ARTICLE_ID", "ARTICLES")):
            assert held.edge_index(edge) is fresh.edge_index(edge)
            assert held.edge_index(edge).order.tolist() == []
            assert held.forward(edge).tolist() == fresh.forward(edge).tolist() == []
        assert children_in_window(held, 0, None, FAR_FUTURE) == []


def built_edges(db):
    """The edges whose row-graph index is built, in schema order."""
    return [e for e in db.schema.edges() if e.fk_column in db.table(e.child_table).edges]


def graph_state(g):
    """Each edge's hop and CSR arrays, as lists; builds every edge."""
    state = {}
    for edge in g.db.schema.edges():
        idx = g.edge_index(edge)
        arrays = (g.forward(edge), idx.indptr, idx.order, idx.keys, idx.time_values)
        state[edge] = [a.tolist() for a in arrays]
    return state


def write_permuted(db, table, path, seed):
    """Write `table` to `path` with its rows in a seeded random order."""
    data = db.table(table)
    perm = np.random.default_rng(seed).permutation(data.nrows)
    names = data.definition.column_names
    store.write_csv(path, names, [(c.dtype, c.values[perm], c.null[perm]) for c in map(data.column, names)])


# A self-referencing table (every employee has a manager) with a child.
SELF_REFERENCING = load_schema({"tables": [
    {"name": "EMPLOYEES", "primary_key": "ID", "time_column": "HIRED",
     "columns": [{"name": "ID", "dtype": "int64", "stype": "key"},
                 {"name": "MANAGER_ID", "dtype": "int64", "stype": "key"},
                 {"name": "HIRED", "dtype": "timestamp", "stype": "temporal"}],
     "foreign_keys": [{"column": "MANAGER_ID", "references": "EMPLOYEES"}]},
    {"name": "SHIFTS", "primary_key": "ID", "time_column": "AT",
     "columns": [{"name": "ID", "dtype": "int64", "stype": "key"},
                 {"name": "EMPLOYEE_ID", "dtype": "int64", "stype": "key"},
                 {"name": "AT", "dtype": "timestamp", "stype": "temporal"}],
     "foreign_keys": [{"column": "EMPLOYEE_ID", "references": "EMPLOYEES"}]},
]})


class TestOneInvalidationRule:
    """A load drops what other tables derived from the table it replaces,
    so after any sequence of loads every hop and every edge, built before
    the last load or after it, equals a fresh parent-first load's."""

    def saved(self, seed, schema, path):
        store.save_database(random_database(seed, schema), path)
        return path

    def fresh_state(self, path):
        return graph_state(build_row_graph(store.load_database(path / "schema.json", path)))

    def reload_permuted(self, path, table, seed, tmp_path):
        """A graph that built every edge before `table` was reloaded from a
        permuted copy, and the state of a fresh load of the same files."""
        db = store.load_database(path / "schema.json", path)
        held = build_row_graph(db)
        graph_state(held)
        other = tmp_path / "permuted"
        store.save_database(db, other)
        write_permuted(db, table, other / f"{table.lower()}.csv", seed)
        untouched = {e: db.table(e.child_table).edges[e.fk_column] for e in db.schema.edges()
                     if table not in (e.parent_table, e.child_table)}
        load_table_data(db, table, other / f"{table.lower()}.csv")
        # What did not derive from the replaced rows is kept.
        for edge, idx in untouched.items():
            assert held.edge_index(edge) is idx, edge
        return held, self.fresh_state(other)

    @pytest.mark.parametrize("seed", range(8))
    def test_a_parent_reloaded_with_its_rows_permuted(self, seed, tmp_path):
        schema = random_schema(seed)
        path = self.saved(seed, schema, tmp_path / "data")
        for parent in sorted({e.parent_table for e in schema.edges()}):
            held, want = self.reload_permuted(path, parent, seed, tmp_path / parent)
            assert graph_state(held) == want, parent

    @pytest.mark.parametrize("seed", range(8))
    def test_a_child_loaded_before_its_parent(self, seed, tmp_path):
        schema = random_schema(seed)
        path = self.saved(seed, schema, tmp_path)
        want = self.fresh_state(path)
        for child in sorted({e.child_table for e in schema.edges()}):
            db = new_database(schema)
            held = build_row_graph(db)
            # Not strict: no parent row is loaded yet, so every key dangles.
            load_table_data(db, child, path / f"{child.lower()}.csv", strict=False)
            keys = [db.table(child).column(e.fk_column) for e in schema.edges_from(child)]
            assert db.reports[-1].dangling_fk == sum(int((~col.null).sum()) for col in keys) > 0
            for name in store._load_order(schema):
                graph_state(held)  # every edge built against the tables loaded so far
                if name != child:
                    load_table_data(db, name, path / f"{name.lower()}.csv")
            assert graph_state(held) == want, child

    @pytest.mark.parametrize("seed", range(4))
    def test_a_self_referencing_table_reloaded(self, seed, tmp_path):
        path = self.saved(seed, SELF_REFERENCING, tmp_path / "data")
        held, want = self.reload_permuted(path, "EMPLOYEES", seed, tmp_path)
        assert graph_state(held) == want
        assert graph_state(held) != self.fresh_state(path)  # the permutation moved rows


class TestCsvRoundTrip:
    def test_save_load_keeps_string_cells(self, retail_schema, tmp_path):
        awkward = [
            "line\nbreak",
            "crlf\r\nbreak",
            "a\rb",
            "para\u2028separator",
            "next\u0085line",
            'say "hi"',
            "a,b,c",
            '"quoted",\n"and, more"',
        ]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(["CUSTOMER_ID", "LOCATION_ID", "SIGNUP_DATE", "MEMBERSHIP_TYPE"])
        writer.writerows([i, text, "", text] for i, text in enumerate(awkward, start=1))
        db = new_database(retail_schema)
        load_table_data(db, "CUSTOMERS", buf.getvalue())
        path = tmp_path / "customers.csv"
        save_table_csv(db, "CUSTOMERS", path)

        text = path.read_bytes().decode()
        for source in (path, text):
            again = new_database(retail_schema)
            load_table_data(again, "CUSTOMERS", source)
            table = again.table("CUSTOMERS")
            assert table.nrows == len(awkward)
            assert table.column("LOCATION_ID").to_pylist() == awkward
            assert table.column("MEMBERSHIP_TYPE").to_pylist() == awkward

    def test_cells_over_the_csv_default_field_limit(self, retail_schema, tmp_path):
        long_name = "n" * 200_000  # the csv module's default limit is 131,072
        db = new_database(retail_schema)
        load_table_data(db, "ARTICLES", csv_text(
            ["ARTICLE_ID", "ARTICLE_NAME", "ARTICLE_TYPE", "DESCRIPTION", "COLOR"],
            [["1", long_name, "shirt", "", "blue"], ["2", "short", "", "", ""]],
        ))
        path = tmp_path / "articles.csv"
        save_table_csv(db, "ARTICLES", path)
        text = path.read_text(encoding="utf-8")
        for source in (path, text):
            again = new_database(retail_schema)
            load_table_data(again, "ARTICLES", source)
            assert again.table("ARTICLES").column("ARTICLE_NAME").to_pylist() == [long_name, "short"]

    def test_timestamps_before_year_1000(self, retail_schema, tmp_path):
        stamps = [
            "0001-01-01T00:00:00Z",
            "0005-01-01T00:00:00Z",
            "0999-12-31T23:59:59.000001Z",
            "9999-12-31T23:59:59.999999Z",
        ]
        text = "CUSTOMER_ID,LOCATION_ID,SIGNUP_DATE,MEMBERSHIP_TYPE\n"
        text += "".join(f"{i},x,{t},y\n" for i, t in enumerate(stamps))
        db = new_database(retail_schema)
        load_table_data(db, "CUSTOMERS", text)
        assert db.table("CUSTOMERS").column("SIGNUP_DATE").to_pylist() == [T(t) for t in stamps]
        path = tmp_path / "customers.csv"
        save_table_csv(db, "CUSTOMERS", path)
        assert path.read_text() == text
        again = new_database(retail_schema)
        load_table_data(again, "CUSTOMERS", path)
        save_table_csv(again, "CUSTOMERS", path)
        assert path.read_text() == text


# ---------------------------------------------------------------------------
# The columnar loader against the per-cell reference


def _table_doc(name, columns, primary_key=None, foreign_keys=()):
    return {
        "name": name,
        "columns": [
            {"name": c, "dtype": d, "stype": st, "nullable": nullable} for c, d, st, nullable in columns
        ],
        "primary_key": primary_key,
        "foreign_keys": [{"column": c, "references": r} for c, r in foreign_keys],
    }


ADVERSARIAL = load_schema(
    {
        "tables": [
            _table_doc(
                "A",
                [
                    ("I", "int64", "numerical", True),
                    ("F", "float64", "numerical", True),
                    ("B", "bool", "categorical", True),
                    ("T", "timestamp", "temporal", True),
                    ("S", "string", "text", True),
                    ("N", "int64", "numerical", False),
                ],
            ),
            _table_doc("P", [("ID", "int64", "key", True)], "ID"),
            _table_doc(
                "C",
                [("ID", "int64", "key", True), ("P1", "int64", "key", True), ("P2", "int64", "key", True)],
                "ID",
                [("P1", "P"), ("P2", "P")],
            ),
            _table_doc("SP", [("ID", "string", "key", True)], "ID"),
            _table_doc(
                "SC",
                [("ID", "string", "key", True), ("P1", "string", "key", True), ("P2", "string", "key", True)],
                "ID",
                [("P1", "SP"), ("P2", "SP")],
            ),
        ]
    }
)

# Text cells for the round trip: any character a file can hold, with the
# ones CSV quoting and line splitting care about drawn often, and padding.
CHARACTERS = st.characters(blacklist_categories=("Cs",))
TEXT_CELLS = st.text(
    st.sampled_from([",", '"', "\r", "\n", "\u2028", "\u0085", " ", "\u00e9", "\u4e2d"]) | CHARACTERS, max_size=6
) | st.text(CHARACTERS, max_size=3).map(lambda text: f"  {text} ")
TEXT_SCHEMA = load_schema({"tables": [_table_doc(
    "X", [("ID", "int64", "key", True), ("A", "string", "text", True), ("B", "string", "text", True)], "ID")]})

# Cells per column of table A; each is also loaded on its own, between
# valid neighbours, so a bad cell sends only its own slice down the
# per-cell path.
ADVERSARIAL_CELLS = {
    "I": ["9223372036854775807", "-9223372036854775807", "-9223372036854775808",
          "9223372036854775808", "-9223372036854775809", "1_000", " 3", "+5", "-0",
          "\u0663", "1.0", "x", ""],
    "F": ["nan", "NaN", "-nan", "inf", "-inf", "1e400", " 2.5 ", "-0.0", "1_0.5", "0.1",
          "5e-324", "x", ""],
    "B": ["true", "false", "1", "0", "t", "f", "True", "FALSE", " t ", "yes", ""],
    "T": ["2022-03-04T05:06:07Z", "2022-03-04T05:06:07.123456Z", "2022-03-04T05:06:07.000000Z",
          "2022-03-04T05:06:07+02:00", "2022-03-04T05:06:07z", "2022-03-04", "2022-03-04T05:06:07",
          " 2022-03-04T05:06:07Z ", "0000-01-01T00:00:00Z", "0001-01-01T00:00:00Z",
          "0005-06-07T08:09:10Z", "2022-12-31T23:59:60Z", "2022-02-29T00:00:00Z",
          "2024-02-29T00:00:00.5Z", "2022-03-04T05:06:07.1234567Z", "2022-03-04T05+01:00Z",
          "2022-03-04 05:06:07Z", "NaTZ", "yesterday", ""],
    "S": ["plain", " padded ", "\u00e9\u4e2d", "a,b", 'q"uote', "line\nbreak", ""],
    "N": ["7", "-7", ""],
}
VALID = {"I": "1", "F": "1.5", "B": "true", "T": "2020-01-01T00:00:00Z", "S": "s", "N": "1"}
GOOD = list(VALID.values())


def load_by_cell(db, table, text, strict=True):
    """The row-at-a-time loader the columnar one replaced: `_parse_cell` per
    cell in row order, then the PK and FK checks row by row. Returns the
    column values as lists (None = null) and the load report's fields."""
    tdef = db.schema.table(table)
    reader = csv.reader(io.StringIO(text, newline=""))
    header = [h.upper() for h in next(reader)]
    raw = {name: [] for name in header}
    for rownum, record in enumerate(reader, start=1):
        if len(record) != len(header):
            raise DataError(f"table {tdef.name}: row {rownum}: expected {len(header)} fields")
        for name, cell in zip(header, record):
            cdef = tdef.column(name)
            try:
                value = _parse_cell(cell, cdef.dtype)
            except (ValueError, OverflowError) as exc:
                raise DataError(f"table {tdef.name}: row {rownum}, column {name}: {exc}")
            if value is None and not cdef.nullable:
                raise DataError(f"table {tdef.name}: row {rownum}, column {name}: null not allowed")
            raw[name].append(value)
    if tdef.primary_key is not None:
        seen = set()
        for i, v in enumerate(raw[tdef.primary_key]):
            if v is None:
                raise DataError(f"table {tdef.name}: row {i + 1}: null primary key")
            if v in seen:
                raise DataError(f"table {tdef.name}: duplicate primary key {v!r}")
            seen.add(v)
    dangling, samples = 0, []
    for fk in tdef.foreign_keys:
        parent_index = db.table(fk.references).pk_index
        for i, v in enumerate(raw[fk.column]):
            if v is None or v in parent_index:
                continue
            dangling += 1
            if strict:
                raise DataError(
                    f"table {tdef.name}: row {i + 1}: foreign key {fk.column}={v!r} "
                    f"has no match in {fk.references}"
                )
            if len(samples) < 5:
                samples.append(f"{fk.column}={v!r}")
    return raw, (dangling, samples)


def loaded_outcome(db, table):
    data, report = db.table(table), db.reports[-1]
    cols = {n: data.column(n).to_pylist() for n in data.definition.column_names}
    return ("ok", repr(cols), (report.dangling_fk, report.samples))


def load_source(db_factory, table, source, strict=True):
    """Load `source` (CSV text or a file path) with `load_table_data`;
    ("error", message) or ("ok", columns, report)."""
    db = db_factory()
    try:
        load_table_data(db, table, source, strict=strict)
    except DataError as exc:
        return ("error", str(exc))
    return loaded_outcome(db, table)


def reference_outcome(db_factory, table, raw, strict=True):
    """The per-cell reference's outcome for the CSV text `raw`."""
    try:
        cols, report = load_by_cell(db_factory(), table, raw, strict)
    except DataError as exc:
        return ("error", str(exc))
    return ("ok", repr(cols), report)


def load_raw(db_factory, table, raw, strict=True):
    """Outcomes of the per-cell reference and of `load_table_data` reading
    `raw` as text and as a file holding exactly `raw`. Checks that the text
    and the file load alike and returns (reference, text)."""
    reference = reference_outcome(db_factory, table, raw, strict)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes(raw.encode())
        from_file = load_source(db_factory, table, path, strict)
    from_text = load_source(db_factory, table, raw, strict)
    assert from_file == from_text
    return reference, from_text


def load_both(db_factory, table, text, strict=True):
    """Load `text`, quoted, and the same records written with minimal
    quoting, with the per-cell reference and with `load_table_data`, as
    text and as a file. Checks that both spellings load alike and returns
    (reference, columnar), each either ("error", message) or ("ok",
    columns, report)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(csv.reader(io.StringIO(text, newline="")))
    reference, columnar = load_raw(db_factory, table, text, strict)
    assert load_raw(db_factory, table, buf.getvalue(), strict)[1] == columnar
    return reference, columnar


def csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def adversarial_rows(column, cells):
    return [[cell if name == column else VALID[name] for name in VALID] for cell in cells]


@pytest.fixture(params=[3, store._CHUNK_ROWS], ids=["chunk3", "chunk_default"])
def chunk_rows(request, monkeypatch):
    monkeypatch.setattr(store, "_CHUNK_ROWS", request.param)
    return request.param


class TestColumnarLoader:
    @pytest.mark.parametrize("column", sorted(ADVERSARIAL_CELLS))
    def test_matches_per_cell_reference(self, column, chunk_rows):
        cells = ADVERSARIAL_CELLS[column]
        valid = VALID[column]
        cases = [[c] for c in cells] + [[valid, c, valid] for c in cells] + [cells]
        for case in cases:
            text = csv_text(list(VALID), adversarial_rows(column, case))
            reference, columnar = load_both(lambda: new_database(ADVERSARIAL), "A", text)
            assert columnar == reference, case

    def test_saved_cells_need_no_per_cell_parsing(self, monkeypatch, tmp_path):
        rows = [
            ["-9223372036854775808", "-0.0", "false", "0001-01-01T00:00:00Z", "", "0"],
            ["9223372036854775807", "5e-324", "true", "9999-12-31T23:59:59.999999Z", "\u00e9", "1"],
            ["", "inf", "", "2022-03-04T05:06:07Z", "x", "2"],
            ["3", "", "true", "", "y", "3"],
            ["-1", "-inf", "f", "2022-03-04T05:06:07.500000Z", "z", "4"],
            ["0", "1.7976931348623157e+308", "t", "1969-12-31T23:59:59.999999Z", "w", "5"],
            ["7", "0.30000000000000004", "1", "2024-02-29T00:00:00Z", "v", "6"],
            ["8", "1e-05", "0", "2000-02-29T12:00:00Z", "u", "7"],
            ["9", "123456789012345.67", "true", "1999-12-31T23:59:59Z", "t", "8"],
        ]
        text = csv_text(list(VALID), rows)
        reference = load_both(lambda: new_database(ADVERSARIAL), "A", text)[0]
        db = new_database(ADVERSARIAL)
        load_table_data(db, "A", text)
        path = tmp_path / "a.csv"
        save_table_csv(db, "A", path)

        def refuse(*args):
            raise AssertionError("a cell was parsed by _parse_cell")

        monkeypatch.setattr(store, "_parse_cell", refuse)
        assert load_both(lambda: new_database(ADVERSARIAL), "A", text)[1] == reference
        assert load_source(lambda: new_database(ADVERSARIAL), "A", path) == reference

    def test_header_order_is_free(self, chunk_rows):
        names = list(VALID)[::-1]  # N, S, T, B, F, I
        rows = [[VALID[n] for n in names], ["7", "", "x", "", "", "y"], [VALID[n] for n in names]]
        reference, columnar = load_both(lambda: new_database(ADVERSARIAL), "A", csv_text(names, rows))
        assert columnar == reference
        assert columnar[1] == "table A: row 2, column T: Invalid isoformat string: 'x'"
        rows[1][2] = rows[1][5] = ""
        db = new_database(ADVERSARIAL)
        load_table_data(db, "A", csv_text(names, rows))
        assert list(db.table("A").columns) == list(VALID)
        assert db.table("A").column("N").to_pylist() == [1, 7, 1]
        assert db.table("A").column("S").to_pylist() == ["s", None, "s"]

    def test_nulls_and_fills(self):
        db = new_database(ADVERSARIAL)
        load_table_data(db, "A", csv_text(list(VALID), [["", "nan", "", "", "", "0"]]))
        data = db.table("A")
        for name, fill in [("I", 0), ("F", 0.0), ("B", False), ("T", 0), ("S", None)]:
            col = data.column(name)
            assert col.null.tolist() == [True]
            assert col.values.dtype == store._NUMPY_DTYPE[col.dtype]
            assert col.values.tolist() == [fill]

    def test_empty_table_keeps_dtypes(self):
        db = new_database(ADVERSARIAL)
        load_table_data(db, "A", ",".join(VALID) + "\n")
        for name, col in db.table("A").columns.items():
            assert len(col.values) == len(col.null) == 0
            assert col.values.dtype == store._NUMPY_DTYPE[col.dtype]

    @pytest.mark.parametrize(
        "rows",
        [
            # The first problem in row order wins, whatever its column.
            [GOOD, ["x", "1", "true", "", "s", "1"], ["1", "y", "true", "", "s", ""]],
            [GOOD, ["1", "1", "true", "", "s", ""], ["x", "1", "true", "", "s", "1"]],
            [["1", "1", "maybe", "", "s", "1"], ["1", "x", "true", "", "s", "1"]],
            [GOOD, ["1", "x", "maybe", "", "s", ""]],
            # A record of the wrong width after, and before, a bad cell.
            [GOOD, ["x", "1", "true", "", "s", "1"], ["1"]],
            [GOOD, ["1", "1"], ["x", "1", "true", "", "s", "1"]],
            [GOOD, GOOD + ["1"]],
        ],
    )
    def test_first_error_in_row_order(self, rows, chunk_rows):
        text = csv_text(list(VALID), rows)
        reference, columnar = load_both(lambda: new_database(ADVERSARIAL), "A", text)
        assert reference[0] == "error"
        assert columnar == reference

    @pytest.mark.parametrize("column,cell", [("I", "x"), ("T", "2022-02-29T00:00:00Z"), ("N", "")])
    def test_errors_past_the_first_chunk_carry_absolute_rows(self, column, cell):
        rows = [GOOD] * 20000 + adversarial_rows(column, [cell])
        text = csv_text(list(VALID), rows)
        reference, columnar = load_both(lambda: new_database(ADVERSARIAL), "A", text)
        assert columnar == reference
        assert columnar[1].startswith(f"table A: row 20001, column {column}: ")

    def test_short_record_past_the_first_chunk(self):
        text = csv_text(list(VALID), [GOOD] * 20000 + [["1"]])
        with pytest.raises(DataError, match=r"^table A: row 20001: expected 6 fields$"):
            load_table_data(new_database(ADVERSARIAL), "A", text)

    def test_unreadable_record_is_a_data_error(self, chunk_rows):
        huge = "x" * 1001
        text = csv_text(list(VALID), [GOOD] * 4 + [["1", "1", "true", "", huge, "1"]])
        bad_first = csv_text(list(VALID), [["x"] + GOOD[1:]] * 4)
        with pytest.raises(DataError, match=r"^table A: row 1, column I: invalid literal"):
            load_table_data(new_database(ADVERSARIAL), "A", bad_first + text.split("\n", 1)[1])

    @pytest.mark.parametrize(
        "table,keys",
        [
            ("P", ["1", "2", "3"]),
            ("P", ["1", "", "2"]),
            ("P", ["1", "", "1"]),
            ("P", ["1", "2", "1", ""]),
            ("P", ["-9223372036854775808", "9223372036854775807", "-9223372036854775808"]),
            ("P", ["1", "2", "2"]),
            ("P", ["3", "2", "1"]),
            ("P", ["9223372036854775805", "9223372036854775806", "9223372036854775807"]),
            ("P", ["-9223372036854775808", "-9223372036854775807", "-9223372036854775806"]),
            ("P", ["-9223372036854775808", "9223372036854775807"]),
            ("P", ["9223372036854775806", "9223372036854775807", ""]),
            ("P", ["", "1", "2"]),  # a null reads as 0, which would increase
            ("SP", ["a", "b", "'a'", "a"]),
            ("SP", ["a", "", "b"]),
            ("SP", ["a", "", "a"]),
            ("SP", ["\u00e9", "e\u0301", "\u00e9"]),
        ],
    )
    def test_primary_keys(self, table, keys, chunk_rows):
        text = csv_text(["ID"], [[k] for k in keys])
        reference, columnar = load_both(lambda: new_database(ADVERSARIAL), table, text)
        assert columnar == reference
        if columnar[0] == "ok":
            db = new_database(ADVERSARIAL)
            load_table_data(db, table, text)
            data = db.table(table)
            assert data.pk_index == {v: i for i, v in enumerate(data.column("ID").to_pylist())}

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
    @pytest.mark.parametrize("parent,child", [("P", "C"), ("SP", "SC")])
    def test_foreign_keys(self, parent, child, strict, chunk_rows):
        def parent_loaded():
            db = new_database(ADVERSARIAL)
            load_table_data(db, parent, csv_text(["ID"], [["10"], ["-3"], ["30"]]))
            return db

        fks = [
            ["10", "30"],
            ["", "99"],  # null P1 is no dangling key; P2 dangles
            ["11", "10"],
            ["", ""],
            ["12", "13"],
            ["-3", "14"],
            ["15", "16"],
            ["17", ""],
        ]
        text = csv_text(["ID", "P1", "P2"], [[str(i)] + pair for i, pair in enumerate(fks)])
        reference, columnar = load_both(parent_loaded, child, text, strict=strict)
        assert columnar == reference
        if strict:
            assert columnar[0] == "error"
        else:
            assert columnar[2][0] == 8 and len(columnar[2][1]) == 5

    def test_foreign_keys_without_parent_rows(self, chunk_rows):
        text = csv_text(["ID", "P1", "P2"], [["1", "5", ""], ["2", "", ""]])
        for strict in (True, False):
            reference, columnar = load_both(lambda: new_database(ADVERSARIAL), "C", text, strict)
            assert columnar == reference


# ---------------------------------------------------------------------------
# The byte tokenizer: what it refuses, what it reads, foreign keys resolved once

HEADER_A = ",".join(VALID) + "\n"
ROW_A = ",".join(GOOD) + "\n"


def row_a(**cells):
    return ",".join(cells.get(name, VALID[name]) for name in VALID) + "\n"


# Malformed quoting, each with the error it gives after `table A: `.
MALFORMED = [
    # Text after a closing quote, which the csv module reads leniently.
    (HEADER_A + ROW_A + row_a(S='"a"b') + ROW_A, "row 2: text after a closing quote"),
    (HEADER_A + row_a(S='"a" ') + ROW_A, "row 1: text after a closing quote"),
    (HEADER_A + ROW_A + row_a(S='""a'), "row 2: text after a closing quote"),
    (HEADER_A + ROW_A * 2 + row_a(S='"a\nb"c\nd"'), "row 3: text after a closing quote"),
    # A quote left open at the end of the input.
    (HEADER_A + ROW_A + row_a(S='"abc'), "row 2: quote not closed at the end of the input"),
    (HEADER_A + row_a(S='a"b,"c') + ROW_A, "row 1: quote not closed at the end of the input"),
    (HEADER_A + ROW_A + row_a(S='"a""') + ROW_A, "row 2: quote not closed at the end of the input"),
    # The first error in row order wins.
    (HEADER_A + row_a(I="x") + row_a(S='"a"b'), "row 1, column I: invalid literal for int() "
     "with base 10: 'x'"),
    (HEADER_A + row_a(S='"a"b') + row_a(I="x"), "row 1: text after a closing quote"),
    (HEADER_A + ROW_A + "1,2\n" + row_a(S='"a"b'), "row 2: expected 6 fields"),
    # The header is read by the same rules.
    ('"I"x,F,B,T,S,N\n' + ROW_A, "header: text after a closing quote"),
    ('"I,F,B,T,S,N\n' + ROW_A, "header: quote not closed at the end of the input"),
    ('"I""",F,B,T,S,N\n', "header ['I\"', 'F', 'B', 'T', 'S', 'N'] does not match schema columns "
     "['I', 'F', 'B', 'T', 'S', 'N']"),
    ('"I\r\n",F,B,T,S,N\n', "header ['I\\r\\n', 'F', 'B', 'T', 'S', 'N'] does not match schema "
     "columns ['I', 'F', 'B', 'T', 'S', 'N']"),
    # A blank header is a record of no fields, as csv.reader reads it.
    *[(end + ROW_A, "header [] does not match schema columns ['I', 'F', 'B', 'T', 'S', 'N']")
      for end in ("\n", "\r\n", "\r")],
    ('""\n' + ROW_A, "header [''] does not match schema columns ['I', 'F', 'B', 'T', 'S', 'N']"),
]


class TestByteTokenizer:
    @pytest.mark.parametrize(
        "table,raw",
        [
            # Blank lines: the csv module reads [], a record of no fields.
            ("A", HEADER_A + ROW_A + "\n" + ROW_A),
            ("A", HEADER_A + "\n" + ROW_A),
            ("P", "ID\n1\n\n2\n"),
            ("P", "ID\n1\n2\n\n"),
            ("SP", "ID\na\n\nb\n"),
            # Line ends.
            ("A", HEADER_A + ROW_A + ROW_A[:-1]),
            ("P", "ID\n1\n2"),
            ("P", "ID"),
            ("A", (HEADER_A + ROW_A + ROW_A).replace("\n", "\r\n")),
            ("P", "ID\r\n1\r\n2\r\n"),
            ("P", "ID\n1\r\n2\n"),
            # Quotes and NUL bytes.
            ("A", HEADER_A + row_a(S="a\0b")),
            ("A", HEADER_A + row_a(I="1\0")),
            ("A", HEADER_A + row_a(S='a"b')),
            ("A", HEADER_A + row_a(S='"a,b"')),
            # Field counts.
            ("A", HEADER_A + ROW_A + "1,2\n" + ROW_A),
            ("A", HEADER_A + ROW_A + ROW_A[:-1] + ",x\n"),
            ("A", HEADER_A + ROW_A + ",,,,,\n"),
            # One record a field long and the next a field short: the block
            # still holds one delimiter per field.
            ("A", HEADER_A + ROW_A + ROW_A[:-1] + ",1\n" + ROW_A.split(",", 1)[1] + ROW_A),
            # Non-ASCII text, before and after other cells of the block.
            ("A", HEADER_A + row_a(S="é中") + row_a(S="x") + row_a(S="\U0001f600")),
            ("A", HEADER_A + row_a(S="é中", I="7") + row_a(S="s t")),
            ("A", HEADER_A + row_a(I="٣")),
            # Refused cells after non-ASCII text are cut at character offsets.
            ("A", HEADER_A + row_a(S="é中", F="1E5") + row_a(S="\U0001f600", I=" 7", T="2024-01-01")),
            ("A", HEADER_A + row_a(S="é", I="٣٣") + row_a(S="中", B=" TRUE ")),
            ("SP", "ID\né\né\n"),
            # Integers: 19 digits fit when in range, 20 never do.
            ("A", HEADER_A + row_a(I="9223372036854775807") + row_a(I="-9223372036854775808")),
            ("A", HEADER_A + row_a(I="9223372036854775808")),
            ("A", HEADER_A + row_a(I="-9223372036854775809")),
            ("A", HEADER_A + row_a(I="9999999999999999999")),
            ("A", HEADER_A + row_a(I="12345678901234567890")),
            ("A", HEADER_A + row_a(I="00000000000000000000001")),
            ("A", HEADER_A + row_a(I="-") + ROW_A),
            # Floats of 16 or more significant digits, or past 2**53.
            ("A", HEADER_A + row_a(F="0.30000000000000004") + row_a(F="1234567890123456.5")),
            ("A", HEADER_A + row_a(F="9007199254740993") + row_a(F="12345678901234567890.5")),
            ("A", HEADER_A + row_a(F="0.1000000000000000000000001") + row_a(F="1." + "0" * 30)),
            ("A", HEADER_A + row_a(F="1e400") + row_a(F="-1E5") + row_a(F=".5")),
            ("A", HEADER_A + row_a(F="nan") + row_a(F="1e") + row_a(F="1.e5")),
            # Timestamps the canonical form excludes.
            ("A", HEADER_A + row_a(T="2022-02-29T00:00:00Z")),
            ("A", HEADER_A + row_a(T="2022-03-04T24:00:00Z")),
            ("A", HEADER_A + row_a(T="2022-12-31T23:59:60Z")),
            ("A", HEADER_A + row_a(T="0000-01-01T00:00:00Z")),
            ("A", HEADER_A + row_a(T="2022-03-04T05:06:07.000000Z")),
            ("A", HEADER_A + row_a(T="2022-03-04")),
            # Nulls where none is allowed, and a repeated key.
            ("A", HEADER_A + ROW_A + row_a(N="")),
            ("P", "ID\n1\n2\n1\n"),
            # Record ends: a lone carriage return, blank records, CRLF.
            ("A", (HEADER_A + ROW_A + row_a(S="x") + ROW_A).replace("\n", "\r")),
            ("P", "ID\r1\r2"),
            ("P", "ID\r\n1\r\n\r\n2\r\n"),
            ("P", "ID\r\n1\r\r\n2\r\n"),
            ("P", "ID\n1\n\r2\n"),
            ("A", HEADER_A + ROW_A + "\r\n" + ROW_A),
            # Quoted record ends, commas and carriage returns inside a cell.
            ("A", HEADER_A + row_a(S='"a\r\nb"')[:-1] + "\r\n" + ROW_A.replace("\n", "\r\n")),
            ("A", HEADER_A + row_a(S='"a\rb"') + row_a(S='"a,\n,b"') + row_a(S='"\n"')),
            ("A", (HEADER_A + row_a(S='"x,y"')).replace("\n", "\r") + ROW_A),
            # A quoted header.
            ("A", ",".join(f'"{name}"' for name in VALID) + "\r\n" + ROW_A),
            ("A", ",".join(f'"{name.lower()}"' for name in reversed(VALID)) + "\n" + ROW_A[::-1]),
            # Doubled quotes, and quotes inside an unquoted cell, which are text.
            ("A", HEADER_A + row_a(S='"say ""hi"""') + row_a(S='""""') + row_a(S='"a""b""c"')),
            ("A", HEADER_A + row_a(S='a""b') + row_a(S='5"') + row_a(S='x"y"')),
            ("SP", 'ID\n"a""b"\na"b\n'),
            # Quoted numbers, bools, timestamps and nulls read as unquoted ones.
            ("A", HEADER_A + row_a(I='"7"', F='"1.5"', B='"true"', T='"2020-01-01T00:00:00Z"', N='"1"')),
            ("A", HEADER_A + row_a(I='"-9223372036854775808"', F='"1e5"', B='"T"', T='"2020-01-01"')),
            ("A", HEADER_A + row_a(I='""', F='""', B='""', T='""', S='""') + row_a(N='""')),
            ("A", HEADER_A + ROW_A + row_a(I='"x"')),
            ("A", HEADER_A + ROW_A + row_a(I='"1""2"')),
            ("A", HEADER_A + ROW_A + row_a(F='" 2.5"', T='"2022-02-29T00:00:00Z"')),
            ("P", 'ID\n"1"\n""\n'),
            ("SP", 'ID\n"a"\n""\n'),
            # A quoted cell longer than a block of `chunk3` holds, so that
            # block cuts fall inside it, and errors after it.
            ("A", HEADER_A + ROW_A * 2 + row_a(S='"' + "x,\r\n\n\r" * 40 + '"') + ROW_A * 2),
            ("A", HEADER_A + ROW_A * 2 + row_a(S='"' + '""\n,' * 40 + '"') + ROW_A + row_a(I="x")),
            ("A", (HEADER_A + ROW_A * 2 + row_a(S='"' + "\n" * 60 + '"') + ROW_A * 3).replace("\n", "\r")),
        ],
    )
    def test_refusals_match_the_per_cell_reference(self, table, raw, chunk_rows):
        reference, loaded = load_raw(lambda: new_database(ADVERSARIAL), table, raw)
        assert loaded == reference

    @pytest.mark.parametrize("cells", [{"S": "a\ud800b"}, {"I": "\udcff"}, {"B": "\ud83d"}], ids=["S", "I", "B"])
    def test_text_holding_a_lone_surrogate(self, cells):
        # Such text has no UTF-8 bytes, so no file can hold it.
        raw = HEADER_A + ROW_A + row_a(**cells)
        factory = lambda: new_database(ADVERSARIAL)  # noqa: E731
        reference = reference_outcome(factory, "A", raw)
        assert load_source(factory, "A", raw) == reference

    @pytest.mark.parametrize("raw,message", MALFORMED, ids=[message for _, message in MALFORMED])
    def test_malformed_quoting_is_a_data_error(self, raw, message, chunk_rows, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(raw.encode())
        for source in (path, raw):
            with pytest.raises(DataError) as exc:
                load_table_data(new_database(ADVERSARIAL), "A", source)
            assert str(exc.value) == f"table A: {message}"

    @pytest.mark.parametrize("cell,reason", [('"a"b', "text after a closing quote"),
                                             ('"a', "quote not closed at the end of the input")])
    def test_malformed_quoting_past_the_first_chunk(self, cell, reason):
        raw = HEADER_A + ROW_A * 20000 + row_a(S=cell)
        with pytest.raises(DataError, match=rf"^table A: row 20001: {reason}$"):
            load_table_data(new_database(ADVERSARIAL), "A", raw)

    def test_a_quote_inside_an_unquoted_cell_is_text(self, chunk_rows):
        cells = ['a"b', '5"', 'x""y', 'a"b"', '"a"']
        raw = HEADER_A + "".join(row_a(S=c) for c in cells[:-1]) + row_a(S='"""a"""')
        factory = lambda: new_database(ADVERSARIAL)  # noqa: E731
        assert load_raw(factory, "A", raw)[1] == reference_outcome(factory, "A", raw)
        db = new_database(ADVERSARIAL)
        load_table_data(db, "A", raw)
        assert db.table("A").column("S").to_pylist() == cells

    @pytest.mark.parametrize("source", ["file", "text"])
    def test_a_header_quote_left_open_costs_linear_time(self, source, tmp_path):
        # Every record after the open quote is inside it; the header is
        # read in reads that double, so the tokenizer runs a few times.
        raw = '"I,F,B,T,S,N\n' + ROW_A * 20000
        path = tmp_path / "a.csv"
        path.write_bytes(raw.encode())
        with mock.patch.object(store, "_tokenize", wraps=store._tokenize) as tokenize:
            with pytest.raises(DataError, match=r"^table A: header: quote not closed at the end of the input$"):
                load_table_data(new_database(ADVERSARIAL), "A", path if source == "file" else raw)
        assert tokenize.call_count <= 2 + math.log2(len(raw))

    def test_malformed_quoting_is_reported_before_bytes_that_are_not_utf8(self, chunk_rows, tmp_path):
        path = tmp_path / "a.csv"
        bad = (HEADER_A + ROW_A + row_a(S="\0")).encode()
        for raw, message in (
            (bad.replace(b"\0", b'"a"b\xff'), "row 2: text after a closing quote"),
            (bad.replace(b"Z,\0", b'Z\xff,"a"b'), "row 2: text after a closing quote"),
            # Quotes in an unquoted cell are text.
            (bad.replace(b"\0", b'\xff"a"b'), "row 2: text is not UTF-8"),
            (bad.replace(b"\0", b'"\xff'), "row 2: quote not closed at the end of the input"),
            # The first error in row order still wins.
            (bad.replace(b"\0", b"\xff") + row_a(S='"a"b').encode(), "row 2: text is not UTF-8"),
            (bad.replace(b"\0", b'"a"b') + row_a(S="\0").encode().replace(b"\0", b"\xff"),
             "row 2: text after a closing quote"),
        ):
            path.write_bytes(raw)
            with pytest.raises(DataError) as exc:
                load_table_data(new_database(ADVERSARIAL), "A", path)
            assert str(exc.value) == f"table A: {message}"

    def test_empty_file_needs_a_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(b"")
        with pytest.raises(DataError, match=r"^table P: empty input, header row required$"):
            load_table_data(new_database(ADVERSARIAL), "P", path)

    def test_undecodable_file_fails_as_the_csv_path_does(self, tmp_path):
        path = tmp_path / "sp.csv"
        path.write_bytes(b"ID\na\n\xff\n")
        with pytest.raises(DataError, match=r"^table SP: row 2: text is not UTF-8$"):
            load_table_data(new_database(ADVERSARIAL), "SP", path)
        path.write_bytes(b"I\xffD\na\n")
        with pytest.raises(DataError, match=r"^table SP: header: text is not UTF-8$"):
            load_table_data(new_database(ADVERSARIAL), "SP", path)

    def test_unquoted_files_take_the_byte_path(self, chunk_rows, tmp_path):
        rows = [row_a(I=str(i), S=f"s{i}é" * (i % 3)) for i in range(50)]
        path = tmp_path / "a.csv"
        path.write_text(HEADER_A + "".join(rows), encoding="utf-8")
        reference = load_raw(lambda: new_database(ADVERSARIAL), "A", path.read_text())[0]
        assert load_source(lambda: new_database(ADVERSARIAL), "A", path) == reference

    def test_non_canonical_cells_are_read_in_place(self, chunk_rows, tmp_path):
        raw = (HEADER_A + row_a(I=" 7", F="1E5", B="TRUE", T="2024-01-01") + ROW_A
               + row_a(F="nan", T="2024-01-01 09:16:37") + ROW_A)
        reference = load_raw(lambda: new_database(ADVERSARIAL), "A", raw)[0]
        assert reference[0] == "ok"
        path = tmp_path / "a.csv"
        path.write_bytes(raw.encode())
        for source in (path, raw):
            assert load_source(lambda: new_database(ADVERSARIAL), "A", source) == reference

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False).map(repr),
                st.integers(-(10**20), 10**20).map(str),
                st.decimals(allow_nan=False, allow_infinity=False, places=4).map(str),
                st.from_regex(r"-?[0-9]{1,20}(\.[0-9]{1,25})?(e[+-]?[0-9]{1,3})?", fullmatch=True),
            ),
            min_size=1,
            max_size=20,
        )
    )
    # Past float64's range: a float cell reads +-inf, with no overflow warning.
    @example(["1e400"])
    @example(["-20000.1e320", "20000.1e320", "1.5"])
    def test_numeric_cells_read_as_parse_cell_reads_them(self, cells):
        for dtype in (store.DataType.INT64, store.DataType.FLOAT64):
            cdef = store.ColumnDef("X", dtype, store.SemanticType.NUMERICAL)
            expected = []
            for cell in cells:
                try:
                    expected.append(_parse_cell(cell, dtype))
                except (ValueError, OverflowError):
                    expected.append("error")
            buf = np.frombuffer("".join(c + "\n" for c in cells).encode(), dtype=np.uint8)
            ends = np.flatnonzero(buf == ord("\n"))
            starts = np.concatenate(([0], ends[:-1] + 1))
            try:
                texts = np.array(cells, dtype=object).__getitem__
                values, null = store._convert_cells(cdef, buf, starts, ends, texts)
            except store._CellError as err:
                assert expected[err.offset] == "error"
                assert "error" not in expected[: err.offset]
                continue
            got = [None if n else v for v, n in zip(values.tolist(), null.tolist())]
            assert repr(got) == repr(expected)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(TEXT_CELLS, TEXT_CELLS), max_size=6), st.sampled_from([1, 2, 3, 16384]))
    def test_text_cells_round_trip(self, cells, chunk):
        """Text written by `write_csv` and by the csv module (minimal
        quoting and quoting all), with LF and CRLF record ends, loads from a
        file and from text as the csv module reads it. The minimal writer
        leaves a carriage return unquoted under LF record ends, where the
        csv module reads it as a record end, and `write_csv`'s file with
        every line feed made CRLF holds cells that changed: those two only
        match the reference; the others also give back the cells."""
        header = ["ID", "A", "B"]
        rows = [[str(i), a, b] for i, (a, b) in enumerate(cells, start=1)]
        written = {}
        for ends in ("\n", "\r\n"):
            for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
                buf = io.StringIO(newline="")
                csv.writer(buf, lineterminator=ends, quoting=quoting).writerows([header] + rows)
                written[ends, quoting] = buf.getvalue().encode()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.csv"
            ids = list(range(1, len(rows) + 1))
            texts = [(store.DataType.STRING, [row[j] for row in rows], None) for j in (1, 2)]
            store.write_csv(path, header, [(store.DataType.INT64, ids, None), *texts])
            written["write_csv"] = path.read_bytes()
            written["write_csv", "\r\n"] = written["write_csv"].replace(b"\n", b"\r\n")
            expected = {"ID": ids, "A": [a or None for a, _ in cells],
                        "B": [b or None for _, b in cells]}
            factory = lambda: new_database(TEXT_SCHEMA)  # noqa: E731
            with mock.patch.object(store, "_CHUNK_ROWS", chunk):
                for kind, raw in written.items():
                    path.write_bytes(raw)
                    text = raw.decode()
                    reference = reference_outcome(factory, "X", text)
                    assert load_source(factory, "X", path) == load_source(factory, "X", text) == reference, kind
                    if kind not in {("\n", csv.QUOTE_MINIMAL), ("write_csv", "\r\n")}:
                        assert reference == ("ok", repr(expected), (0, [])), kind

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_databases_round_trip_byte_identically(self, seed):
        schema = random_schema(seed)
        db = random_database(seed, schema, scale=1.0 + seed % 3)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a", Path(tmp) / "b"
            store.save_database(db, first)
            again = store.load_database(first / "schema.json", first)
            store.save_database(again, second)
            for path in sorted(first.iterdir()):
                assert path.read_bytes() == (second / path.name).read_bytes(), path.name


class TestForeignKeysResolvedOnce:
    def count_resolutions(self, monkeypatch):
        calls = []
        real = store._resolve_fk

        def counting(fkcol, parent):
            calls.append(parent)
            return real(fkcol, parent)

        monkeypatch.setattr(store, "_resolve_fk", counting)
        return calls

    def test_load_and_row_graph_resolve_each_key_once(self, retail_schema, tmp_path, monkeypatch):
        store.save_database(build_toy_db(retail_schema), tmp_path)
        calls = self.count_resolutions(monkeypatch)
        db = store.load_database(tmp_path / "schema.json", tmp_path)
        graph = build_row_graph(db)
        assert len(retail_schema.edges()) == 3
        for edge in retail_schema.edges():
            fkcol = db.table(edge.child_table).column(edge.fk_column)
            graph.edge_index(edge)
            assert graph.forward(edge).tolist() == real_forward(fkcol, db.table(edge.parent_table))
            assert graph.forward(edge) is db.table(edge.child_table).fk_forward[edge.fk_column]
        assert len(calls) == 3

    def test_reloaded_parent_rebuilds_the_edges(self, monkeypatch):
        db = new_database(ADVERSARIAL)
        load_table_data(db, "P", csv_text(["ID"], [["10"], ["-3"], ["30"]]))
        load_table_data(db, "C", csv_text(["ID", "P1", "P2"], [["1", "10", "30"], ["2", "30", ""]]))
        calls = self.count_resolutions(monkeypatch)
        load_table_data(db, "P", csv_text(["ID"], [["30"], ["7"], ["10"], ["-3"]]))
        graph = build_row_graph(db)
        p1, p2 = FkEdge("C", "P1", "P"), FkEdge("C", "P2", "P")
        graph.edge_index(p1), graph.edge_index(p2)
        # Both edges into the reloaded P resolve again, against the new P;
        # the edges of the empty SC table are not asked for.
        assert [parent.definition.name for parent in calls].count("P") == 2
        assert all(parent is db.table(parent.definition.name) for parent in calls)
        assert graph.forward(p1).tolist() == [2, 0]
        assert graph.forward(p2).tolist() == [0, -1]


def real_forward(fkcol, parent):
    index = parent.pk_index
    return [-1 if v is None else index.get(v, -1) for v in fkcol.to_pylist()]


INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def parent_keys(draw):
    """Distinct int64 keys in one of the layouts `_resolve_fk` tells apart."""
    n = draw(st.integers(1, 12))
    layout = draw(st.sampled_from(["dense from 0", "dense", "sparse", "shuffled"]))
    if layout == "dense from 0":
        return list(range(n))
    if layout == "dense":
        first = draw(st.sampled_from([-(2**63), 2**63 - n]) | st.integers(-(2**63), 2**63 - n))
        return list(range(first, first + n))
    keys = sorted(draw(st.sets(INT64, min_size=n, max_size=n)))
    return keys if layout == "sparse" else draw(st.permutations(keys))


@st.composite
def keys_and_references(draw):
    """Parent keys, then child keys with nulls: parent keys, keys just past
    either end, int64's ends and any int64."""
    keys = draw(parent_keys())
    near = [keys[0] - 1, keys[-1] + 1, min(keys) - 1, max(keys) + 1, -(2**63), 2**63 - 1]
    near = [k for k in near if -(2**63) <= k < 2**63]
    cells = st.sampled_from(keys) | st.sampled_from(near) | INT64
    fks = draw(st.lists(st.tuples(cells, st.booleans()), min_size=1, max_size=20))
    return keys, fks


def int_parent(keys):
    tdef = ADVERSARIAL.table("P")
    values = np.array(keys, dtype=np.int64)
    return store.TableData(tdef, {"ID": store.Column(store.DataType.INT64, values, np.zeros(len(keys), dtype=bool))}, len(keys))


class TestDenseKeys:
    @settings(max_examples=300, deadline=None)
    @given(keys_and_references())
    @example(([2**63 - 2, 2**63 - 1], [(2**63 - 1, False), (-(2**63), False), (2**63 - 2, True)]))
    @example(([-(2**63), -(2**63) + 1], [(-(2**63), False), (2**63 - 1, False), (-(2**63) + 2, False)]))
    @example(([-(2**63), 2**63 - 1], [(2**63 - 1, False), (0, False)]))
    def test_resolve_fk_equals_a_dict_lookup(self, case):
        keys, fks = case
        fkcol = store.Column(
            store.DataType.INT64, np.array([v for v, _ in fks], dtype=np.int64), np.array([null for _, null in fks])
        )
        index = {key: row for row, key in enumerate(keys)}
        want = [-1 if null else index.get(v, -1) for v, null in fks]
        assert store._resolve_fk(fkcol, int_parent(keys)).tolist() == want

    def record(self, monkeypatch):
        """Record the sorted searches `_resolve_fk` runs and the sets
        `_check_primary_key` builds, by table."""
        calls = []

        def recording(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return call

        resolve, check = store._resolve_fk, store._check_primary_key

        def resolving(fkcol, parent):
            calls.append(("resolve", parent.definition.name))
            with mock.patch.object(np, "argsort", recording("argsort", np.argsort)), mock.patch.object(
                np, "searchsorted", recording("searchsorted", np.searchsorted)
            ):
                return resolve(fkcol, parent)

        def checking(tdef, col):
            calls.append(("check", tdef.name))
            with mock.patch.object(store, "set", recording("set", set), create=True):
                return check(tdef, col)

        monkeypatch.setattr(store, "_resolve_fk", resolving)
        monkeypatch.setattr(store, "_check_primary_key", checking)
        return calls

    def test_the_template_keys_need_no_set_and_no_search(self, tmp_path, monkeypatch):
        store.save_database(generate(hm_genspec(scale=0.0005, seed=3)), tmp_path)
        calls = self.record(monkeypatch)
        db = store.load_database(tmp_path / "schema.json", tmp_path)
        assert calls == [
            ("check", "ARTICLES"),
            ("check", "CUSTOMERS"),
            ("resolve", "CUSTOMERS"),  # NOTIFICATIONS, which has no primary key
            ("check", "TRANSACTIONS"), ("resolve", "CUSTOMERS"), ("resolve", "ARTICLES"),
        ]
        for edge in db.schema.edges():
            fkcol = db.table(edge.child_table).column(edge.fk_column)
            assert build_row_graph(db).forward(edge).tolist() == real_forward(fkcol, db.table(edge.parent_table))

    def test_other_keys_take_the_set_and_the_search(self, monkeypatch):
        db = new_database(ADVERSARIAL)
        calls = self.record(monkeypatch)
        load_table_data(db, "P", csv_text(["ID"], [["10"], ["-3"], ["30"]]))
        load_table_data(db, "C", csv_text(["ID", "P1", "P2"], [["1", "10", "30"], ["2", "30", ""]]))
        assert calls == [
            ("check", "P"), "set",
            ("check", "C"),
            ("resolve", "P"), "argsort", "searchsorted",
            ("resolve", "P"), "argsort", "searchsorted",
        ]
        assert db.table("C").fk_forward["P1"].tolist() == [0, 2]

    def test_keys_dense_from_an_offset_resolve_by_it(self):
        db = new_database(ADVERSARIAL)
        load_table_data(db, "P", csv_text(["ID"], [["-2"], ["-1"], ["0"], ["1"]]))
        load_table_data(db, "C", csv_text(["ID", "P1", "P2"], [["5", "1", ""], ["7", "-2", "2"]]), strict=False)
        assert db.table("C").fk_forward["P1"].tolist() == [3, 0]
        assert db.table("C").fk_forward["P2"].tolist() == [-1, -1]
        assert db.reports[-1].dangling_fk == 1

