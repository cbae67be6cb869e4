"""Relational store: schema validation, CSV loading, row graph, windows."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import SCHEMA_DOCS
from conftest import TRANSACTIONS_CSV, build_toy_db

from pql.ast import TimeUnit, Window
from pql.binder import bind
from pql.errors import DataError, ExecutionError, SchemaError
from pql.kernels import VecCtx, gather_children
from pql.parser import parse
from pql.store import (
    FkEdge,
    RowRef,
    build_row_graph,
    load_schema,
    load_table_data,
    new_database,
    save_table_csv,
)
from pql.times import MICROS_PER_DAY, MICROS_PER_SECOND, parse_timestamp

T = parse_timestamp
RETAIL = load_schema(SCHEMA_DOCS["retail"])
# COUNT(TRANSACTIONS.*) grouped by customer, along TRANSACTIONS.CUSTOMER_ID;
# the tests below give it the windows they need.
TX_COUNT = bind(parse("PREDICT COUNT(TRANSACTIONS.*) FOR EACH CUSTOMERS.CUSTOMER_ID"), RETAIL).target
FAR_FUTURE = T("2100-01-01")


def all_children(g, parent):
    """Every child row of one customer, in CSR order (restricted gather)."""
    return gather_children(VecCtx(g.db, g), TX_COUNT, np.array([parent]), None).child_rows.tolist()


def children_in_window(g, parent, lo, hi):
    """Dated children of one customer with lo <= time < hi, in time order,
    through a restricted windowed gather. `lo` None is an unbounded past;
    hi - lo must be whole seconds."""
    start = None if lo is None else -((hi - lo) // MICROS_PER_SECOND)
    agg = replace(TX_COUNT, window=Window(start, 0, TimeUnit.SECONDS))
    return gather_children(VecCtx(g.db, g), agg, np.array([parent]), hi).child_rows.tolist()


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


class TestLoadData:
    def test_row_counts(self, toy_db):
        assert toy_db.nrows("CUSTOMERS") == 3
        assert toy_db.nrows("TRANSACTIONS") == 8
        assert toy_db.total_rows() == 16

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
        gathered = gather_children(VecCtx(toy_graph.db, toy_graph), count, np.array([2]), None)
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
            evaluate_pairs(toy_graph.db, toy_graph, b, pairs)
        with pytest.raises(DataError, match="no such foreign-key edge"):
            toy_graph.edge_index(FkEdge("ARTICLES", "CUSTOMER_ID", "CUSTOMERS"))

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


class TestCsvRoundTrip:
    def test_save_load_keeps_string_cells(self, retail_schema, tmp_path):
        import csv
        import io

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

        for source in (path, path.read_bytes().decode()):
            again = new_database(retail_schema)
            load_table_data(again, "CUSTOMERS", source)
            table = again.table("CUSTOMERS")
            assert table.nrows == len(awkward)
            assert table.column("LOCATION_ID").to_pylist() == awkward
            assert table.column("MEMBERSHIP_TYPE").to_pylist() == awkward
