"""Subgraph sampler: collection contents, path equivalence, proportional work."""

import random
import re

import pytest

from corpus import CORPUS_BY_NAME, schema

from pql.binder import bind
from pql.engine import evaluate_pairs, materialize_training
from pql.errors import ExecutionError
from pql.oracle import oracle_touches, oracle_training
from pql.parser import parse
from pql.planner import AnchorPolicy, plan_training, resolve_anchors
from pql.sampler import build_request, collect, compute_on_subgraph, sample_pairs
from pql.store import FkEdge, RowRef, build_row_graph, load_schema, load_table_data, new_database
from pql.synth import GenSpec, generate, random_database, random_query, random_schema
from pql.times import MICROS_PER_DAY, parse_timestamp

ANCHOR = parse_timestamp("2024-01-01")


def bind_text(text, key="retail"):
    return bind(parse(text), schema(key))


class TestCollect:
    def test_one_hop_window(self, toy_db, toy_graph):
        b = bind_text("PREDICT COUNT(TRANSACTIONS.*, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID")
        pairs = [(RowRef("CUSTOMERS", 0), ANCHOR)]
        sub = collect(toy_graph, build_request(b, pairs))
        assert sub.rows["CUSTOMERS"].tolist() == [0]
        assert sub.rows["TRANSACTIONS"].tolist() == [0, 1]  # only the window rows
        assert "ARTICLES" not in sub.rows

    def test_filter_hops_pull_parent_rows(self, toy_db, toy_graph):
        b = bind_text(CORPUS_BY_NAME["blue_articles"].text)
        pairs = [(RowRef("CUSTOMERS", 1), ANCHOR)]
        sub = collect(toy_graph, build_request(b, pairs))
        assert sub.rows["TRANSACTIONS"].tolist() == [3, 4, 5]
        assert sub.rows["ARTICLES"].tolist() == [0, 1, 2]  # parents of those rows

    @pytest.mark.parametrize(
        "ref,anchor",
        [(RowRef("CUSTOMERS", -1), ANCHOR), (RowRef("CUSTOMERS", 3), ANCHOR),
         (RowRef("TRANSACTIONS", -1), None), (RowRef("TRANSACTIONS", 8), None)],
    )
    def test_pair_row_outside_the_table_is_refused(self, toy_db, toy_graph, ref, anchor):
        temporal = "PREDICT COUNT(TRANSACTIONS.*, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID"
        static = "PREDICT TRANSACTIONS.VALUE FOR EACH TRANSACTIONS.TRANSACTION_ID"
        b = bind_text(static if anchor is None else temporal)
        message = f"^pair entity {re.escape(repr(ref))} is outside the {toy_db.nrows(ref.table)} rows of {ref.table}$"
        with pytest.raises(ExecutionError, match=message):
            collect(toy_graph, build_request(b, [(RowRef(ref.table, 0), anchor), (ref, anchor)]))

    @pytest.mark.parametrize("seed", range(30))
    def test_equals_oracle_touch_set(self, seed):
        sch = random_schema(seed % 10)
        db = random_database(seed, sch)
        g = build_row_graph(db)
        b = bind(random_query(seed * 13 + 2, sch), sch)
        anchors = resolve_anchors(b, AnchorPolicy(count=3), db)
        alist = [None] if b.is_static else anchors
        if not alist or not db.nrows(b.entity_table):
            return
        rnd = random.Random(seed)
        pairs = list(
            dict.fromkeys(
                (RowRef(b.entity_table, rnd.randrange(db.nrows(b.entity_table))), rnd.choice(alist))
                for _ in range(10)
            )
        )
        sub = collect(g, build_request(b, pairs))
        got = {RowRef(t, int(i)) for t, arr in sub.rows.items() for i in arr}
        want = set()
        for ref, anchor in pairs:
            want |= oracle_touches(b, db, ref.index, anchor)[0]
        assert got == want


class TestComputeOnSubgraph:
    def test_empty_pairs(self, toy_db, toy_graph):
        b = bind_text(CORPUS_BY_NAME["next_month_spend"].text)
        sub = collect(toy_graph, build_request(b, []))
        table = compute_on_subgraph(b, sub, [])
        assert table.rows == []

    def test_matches_pairwise_on_full_database(self, toy_db, toy_graph):
        b = bind_text(CORPUS_BY_NAME["active_spender_notified"].text)
        anchors = [ANCHOR, ANCHOR - 20 * MICROS_PER_DAY]
        pairs = [(RowRef("CUSTOMERS", i), a) for i in range(3) for a in anchors]
        sub = collect(toy_graph, build_request(b, pairs))
        got = compute_on_subgraph(b, sub, pairs, anchors_for_split=anchors)
        want = evaluate_pairs(toy_db, toy_graph, b, pairs, anchors_for_split=anchors)
        assert got.rows == want.rows

    def test_uncollected_entity_is_refused(self, toy_db, toy_graph):
        b = bind_text(CORPUS_BY_NAME["next_month_spend"].text)
        collected = [(RowRef("CUSTOMERS", 0), ANCHOR)]
        sub = collect(toy_graph, build_request(b, collected))
        assert len(compute_on_subgraph(b, sub, collected).rows) == 1
        with pytest.raises(ExecutionError, match="CUSTOMERS.*was not collected"):
            compute_on_subgraph(b, sub, collected + [(RowRef("CUSTOMERS", 1), ANCHOR)])

    @pytest.mark.parametrize("seed", range(40))
    def test_differential_against_batch(self, seed):
        sch = random_schema(seed % 14)
        db = random_database(seed, sch)
        g = build_row_graph(db)
        b = bind(random_query(seed * 17 + 9, sch), sch)
        policy = AnchorPolicy(count=3)
        anchors = resolve_anchors(b, policy, db)
        batch = materialize_training(plan_training(b, policy), db, g)
        alist = [None] if b.is_static else anchors
        if not alist or not db.nrows(b.entity_table):
            return
        rnd = random.Random(seed + 999)
        pairs = list(
            dict.fromkeys(
                (RowRef(b.entity_table, rnd.randrange(db.nrows(b.entity_table))), rnd.choice(alist))
                for _ in range(12)
            )
        )
        sub = collect(g, build_request(b, pairs))
        got = compute_on_subgraph(b, sub, pairs, anchors_for_split=anchors)
        pk = db.table(b.entity_table).column(db.table(b.entity_table).definition.primary_key)
        requested = {(pk.get(ref.index), a) for ref, a in pairs}
        restricted = [r for r in batch.rows if (r[0], r[1]) in requested]
        assert got.rows == restricted
        # The sampler and the batch engine share the kernels; the oracle is
        # the independent reference for the sampler's rows.
        oracle = oracle_training(b, db, anchors)
        assert got.rows == [r for r in oracle.rows if (r[0], r[1]) in requested]


class TestSamplePairs:
    def test_most_recently_active_first(self, toy_db, toy_graph):
        b = bind_text(CORPUS_BY_NAME["next_month_spend"].text)
        pairs = sample_pairs(toy_db, toy_graph, b, 2, anchor=parse_timestamp("2024-03-01"))
        # customer 1 has the newest transaction (Feb 10), then customer 2 (Jan 20)
        assert [p[0].index for p in pairs] == [0, 1]

    def test_inactive_entities_excluded(self, toy_db, toy_graph):
        b = bind_text(CORPUS_BY_NAME["next_month_spend"].text)
        pairs = sample_pairs(toy_db, toy_graph, b, 10, anchor=parse_timestamp("2023-12-01"))
        assert [p[0].index for p in pairs] == []  # nobody active before December

    def test_default_anchor_comes_from_the_default_grid(self, toy_db, toy_graph):
        b = bind_text("PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID")
        newest = resolve_anchors(b, AnchorPolicy(), toy_db)[0]
        assert {anchor for _, anchor in sample_pairs(toy_db, toy_graph, b, 3)} == {newest}
        # A window longer than the data leaves the grid empty, as in training.
        b = bind_text("PREDICT COUNT(TRANSACTIONS.*, 0, 400, days) FOR EACH CUSTOMERS.CUSTOMER_ID")
        with pytest.raises(ExecutionError, match="^no feasible anchors"):
            sample_pairs(toy_db, toy_graph, b, 3)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_a_scan_of_child_times(self, seed):
        # Transactions and notifications both lead into customers; the
        # generator leaves some event times null.
        db = generate(GenSpec(seed=seed, customers=300, articles=20, transactions=3000,
                              notifications=600))
        g = build_row_graph(db)
        b = bind(parse(CORPUS_BY_NAME["active_spender_notified"].text), db.schema)
        pk = db.table("CUSTOMERS").column("CUSTOMER_ID")
        rnd = random.Random(seed)
        times = db.table("TRANSACTIONS").column("TIMESTAMP")
        dated = times.values[~times.null].tolist()
        for anchor in [min(dated), max(dated) + 1, *rnd.sample(dated, 6)]:
            # The newest dated child strictly before the anchor, per customer.
            latest = {}
            for table, tcol in (("TRANSACTIONS", "TIMESTAMP"), ("NOTIFICATIONS", "TIME_SENT")):
                data = db.table(table)
                forward = g.edge_index(FkEdge(table, "CUSTOMER_ID", "CUSTOMERS")).forward
                col = data.column(tcol)
                for row in range(data.nrows):
                    t = col.get(row)
                    if forward[row] >= 0 and t is not None and t < anchor:
                        latest[int(forward[row])] = max(latest.get(int(forward[row]), t), t)
            want = sorted(latest, key=lambda i: (-latest[i], pk.get(i)))
            for n in (len(want) + 5, 7):
                got = sample_pairs(db, g, b, n, anchor=anchor)
                assert [ref.index for ref, _ in got] == want[:n]
                assert {a for _, a in got} <= {anchor}

    @pytest.mark.parametrize(
        "keys",
        [["b", "a", "\u00e9", "B", "a2", "\u4e2d", "z", "A b"],
         [2**63 - 1, -(2**63), 0, -1, 1, 2**62, -(2**62), 7]],
        ids=["string", "int64_extremes"],
    )
    def test_order_is_newest_first_then_key(self, keys):
        # Days of each customer's events: ties on the newest day, an older
        # event under a newer one, no events, and only an event at the anchor.
        days = [[3], [1], [3, 1], [2], [1], [3], [], [4]]
        dtype = "string" if isinstance(keys[0], str) else "int64"
        db = new_database(load_schema({"tables": [
            {"name": "C", "columns": [{"name": "ID", "dtype": dtype, "stype": "key"}], "primary_key": "ID"},
            {"name": "E", "columns": [{"name": "EV_ID", "dtype": "int64", "stype": "key"},
                                      {"name": "C_ID", "dtype": dtype, "stype": "key"},
                                      {"name": "T", "dtype": "timestamp", "stype": "temporal"}],
             "primary_key": "EV_ID", "time_column": "T",
             "foreign_keys": [{"column": "C_ID", "references": "C"}]},
        ]}))
        load_table_data(db, "C", "ID\n" + "".join(f"{k}\n" for k in keys))
        events = [(k, d) for k, ds in zip(keys, days) for d in ds]
        load_table_data(db, "E", "EV_ID,C_ID,T\n" + "".join(
            f"{i},{k},2024-01-0{d}\n" for i, (k, d) in enumerate(reversed(events))))
        g = build_row_graph(db)
        b = bind(parse("PREDICT COUNT(E.*, 0, 7, days) FOR EACH C.ID"), db.schema)
        anchor = parse_timestamp("2024-01-04")
        latest = {i: max(ds) for i, ds in enumerate(days) if ds and min(ds) < 4}
        want = sorted(latest, key=lambda i: (-latest[i], keys[i]))
        assert len(want) == 6
        for n in (len(want) + 2, 3, 0):
            got = sample_pairs(db, g, b, n, anchor=anchor)
            assert [ref.index for ref, _ in got] == want[:n]
            assert {a for _, a in got} <= {anchor}

    def test_work_proportional_to_pairs(self):
        db = generate(GenSpec(seed=11, customers=2000, articles=50, transactions=40000,
                              notifications=100))
        g = build_row_graph(db)
        b = bind(parse("PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID"),
                 db.schema)
        pairs = sample_pairs(db, g, b, 20)
        sub = collect(g, build_request(b, pairs))
        assert sub.touched_rows < 0.05 * db.total_rows()
