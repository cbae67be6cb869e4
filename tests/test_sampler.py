"""Subgraph sampler: collection contents, path equivalence, proportional work."""

import functools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TRANSACTIONS_CSV, build_toy_db
from corpus import CORPUS_BY_NAME, schema

from pql.binder import bind, iter_bound_aggregations
from pql.bench import run_bench
from pql.engine import evaluate_pairs, materialize_training
from pql.errors import ExecutionError, PlanError
from pql.oracle import oracle_touches, oracle_training
from pql.parser import parse
from pql.planner import AnchorPolicy, plan_training, resolve_anchors
from pql.sampler import build_request, collect, compute_on_subgraph, sample_pairs
from pql.store import RowRef, load_schema, load_table_data, new_database
from pql.synth import GenSpec, generate, hm_genspec, random_database, random_query, random_schema
from pql.times import MICROS_PER_DAY, parse_timestamp

ANCHOR = parse_timestamp("2024-01-01")
# Seeds whose `random_query` over `random_schema` of the same seed is temporal.
TEMPORAL_SEEDS = [seed for seed in range(60) if not bind(random_query(seed * 7 + 1, random_schema(seed)),
                                                         random_schema(seed)).is_static]


def bind_text(text, key="retail"):
    return bind(parse(text), schema(key))


class TestBuildRequest:
    QUERY = "PREDICT COUNT(TRANSACTIONS.*, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID"

    def test_upper_case_pairs_are_kept(self):
        pairs = [(RowRef("CUSTOMERS", 2), ANCHOR), (RowRef("CUSTOMERS", 0), None)]
        request = build_request(bind_text(self.QUERY), pairs)
        assert request.pairs == tuple(pairs)
        assert all(got is want for got, want in zip(request.pairs, pairs))

    def test_other_table_names_are_upper_cased(self):
        pairs = [(RowRef("CUSTOMERS", 2), ANCHOR), (RowRef("customers", 0), ANCHOR), (RowRef("Customers", 1), None)]
        request = build_request(bind_text(self.QUERY), pairs)
        assert request.pairs == (
            (RowRef("CUSTOMERS", 2), ANCHOR), (RowRef("CUSTOMERS", 0), ANCHOR), (RowRef("CUSTOMERS", 1), None)
        )
        assert all(type(ref) is RowRef for ref, _ in request.pairs)


class TestCollect:
    def test_one_hop_window(self, toy_db):
        b = bind_text("PREDICT COUNT(TRANSACTIONS.*, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID")
        pairs = [(RowRef("CUSTOMERS", 0), ANCHOR)]
        sub = collect(toy_db, build_request(b, pairs))
        assert sub.rows["CUSTOMERS"].tolist() == [0]
        assert sub.rows["TRANSACTIONS"].tolist() == [0, 1]  # only the window rows
        assert "ARTICLES" not in sub.rows

    def test_filter_hops_pull_parent_rows(self, toy_db):
        b = bind_text(CORPUS_BY_NAME["blue_articles"].text)
        pairs = [(RowRef("CUSTOMERS", 1), ANCHOR)]
        sub = collect(toy_db, build_request(b, pairs))
        assert sub.rows["TRANSACTIONS"].tolist() == [3, 4, 5]
        assert sub.rows["ARTICLES"].tolist() == [0, 1, 2]  # parents of those rows

    @pytest.mark.parametrize(
        "ref,anchor",
        [(RowRef("CUSTOMERS", -1), ANCHOR), (RowRef("CUSTOMERS", 3), ANCHOR),
         (RowRef("TRANSACTIONS", -1), None), (RowRef("TRANSACTIONS", 8), None)],
    )
    def test_pair_row_outside_the_table_is_refused(self, toy_db, ref, anchor):
        temporal = "PREDICT COUNT(TRANSACTIONS.*, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID"
        static = "PREDICT TRANSACTIONS.VALUE FOR EACH TRANSACTIONS.TRANSACTION_ID"
        b = bind_text(static if anchor is None else temporal)
        message = f"^pair entity {re.escape(repr(ref))} is outside the {toy_db.nrows(ref.table)} rows of {ref.table}$"
        with pytest.raises(ExecutionError, match=message):
            collect(toy_db, build_request(b, [(RowRef(ref.table, 0), anchor), (ref, anchor)]))

    @pytest.mark.parametrize("seed", range(30))
    def test_equals_oracle_touch_set(self, seed):
        sch = random_schema(seed % 10)
        db = random_database(seed, sch)
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
        sub = collect(db, build_request(b, pairs))
        got = {RowRef(t, int(i)) for t, arr in sub.rows.items() for i in arr}
        want = set()
        for ref, anchor in pairs:
            want |= oracle_touches(b, db, ref.index, anchor)[0]
        assert got == want


class TestComputeOnSubgraph:
    def test_empty_pairs(self, toy_db):
        b = bind_text(CORPUS_BY_NAME["next_month_spend"].text)
        sub = collect(toy_db, build_request(b, []))
        table = compute_on_subgraph(b, sub, [])
        assert table.rows == []

    def test_matches_pairwise_on_full_database(self, toy_db):
        b = bind_text(CORPUS_BY_NAME["active_spender_notified"].text)
        anchors = [ANCHOR, ANCHOR - 20 * MICROS_PER_DAY]
        pairs = [(RowRef("CUSTOMERS", i), a) for i in range(3) for a in anchors]
        sub = collect(toy_db, build_request(b, pairs))
        got = compute_on_subgraph(b, sub, pairs, anchors_for_split=anchors)
        want = evaluate_pairs(toy_db, b, pairs, anchors_for_split=anchors)
        assert got.rows == want.rows

    def test_uncollected_entity_is_refused(self, toy_db):
        b = bind_text(CORPUS_BY_NAME["next_month_spend"].text)
        collected = [(RowRef("CUSTOMERS", 0), ANCHOR)]
        sub = collect(toy_db, build_request(b, collected))
        assert len(compute_on_subgraph(b, sub, collected).rows) == 1
        # The first uncollected pair in input order is named, though the
        # distinct pairs are checked in row order.
        uncollected = [(RowRef("CUSTOMERS", 2), ANCHOR), (RowRef("CUSTOMERS", 1), ANCHOR)]
        with pytest.raises(ExecutionError, match=r"CUSTOMERS', index=2\).*was not collected"):
            compute_on_subgraph(b, sub, collected + uncollected)

    def test_a_database_reloaded_in_place_collects_the_reloaded_tables(self, retail_schema):
        """A database that collected before a reload in place collects what
        a fresh load of the same tables collects; a subgraph collected
        before the reload computes on the reloaded tables."""
        b = bind_text("PREDICT COUNT(TRANSACTIONS.*, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID")
        pairs = [(RowRef("CUSTOMERS", 0), ANCHOR)]
        db, fresh_db = build_toy_db(retail_schema), build_toy_db(retail_schema)
        sub = collect(db, build_request(b, pairs))
        assert compute_on_subgraph(b, sub, pairs).values.tolist() == [2]
        for d in (db, fresh_db):
            load_table_data(d, "TRANSACTIONS", TRANSACTIONS_CSV.splitlines()[0])
        assert compute_on_subgraph(b, sub, pairs).values.tolist() == [0]
        again, fresh = (collect(d, build_request(b, pairs)) for d in (db, fresh_db))
        assert {t: r.tolist() for t, r in again.rows.items()} == {t: r.tolist() for t, r in fresh.rows.items()}
        assert again.touched_rows == fresh.touched_rows == 1
        assert compute_on_subgraph(b, again, pairs).values.tolist() == [0]

    @pytest.mark.parametrize("seed", range(40))
    def test_differential_against_batch(self, seed):
        sch = random_schema(seed % 14)
        db = random_database(seed, sch)
        b = bind(random_query(seed * 17 + 9, sch), sch)
        policy = AnchorPolicy(count=3)
        anchors = resolve_anchors(b, policy, db)
        batch = materialize_training(plan_training(b, policy), db)
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
        sub = collect(db, build_request(b, pairs))
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
    def test_most_recently_active_first(self, toy_db):
        b = bind_text(CORPUS_BY_NAME["next_month_spend"].text)
        pairs = sample_pairs(toy_db, b, 2, anchor=parse_timestamp("2024-03-01"))
        # customer 1 has the newest transaction (Feb 10), then customer 2 (Jan 20)
        assert [p[0].index for p in pairs] == [0, 1]

    def test_inactive_entities_excluded(self, toy_db):
        b = bind_text(CORPUS_BY_NAME["next_month_spend"].text)
        pairs = sample_pairs(toy_db, b, 10, anchor=parse_timestamp("2023-12-01"))
        assert [p[0].index for p in pairs] == []  # nobody active before December

    def test_default_anchor_comes_from_the_default_grid(self, toy_db):
        b = bind_text("PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID")
        newest = resolve_anchors(b, AnchorPolicy(), toy_db)[0]
        assert {anchor for _, anchor in sample_pairs(toy_db, b, 3)} == {newest}
        # A window longer than the data leaves the grid empty, as in training.
        b = bind_text("PREDICT COUNT(TRANSACTIONS.*, 0, 400, days) FOR EACH CUSTOMERS.CUSTOMER_ID")
        with pytest.raises(ExecutionError, match="^no feasible anchors"):
            sample_pairs(toy_db, b, 3)

    @pytest.mark.parametrize("case", [*range(6), *(f"random-{seed}" for seed in TEMPORAL_SEEDS)])
    def test_matches_a_scan_of_child_times(self, case):
        if isinstance(case, int):
            # Transactions and notifications both lead into customers; the
            # generator leaves some event times null.
            db = generate(GenSpec(seed=case, customers=300, articles=20, transactions=3000,
                                  notifications=600))
            b = bind(parse(CORPUS_BY_NAME["active_spender_notified"].text), db.schema)
        else:
            seed = int(case.split("-")[1])
            sch = random_schema(seed)
            db = random_database(seed, sch, scale=1.0 + seed % 3)
            b = bind(random_query(seed * 7 + 1, sch), sch)
        pk = db.table(b.entity_table).column(db.table(b.entity_table).definition.primary_key)
        # Every edge the query's aggregations group into the entity table, with its child times.
        edges = {a.group_edge for part in b.parts for a in iter_bound_aggregations(part)
                 if a.group_edge.parent_table == b.entity_table}
        times = {e: db.table(e.child_table).column(db.table(e.child_table).definition.time_column) for e in edges}
        dated = sorted(t for col in times.values() for t, null in zip(col.values.tolist(), col.null) if not null)
        assert dated
        rnd = random.Random(str(case))
        for anchor in [min(dated), max(dated) + 1, *rnd.sample(dated, min(6, len(dated)))]:
            # The newest dated child strictly before the anchor, per entity.
            latest = {}
            for edge, col in times.items():
                forward = db.forward(edge)
                for row in range(db.nrows(edge.child_table)):
                    t = col.get(row)
                    if forward[row] >= 0 and t is not None and t < anchor:
                        latest[int(forward[row])] = max(latest.get(int(forward[row]), t), t)
            want = sorted(latest, key=lambda i: (-latest[i], pk.get(i)))
            for n in (len(want) + 5, len(want), 50, 7, 1, 0):
                got = sample_pairs(db, b, n, anchor=anchor)
                assert [ref.index for ref, _ in got] == want[:n]
                assert {a for _, a in got} <= {anchor}

    def test_a_negative_count_is_refused(self):
        db = generate(hm_genspec(scale=0.0005, seed=1))
        temporal = CORPUS_BY_NAME["next_month_spend"].text
        static = "PREDICT TRANSACTIONS.VALUE FOR EACH TRANSACTIONS.TRANSACTION_ID"
        for text in (temporal, static):
            b = bind(parse(text), db.schema)
            assert sample_pairs(db, b, 0) == []
            for n in (-1, -5):
                with pytest.raises(PlanError, match=f"^pair count must not be negative, got {n}$"):
                    sample_pairs(db, b, n)
        with pytest.raises(PlanError, match="^pair count must not be negative, got -3$"):
            run_bench(db, temporal, paths=["sampler"], runs=1, pairs=-3)

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
        b = bind(parse("PREDICT COUNT(E.*, 0, 7, days) FOR EACH C.ID"), db.schema)
        anchor = parse_timestamp("2024-01-04")
        latest = {i: max(ds) for i, ds in enumerate(days) if ds and min(ds) < 4}
        want = sorted(latest, key=lambda i: (-latest[i], keys[i]))
        assert len(want) == 6
        # Every n, so the cut falls inside each tie (days 3 and 1) and between them.
        for n in range(len(want) + 3):
            got = sample_pairs(db, b, n, anchor=anchor)
            assert [ref.index for ref, _ in got] == want[:n]
            assert {a for _, a in got} <= {anchor}

    def test_work_proportional_to_pairs(self):
        db = generate(GenSpec(seed=11, customers=2000, articles=50, transactions=40000,
                              notifications=100))
        b = bind(parse("PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID"),
                 db.schema)
        pairs = sample_pairs(db, b, 20)
        sub = collect(db, build_request(b, pairs))
        assert sub.touched_rows < 0.05 * db.total_rows()


# ---------------------------------------------------------------------------
# One block per request: pairs at several anchors run together


def assert_one_block_equals_per_anchor(db, b, policy, pairs, whole=False, batch=True):
    """Pairs at several anchors, evaluated and collected in one call, give
    the per-anchor calls concatenated newest anchor first, and (unless
    `batch` is false) the batch table restricted to those pairs. When
    `pairs` is every entity at every anchor, drops and pairs_expanded also
    equal the cross-product batch."""
    anchors = resolve_anchors(b, policy, db)
    newest_first = sorted({a for _, a in pairs}, reverse=True)
    per = [[p for p in pairs if p[1] == a] for a in newest_first]
    per_tables = [evaluate_pairs(db, b, part, anchors_for_split=anchors) for part in per]
    sub = collect(db, build_request(b, pairs))
    got = [evaluate_pairs(db, b, pairs, anchors_for_split=anchors),
           compute_on_subgraph(b, sub, pairs, anchors_for_split=anchors)]

    rows = [r for t in per_tables for r in t.rows]
    pk = db.table(b.entity_table).column(db.table(b.entity_table).definition.primary_key)
    requested = {(pk.get(ref.index), a) for ref, a in pairs}
    if batch:
        table = materialize_training(plan_training(b, policy), db)
        assert rows == [r for r in table.rows if (r[0], r[1]) in requested]
    causes = per_tables[0].metadata["dropped"]
    dropped = {c: sum(t.metadata["dropped"][c] for t in per_tables) for c in causes}
    expanded = sum(t.metadata["pairs_expanded"] for t in per_tables)
    assert expanded == len({(ref.index, a) for ref, a in pairs})
    if whole:
        naive = materialize_training(plan_training(b, policy, optimized=False), db).metadata
        assert (dropped, expanded) == (naive["dropped"], naive["pairs_expanded"])
    for table in got:
        assert table.rows == rows
        assert table.metadata["dropped"] == dropped
        assert table.metadata["pairs_expanded"] == expanded
        assert table.metadata["row_count"] == len(rows)

    subs = [collect(db, build_request(b, part)) for part in per]
    union = {}
    for s in subs:
        for t, arr in s.rows.items():
            union.setdefault(t, set()).update(arr.tolist())
    assert {t: arr.tolist() for t, arr in sub.rows.items()} == {t: sorted(v) for t, v in union.items()}
    assert sub.touched_rows == sum(map(len, union.values()))
    return got[0]


def customer_values_db(customers, t_rows):
    """Customers C 1..n and their dated int64 values T, from T's CSV rows
    (ID,C_ID,V,AT)."""
    key = {"dtype": "int64", "stype": "key"}
    db = new_database(load_schema({"tables": [
        {"name": "C", "columns": [{"name": "ID", **key}], "primary_key": "ID"},
        {"name": "T", "columns": [{"name": "ID", **key}, {"name": "C_ID", **key},
                                  {"name": "V", "dtype": "int64", "stype": "numerical"},
                                  {"name": "AT", "dtype": "timestamp", "stype": "temporal"}],
         "primary_key": "ID", "time_column": "AT",
         "foreign_keys": [{"column": "C_ID", "references": "C"}]},
    ]}))
    load_table_data(db, "C", "ID\n" + "".join(f"{c}\n" for c in range(1, customers + 1)))
    return load_table_data(db, "T", "ID,C_ID,V,AT\n" + t_rows)


def _temporal_cases():
    """(database seed, query seed) pairs whose query is temporal with at
    least two anchors on a three-anchor grid."""
    cases = []
    for seed in range(40):
        sch = random_schema(seed % 14)
        db = random_database(seed, sch)
        for q in range(8):
            b = bind(random_query(seed * 53 + q, sch), sch)
            if b.is_static or not db.nrows(b.entity_table):
                continue
            try:
                if len(resolve_anchors(b, AnchorPolicy(count=3), db)) >= 2:
                    cases.append((seed, seed * 53 + q))
            except ExecutionError:  # no feasible anchors
                continue
    return cases


TEMPORAL_CASES = _temporal_cases()


@functools.lru_cache(maxsize=None)
def _random_db(seed):
    sch = random_schema(seed % 14)
    db = random_database(seed, sch)
    return sch, db


class TestOneBlockPerRequest:
    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(TEMPORAL_CASES), data=st.data())
    def test_multi_anchor_requests_equal_per_anchor_requests(self, case, data):
        sch, db = _random_db(case[0])
        b = bind(random_query(case[1], sch), sch)
        policy = AnchorPolicy(count=3)
        anchors = resolve_anchors(b, policy, db)
        n = db.nrows(b.entity_table)
        whole = data.draw(st.booleans(), label="whole")
        if whole:
            pairs = [(RowRef(b.entity_table, i), a) for i in range(n) for a in anchors]
            pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=5), label="repeats")
        else:
            drawn = st.tuples(st.integers(0, n - 1), st.sampled_from(anchors))
            pairs = [(RowRef(b.entity_table, i), a) for i, a in data.draw(
                st.lists(drawn, min_size=1, max_size=25), label="pairs")]
            pairs += pairs[: data.draw(st.integers(0, len(pairs)), label="repeated")]
        pairs = data.draw(st.permutations(pairs), label="order")
        assert_one_block_equals_per_anchor(db, b, policy, pairs, whole=whole)

    def test_a_nested_aggregation_filters_at_its_parents_anchor(self):
        key = {"dtype": "int64", "stype": "key"}
        at = {"name": "AT", "dtype": "timestamp", "stype": "temporal"}
        db = new_database(load_schema({"tables": [
            {"name": "C", "columns": [{"name": "ID", **key}], "primary_key": "ID"},
            {"name": "T", "columns": [{"name": "ID", **key}, {"name": "C_ID", **key}, at],
             "primary_key": "ID", "time_column": "AT",
             "foreign_keys": [{"column": "C_ID", "references": "C"}]},
            {"name": "U", "columns": [{"name": "ID", **key}, {"name": "T_ID", **key}, at],
             "primary_key": "ID", "time_column": "AT",
             "foreign_keys": [{"column": "T_ID", "references": "T"}]},
        ]}))
        load_table_data(db, "C", "ID\n1\n2\n3\n")
        # Orders in January, each with items on days that one anchor's 10-day
        # item window reaches and the other's does not; a March order keeps
        # both anchors feasible.
        load_table_data(db, "T", "ID,C_ID,AT\n1,1,2024-01-02\n2,1,2024-01-12\n3,2,2024-01-03\n"
                        "4,3,2024-01-13\n5,2,2024-01-14\n6,3,2024-03-01\n")
        load_table_data(db, "U", "ID,T_ID,AT\n1,1,2024-01-05\n2,2,2024-01-15\n3,3,2024-01-12\n"
                        "4,4,2024-01-20\n5,5,2024-01-08\n6,2,2023-12-31\n7,6,2024-03-01\n")
        b = bind(parse("PREDICT COUNT(T.* WHERE COUNT(U.*, 0, 10, days) > 0, 0, 30, days) FOR EACH C.ID"),
                 db.schema)
        policy = AnchorPolicy(count=2, stride=10 * MICROS_PER_DAY, latest=ANCHOR + 10 * MICROS_PER_DAY)
        anchors = resolve_anchors(b, policy, db)
        assert len(anchors) == 2
        pairs = [(RowRef("C", i), a) for i in (2, 0, 1) for a in anchors]
        table = assert_one_block_equals_per_anchor(db, b, policy, pairs, whole=True)
        # At Jan 11 the orders of Jan 12, 13 and 14 count if an item falls in
        # Jan 11-20: T 2's and T 4's do, T 5's (Jan 8) does not. At Jan 1,
        # T 1's item (Jan 5) and T 5's count, and T 2's, T 3's and T 4's miss
        # Jan 1-10.
        assert [(k, v) for k, _, v, _ in table.rows] == [(1, 1), (2, 0), (3, 1), (1, 1), (2, 1), (3, 0)]

    def test_validity_intervals(self):
        db = generate(GenSpec(seed=2, customers=40, articles=5, transactions=400, notifications=40,
                              validity=True))
        b = bind(parse("PREDICT SUM(TRANSACTIONS.VALUE, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID "
                       "WHERE COUNT(TRANSACTIONS.*, -60, 0, days) > 0"), db.schema)
        policy = AnchorPolicy(count=4)
        anchors = resolve_anchors(b, policy, db)
        pairs = [(RowRef("CUSTOMERS", i), a) for a in anchors for i in range(db.nrows("CUSTOMERS"))]
        table = assert_one_block_equals_per_anchor(db, b, policy, pairs[::-1], whole=True)
        assert table.metadata["dropped"]["validity_pruned"] > 0

    def test_a_sum_that_overflows_at_one_anchor_only(self):
        # Customer 1's two 2^62 rows share the Jan 1 anchor's window; the
        # Jan 2 anchor's window holds only the second.
        db = customer_values_db(3, f"1,1,{2**62},2024-01-01\n2,1,{2**62},2024-01-20\n"
                                "3,2,5,2024-01-01\n4,3,-7,2024-01-15\n5,2,1,2024-01-31\n")
        b = bind(parse("PREDICT SUM(T.V, 0, 30, days) FOR EACH C.ID"), db.schema)
        policy = AnchorPolicy(count=2, stride=MICROS_PER_DAY, latest=ANCHOR + MICROS_PER_DAY)
        anchors = resolve_anchors(b, policy, db)
        late, early = anchors
        fine = [(RowRef("C", 2), early), (RowRef("C", 0), late), (RowRef("C", 1), late),
                (RowRef("C", 1), early), (RowRef("C", 2), late)]
        # The batch holds customer 1 at Jan 1 and fails, as it should.
        table = assert_one_block_equals_per_anchor(db, b, policy, fine, batch=False)
        assert table.rows[0] == (1, late, 2**62, "test")
        with pytest.raises(ExecutionError, match="int64"):
            materialize_training(plan_training(b, policy), db)
        overflowing = fine + [(RowRef("C", 0), early)]
        for pairs in (overflowing, [(RowRef("C", 0), early)]):
            with pytest.raises(ExecutionError, match="int64"):
                evaluate_pairs(db, b, pairs, anchors_for_split=anchors)
            with pytest.raises(ExecutionError, match="int64"):
                compute_on_subgraph(b, collect(db, build_request(b, pairs)), pairs, anchors_for_split=anchors)

    @pytest.mark.parametrize("kind", ["FIRST", "LAST"])
    def test_first_and_last_ties(self, kind):
        # Ties on the first and last day of each window, loaded out of order.
        db = customer_values_db(2, "1,1,3,2024-01-05\n2,1,4,2024-01-02\n3,1,1,2024-01-02\n"
                                "4,2,9,2024-01-05\n5,2,8,2024-01-05\n6,1,6,2024-01-05\n7,2,2,2024-01-02\n")
        b = bind(parse(f"PREDICT {kind}(T.V, 0, 4, days) FOR EACH C.ID"), db.schema)
        policy = AnchorPolicy(count=2, stride=3 * MICROS_PER_DAY, latest=ANCHOR + 4 * MICROS_PER_DAY)
        anchors = resolve_anchors(b, policy, db)
        pairs = [(RowRef("C", i), a) for a in anchors for i in (1, 0)]
        table = assert_one_block_equals_per_anchor(db, b, policy, pairs, whole=True)
        # Jan 5 window: days 5-8; Jan 2 window: days 2-5.
        want = {"FIRST": [3, 9, 4, 2], "LAST": [3, 9, 3, 9]}[kind]
        assert [r[2] for r in table.rows] == want

    def test_list_distinct_rank(self, toy_db):
        b = bind_text("PREDICT LIST_DISTINCT(TRANSACTIONS.ARTICLE_ID WHERE ARTICLES.COLOR = \"blue\", "
                      "0, 30, days) RANK TOP 2 FOR EACH CUSTOMERS.CUSTOMER_ID")
        policy = AnchorPolicy(count=3, stride=10 * MICROS_PER_DAY, latest=ANCHOR + 20 * MICROS_PER_DAY)
        pairs = [(RowRef("CUSTOMERS", i), a) for a in resolve_anchors(b, policy, toy_db) for i in range(3)]
        table = assert_one_block_equals_per_anchor(toy_db, b, policy, pairs[1:] + pairs, whole=True)
        assert table.row_count > 1 and len({r[1] for r in table.rows}) > 1

    def test_string_keys(self):
        db = new_database(load_schema({"tables": [
            {"name": "C", "columns": [{"name": "ID", "dtype": "string", "stype": "key"}], "primary_key": "ID"},
            {"name": "E", "columns": [{"name": "EV_ID", "dtype": "int64", "stype": "key"},
                                      {"name": "C_ID", "dtype": "string", "stype": "key"},
                                      {"name": "T", "dtype": "timestamp", "stype": "temporal"}],
             "primary_key": "EV_ID", "time_column": "T",
             "foreign_keys": [{"column": "C_ID", "references": "C"}]},
        ]}))
        keys = ["b", "a", "é", "B", "a2", "中"]
        load_table_data(db, "C", "ID\n" + "".join(f"{k}\n" for k in keys))
        load_table_data(db, "E", "EV_ID,C_ID,T\n" + "".join(
            f"{i},{keys[i % 6]},2024-01-{1 + i % 28:02d}\n" for i in range(40)))
        b = bind(parse("PREDICT COUNT(E.*, 0, 7, days) FOR EACH C.ID"), db.schema)
        policy = AnchorPolicy(count=3, stride=7 * MICROS_PER_DAY, latest=ANCHOR + 14 * MICROS_PER_DAY)
        pairs = [(RowRef("C", i), a) for i in (4, 0, 5, 2, 1, 3) for a in resolve_anchors(b, policy, db)]
        table = assert_one_block_equals_per_anchor(db, b, policy, pairs, whole=True)
        assert table.keys.dtype == object and table.row_count == 18
