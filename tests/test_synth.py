"""Synthetic data and query generators: determinism, shape, coverage."""

import collections

import pytest

from pql.ast import AggKind, iter_aggregations
from pql.binder import bind
from pql.errors import PqlError
from pql.store import save_database
from pql.synth import (
    GenSpec,
    generate,
    hm_genspec,
    random_database,
    random_query,
    random_schema,
)


class TestTemplate:
    def test_scale_one_thousandth(self):
        spec = hm_genspec(scale=0.001)
        db = generate(spec)
        assert db.nrows("CUSTOMERS") == 1300
        assert db.nrows("ARTICLES") == 105
        assert db.nrows("TRANSACTIONS") == 31000

    def test_seed_repetition_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        save_database(generate(GenSpec(seed=9, customers=40, articles=8, transactions=300,
                                       notifications=30)), a)
        save_database(generate(GenSpec(seed=9, customers=40, articles=8, transactions=300,
                                       notifications=30)), b)
        for path in sorted(a.iterdir()):
            assert path.read_bytes() == (b / path.name).read_bytes()

    def test_different_seed_differs(self):
        t1 = generate(GenSpec(seed=1, customers=20, articles=5, transactions=100, notifications=10))
        t2 = generate(GenSpec(seed=2, customers=20, articles=5, transactions=100, notifications=10))
        assert (
            t1.table("TRANSACTIONS").column("VALUE").values.tolist()
            != t2.table("TRANSACTIONS").column("VALUE").values.tolist()
        )

    def test_upscale_duplicates_customer_and_transaction_partitions(self):
        base = GenSpec(seed=4, customers=30, articles=6, transactions=200, notifications=20)
        db = generate(base)
        up = generate(GenSpec(**{**base.to_json(), "upscale": 3}))
        assert up.nrows("CUSTOMERS") == 3 * db.nrows("CUSTOMERS")
        assert up.nrows("TRANSACTIONS") == 3 * db.nrows("TRANSACTIONS")
        assert up.nrows("ARTICLES") == db.nrows("ARTICLES")
        # copied partition points at the shifted customer ids
        ids = up.table("TRANSACTIONS").column("CUSTOMER_ID").values
        assert ids[200] == ids[0] + 30

    def test_fk_integrity(self):
        db = generate(GenSpec(seed=3, customers=25, articles=5, transactions=150, notifications=15))
        cust = set(db.table("CUSTOMERS").column("CUSTOMER_ID").values.tolist())
        col = db.table("TRANSACTIONS").column("CUSTOMER_ID")
        for i in range(db.nrows("TRANSACTIONS")):
            v = col.get(i)
            assert v is None or v in cust

    def test_validity_intervals_well_formed(self):
        db = generate(GenSpec(seed=5, customers=50, articles=5, transactions=100,
                              notifications=10, validity=True))
        cust = db.table("CUSTOMERS")
        for i in range(cust.nrows):
            start = cust.column("VALID_FROM").get(i)
            end = cust.column("VALID_TO").get(i)
            if start is not None and end is not None:
                assert start < end

    def test_genspec_json_round_trip(self):
        spec = hm_genspec(scale=0.002, seed=7, validity=True)
        assert GenSpec.from_json(spec.to_json()) == spec

    def test_inconsistent_spec_rejected(self):
        with pytest.raises(PqlError):
            generate(GenSpec(customers=0, transactions=10))
        with pytest.raises(PqlError):
            generate(GenSpec(span_start="2024-01-01", span_end="2023-01-01"))


class TestRandomGenerators:
    def test_schema_and_database_are_deterministic(self):
        s1, s2 = random_schema(7), random_schema(7)
        assert s1 == s2
        d1, d2 = random_database(7, s1), random_database(7, s2)
        for name in s1.tables:
            c1, c2 = d1.table(name), d2.table(name)
            for col in c1.definition.column_names:
                assert c1.column(col).values.tolist() == c2.column(col).values.tolist()

    def test_generated_queries_bind(self):
        for seed in range(10_000):
            sch = random_schema(seed % 50)
            query = random_query(seed, sch)
            bind(query, sch)  # must not raise

    def test_queries_are_deterministic_per_seed(self):
        sch = random_schema(3)
        assert random_query(42, sch) == random_query(42, sch)

    def test_all_aggregation_kinds_within_500_draws(self):
        seen = collections.Counter()
        for seed in range(500):
            sch = random_schema(seed % 40)
            for agg in iter_aggregations(random_query(seed, sch).target):
                seen[agg.kind] += 1
        assert set(seen) == set(AggKind)

    def test_corpus_covers_window_forms_and_clauses(self):
        minus_inf = assuming = static = filtered = 0
        for seed in range(400):
            sch = random_schema(seed % 40)
            q = random_query(seed, sch)
            aggs = (
                iter_aggregations(q.target)
                + iter_aggregations(q.entity_where)
                + iter_aggregations(q.assuming)
            )
            if any(a.window is not None and a.window.start is None for a in aggs):
                minus_inf += 1
            if q.assuming is not None:
                assuming += 1
            if aggs and all(a.window is None for a in aggs):
                static += 1
            if any(a.where is not None for a in aggs):
                filtered += 1
        assert minus_inf > 3 and assuming > 10 and static > 5 and filtered > 30
