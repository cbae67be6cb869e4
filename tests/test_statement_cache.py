"""The front end's statement cache: `parse` caches text, `bind` memoizes by
the identity of the query and the schema, and `pql.bench` times a cold
front end on every run."""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import CORPUS_BY_NAME, schema

from pql import binder, parser
from pql.ast import unparse
from pql.bench import _cold_bind, run_bench
from pql.binder import bind
from pql.engine import evaluate_pairs
from pql.errors import BindError, LexError, ParseError
from pql.parser import parse
from pql.planner import AnchorPolicy, plan_to_json, plan_training, resolve_anchors
from pql.store import RowRef, build_row_graph
from pql.synth import random_database, random_query, random_schema

TEXT = CORPUS_BY_NAME["active_spender"].text


class TestParseCache:
    def test_same_text_same_query(self):
        assert parse(TEXT) is parse(TEXT)

    def test_whitespace_variants_are_distinct_with_their_own_spans(self):
        one = "PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID"
        two = "PREDICT  COUNT(TRANSACTIONS.*, 0, 7, days)\nFOR EACH CUSTOMERS.CUSTOMER_ID"
        a, b = parse(one), parse(two)
        assert a == b and a is not b
        assert (a.entity.span.line, a.entity.span.col) == (1, 52)
        assert (b.entity.span.line, b.entity.span.col) == (2, 10)
        sch = schema("retail")
        ba, bb = bind(a, sch), bind(b, sch)
        assert ba is not bb
        assert ba.query is a and bb.query is b
        assert ba.target.span != bb.target.span

    def test_token_list_is_parsed_afresh(self):
        tokens = parser.tokenize(TEXT)
        first, second = parse(tokens), parse(tokens)
        assert first == second and first is not second

    @pytest.mark.parametrize(
        "text, error, where",
        [
            ("PREDICT T.C FOR EACH T.ID WHERE T.X = $", LexError, (1, 39)),
            ("PREDICT T.C FOR EACH T.ID WHERE T.X", ParseError, (1, 36)),
        ],
    )
    def test_errors_raise_every_time(self, text, error, where):
        seen = []
        for _ in range(3):
            with pytest.raises(error) as exc:
                parse(text)
            seen.append((type(exc.value), exc.value.message, exc.value.span))
        assert seen[0][2] is not None and (seen[0][2].line, seen[0][2].col) == where
        assert seen == [seen[0]] * 3

    def test_stays_within_its_bound(self):
        for i in range(parser._PARSE_CACHE_SIZE + 50):
            parse(f"PREDICT COUNT(TRANSACTIONS.*, 0, {i + 1}, days) FOR EACH CUSTOMERS.CUSTOMER_ID")
        info = parser._parse_text.cache_info()
        assert info.maxsize == parser._PARSE_CACHE_SIZE
        assert info.currsize <= parser._PARSE_CACHE_SIZE


class TestBindMemo:
    def test_same_query_and_schema_same_bound(self):
        q, sch = parse(TEXT), schema("retail")
        assert bind(q, sch) is bind(q, sch)

    def test_equal_schema_object_binds_afresh(self):
        q = parse(TEXT)
        one, two = schema("retail"), schema("retail")
        assert one == two and one is not two
        a, b = bind(q, one), bind(q, two)
        assert a is not b
        assert a == b

    def test_bind_errors_raise_every_time(self):
        q = parse("PREDICT TRANSACTIONS.VALUEZ FOR EACH TRANSACTIONS.TRANSACTION_ID")
        sch = schema("retail")
        seen = []
        for _ in range(3):
            with pytest.raises(BindError) as exc:
                bind(q, sch)
            seen.append((exc.value.code, exc.value.message, exc.value.span))
        assert (seen[0][2].line, seen[0][2].col) == (1, 9)
        assert seen == [seen[0]] * 3

    def test_stays_within_its_bound(self):
        sch = schema("retail")
        for i in range(binder._BIND_CACHE_SIZE + 50):
            bind(parse(f"PREDICT COUNT(TRANSACTIONS.*, 0, {i + 1}, days) FOR EACH CUSTOMERS.CUSTOMER_ID"), sch)
            assert len(binder._memo) <= binder._BIND_CACHE_SIZE

    def test_threads_bind_like_a_cold_bind(self):
        sch = schema("retail")
        texts = [
            f"PREDICT SUM(TRANSACTIONS.VALUE, 0, {i % 97 + 1}, days) > {i} "
            "FOR EACH CUSTOMERS.CUSTOMER_ID WHERE COUNT(TRANSACTIONS.*, -30, 0, days) > 0"
            for i in range(600)
        ]
        want = [_cold_bind(t, sch) for t in texts]
        results = [[None] * len(texts) for _ in range(8)]
        errors = []

        def work(slot):
            try:
                order = range(len(texts)) if slot % 2 else range(len(texts) - 1, -1, -1)
                for i in order:
                    results[slot][i] = bind(parse(texts[i]), sch)
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(slot,)) for slot in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        for got in results:
            assert got == want
            assert all(b.query.span == w.query.span for b, w in zip(got, want))
        assert len(binder._memo) <= binder._BIND_CACHE_SIZE


_SCHEMAS = {}


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_warm_bind_plans_and_evaluates_like_a_cold_bind(seed):
    key = seed % 20
    if key not in _SCHEMAS:  # one schema object per key, so later examples bind against a warm memo
        _SCHEMAS[key] = random_schema(key)
    sch = _SCHEMAS[key]
    text = unparse(random_query(seed, sch))
    warm = bind(parse(text), sch)
    assert bind(parse(text), sch) is warm
    cold = _cold_bind(text, sch)
    assert cold is not warm
    policy = AnchorPolicy(count=3)
    assert plan_to_json(plan_training(warm, policy)) == plan_to_json(plan_training(cold, policy))
    db = random_database(seed, sch, scale=1.0)
    n = db.nrows(warm.entity_table)
    anchors = resolve_anchors(warm, policy, db)
    if not n or not (warm.is_static or anchors):
        return
    pairs = [(RowRef(warm.entity_table, i), None if warm.is_static else anchors[i % len(anchors)])
             for i in range(min(n, 12))]
    g = build_row_graph(db)
    got = evaluate_pairs(db, g, warm, pairs, anchors_for_split=anchors)
    want = evaluate_pairs(db, g, cold, pairs, anchors_for_split=anchors)
    assert got.rows == want.rows
    assert got.metadata == want.metadata


class TestBenchFrontEnd:
    """`run_bench` tokenizes and binds once per timed run on every path,
    the warm-up runs included, however warm the caches are."""

    RUNS = 2

    @pytest.fixture
    def counts(self, monkeypatch):
        seen = {"tokenize": 0, "binder": 0}
        tokenize = parser.tokenize

        def counting_tokenize(text):
            seen["tokenize"] += 1
            return tokenize(text)

        class CountingBinder(binder._Binder):
            def __init__(self, sch):
                seen["binder"] += 1
                super().__init__(sch)

        monkeypatch.setattr(parser, "tokenize", counting_tokenize)
        monkeypatch.setattr(binder, "_Binder", CountingBinder)
        return seen

    @pytest.mark.parametrize(
        "path, timed_calls",
        [
            ("optimized", 1 + RUNS),  # warm-up and runs
            ("unoptimized", 1 + RUNS),
            ("oracle", RUNS),  # no warm-up
            ("sampler", 2 * (1 + RUNS)),  # the sampler and its full-batch reference
        ],
    )
    def test_each_timed_run_pays_the_front_end(self, toy_db, toy_graph, counts, path, timed_calls):
        text = CORPUS_BY_NAME["active_spender"].text
        bind(parse(text), toy_db.schema)  # warm both caches first
        counts.update(tokenize=0, binder=0)
        run_bench(toy_db, text, paths=[path], runs=self.RUNS, pairs=3, anchors=3, g=toy_graph)
        # One more for the untimed bind that picks the pairs and anchors.
        assert counts == {"tokenize": 1 + timed_calls, "binder": 1 + timed_calls}

