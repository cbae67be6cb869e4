"""Batch engine: kernel semantics on single rows, materialization, splits,
drop accounting, strategy equivalence, determinism, prediction tables."""

import re

import numpy as np
import pytest

from conftest import TRANSACTIONS_CSV, build_toy_db
from corpus import CORPUS, CORPUS_BY_NAME, schema

from pql import engine
from pql.binder import bind
from pql.engine import evaluate_pairs, materialize_prediction, materialize_training
from pql.errors import ExecutionError, PlanError
from pql.kernels import eval_agg_vec, eval_condition_vec
from pql.oracle import oracle_training
from pql.parser import parse
from pql.planner import AnchorPolicy, plan_prediction, plan_training, resolve_anchors
from pql.sampler import sample_pairs
from pql.splits import SplitPolicy, split_for_key
from pql.store import RowRef, build_row_graph, load_schema, load_table_data, new_database
from pql.synth import (
    GenSpec,
    generate,
    hm_genspec,
    random_database,
    random_query,
    random_schema,
    template_schema,
)
from pql.times import MICROS_PER_DAY, parse_timestamp

ANCHOR = parse_timestamp("2024-01-01")


def bind_text(text, key="retail"):
    return bind(parse(text), schema(key))


def target_of(text, key="retail"):
    return bind_text(text, key).target


CUSTOMER = lambda i: RowRef("CUSTOMERS", i)  # noqa: E731


def eval_aggregation(db, g, agg, entity, anchor=None):
    """One aggregation for one entity, as a one-row kernel batch; None when
    undefined."""
    values, defined = eval_agg_vec(g, agg, entity.table, np.array([entity.index]), anchor)
    return values.tolist()[0] if defined[0] else None


def eval_condition(db, g, cond, row, anchor=None):
    """One condition for one row, as a one-row kernel batch."""
    return bool(eval_condition_vec(g, cond, row.table, np.array([row.index]), anchor)[0])


class TestEvalAggregation:
    def test_sum_inside_window(self, toy_db, toy_graph):
        agg = target_of("PREDICT SUM(TRANSACTIONS.VALUE, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID")
        assert eval_aggregation(toy_db, toy_graph, agg, CUSTOMER(0), ANCHOR) == 30.0
        assert eval_aggregation(toy_db, toy_graph, agg, CUSTOMER(1), ANCHOR) == 135.0

    def test_empty_window_count_zero_max_undefined(self, toy_db, toy_graph):
        count = target_of("PREDICT COUNT(TRANSACTIONS.*, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID")
        biggest = target_of("PREDICT MAX(TRANSACTIONS.VALUE, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID")
        assert eval_aggregation(toy_db, toy_graph, count, CUSTOMER(2), ANCHOR) == 0
        assert eval_aggregation(toy_db, toy_graph, biggest, CUSTOMER(2), ANCHOR) is None

    def test_count_includes_null_valued_rows(self, toy_db, toy_graph):
        count = target_of("PREDICT COUNT(TRANSACTIONS.*, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID")
        assert eval_aggregation(toy_db, toy_graph, count, CUSTOMER(1), ANCHOR) == 3

    def test_undated_rows_excluded_from_windows(self, toy_db, toy_graph):
        count = target_of("PREDICT COUNT(TRANSACTIONS.*, 0, 90, days) FOR EACH CUSTOMERS.CUSTOMER_ID")
        # customer 1 has tx 1, 2, 3 dated in range; tx 8 is undated
        assert eval_aggregation(toy_db, toy_graph, count, CUSTOMER(0), ANCHOR) == 3

    def test_windowless_includes_undated(self, toy_db, toy_graph):
        count = target_of("PREDICT COUNT(TRANSACTIONS.*) FOR EACH CUSTOMERS.CUSTOMER_ID")
        assert eval_aggregation(toy_db, toy_graph, count, CUSTOMER(0), None) == 4

    def test_recommendation_filter_excludes_red(self, toy_db, toy_graph):
        agg = target_of(CORPUS_BY_NAME["blue_articles"].text)
        # customer 2: tx4 is 60 on a red article, tx5 is 75 on the blue dress
        assert eval_aggregation(toy_db, toy_graph, agg, CUSTOMER(1), ANCHOR) == (3,)
        assert eval_aggregation(toy_db, toy_graph, agg, CUSTOMER(0), ANCHOR) == ()

    def test_avg_min_first_last(self, toy_db, toy_graph):
        mk = lambda kind: target_of(
            f"PREDICT {kind}(TRANSACTIONS.VALUE, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID"
        )
        assert eval_aggregation(toy_db, toy_graph, mk("AVG"), CUSTOMER(0), ANCHOR) == 15.0
        assert eval_aggregation(toy_db, toy_graph, mk("MIN"), CUSTOMER(0), ANCHOR) == 10.0
        assert eval_aggregation(toy_db, toy_graph, mk("FIRST"), CUSTOMER(1), ANCHOR) == 60.0
        assert eval_aggregation(toy_db, toy_graph, mk("LAST"), CUSTOMER(1), ANCHOR) == 75.0

    def test_first_returns_null_when_earliest_value_is_null(self, toy_db, toy_graph):
        first = target_of("PREDICT FIRST(TRANSACTIONS.VALUE, 6, 8, days) FOR EACH CUSTOMERS.CUSTOMER_ID")
        # customer 2's only row in [Jan 7, Jan 9) is tx6 with null VALUE
        assert eval_aggregation(toy_db, toy_graph, first, CUSTOMER(1), ANCHOR) is None

    def test_count_distinct(self, toy_db, toy_graph):
        cd = target_of(
            "PREDICT COUNT_DISTINCT(TRANSACTIONS.ARTICLE_ID, 0, 90, days) FOR EACH CUSTOMERS.CUSTOMER_ID"
        )
        assert eval_aggregation(toy_db, toy_graph, cd, CUSTOMER(0), ANCHOR) == 2

    def test_anchor_presence_contract(self, toy_db, toy_graph):
        windowed = target_of("PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID")
        with pytest.raises(ExecutionError, match="anchor"):
            eval_aggregation(toy_db, toy_graph, windowed, CUSTOMER(0), None)


class TestEvalCondition:
    def cond_of(self, text):
        b = bind_text(f"PREDICT TRANSACTIONS.VALUE FOR EACH TRANSACTIONS.TRANSACTION_ID WHERE {text}")
        return b.conjuncts[0].condition

    def test_simple_comparison(self, toy_db, toy_graph):
        b = bind_text(CORPUS_BY_NAME["active_spender"].text)
        # anchored at Dec 19, the [15, 45)-day window covers Jan 3 and Jan 20:
        # customer 2 spends 60 + 75 = 135 > 100
        anchor = parse_timestamp("2023-12-19")
        assert eval_condition(toy_db, toy_graph, b.target, CUSTOMER(1), anchor) is True
        # one day later the Jan 3 purchase falls out and 75 < 100
        assert eval_condition(toy_db, toy_graph, b.target, CUSTOMER(1), anchor + MICROS_PER_DAY) is False

    def test_undefined_collapses_to_false(self, toy_db, toy_graph):
        cond = bind_text(
            "PREDICT MAX(TRANSACTIONS.VALUE, 0, 30, days) < 3 FOR EACH CUSTOMERS.CUSTOMER_ID"
        ).target
        # Explicit three-valued reference: MAX of an empty window is unknown,
        # and unknown < 3 must collapse to False, not True.
        assert eval_aggregation(toy_db, toy_graph, cond.lhs, CUSTOMER(2), ANCHOR) is None
        assert eval_condition(toy_db, toy_graph, cond, CUSTOMER(2), ANCHOR) is False
        flipped = bind_text(
            "PREDICT NOT MAX(TRANSACTIONS.VALUE, 0, 30, days) < 3 FOR EACH CUSTOMERS.CUSTOMER_ID"
        ).target
        assert eval_condition(toy_db, toy_graph, flipped, CUSTOMER(2), ANCHOR) is True

    def test_null_comparisons_are_false(self, toy_db, toy_graph):
        tx6 = RowRef("TRANSACTIONS", 5)  # null VALUE
        for op in ("=", "!=", "<", ">"):
            cond = self.cond_of(f"TRANSACTIONS.VALUE {op} 60")
            assert eval_condition(toy_db, toy_graph, cond, tx6, None) is False
        assert eval_condition(toy_db, toy_graph, self.cond_of("TRANSACTIONS.VALUE IS NULL"), tx6, None)

    def test_string_operators(self, toy_db, toy_graph):
        tx1 = RowRef("TRANSACTIONS", 0)  # customer 1, New York
        checks = {
            "CUSTOMERS.LOCATION_ID LIKE 'New%'": True,
            "CUSTOMERS.LOCATION_ID LIKE 'new%'": False,  # case-sensitive
            "CUSTOMERS.LOCATION_ID LIKE 'New Yor_'": True,
            "CUSTOMERS.LOCATION_ID NOT LIKE 'P%'": True,
            "CUSTOMERS.LOCATION_ID CONTAINS 'w Y'": True,
            "CUSTOMERS.LOCATION_ID STARTS WITH 'New'": True,
            "CUSTOMERS.LOCATION_ID ENDS WITH 'York'": True,
            'CUSTOMERS.LOCATION_ID IN ["Paris", "New York"]': True,
            'CUSTOMERS.LOCATION_ID IS IN ["Paris"]': False,
        }
        for text, want in checks.items():
            assert eval_condition(toy_db, toy_graph, self.cond_of(text), tx1, None) is want, text

    def test_null_fk_hop_collapses(self, retail_schema, toy_graph):
        from conftest import build_toy_db
        from pql.store import build_row_graph, load_table_data

        db = build_toy_db(retail_schema)
        load_table_data(
            db,
            "TRANSACTIONS",
            "TRANSACTION_ID,VALUE,TIMESTAMP,CUSTOMER_ID,ARTICLE_ID\n9,5.0,2024-01-02,,1\n",
        )
        g = build_row_graph(db)
        cond = self.cond_of("CUSTOMERS.LOCATION_ID = 'New York'")
        assert eval_condition(db, g, cond, RowRef("TRANSACTIONS", 0), None) is False


class TestMaterializeTraining:
    def test_overview_query_on_toy_ny_data(self, toy_db):
        b = bind_text(CORPUS_BY_NAME["ny_monthly_spend"].text)
        plan = plan_training(b, AnchorPolicy(count=1, latest=ANCHOR))
        table = materialize_training(plan, toy_db)
        assert table.columns == ("ENTITY", "TIMESTAMP", "TARGET", "SPLIT")
        assert table.rows == [(1, ANCHOR, 30.0, "test"), (2, ANCHOR, 135.0, "test")]
        assert table.metadata["task"]["task_type"] == "regression"

    def test_static_imputation_drops_null_targets(self, toy_db):
        b = bind_text(CORPUS_BY_NAME["impute_value"].text)
        table = materialize_training(plan_training(b, AnchorPolicy()), toy_db)
        assert table.columns == ("ENTITY", "TARGET", "SPLIT")
        assert len(table.rows) == 7  # tx6 has a null VALUE
        assert table.metadata["dropped"]["undefined_target"] == 1
        assert all(anchor is None for _, anchor, _, _ in table.rows)

    def test_static_condition_target_drops_null_reads(self, toy_db):
        b = bind_text(CORPUS_BY_NAME["impute_value_over_100"].text)
        table = materialize_training(plan_training(b, AnchorPolicy()), toy_db)
        keys = [r[0] for r in table.rows]
        assert 6 not in keys  # null VALUE: not a labelled example
        assert 7 not in keys  # Paris customer filtered out
        labels = {k: v for k, _, v, _ in table.rows}
        assert labels[3] is True and labels[1] is False

    # Transaction 6 has a null VALUE; transaction 9, added here, a null
    # CUSTOMER_ID, so its hop to CUSTOMERS reads null.
    @pytest.mark.parametrize(
        "query,undefined",
        [
            ("PREDICT TRANSACTIONS.VALUE IS NULL FOR EACH TRANSACTIONS.TRANSACTION_ID", []),
            ("PREDICT TRANSACTIONS.VALUE IS NOT NULL FOR EACH TRANSACTIONS.TRANSACTION_ID", []),
            ("PREDICT TRANSACTIONS.VALUE = 10.0 FOR EACH TRANSACTIONS.TRANSACTION_ID", [6]),
            ("PREDICT NOT TRANSACTIONS.VALUE > 50 OR TRANSACTIONS.VALUE IS NULL "
             "FOR EACH TRANSACTIONS.TRANSACTION_ID", [6]),
            ("PREDICT CUSTOMERS.LOCATION_ID = 'Paris' FOR EACH TRANSACTIONS.TRANSACTION_ID", [9]),
            ("PREDICT CUSTOMERS.LOCATION_ID IS NULL FOR EACH TRANSACTIONS.TRANSACTION_ID", []),
            ("PREDICT COUNT(TRANSACTIONS.* WHERE TRANSACTIONS.VALUE > 50) > 0 "
             "FOR EACH CUSTOMERS.CUSTOMER_ID", []),
            ("PREDICT COUNT(TRANSACTIONS.* WHERE CUSTOMERS.LOCATION_ID = 'Paris') > 0 "
             "FOR EACH ARTICLES.ARTICLE_ID", []),
        ],
        ids=["is_null", "is_not_null", "eq", "eq_under_not_or", "eq_through_hop", "is_null_through_hop",
             "null_in_agg_filter", "hop_in_agg_filter"],
    )
    def test_condition_target_undefined_where_a_compared_read_is_null(self, retail_schema, query, undefined):
        from conftest import TRANSACTIONS_CSV, build_toy_db
        from pql.store import load_table_data

        db = build_toy_db(retail_schema)
        load_table_data(db, "TRANSACTIONS", TRANSACTIONS_CSV + "9,5.0,2024-01-02,,1\n")
        b = bind(parse(query), db.schema)
        table = materialize_training(plan_training(b, AnchorPolicy()), db)
        entities = db.table(b.entity_table)
        every = entities.column(entities.definition.primary_key).values.tolist()
        assert sorted(set(every) - set(table.keys.tolist())) == undefined
        assert table.metadata["dropped"]["undefined_target"] == len(undefined)
        assert table.rows == oracle_training(b, db, []).rows

    def test_twelve_anchor_split_rule(self, toy_db):
        b = bind_text("PREDICT COUNT(TRANSACTIONS.*, 0, 1, days) FOR EACH CUSTOMERS.CUSTOMER_ID")
        policy = AnchorPolicy(count=12, stride=MICROS_PER_DAY, latest=ANCHOR)
        table = materialize_training(plan_training(b, policy), toy_db)
        anchors = resolve_anchors(b, policy, toy_db)
        assert len(anchors) == 12
        by_anchor = {}
        for _, anchor, _, split in table.rows:
            by_anchor.setdefault(anchor, set()).add(split)
        assert by_anchor[anchors[0]] == {"test"}
        assert by_anchor[anchors[1]] == {"val"}
        for a in anchors[2:]:
            assert by_anchor[a] == {"train"}

    def test_single_anchor_is_all_test(self, toy_db):
        b = bind_text("PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID")
        table = materialize_training(plan_training(b, AnchorPolicy(count=1)), toy_db)
        assert {r[3] for r in table.rows} == {"test"}

    def test_static_split_ratios_and_determinism(self):
        db = random_database(1, random_schema(3), scale=3.0)
        b = bind(parse(f"PREDICT {next(iter(db.schema.tables))}.SCORE FOR EACH DIM0.ID"), db.schema)
        t1 = materialize_training(plan_training(b, AnchorPolicy()), db, split=SplitPolicy(seed=7))
        t2 = materialize_training(plan_training(b, AnchorPolicy()), db, split=SplitPolicy(seed=7))
        assert t1.rows == t2.rows
        t3 = materialize_training(plan_training(b, AnchorPolicy()), db, split=SplitPolicy(seed=8))
        assert [r[3] for r in t1.rows] != [r[3] for r in t3.rows]

    def test_empty_link_labels_dropped_for_rank_kept_for_multilabel(self, toy_db):
        rank_q = bind_text(
            "PREDICT LIST_DISTINCT(TRANSACTIONS.ARTICLE_ID WHERE TRANSACTIONS.VALUE > 50, "
            "0, 30, days) RANK TOP 3 FOR EACH CUSTOMERS.CUSTOMER_ID"
        )
        policy = AnchorPolicy(count=1, latest=ANCHOR)
        table = materialize_training(plan_training(rank_q, policy), toy_db)
        assert [r[0] for r in table.rows] == [2]
        assert table.metadata["dropped"]["empty_label"] == 2
        kept = materialize_training(plan_training(rank_q, policy), toy_db, keep_empty_labels=True)
        assert len(kept.rows) == 3
        ml_q = bind_text(
            "PREDICT LIST_DISTINCT(TRANSACTIONS.VALUE, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID"
        )
        ml = materialize_training(plan_training(ml_q, policy), toy_db)
        assert len(ml.rows) == 3  # multilabel keeps all-negative rows

    def test_drop_accounting_identity(self, toy_db):
        b = bind_text(CORPUS_BY_NAME["active_spender_notified"].text)
        policy = AnchorPolicy(count=3, stride=20 * MICROS_PER_DAY, latest=ANCHOR)
        table = materialize_training(plan_training(b, policy), toy_db)
        meta = table.metadata
        assert meta["pairs_expanded"] == meta["row_count"] + sum(meta["dropped"].values())

    def test_zero_surviving_entities_is_empty_not_error(self, toy_db):
        b = bind_text(
            "PREDICT SUM(TRANSACTIONS.VALUE, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID "
            "WHERE CUSTOMERS.LOCATION_ID = 'Atlantis'"
        )
        table = materialize_training(plan_training(b, AnchorPolicy()), toy_db)
        assert table.rows == []

    @pytest.mark.parametrize(
        "target,dtype",
        [("COUNT(TRANSACTIONS.*, 0, 7, days)", np.int64),
         ("SUM(TRANSACTIONS.VALUE, 0, 7, days)", np.float64),
         ("COUNT(TRANSACTIONS.*, 0, 7, days) > 0", np.bool_)],
    )
    def test_empty_anchor_blocks_keep_the_target_dtype(self, toy_db, target, dtype):
        # Nobody bought in the 5 days before Jan 16 or Jan 19, so those
        # anchors' blocks are empty and the others are not.
        b = bind_text(f"PREDICT {target} FOR EACH CUSTOMERS.CUSTOMER_ID "
                      "WHERE COUNT(TRANSACTIONS.*, -5, 0, days) > 0")
        policy = AnchorPolicy(count=6, stride=3 * MICROS_PER_DAY, latest=parse_timestamp("2024-01-25"))
        for optimized in (True, False):
            table = materialize_training(plan_training(b, policy, optimized=optimized), toy_db)
            anchors = {r[1] for r in table.rows}
            assert anchors and not anchors & {parse_timestamp("2024-01-16"), parse_timestamp("2024-01-19")}
            assert table.values.dtype == dtype
            assert all(type(r[2]) is type(np.zeros(1, dtype).item()) for r in table.rows)
        # With every block empty the columns keep their dtypes too.
        b = bind_text(f"PREDICT {target} FOR EACH CUSTOMERS.CUSTOMER_ID WHERE CUSTOMERS.LOCATION_ID = 'Atlantis'")
        table = materialize_training(plan_training(b, policy), toy_db)
        assert table.row_count == 0 and table.rows == []
        assert (table.keys.dtype, table.anchors.dtype, table.values.dtype, table.splits.dtype) == (
            np.int64, np.int64, dtype, np.int8)

    def test_zero_feasible_anchors_is_error(self, toy_db):
        b = bind_text("PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID")
        policy = AnchorPolicy(latest=parse_timestamp("2020-01-01"))
        with pytest.raises(ExecutionError, match="anchor"):
            materialize_training(plan_training(b, policy), toy_db)

    def test_workers_do_not_change_output(self, toy_db):
        # The keyword is accepted and ignored; callers still pass it.
        b = bind_text(CORPUS_BY_NAME["active_spender"].text)
        policy = AnchorPolicy(count=4, stride=10 * MICROS_PER_DAY, latest=ANCHOR)
        one = materialize_training(plan_training(b, policy), toy_db, workers=1)
        eight = materialize_training(plan_training(b, policy), toy_db, workers=8)
        assert one.rows == eight.rows


class TestOracleEdges:
    def test_empty_database(self, retail_schema):
        from pql.store import new_database

        db = new_database(retail_schema)
        b = bind(parse(CORPUS_BY_NAME["impute_value"].text), retail_schema)
        assert oracle_training(b, db, []).rows == []

    def test_single_entity_single_anchor(self, toy_db):
        b = bind_text("PREDICT COUNT(TRANSACTIONS.*, 0, 30, days) FOR EACH ARTICLES.ARTICLE_ID")
        table = oracle_training(b, toy_db, [ANCHOR])
        assert len(table.rows) == 3  # one row per article at the one anchor
        assert table.rows[0] == (1, ANCHOR, 2, "test")


class TestSplitSafety:
    def test_train_target_windows_end_before_validation_anchors(self, toy_db):
        # Under the default stride (one full timeframe) no train-row target
        # window may cross the earliest val/test anchor.
        b = bind_text(
            "PREDICT SUM(TRANSACTIONS.VALUE, 0, 3, days) FOR EACH CUSTOMERS.CUSTOMER_ID "
            "WHERE COUNT(TRANSACTIONS.*, -3, 0, days) > 0"
        )
        policy = AnchorPolicy(count=5, latest=ANCHOR + 10 * MICROS_PER_DAY)
        anchors = resolve_anchors(b, policy, toy_db)
        assert len(anchors) >= 3
        table = materialize_training(plan_training(b, policy), toy_db)
        future = b.timeframe.future
        held_out = [a for a, rank in ((a, i) for i, a in enumerate(anchors)) if rank < 2]
        earliest_held_out = min(held_out)
        for _, anchor, _, split in table.rows:
            if split == "train":
                assert anchor + future <= earliest_held_out


class TestStrategyEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_naive_equals_staged_equals_oracle(self, seed):
        sch = random_schema(seed % 12)
        db = random_database(seed, sch)
        b = bind(random_query(seed * 31 + 5, sch), sch)
        policy = AnchorPolicy(count=4)
        anchors = resolve_anchors(b, policy, db)
        staged = materialize_training(plan_training(b, policy), db)
        naive = materialize_training(plan_training(b, policy, optimized=False), db)
        want = oracle_training(b, db, anchors)
        assert staged.rows == want.rows
        assert naive.rows == want.rows


class TestMaterializePrediction:
    def test_latest_anchor_default(self, toy_db):
        b = bind_text("PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID")
        table = materialize_prediction(plan_prediction(b), toy_db)
        assert {r[1] for r in table.rows} == {toy_db.max_event_time()}
        assert [r[0] for r in table.rows] == [1, 2, 3]

    def test_explicit_anchor_and_temporal_filter(self, toy_db):
        b = bind_text(CORPUS_BY_NAME["active_spender"].text)
        table = materialize_prediction(plan_prediction(b, at=ANCHOR + 10 * MICROS_PER_DAY), toy_db)
        # active customers in the 40 days before Jan 11: customers 1, 2, 3
        assert [r[0] for r in table.rows] == [1, 2, 3]
        early = materialize_prediction(plan_prediction(b, at=parse_timestamp("2023-12-25")), toy_db)
        assert [r[0] for r in early.rows] == [3]

    def test_assuming_does_not_affect_prediction(self, toy_db):
        plain = bind_text(CORPUS_BY_NAME["active_spender"].text)
        assuming = bind_text(CORPUS_BY_NAME["active_spender_notified"].text)
        t1 = materialize_prediction(plan_prediction(plain, at=ANCHOR), toy_db)
        t2 = materialize_prediction(plan_prediction(assuming, at=ANCHOR), toy_db)
        assert t1.rows == t2.rows

    def test_static_prediction_is_missing_target_rows(self, toy_db):
        b = bind_text(CORPUS_BY_NAME["impute_value"].text)
        table = materialize_prediction(plan_prediction(b), toy_db)
        assert [r[0] for r in table.rows] == [6]
        assert table.columns == ("ENTITY",)

    def test_candidates_for_link_task(self, toy_db):
        b = bind_text(CORPUS_BY_NAME["blue_articles"].text)
        table = materialize_prediction(plan_prediction(b), toy_db)
        assert table.candidates == [1, 3]  # blue articles only
        assert len(table.rows) == 3

    def test_static_condition_prediction(self, toy_db):
        b = bind_text(CORPUS_BY_NAME["impute_value_over_100"].text)
        table = materialize_prediction(plan_prediction(b), toy_db)
        assert [r[0] for r in table.rows] == [6]  # NY transaction with null VALUE


class TestStaticLinkPrediction:
    """A windowless LIST_DISTINCT over a foreign key: ranking without a
    time axis (e.g. most-visited pages per user)."""

    @pytest.fixture()
    def web_db(self):
        from pql.store import load_table_data, new_database

        db = new_database(schema("web"))
        load_table_data(db, "USERS", "USER_ID\n1\n2\n3\n")
        load_table_data(db, "PAGES", "PAGE_PATH\n/home\n/buy\n/faq\n")
        load_table_data(
            db,
            "USER_PAGE_VISITS",
            "VISIT_ID,USER_ID,PAGE_PATH,VISITED_AT\n"
            "1,1,/home,2024-01-01\n"
            "2,1,/buy,2024-01-02\n"
            "3,2,/home,2024-01-03\n",
        )
        return db

    def test_training_table(self, web_db):
        b = bind(parse(CORPUS_BY_NAME["top_pages"].text), web_db.schema)
        table = materialize_training(plan_training(b, AnchorPolicy()), web_db)
        assert table.columns == ("ENTITY", "TARGET", "SPLIT")
        by_key = {k: v for k, _, v, _ in table.rows}
        assert by_key == {1: ("/buy", "/home"), 2: ("/home",)}
        assert table.metadata["dropped"]["empty_label"] == 1  # user 3 never visited

    def test_prediction_table(self, web_db):
        b = bind(parse(CORPUS_BY_NAME["top_pages"].text), web_db.schema)
        table = materialize_prediction(plan_prediction(b), web_db)
        assert [r[0] for r in table.rows] == [3]  # dropped from training
        assert table.candidates == ["/buy", "/faq", "/home"]


class TestEvaluatePairs:
    def test_matches_batch_restriction(self, toy_db, toy_graph):
        b = bind_text(CORPUS_BY_NAME["active_spender"].text)
        policy = AnchorPolicy(count=2, stride=20 * MICROS_PER_DAY, latest=ANCHOR)
        anchors = resolve_anchors(b, policy, toy_db)
        batch = materialize_training(plan_training(b, policy), toy_db)
        pairs = [(CUSTOMER(i), a) for i in range(3) for a in anchors]
        got = evaluate_pairs(toy_db, toy_graph, b, pairs, anchors_for_split=anchors)
        assert got.rows == batch.rows

    def test_validity_infeasible_pair_dropped(self):
        from pql.synth import GenSpec, generate

        db = generate(GenSpec(seed=2, customers=30, articles=5, transactions=300,
                              notifications=10, validity=True))
        b = bind(parse("PREDICT SUM(TRANSACTIONS.VALUE, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID"),
                 db.schema)
        g = build_row_graph(db)
        cust = db.table("CUSTOMERS")
        start_col = cust.definition.validity[0]
        row = next(i for i in range(cust.nrows) if cust.column(start_col).get(i) is not None)
        bad_anchor = cust.column(start_col).get(row) - MICROS_PER_DAY
        got = evaluate_pairs(db, g, b, [(RowRef("CUSTOMERS", row), bad_anchor)])
        assert got.rows == [] and got.metadata["dropped"]["validity_pruned"] == 1

    def test_a_pair_repeated_in_another_case_counts_once(self, toy_db, toy_graph):
        b = bind_text("PREDICT COUNT(TRANSACTIONS.*, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID")
        once = [(CUSTOMER(0), ANCHOR)]
        got = evaluate_pairs(
            toy_db, toy_graph, b, [(RowRef("customers", 0), ANCHOR), *once, *once], anchors_for_split=[ANCHOR]
        )
        want = evaluate_pairs(toy_db, toy_graph, b, once, anchors_for_split=[ANCHOR])
        assert got.rows == want.rows == [(1, ANCHOR, 2, "test")]
        assert got.metadata == want.metadata and got.metadata["pairs_expanded"] == 1

    def test_anchor_off_the_split_anchors_is_a_plan_error(self, toy_db, toy_graph):
        b = bind_text(CORPUS_BY_NAME["active_spender"].text)
        pairs = [(CUSTOMER(0), ANCHOR), (CUSTOMER(1), ANCHOR + MICROS_PER_DAY)]
        with pytest.raises(PlanError, match="^pair anchor 2024-01-02T00:00:00Z is not in anchors_for_split$"):
            evaluate_pairs(toy_db, toy_graph, b, pairs, anchors_for_split=[ANCHOR])

    @pytest.mark.parametrize("index", [-1, 3])
    def test_temporal_pair_row_outside_the_table_is_refused(self, toy_db, toy_graph, index):
        b = bind_text("PREDICT COUNT(TRANSACTIONS.*, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID")
        ref = CUSTOMER(index)
        message = f"^pair entity {re.escape(repr(ref))} is outside the 3 rows of CUSTOMERS$"
        with pytest.raises(ExecutionError, match=message):
            evaluate_pairs(toy_db, toy_graph, b, [(CUSTOMER(0), ANCHOR), (ref, ANCHOR)])

    @pytest.mark.parametrize("index", [-1, 8])
    def test_static_pair_row_outside_the_table_is_refused(self, retail_schema, index):
        db = build_toy_db(retail_schema)
        b = bind_text("PREDICT TRANSACTIONS.VALUE FOR EACH TRANSACTIONS.TRANSACTION_ID")
        ref = RowRef("TRANSACTIONS", index)
        message = f"^pair entity {re.escape(repr(ref))} is outside the 8 rows of TRANSACTIONS$"
        with pytest.raises(ExecutionError, match=message):
            evaluate_pairs(db, build_row_graph(db), b, [(ref, None)])


class TestPairAnchorsThatDoNotFit:
    """An anchor on a static query's pair, or none on a temporal query's,
    is a plan error wherever pairs enter, as in `plan_prediction` and
    `pql sample`; entity faults stay execution errors, and the first
    offending pair in input order decides."""

    STATIC = "PREDICT TRANSACTIONS.VALUE FOR EACH TRANSACTIONS.TRANSACTION_ID"
    TEMPORAL = "PREDICT COUNT(TRANSACTIONS.*, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID"

    @staticmethod
    def run(entry, db, g, b, pairs):
        from pql.leakage import leakage_rows
        from pql.sampler import build_request, collect, compute_on_subgraph

        if entry == "evaluate_pairs":
            return evaluate_pairs(db, g, b, pairs)
        if entry == "leakage_rows":
            for ref, anchor in pairs:
                leakage_rows(b, db, ref, anchor)
            return None
        if entry == "collect":
            return collect(g, build_request(b, pairs))
        # Collect the same entities at anchors that fit, so the collected check passes.
        fitting = [(ref, None if b.is_static else ANCHOR) for ref, _ in pairs]
        return compute_on_subgraph(b, collect(g, build_request(b, fitting)), pairs)

    @pytest.mark.parametrize("entry", ["evaluate_pairs", "collect", "compute_on_subgraph", "leakage_rows"])
    @pytest.mark.parametrize(
        "query,table,anchor,message",
        [(STATIC, "TRANSACTIONS", ANCHOR, "static query takes no anchor"),
         (TEMPORAL, "CUSTOMERS", None, "temporal query needs an anchor")],
        ids=["static", "temporal"],
    )
    def test_is_a_plan_error(self, toy_db, toy_graph, entry, query, table, anchor, message):
        b = bind_text(query)
        fits = None if anchor is not None else ANCHOR
        pairs = [(RowRef(table, 0), fits), (RowRef(table, 1), anchor)]
        with pytest.raises(PlanError, match=f"^{message}$"):
            self.run(entry, toy_db, toy_graph, b, pairs)

    # compute_on_subgraph cannot collect an outside entity to check it later.
    @pytest.mark.parametrize("entry", ["evaluate_pairs", "collect", "leakage_rows"])
    @pytest.mark.parametrize("outside", [CUSTOMER(3), RowRef("TRANSACTIONS", 1)])
    def test_the_first_offending_pair_decides(self, toy_db, toy_graph, entry, outside):
        b = bind_text(self.TEMPORAL)
        first = [(CUSTOMER(0), ANCHOR), (outside, ANCHOR), (CUSTOMER(2), None)]
        with pytest.raises(ExecutionError, match=f"^pair entity {re.escape(repr(outside))} is "):
            self.run(entry, toy_db, toy_graph, b, first)
        with pytest.raises(PlanError, match="^temporal query needs an anchor$"):
            self.run(entry, toy_db, toy_graph, b, [first[0], first[2], first[1]])

    @pytest.mark.parametrize(
        "entity,fault",
        [(CUSTOMER(10**6), "is outside the 650 rows of CUSTOMERS"),
         (CUSTOMER(-1), "is outside the 650 rows of CUSTOMERS"),
         (RowRef("ARTICLES", 0), "is not from CUSTOMERS")],
        ids=["past_the_end", "negative", "other_table"],
    )
    def test_leakage_checks_the_entity_before_its_validity(self, entity, fault):
        # Customers 0 and 649 both sign up after the anchor, so reading
        # either one's validity in place of the entity's would refuse the
        # pair for its anchor instead.
        db = generate(hm_genspec(scale=0.0005, seed=1, validity=True))
        b = bind(parse(self.TEMPORAL), db.schema)
        from pql.leakage import leakage_rows

        with pytest.raises(ExecutionError, match=f"^pair entity {re.escape(repr(entity))} {fault}$"):
            leakage_rows(b, db, entity, parse_timestamp("2022-01-01"))

    ENTRIES = ["evaluate_pairs", "collect", "compute_on_subgraph", "leakage_rows"]
    NOT_INT64 = [1.5, "3", np.float64(2.0), 10**30, -(10**30), 2**63, None]

    # compute_on_subgraph collects the entity it is given, so the collect
    # refuses an entity that is no row before compute_on_subgraph runs.
    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("index", NOT_INT64, ids=repr)
    def test_an_index_that_is_no_int64_is_an_execution_error(self, toy_db, toy_graph, entry, index):
        b = bind_text(self.TEMPORAL)
        entity = CUSTOMER(index)
        pairs = [(CUSTOMER(0), ANCHOR), (entity, ANCHOR), (CUSTOMER(2), None)]
        with pytest.raises(ExecutionError, match=f"^pair entity {re.escape(repr(entity))} has no int64 row index$"):
            self.run(entry, toy_db, toy_graph, b, pairs)

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("anchor", [ANCHOR + 0.5, str(ANCHOR), np.float64(ANCHOR), 10**30, -(10**30), 2**63],
                             ids=repr)
    def test_an_anchor_that_is_no_int64_is_a_plan_error(self, toy_db, toy_graph, entry, anchor):
        b = bind_text(self.TEMPORAL)
        pairs = [(CUSTOMER(0), ANCHOR), (CUSTOMER(1), anchor), (CUSTOMER(2), None)]
        with pytest.raises(PlanError, match=f"^pair anchor {re.escape(repr(anchor))} is not an int64 timestamp$"):
            self.run(entry, toy_db, toy_graph, b, pairs)

    @pytest.mark.parametrize("entry", ["evaluate_pairs", "collect", "leakage_rows"])
    def test_the_first_pair_that_is_no_int64_decides(self, toy_db, toy_graph, entry):
        b = bind_text(self.TEMPORAL)
        bad_index, bad_anchor = (CUSTOMER(1.5), ANCHOR), (CUSTOMER(1), ANCHOR + 0.5)
        with pytest.raises(ExecutionError, match="^pair entity .* has no int64 row index$"):
            self.run(entry, toy_db, toy_graph, b, [(CUSTOMER(0), ANCHOR), bad_index, bad_anchor])
        with pytest.raises(PlanError, match="^pair anchor .* is not an int64 timestamp$"):
            self.run(entry, toy_db, toy_graph, b, [(CUSTOMER(0), ANCHOR), bad_anchor, bad_index])

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_numpy_integers_read_as_python_ints(self, toy_db, toy_graph, entry):
        from pql.leakage import leakage_rows

        b = bind_text(self.TEMPORAL)
        plain = [(CUSTOMER(i), ANCHOR - i * MICROS_PER_DAY) for i in range(3)]
        typed = [(CUSTOMER(np.int32(ref.index)), np.int64(a)) for ref, a in plain]
        if entry == "leakage_rows":
            got = [leakage_rows(b, toy_db, ref, a) for ref, a in typed]
            assert got == [leakage_rows(b, toy_db, ref, a) for ref, a in plain]
        else:
            got = self.run(entry, toy_db, toy_graph, b, typed).rows
            assert repr(got) == repr(self.run(entry, toy_db, toy_graph, b, plain).rows)


class TestEmptyParentTable:
    """ARTICLES holds no rows, so every transaction's ARTICLE_ID dangles and
    `--lenient-fk` keeps it: a hop into the empty table reads null."""

    QUERIES = {
        "count_blue": ('PREDICT COUNT(TRANSACTIONS.* WHERE ARTICLES.COLOR = "blue", 0, 30, days) '
                       "FOR EACH CUSTOMERS.CUSTOMER_ID", 0),
        "blue_values": ("PREDICT TRANSACTIONS.VALUE FOR EACH TRANSACTIONS.TRANSACTION_ID "
                        'WHERE ARTICLES.COLOR = "blue"', 2),
        "blue_target": ('PREDICT ARTICLES.COLOR = "blue" FOR EACH TRANSACTIONS.TRANSACTION_ID', 2),
    }

    @pytest.fixture(scope="class")
    def data_dir(self, tmp_path_factory):
        import json

        from conftest import ARTICLES_CSV, CUSTOMERS_CSV, NOTIFICATIONS_CSV, TRANSACTIONS_CSV
        from corpus import SCHEMA_DOCS

        root = tmp_path_factory.mktemp("no_articles")
        (root / "schema.json").write_text(json.dumps(SCHEMA_DOCS["retail"]))
        (root / "customers.csv").write_text(CUSTOMERS_CSV)
        (root / "articles.csv").write_text(ARTICLES_CSV.splitlines()[0] + "\n")
        (root / "transactions.csv").write_text(TRANSACTIONS_CSV)
        (root / "notifications.csv").write_text(NOTIFICATIONS_CSV)
        return root

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_every_path_reads_null(self, name, data_dir, tmp_path, capsys):
        from pql.cli import main
        from pql.sampler import build_request, collect, compute_on_subgraph
        from pql.store import load_database

        text, exit_code = self.QUERIES[name]
        db = load_database(data_dir / "schema.json", data_dir, strict=False)
        g = build_row_graph(db)
        b = bind(parse(text), db.schema)
        policy = AnchorPolicy(count=2, latest=ANCHOR)
        anchors = resolve_anchors(b, policy, db)
        pairs = [(RowRef(b.entity_table, i), a) for i in range(db.nrows(b.entity_table)) for a in anchors or [None]]
        want = oracle_training(b, db, anchors).rows
        assert bool(want) == (exit_code == 0)
        assert materialize_training(plan_training(b, policy), db).rows == want
        assert materialize_training(plan_training(b, policy, optimized=False), db).rows == want
        assert evaluate_pairs(db, g, b, pairs, anchors_for_split=anchors).rows == want
        sub = collect(g, build_request(b, pairs))
        assert compute_on_subgraph(b, sub, pairs, anchors_for_split=anchors).rows == want

        args = ["train-table", "--data-dir", str(data_dir), "--schema", str(data_dir / "schema.json"),
                "--out-dir", str(tmp_path / "out"), "--lenient-fk", "--anchors", "2",
                "--latest", "2024-01-01", "--query", text]
        assert main(args) == exit_code
        assert "Traceback" not in capsys.readouterr().err


class TestInt64Sum:
    """SUM over an int64 column is exact, and raises when the true sum
    leaves int64, in the kernels and the oracle alike."""

    DOC = {
        "tables": [
            {"name": "C", "columns": [{"name": "ID", "dtype": "int64", "stype": "key"}],
             "primary_key": "ID"},
            {
                "name": "T",
                "columns": [
                    {"name": "ID", "dtype": "int64", "stype": "key"},
                    {"name": "C_ID", "dtype": "int64", "stype": "key"},
                    {"name": "V", "dtype": "int64", "stype": "numerical"},
                    {"name": "AT", "dtype": "timestamp", "stype": "temporal"},
                ],
                "primary_key": "ID",
                "time_column": "AT",
                "foreign_keys": [{"column": "C_ID", "references": "C"}],
            },
        ]
    }
    QUERY = "PREDICT SUM(T.V, 0, 30, days) FOR EACH C.ID"

    def db_with(self, values_by_customer, earlier=None):
        """T rows on 2024-01-01, -02, ... (inside the target window) and, from
        `earlier`, on 2023-12-10, -11, ... (inside a 30-day look-back)."""
        from pql.store import load_schema, load_table_data, new_database

        earlier = earlier or {}
        db = new_database(load_schema(self.DOC))
        customers = sorted(set(values_by_customer) | set(earlier))
        load_table_data(db, "C", "ID\n" + "".join(f"{c}\n" for c in customers))
        lines, tid = ["ID,C_ID,V,AT"], 0
        for month, first, by_customer in (("2024-01", 1, values_by_customer), ("2023-12", 10, earlier)):
            for c, values in by_customer.items():
                for day, v in enumerate(values, start=first):
                    tid += 1
                    lines.append(f"{tid},{c},{v},{month}-{day:02d}")
        load_table_data(db, "T", "\n".join(lines) + "\n")
        return db

    def paths(self, db, query):
        """The staged, cross-product, pairwise and oracle evaluations of
        `query` at ANCHOR over every customer, as thunks."""
        b = bind(parse(query), db.schema)
        policy = AnchorPolicy(count=1, latest=ANCHOR)
        anchors = resolve_anchors(b, policy, db)
        pairs = [(RowRef("C", i), ANCHOR) for i in range(db.nrows("C"))]
        return [
            lambda: materialize_training(plan_training(b, policy), db),
            lambda: materialize_training(plan_training(b, policy, optimized=False), db),
            lambda: evaluate_pairs(db, build_row_graph(db), b, pairs, anchors_for_split=anchors),
            lambda: oracle_training(b, db, anchors),
        ]

    def run_all(self, db, query=QUERY):
        return [run().rows for run in self.paths(db, query)]

    def assert_raises_everywhere(self, db, query=QUERY):
        for run in self.paths(db, query):
            with pytest.raises(ExecutionError, match="int64"):
                run()

    def test_overflow_raises_everywhere(self):
        self.assert_raises_everywhere(self.db_with({1: [2**62, 2**62]}))

    def test_sums_at_the_int64_bounds_are_exact(self):
        top, bottom = 2**63 - 1, -(2**63)
        db = self.db_with({
            1: [2**62, 2**62 - 1],  # exactly the maximum
            2: [-(2**62), -(2**62)],  # exactly the minimum
            3: [2**62, 2**62, -5],  # a running sum leaves int64, the total does not
            4: [7, -3],
        })
        want = [(1, ANCHOR, top, "test"), (2, ANCHOR, bottom, "test"),
                (3, ANCHOR, top - 4, "test"), (4, ANCHOR, 4, "test")]
        for rows in self.run_all(db):
            assert rows == want

    def test_overflow_in_a_filtered_out_target_fails_no_path(self):
        # Customer 1's target overflows, but the filter drops it first; the
        # cross-product baseline computes that target too and must not fail.
        db = self.db_with({1: [2**62, 2**62], 2: [5]}, earlier={2: [1]})
        query = self.QUERY + " WHERE COUNT(T.*, -30, 0, days) > 0"
        for rows in self.run_all(db, query):
            assert rows == [(2, ANCHOR, 5, "test")]

    def test_overflow_in_a_filter_fails_only_for_a_row_that_reaches_it(self):
        query = self.QUERY + " WHERE COUNT(T.*, -30, 0, days) != 2 AND SUM(T.V, -30, 0, days) > 0"
        # Customer 1's two look-back rows make the first conjunct drop it
        # before its overflowing look-back SUM.
        db = self.db_with({1: [3], 2: [5]}, earlier={1: [2**62, 2**62], 2: [1]})
        for rows in self.run_all(db, query):
            assert rows == [(2, ANCHOR, 5, "test")]
        db = self.db_with({1: [3], 2: [5]}, earlier={1: [2**62, 2**62, 1], 2: [1]})
        self.assert_raises_everywhere(db, query)

    def test_nested_overflow_is_charged_to_its_entity(self):
        from pql.store import load_schema, load_table_data, new_database

        key = {"dtype": "int64", "stype": "key"}
        at = {"name": "AT", "dtype": "timestamp", "stype": "temporal"}
        doc = {"tables": [
            {"name": "C", "columns": [{"name": "ID", **key}], "primary_key": "ID"},
            {"name": "T", "columns": [{"name": "ID", **key}, {"name": "C_ID", **key}, at],
             "primary_key": "ID", "time_column": "AT",
             "foreign_keys": [{"column": "C_ID", "references": "C"}]},
            {"name": "U", "columns": [{"name": "ID", **key}, {"name": "T_ID", **key},
                                      {"name": "V", "dtype": "int64", "stype": "numerical"}, at],
             "primary_key": "ID", "time_column": "AT",
             "foreign_keys": [{"column": "T_ID", "references": "T"}]},
        ]}
        db = new_database(load_schema(doc))
        load_table_data(db, "C", "ID\n1\n2\n3\n")
        # Customer 1's order has two 2^62 items; customers 2 and 3 are small,
        # and only customer 3 has an order in the look-back window.
        load_table_data(db, "T", "ID,C_ID,AT\n1,1,2024-01-02\n2,2,2024-01-02\n"
                        "3,3,2023-12-20\n4,3,2024-01-02\n")
        load_table_data(db, "U", f"ID,T_ID,V,AT\n1,1,{2**62},2024-01-03\n"
                        f"2,1,{2**62},2024-01-04\n3,2,5,2024-01-03\n4,4,1,2024-01-03\n")
        target = "PREDICT COUNT(T.* WHERE SUM(U.V, 0, 30, days) > 0, 0, 30, days) FOR EACH C.ID"
        self.assert_raises_everywhere(db, target)
        for rows in self.run_all(db, target + " WHERE COUNT(T.*, -30, 0, days) > 0"):
            assert rows == [(3, ANCHOR, 1, "test")]


class TestPlanExecutor:
    """One executor walks the nodes of every plan the planner builds."""

    MIXED = (
        "PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID "
        "WHERE CUSTOMERS.AGE > 30 AND COUNT(TRANSACTIONS.*, -30, 0, days) > 0 "
        "ASSUMING COUNT(NOTIFICATIONS.*, 0, 7, days) > 0"
    )

    @pytest.fixture(scope="class")
    def validity_case(self):
        """Generated data with validity columns, the MIXED query (a static
        and a temporal conjunct plus ASSUMING) and its anchors."""
        db = generate(hm_genspec(scale=0.0005, seed=4, validity=True))
        b = bind(parse(self.MIXED), db.schema)
        policy = AnchorPolicy(count=3)
        return db, b, policy, resolve_anchors(b, policy, db)

    def test_handles_exactly_the_node_kinds_the_planner_emits(self):
        # Every corpus query on its own schema, and the retail ones again on
        # the generated schema with validity columns.
        bindings = [(e.text, schema(e.schema_key)) for e in CORPUS]
        validity = template_schema(validity=True)
        bindings += [(e.text, validity) for e in CORPUS if e.schema_key in ("retail", "hm_bench")]
        kinds = set()
        for text, sch in bindings:
            b = bind(parse(text), sch)
            for plan in (plan_training(b), plan_training(b, optimized=False), plan_prediction(b)):
                kinds.update(node.kind for node in plan.nodes)
        assert set(engine._HANDLERS) == kinds

    def test_pairs_over_the_cross_product_match_the_naive_strategy(self, validity_case):
        # Drops fall under the first node of the plan that makes them, so
        # the pairwise path counts them as the cross product does.
        db, b, policy, anchors = validity_case
        naive = materialize_training(plan_training(b, policy, optimized=False), db)
        pairs = [(RowRef("CUSTOMERS", i), a) for a in anchors for i in range(db.nrows("CUSTOMERS"))]
        got = evaluate_pairs(db, build_row_graph(db), b, pairs, anchors_for_split=anchors)
        assert got.rows == naive.rows
        assert got.metadata["dropped"] == naive.metadata["dropped"]
        assert got.metadata["pairs_expanded"] == naive.metadata["pairs_expanded"]
        assert naive.metadata["dropped"]["validity_pruned"] > 0

    def test_pushed_down_static_filters_drop_entities_not_pairs(self, validity_case):
        # The staged plan filters entities before expanding them over the
        # anchors: those drops are not pairs and go uncounted.
        db, b, policy, anchors = validity_case
        age = db.table("CUSTOMERS").column("AGE")
        old = int((~age.null & (age.values > 30)).sum())
        staged = materialize_training(plan_training(b, policy), db).metadata
        naive = materialize_training(plan_training(b, policy, optimized=False), db).metadata
        assert staged["pairs_expanded"] == old * len(anchors)
        assert naive["pairs_expanded"] == db.nrows("CUSTOMERS") * len(anchors)
        assert staged["dropped"]["static_filtered"] == 0
        for meta in (staged, naive):
            assert meta["pairs_expanded"] == meta["row_count"] + sum(meta["dropped"].values())


class TestStaticSplits:
    """A static table's split codes are `split_for_key` of each row's key,
    whatever the key type, the row order or the path that computed them."""

    UNFILTERED = "PREDICT TRANSACTIONS.VALUE FOR EACH TRANSACTIONS.TRANSACTION_ID"

    @staticmethod
    def train(db, text, split=None):
        return materialize_training(plan_training(bind(parse(text), db.schema)), db, split=split)

    @staticmethod
    def labels(table):
        return [r[3] for r in table.rows]

    @pytest.mark.parametrize("policy", [SplitPolicy(), SplitPolicy(0.5, 0.25, 0.25, seed=7)])
    def test_pairs_in_any_order_match_the_batch(self, policy):
        db = generate(GenSpec(seed=2, customers=30, articles=5, transactions=300, notifications=10))
        batch = self.train(db, self.UNFILTERED, policy)
        assert self.labels(batch) == [split_for_key(k, policy) for k in batch.keys.tolist()]
        b = bind(parse(self.UNFILTERED), db.schema)
        pairs = [(RowRef("TRANSACTIONS", i), None) for i in reversed(range(db.nrows("TRANSACTIONS")))]
        assert evaluate_pairs(db, build_row_graph(db), b, pairs, split=policy).rows == batch.rows

    def test_string_primary_keys(self):
        sch = load_schema({"tables": [{
            "name": "ITEMS",
            "columns": [{"name": "ITEM_ID", "dtype": "string", "stype": "key"},
                        {"name": "PRICE", "dtype": "float64", "stype": "numerical"}],
            "primary_key": "ITEM_ID",
        }]})
        # Rows out of key order, so a code taken from the wrong row shows.
        csv = "ITEM_ID,PRICE\n" + "".join(f"item-{i * 7 % 40:03d},{i}.5\n" for i in range(40))
        db = load_table_data(new_database(sch), "ITEMS", csv)
        for text in ("PREDICT ITEMS.PRICE FOR EACH ITEMS.ITEM_ID WHERE ITEMS.PRICE > 20",
                     "PREDICT ITEMS.PRICE FOR EACH ITEMS.ITEM_ID"):
            table = self.train(db, text)
            assert self.labels(table) == [split_for_key(k, SplitPolicy()) for k in table.keys.tolist()]
        assert table.keys.dtype == object and table.row_count == 40


class TestRowGraphOfAnotherDatabase:
    """Every entry that takes a database and a row graph refuses a graph
    that is not the database's current one, instead of gathering rows the
    database does not hold."""

    TEXT = "PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID"
    ENTRIES = {
        "materialize_training": lambda db, g, bound: materialize_training(plan_training(bound), db, g),
        "materialize_prediction": lambda db, g, bound: materialize_prediction(plan_prediction(bound), db, g),
        "evaluate_pairs": lambda db, g, bound: evaluate_pairs(db, g, bound, [(CUSTOMER(0), ANCHOR)]),
        "sample_pairs": lambda db, g, bound: sample_pairs(db, g, bound, 2),
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_a_graph_of_another_database(self, retail_schema, entry):
        db, other = build_toy_db(retail_schema), build_toy_db(retail_schema)
        bound = bind_text(self.TEXT)
        with pytest.raises(ExecutionError, match="^the row graph was built from another database$"):
            self.ENTRIES[entry](db, build_row_graph(other), bound)
        self.ENTRIES[entry](db, build_row_graph(db), bound)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_a_graph_built_before_a_reload(self, retail_schema, entry):
        db = build_toy_db(retail_schema)
        stale = build_row_graph(db)
        load_table_data(db, "TRANSACTIONS", TRANSACTIONS_CSV)
        bound = bind_text(self.TEXT)
        with pytest.raises(ExecutionError, match="^the row graph is stale: a table was loaded after it was built$"):
            self.ENTRIES[entry](db, stale, bound)
        self.ENTRIES[entry](db, build_row_graph(db), bound)
