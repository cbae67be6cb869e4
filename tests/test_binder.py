"""Semantic analysis: hop resolution, type checking, task inference,
timeframe arithmetic, prediction-filter extraction, leakage masks."""

import pytest

from corpus import CORPUS_BY_NAME, schema

from pql.binder import (
    BoundAggregation,
    BoundAnd,
    BoundColumn,
    BoundCompare,
    TaskType,
    and_operands,
    bind,
    walk,
)
from pql.errors import BindError
from pql.leakage import leakage_rows
from pql.parser import parse
from pql.store import FkEdge, RowRef
from pql.times import MICROS_PER_DAY, parse_timestamp


def bind_text(text, key="retail"):
    return bind(parse(text), schema(key))


class TestBind:
    def test_static_query_filter_hops_to_parent(self):
        b = bind_text(CORPUS_BY_NAME["impute_value_over_100"].text)
        assert b.entity_table == "TRANSACTIONS"
        (conj,) = b.conjuncts
        assert not conj.temporal
        col = conj.condition.lhs
        assert col.table == "CUSTOMERS" and col.column == "LOCATION_ID"
        assert col.hops == (FkEdge("TRANSACTIONS", "CUSTOMER_ID", "CUSTOMERS"),)

    def test_recommendation_filter_mixes_child_and_parent(self):
        b = bind_text(CORPUS_BY_NAME["blue_articles"].text)
        agg = b.target
        assert isinstance(agg, BoundAggregation)
        assert agg.group_edge == FkEdge("TRANSACTIONS", "CUSTOMER_ID", "CUSTOMERS")
        left, right = agg.where.left, agg.where.right
        assert left.lhs.table == "TRANSACTIONS" and left.lhs.hops == ()
        assert right.lhs.table == "ARTICLES"
        assert right.lhs.hops == (FkEdge("TRANSACTIONS", "ARTICLE_ID", "ARTICLES"),)

    def test_aggregating_entity_table_itself_fails(self):
        with pytest.raises(BindError, match="grouped by itself"):
            bind_text("PREDICT SUM(CUSTOMERS.AGE, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID", "hm_bench")

    def test_unknown_table_and_column(self):
        with pytest.raises(BindError, match="unknown table"):
            bind_text("PREDICT NOPE.X FOR EACH CUSTOMERS.CUSTOMER_ID")
        with pytest.raises(BindError, match="unknown column"):
            bind_text("PREDICT CUSTOMERS.NOPE FOR EACH CUSTOMERS.CUSTOMER_ID")

    def test_entity_must_be_primary_key(self):
        with pytest.raises(BindError, match="not the primary key"):
            bind_text("PREDICT TRANSACTIONS.VALUE FOR EACH CUSTOMERS.LOCATION_ID")
        with pytest.raises(BindError, match="no primary key|not the primary key|unknown column"):
            bind_text("PREDICT TRANSACTIONS.VALUE FOR EACH NOTIFICATIONS.NOTIFICATION_TYPE")

    def test_windowed_aggregation_needs_time_column(self):
        from pql.store import load_schema

        doc = {
            "tables": [
                {
                    "name": "USERS",
                    "columns": [{"name": "ID", "dtype": "int64", "stype": "key"}],
                    "primary_key": "ID",
                },
                {
                    "name": "BADGES",  # no time column
                    "columns": [
                        {"name": "ID", "dtype": "int64", "stype": "key"},
                        {"name": "USER_ID", "dtype": "int64", "stype": "key"},
                    ],
                    "primary_key": "ID",
                    "foreign_keys": [{"column": "USER_ID", "references": "USERS"}],
                },
            ]
        }
        with pytest.raises(BindError, match="no time column"):
            bind(parse("PREDICT COUNT(BADGES.*, 0, 7, days) FOR EACH USERS.ID"), load_schema(doc))
        with pytest.raises(BindError, match="needs a time column"):
            bind(parse("PREDICT FIRST(BADGES.USER_ID) FOR EACH USERS.ID"), load_schema(doc))

    def test_no_fk_between_tables(self):
        with pytest.raises(BindError, match="no foreign key referencing"):
            bind_text("PREDICT COUNT(NOTIFICATIONS.*, 0, 7, days) FOR EACH ARTICLES.ARTICLE_ID")

    def test_unreachable_filter_column(self):
        with pytest.raises(BindError, match="not reachable"):
            bind_text(
                "PREDICT TRANSACTIONS.VALUE FOR EACH TRANSACTIONS.TRANSACTION_ID "
                "WHERE NOTIFICATIONS.NOTIFICATION_TYPE = 'push'"
            )

    def test_type_mismatches(self):
        with pytest.raises(BindError, match="does not match operand type"):
            bind_text("PREDICT TRANSACTIONS.VALUE > 'high' FOR EACH TRANSACTIONS.TRANSACTION_ID")
        with pytest.raises(BindError, match="needs a string operand"):
            bind_text("PREDICT TRANSACTIONS.VALUE LIKE 'a%' FOR EACH TRANSACTIONS.TRANSACTION_ID")
        with pytest.raises(BindError, match="IS / IS NOT"):
            bind_text("PREDICT TRANSACTIONS.VALUE IS 5 FOR EACH TRANSACTIONS.TRANSACTION_ID")
        with pytest.raises(BindError, match="needs an array"):
            bind_text("PREDICT TRANSACTIONS.VALUE IN 5 FOR EACH TRANSACTIONS.TRANSACTION_ID")

    def test_numeric_order_on_key_rejected(self):
        with pytest.raises(BindError, match="numerical or temporal"):
            bind_text(
                "PREDICT TRANSACTIONS.VALUE FOR EACH TRANSACTIONS.TRANSACTION_ID "
                "WHERE TRANSACTIONS.CUSTOMER_ID > 5"
            )

    def test_target_window_must_look_forward(self):
        with pytest.raises(BindError, match="look forward"):
            bind_text("PREDICT SUM(TRANSACTIONS.VALUE, -30, 0, days) FOR EACH CUSTOMERS.CUSTOMER_ID")
        with pytest.raises(BindError, match="look forward"):
            bind_text("PREDICT SUM(TRANSACTIONS.VALUE, -INF, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID")

    def test_assuming_window_must_look_forward(self):
        with pytest.raises(BindError, match="ASSUMING windows must look forward"):
            bind_text(
                "PREDICT SUM(TRANSACTIONS.VALUE, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID "
                "ASSUMING COUNT(NOTIFICATIONS.*, -5, 5, days) > 0"
            )

    def test_entity_filter_window_must_look_back(self):
        with pytest.raises(BindError, match="entity filter windows"):
            bind_text(
                "PREDICT SUM(TRANSACTIONS.VALUE, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID "
                "WHERE COUNT(TRANSACTIONS.*, 0, 5, days) > 0"
            )

    def test_assuming_requires_temporal_query(self):
        with pytest.raises(BindError, match="ASSUMING requires a temporal query"):
            bind_text(
                "PREDICT TRANSACTIONS.VALUE FOR EACH TRANSACTIONS.TRANSACTION_ID "
                "ASSUMING CUSTOMERS.MEMBERSHIP_TYPE = 'gold'"
            )
        # A windowless ASSUMING condition is fine when the query has windows.
        b = bind_text(
            "PREDICT SUM(TRANSACTIONS.VALUE, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID "
            "ASSUMING CUSTOMERS.MEMBERSHIP_TYPE = 'gold'"
        )
        assert b.assuming is not None and not b.is_static

    # The error names the leftmost unwindowed aggregation: target, then the
    # entity filter left to right, then ASSUMING.
    @pytest.mark.parametrize(
        "text,first",
        [
            ("PREDICT SUM(TRANSACTIONS.VALUE, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID "
             "WHERE COUNT(TRANSACTIONS.*) > 0", "COUNT(TRANSACTIONS"),
            ("PREDICT SUM(TRANSACTIONS.VALUE) FOR EACH CUSTOMERS.CUSTOMER_ID "
             "WHERE COUNT(NOTIFICATIONS.*) > 0 AND COUNT(TRANSACTIONS.*, -30, 0, days) > 0", "SUM("),
            ("PREDICT SUM(TRANSACTIONS.VALUE, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID "
             "WHERE COUNT(NOTIFICATIONS.*) > 0 AND MAX(TRANSACTIONS.VALUE) > 5", "COUNT(NOTIFICATIONS"),
            ("PREDICT SUM(TRANSACTIONS.VALUE, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID "
             "WHERE NOT MAX(TRANSACTIONS.VALUE) > 5 OR COUNT(NOTIFICATIONS.*) > 0", "MAX("),
            ("PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID "
             "WHERE COUNT(NOTIFICATIONS.*) > 0 ASSUMING MAX(TRANSACTIONS.VALUE) > 5", "COUNT(NOTIFICATIONS"),
            ("PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID "
             "ASSUMING MAX(TRANSACTIONS.VALUE) > 5 AND COUNT(NOTIFICATIONS.*) > 0", "MAX("),
        ],
        ids=["filter", "target_first", "filter_left", "under_not_or", "filter_before_assuming", "assuming_left"],
    )
    def test_unwindowed_aggregation_in_temporal_query(self, text, first):
        with pytest.raises(BindError, match="unwindowed") as exc:
            bind_text(text)
        assert exc.value.code == "mixed-temporality"
        assert exc.value.span.col == text.index(first) + 1

    def test_datetime_literal_binds_against_temporal_column(self):
        b = bind_text(
            "PREDICT TRANSACTIONS.VALUE FOR EACH TRANSACTIONS.TRANSACTION_ID "
            "WHERE CUSTOMERS.SIGNUP_DATE >= '2023-11-01'"
        )
        (conj,) = b.conjuncts
        assert conj.condition.rhs.value == parse_timestamp("2023-11-01")
        with pytest.raises(BindError, match="ISO-8601"):
            bind_text(
                "PREDICT TRANSACTIONS.VALUE FOR EACH TRANSACTIONS.TRANSACTION_ID "
                "WHERE CUSTOMERS.SIGNUP_DATE >= 'not a date'"
            )

    def test_two_hop_chain_resolution(self):
        from pql.store import load_schema
        from pql.synth import random_schema

        # Random schemas can nest SUB0 -> EVENT0 -> DIM0; a SUB0-rooted
        # filter on a DIM0 column must resolve through both hops.
        for seed in range(60):
            sch = random_schema(seed)
            if not sch.has_table("SUB0"):
                continue
            b = bind(
                parse("PREDICT COUNT(SUB0.* WHERE DIM0.LABEL = 'red', 0, 7, days) "
                      "FOR EACH EVENT0.ID"),
                sch,
            )
            cond = b.target.where
            assert len(cond.lhs.hops) == 2
            assert [h.parent_table for h in cond.lhs.hops] == ["EVENT0", "DIM0"]
            return
        pytest.skip("no generated schema with a grandchild table")

    def test_ambiguous_fk_is_rejected_naming_both(self):
        doc = {
            "tables": [
                {
                    "name": "USERS",
                    "columns": [{"name": "ID", "dtype": "int64", "stype": "key"}],
                    "primary_key": "ID",
                },
                {
                    "name": "TRANSFERS",
                    "columns": [
                        {"name": "ID", "dtype": "int64", "stype": "key"},
                        {"name": "SENDER_ID", "dtype": "int64", "stype": "key"},
                        {"name": "RECEIVER_ID", "dtype": "int64", "stype": "key"},
                        {"name": "AT", "dtype": "timestamp", "stype": "temporal"},
                    ],
                    "primary_key": "ID",
                    "time_column": "AT",
                    "foreign_keys": [
                        {"column": "SENDER_ID", "references": "USERS"},
                        {"column": "RECEIVER_ID", "references": "USERS"},
                    ],
                },
            ]
        }
        from pql.store import load_schema

        with pytest.raises(BindError, match="SENDER_ID, RECEIVER_ID"):
            bind(parse("PREDICT COUNT(TRANSFERS.*, 0, 7, days) FOR EACH USERS.ID"), load_schema(doc))


class TestWalk:
    QUERY = (
        'PREDICT COUNT(TRANSACTIONS.* WHERE ARTICLES.COLOR = "blue" OR NOT TRANSACTIONS.VALUE > 5, '
        "0, 7, days) > 0 FOR EACH CUSTOMERS.CUSTOMER_ID "
        "WHERE CUSTOMERS.MEMBERSHIP_TYPE = 'gold' AND (CUSTOMERS.LOCATION_ID = 'Paris' "
        "OR COUNT(TRANSACTIONS.*, -30, 0, days) > 0) AND CUSTOMERS.LOCATION_ID IS NOT NULL"
    )

    def test_each_node_before_its_operands_left_before_right(self):
        target = bind_text(self.QUERY).target
        names = [type(n).__name__ for n in walk(target)]
        assert names == [
            "BoundCompare", "BoundAggregation",
            "BoundOr", "BoundCompare", "BoundColumn", "BoundNot", "BoundCompare", "BoundColumn",
        ]
        assert [n.table for n in walk(target) if isinstance(n, BoundColumn)] == ["ARTICLES", "TRANSACTIONS"]

    def test_filters_off_stays_out_of_aggregation_where(self):
        target = bind_text(self.QUERY).target
        assert list(walk(target, filters=False)) == [target, target.lhs]
        assert list(walk(None)) == []

    def test_parts_are_target_conjuncts_and_assuming(self):
        b = bind_text(self.QUERY)
        conditions = [c.condition for c in b.conjuncts]
        assert [c.temporal for c in b.conjuncts] == [False, True, False]
        assert conditions == and_operands(BoundAnd(BoundAnd(*conditions[:2]), conditions[2]))
        assert b.parts == (b.target, *conditions, None)
        assert and_operands(None) == [] and and_operands(conditions[1]) == [conditions[1]]


class TestPurity:
    def test_binding_is_deterministic(self):
        for name in ("active_spender_notified", "blue_articles", "impute_value_over_100"):
            entry = CORPUS_BY_NAME[name]
            a = bind_text(entry.text, entry.schema_key)
            b = bind_text(entry.text, entry.schema_key)
            assert a.target == b.target
            assert a.conjuncts == b.conjuncts
            assert a.task == b.task
            assert a.timeframe == b.timeframe
            assert a.leakage == b.leakage


class TestTaskInference:
    @pytest.mark.parametrize(
        "name", ["shirt_demand", "active_spender", "store_recommendation", "impute_value"]
    )
    def test_corpus_tasks(self, name):
        entry = CORPUS_BY_NAME[name]
        b = bind_text(entry.text, entry.schema_key)
        assert b.task.task_type is entry.task

    def test_link_prediction_metadata(self):
        b = bind_text(CORPUS_BY_NAME["store_recommendation"].text, "delivery")
        assert b.task.task_type is TaskType.LINK_PREDICTION
        assert b.task.top_k == 12
        assert b.task.link_target_table == "STORES"

    def test_list_distinct_over_non_fk_is_multilabel(self):
        b = bind_text(
            "PREDICT LIST_DISTINCT(TRANSACTIONS.VALUE, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID"
        )
        assert b.task.task_type is TaskType.MULTILABEL_CLASSIFICATION

    def test_rank_requires_link_prediction(self):
        with pytest.raises(BindError, match="RANK requires"):
            bind_text("PREDICT SUM(TRANSACTIONS.VALUE, 0, 30, days) RANK FOR EACH CUSTOMERS.CUSTOMER_ID")
        with pytest.raises(BindError, match="RANK requires"):
            bind_text(
                "PREDICT LIST_DISTINCT(TRANSACTIONS.VALUE, 0, 30, days) RANK TOP 3 "
                "FOR EACH CUSTOMERS.CUSTOMER_ID"
            )

    def test_classify_rejected_on_condition_target(self):
        with pytest.raises(BindError, match="CLASSIFY is redundant"):
            bind_text("PREDICT TRANSACTIONS.VALUE > 100 CLASSIFY FOR EACH TRANSACTIONS.TRANSACTION_ID")

    def test_classify_coerces_numeric_column(self):
        b = bind_text("PREDICT TRANSACTIONS.VALUE CLASSIFY FOR EACH TRANSACTIONS.TRANSACTION_ID")
        assert b.task.task_type is TaskType.MULTICLASS_CLASSIFICATION

    def test_categorical_column_is_multiclass(self):
        b = bind_text("PREDICT CUSTOMERS.MEMBERSHIP_TYPE FOR EACH CUSTOMERS.CUSTOMER_ID")
        assert b.task.task_type is TaskType.MULTICLASS_CLASSIFICATION

    def test_text_target_rejected(self):
        with pytest.raises(BindError, match="text column"):
            bind_text("PREDICT ARTICLES.DESCRIPTION FOR EACH ARTICLES.ARTICLE_ID")

    def test_static_rank_query(self):
        b = bind_text(CORPUS_BY_NAME["top_pages"].text, "web")
        assert b.task.task_type is TaskType.LINK_PREDICTION
        assert b.task.temporality == "static"
        assert b.task.top_k == 10


class TestTimeframe:
    def test_timeline_example_85_days(self):
        b = bind_text(CORPUS_BY_NAME["active_spender"].text)
        assert b.timeframe.past == 40 * MICROS_PER_DAY
        assert b.timeframe.future == 45 * MICROS_PER_DAY
        assert b.timeframe.total == 85 * MICROS_PER_DAY

    def test_assuming_inside_future_extent(self):
        b = bind_text(CORPUS_BY_NAME["active_spender_notified"].text)
        assert b.timeframe.future == 45 * MICROS_PER_DAY  # ASSUMING band ends at day 15

    def test_assuming_can_extend_future(self):
        b = bind_text(
            "PREDICT SUM(transactions.value, 0, 10, days) FOR EACH customers.customer_id "
            "ASSUMING COUNT(notifications.*, 0, 20, days) > 0"
        )
        assert b.timeframe.future == 20 * MICROS_PER_DAY

    def test_unbounded_past(self):
        b = bind_text(
            "PREDICT SUM(transactions.value, 0, 10, days) FOR EACH customers.customer_id "
            "WHERE COUNT(transactions.*, -INF, 0, days) > 0"
        )
        assert b.timeframe.past is None and b.timeframe.total is None

    def test_months_are_thirty_days(self):
        b = bind_text(CORPUS_BY_NAME["shirt_demand"].text)
        assert b.timeframe.future == 90 * MICROS_PER_DAY

    def test_static_is_zero_zero(self):
        b = bind_text(CORPUS_BY_NAME["impute_value"].text)
        assert (b.timeframe.past, b.timeframe.future) == (0, 0)


class TestPredictionFilter:
    def test_blue_extracted_value_left_behind(self):
        b = bind_text(CORPUS_BY_NAME["blue_articles"].text)
        extracted = b.prediction_filter
        assert isinstance(extracted, BoundCompare)
        assert extracted.lhs.table == "ARTICLES" and extracted.lhs.column == "COLOR"
        assert extracted.lhs.hops == ()  # re-rooted at the candidate table
        assert extracted.rhs.value == "blue"

    def test_child_only_filter_extracts_nothing(self):
        b = bind_text(
            "PREDICT LIST_DISTINCT(TRANSACTIONS.ARTICLE_ID WHERE TRANSACTIONS.VALUE > 50, "
            "0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID"
        )
        assert b.prediction_filter is None

    def test_mixed_disjunction_not_extracted(self):
        b = bind_text(
            "PREDICT LIST_DISTINCT(TRANSACTIONS.ARTICLE_ID WHERE "
            '(ARTICLES.COLOR = "blue" OR TRANSACTIONS.VALUE > 2) AND ARTICLES.COLOR != "red", '
            "0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID"
        )
        # Only the pure-candidate conjunct survives.
        assert isinstance(b.prediction_filter, BoundCompare)
        assert b.prediction_filter.rhs.value == "red"

    def test_all_candidate_conjunction_extracted(self):
        b = bind_text(
            "PREDICT LIST_DISTINCT(TRANSACTIONS.ARTICLE_ID WHERE "
            'ARTICLES.COLOR = "blue" AND ARTICLES.ARTICLE_TYPE = "shirt", '
            "0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID"
        )
        assert isinstance(b.prediction_filter, BoundAnd)

    def test_non_link_task_has_no_filter(self):
        assert bind_text(CORPUS_BY_NAME["active_spender"].text).prediction_filter is None

    def test_soundness_on_toy_data(self, toy_db):
        # No labelled article may be excluded by the extracted candidate filter.
        from pql.kernels import eval_agg_vec, eval_condition_vec
        import numpy as np

        b = bind_text(CORPUS_BY_NAME["blue_articles"].text)
        anchor = parse_timestamp("2024-01-01")
        labels = set()
        for c in range(toy_db.nrows("CUSTOMERS")):
            values, _ = eval_agg_vec(toy_db, b.target, "CUSTOMERS", np.array([c]), anchor)
            labels |= set(values[0])
        all_articles = np.arange(toy_db.nrows("ARTICLES"))
        passing = all_articles[eval_condition_vec(toy_db, b.prediction_filter, "ARTICLES", all_articles, None)]
        candidate_keys = {toy_db.value(RowRef("ARTICLES", int(i)), "ARTICLE_ID") for i in passing}
        assert labels <= candidate_keys


class TestLeakageRows:
    def test_future_row_in_mask(self, toy_db):
        b = bind_text(CORPUS_BY_NAME["ny_monthly_spend"].text)
        anchor = parse_timestamp("2024-01-01")
        mask = leakage_rows(b, toy_db, RowRef("CUSTOMERS", 0), anchor)
        assert RowRef("TRANSACTIONS", 0) in mask  # inside the target window
        assert RowRef("TRANSACTIONS", 2) in mask  # later than the anchor

    def test_stale_unreferenced_row_not_in_mask(self, toy_db):
        b = bind_text(CORPUS_BY_NAME["ny_monthly_spend"].text)
        anchor = parse_timestamp("2024-01-01")
        mask = leakage_rows(b, toy_db, RowRef("CUSTOMERS", 0), anchor)
        assert RowRef("TRANSACTIONS", 6) not in mask  # customer 3, before anchor

    def test_static_mask_is_target_value_rows(self, toy_db):
        b = bind_text(CORPUS_BY_NAME["impute_value"].text)
        mask = leakage_rows(b, toy_db, RowRef("TRANSACTIONS", 0), None)
        assert mask == {RowRef("TRANSACTIONS", 0)}

    def test_covers_engine_reads(self, toy_db):
        from pql.oracle import _eval_target, _Tables, _Touches

        b = bind_text(CORPUS_BY_NAME["active_spender_notified"].text)
        anchor = parse_timestamp("2024-01-01")
        mask = leakage_rows(b, toy_db, RowRef("CUSTOMERS", 0), anchor)
        touch = _Touches()
        _eval_target(_Tables(toy_db), b.target, "CUSTOMERS", 0, anchor, touch)
        assert touch.rows <= mask

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_oracle_label_reads_plus_future_rows(self, seed):
        import random

        from pql.leakage import reachable_tables
        from pql.oracle import _eval_cond, _eval_target, _Tables, _Touches, _validity_ok
        from pql.planner import AnchorPolicy, resolve_anchors
        from pql.synth import random_database, random_query, random_schema

        sch = random_schema(seed % 20)
        db = random_database(seed, sch)
        b = bind(random_query(seed * 11 + 3, sch), sch)
        anchors = resolve_anchors(b, AnchorPolicy(count=3), db)
        alist = [None] if b.is_static else anchors
        n = db.nrows(b.entity_table)
        if not alist or not n:
            return
        t = _Tables(db)
        tables = reachable_tables(db, b.entity_table)
        rnd = random.Random(seed)
        for _ in range(8):
            row, anchor = rnd.randrange(n), rnd.choice(alist)
            if anchor is not None and b.entity_validity is not None:
                if not _validity_ok(t, b, row, anchor):
                    continue
            touch = _Touches()
            _eval_target(t, b.target, b.entity_table, row, anchor, touch)
            if b.assuming is not None:
                _eval_cond(t, b.assuming, b.entity_table, row, anchor, touch)
            want = set(touch.rows)
            if anchor is not None:
                for name in tables:
                    tc = t.defs[name].time_column
                    if tc is not None:
                        want |= {RowRef(name, i) for i, when in enumerate(t.cols[name][tc])
                                 if when is not None and when >= anchor}
            assert leakage_rows(b, db, RowRef(b.entity_table, row), anchor) == want
