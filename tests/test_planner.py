"""Logical planning: stage assignment, anchor resolution, explain output."""

import json
from pathlib import Path

import pytest

from corpus import CORPUS, CORPUS_BY_NAME, schema

from pql import engine, planner
from pql.binder import bind
from pql.engine import evaluate_pairs, materialize_training
from pql.errors import PlanError
from pql.parser import parse
from pql.planner import (
    AnchorPolicy,
    explain,
    plan_prediction,
    plan_to_json,
    plan_training,
    resolve_anchors,
    resolve_stride,
)
from pql.store import RowRef
from pql.synth import GenSpec, generate, hm_genspec
from pql.times import MAX_MICROS, MICROS_PER_DAY, MIN_MICROS, parse_timestamp

GOLDEN = Path(__file__).parent / "golden"


NAIVE_ORDER_QUERY = (
    "PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID "
    "WHERE CUSTOMERS.AGE > 30 AND COUNT(TRANSACTIONS.*, -30, 0, days) > 0 "
    "ASSUMING COUNT(NOTIFICATIONS.*, 0, 7, days) > 0"
)


def bind_corpus(name):
    entry = CORPUS_BY_NAME[name]
    return bind(parse(entry.text), schema(entry.schema_key))


def printed_stages(plan):
    """The stages as `plan --json` prints them."""
    return plan_to_json(plan)["stages"]


def printed_kinds(stage):
    return [n["kind"] for n in stage["nodes"]]


class TestStages:
    def test_static_conjunct_pushed_to_stage_one(self):
        # Mixed filter: the location conjunct runs before anchor expansion,
        # the count conjunct after.
        b = bind(
            parse(
                "PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID "
                "WHERE CUSTOMERS.LOCATION_ID = 'NY' AND COUNT(TRANSACTIONS.*, -10, 0, days) > 0"
            ),
            schema("retail"),
        )
        plan = plan_training(b, AnchorPolicy())
        stage1, stage2, stage3, stage4 = printed_stages(plan)
        assert printed_kinds(stage1) == ["ScanEntities", "StaticEntityFilter"]
        assert "LOCATION_ID" in stage1["nodes"][1]["detail"]
        assert printed_kinds(stage3) == ["TemporalEntityFilter"]
        assert "COUNT" in stage3["nodes"][0]["detail"]
        text = explain(plan)
        assert text.index("Stage 1") < text.index("StaticEntityFilter CUSTOMERS.LOCATION_ID") < text.index("Stage 2")
        assert text.index("Stage 3") < text.index("TemporalEntityFilter COUNT") < text.index("Stage 4")

    def test_filterless_query_has_bare_scan(self):
        plan = plan_training(bind_corpus("next_month_spend"), AnchorPolicy())
        assert printed_kinds(printed_stages(plan)[0]) == ["ScanEntities"]
        assert "Stage 1: static entity filters\n  ScanEntities CUSTOMERS\nStage 2" in explain(plan)

    def test_assuming_in_training_not_in_prediction(self):
        b = bind_corpus("active_spender_notified")
        train = plan_training(b, AnchorPolicy())
        assert any(n.kind == "AssumingFilter" for n in train.nodes)
        predict = plan_prediction(b)
        assert not any(n.kind == "AssumingFilter" for n in predict.nodes)
        assert not any(n.kind == "TargetCompute" for n in predict.nodes)

    def test_static_query_skips_stages_two_and_three(self):
        plan = plan_training(bind_corpus("impute_value"), AnchorPolicy())
        stages = printed_stages(plan)
        for stage in stages[1:3]:
            assert stage["note"] == "skipped: static query" and stage["nodes"] == []
        assert stages[0]["note"] is None and stages[3]["note"] is None
        text = explain(plan)
        assert "Stage 2: anchor expansion (skipped: static query)\n" in text
        assert "Stage 3: temporal filters (skipped: static query)\n" in text
        assert not any(n.kind == "AnchorExpand" for n in plan.nodes)

    def test_stage_order_is_fixed(self):
        names = ["static entity filters", "anchor expansion", "temporal filters", "target computation"]
        for name in ("active_spender", "impute_value", "blue_articles"):
            plan = plan_training(bind_corpus(name), AnchorPolicy())
            assert [s["name"] for s in printed_stages(plan)] == names
            heads = [line for line in explain(plan).splitlines() if line.startswith("Stage")]
            assert [h.split(": ", 1)[1].split(" (")[0] for h in heads] == names

    def test_prediction_differs_only_by_label_nodes(self):
        # For temporal non-link queries the prediction plan is the training
        # plan minus TargetCompute/AssumingFilter, with a single anchor.
        for name in ("active_spender", "active_spender_notified", "big_ticket_count"):
            b = bind_corpus(name)
            train_kinds = [n.kind for n in plan_training(b, AnchorPolicy()).nodes]
            predict_kinds = [n.kind for n in plan_prediction(b).nodes]
            want = [k for k in train_kinds if k not in ("TargetCompute", "AssumingFilter")]
            assert predict_kinds == want

    def test_prediction_carries_candidates(self):
        plan = plan_prediction(bind_corpus("blue_articles"))
        node = next(n for s in printed_stages(plan) for n in s["nodes"] if n["kind"] == "CandidateSet")
        assert "ARTICLES" in node["detail"] and "blue" in node["detail"]
        assert f"  CandidateSet {node['detail']}\n" in explain(plan)

    def test_static_prediction_selects_missing_target(self):
        plan = plan_prediction(bind_corpus("impute_value"))
        assert any(n.kind == "SelectMissingTarget" for n in plan.nodes)

    def test_static_prediction_takes_no_anchor(self):
        with pytest.raises(PlanError, match="^static query takes no anchor$"):
            plan_prediction(bind_corpus("impute_value"), parse_timestamp("2024-01-01"))

    def test_building_a_plan_renders_no_text(self, monkeypatch, toy_db):
        # Only explain and plan_to_json render node text.
        def refuse(expr):
            raise AssertionError("rendered while building or running a plan")

        monkeypatch.setattr(planner, "unparse_expr", refuse)
        b = bind_corpus("active_spender_notified")
        policy = AnchorPolicy(count=2)
        plan = plan_training(b, policy)
        plan_training(b, policy, optimized=False)
        plan_prediction(b)
        plan_prediction(bind_corpus("blue_articles"))
        plan_prediction(bind_corpus("impute_value"))
        materialize_training(plan, toy_db)
        anchors = resolve_anchors(b, policy, toy_db)
        evaluate_pairs(toy_db, b, [(RowRef("CUSTOMERS", 0), anchors[0])], anchors_for_split=anchors)
        with pytest.raises(AssertionError, match="rendered"):
            explain(plan)

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
    def test_every_node_runs_and_prints_once(self, entry):
        b = bind(parse(entry.text), schema(entry.schema_key))
        plans = [plan_training(b), plan_training(b, optimized=False), plan_prediction(b)]
        for plan in plans:
            kinds = [n.kind for n in plan.nodes]
            assert set(kinds) <= set(engine._HANDLERS)
            printed = [line.split()[0] for line in explain(plan).splitlines() if line.startswith("  ")]
            assert printed == kinds
            assert [n["kind"] for s in printed_stages(plan) for n in s["nodes"]] == kinds


class TestAnchors:
    def test_default_stride_is_one_timeframe(self):
        b = bind_corpus("active_spender")
        assert resolve_stride(b, AnchorPolicy()) == 85 * MICROS_PER_DAY

    def test_unbounded_past_uses_future_extent(self):
        b = bind(
            parse(
                "PREDICT SUM(transactions.value, 0, 10, days) FOR EACH customers.customer_id "
                "WHERE COUNT(transactions.*, -INF, 0, days) > 0"
            ),
            schema("retail"),
        )
        assert resolve_stride(b, AnchorPolicy()) == 10 * MICROS_PER_DAY

    def test_anchors_descend_from_latest(self, toy_db):
        b = bind_corpus("next_month_spend")
        anchors = resolve_anchors(b, AnchorPolicy(count=3), toy_db)
        max_t = toy_db.max_event_time()
        assert anchors[0] == max_t - 30 * MICROS_PER_DAY
        assert anchors == sorted(anchors, reverse=True)
        spaced = resolve_anchors(
            b, AnchorPolicy(count=3, latest=max_t + 120 * MICROS_PER_DAY), toy_db
        )
        assert [spaced[i] - spaced[i + 1] for i in range(2)] == [30 * MICROS_PER_DAY] * 2

    def test_anchor_floor_respects_data_start(self, toy_db):
        b = bind_corpus("next_month_spend")
        anchors = resolve_anchors(b, AnchorPolicy(count=50), toy_db)
        assert len(anchors) < 50
        assert all(a >= toy_db.min_event_time() for a in anchors)

    def test_unbounded_past_floor_keeps_one_stride_of_history(self, toy_db):
        b = bind(
            parse(
                "PREDICT SUM(transactions.value, 0, 10, days) FOR EACH customers.customer_id "
                "WHERE COUNT(transactions.*, -INF, 0, days) > 0"
            ),
            schema("retail"),
        )
        anchors = resolve_anchors(b, AnchorPolicy(count=100), toy_db)
        assert all(a >= toy_db.min_event_time() + 10 * MICROS_PER_DAY for a in anchors)

    def test_explicit_policy_overrides(self, toy_db):
        b = bind_corpus("next_month_spend")
        latest = parse_timestamp("2024-01-01")
        anchors = resolve_anchors(
            b, AnchorPolicy(count=2, stride=MICROS_PER_DAY, latest=latest), toy_db
        )
        assert anchors == [latest, latest - MICROS_PER_DAY]

    def test_validity_pruning_in_anchor_expansion(self):
        db = generate(GenSpec(seed=5, customers=80, articles=10, transactions=900,
                              notifications=50, validity=True))
        b = bind(parse("PREDICT SUM(TRANSACTIONS.VALUE, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID"),
                 db.schema)
        plan = plan_training(b, AnchorPolicy(count=6))
        table = materialize_training(plan, db)
        anchors = resolve_anchors(b, AnchorPolicy(count=6), db)
        cust = db.table("CUSTOMERS")
        start_col, end_col = cust.definition.validity
        key_to_row = cust.pk_index
        for key, anchor, _, _ in table.rows:
            row = key_to_row[key]
            start = cust.column(start_col).get(row)
            end = cust.column(end_col).get(row)
            assert start is None or start <= anchor
            assert end is None or anchor < end
        assert table.metadata["dropped"]["validity_pruned"] > 0

    def test_policy_validation(self):
        with pytest.raises(PlanError):
            AnchorPolicy(count=0)
        with pytest.raises(PlanError):
            AnchorPolicy(stride=0)

    @pytest.mark.parametrize("latest", [MIN_MICROS - 1, MAX_MICROS + 1, -(2**63), 2**63 - 1])
    def test_an_explicit_latest_outside_the_years_is_refused(self, latest):
        with pytest.raises(PlanError, match=f"^latest anchor {latest} is outside years 0001-9999$"):
            AnchorPolicy(latest=latest)
        AnchorPolicy(latest=min(max(latest, MIN_MICROS), MAX_MICROS))

    @pytest.mark.parametrize("at", [MIN_MICROS - 1, MAX_MICROS + 1, -(2**63), 2**63 - 1])
    def test_a_prediction_anchor_outside_the_years_is_refused(self, at):
        b = bind_corpus("ny_monthly_spend")
        with pytest.raises(PlanError, match=f"^prediction anchor {at} is outside years 0001-9999$"):
            plan_prediction(b, at)
        plan_prediction(b, min(max(at, MIN_MICROS), MAX_MICROS))


class TestExplain:
    def test_four_stage_headers_in_order(self):
        for name in ("active_spender", "impute_value"):
            text = explain(plan_training(bind_corpus(name), AnchorPolicy()))
            pos = [text.find(f"Stage {i}") for i in (1, 2, 3, 4)]
            assert all(p >= 0 for p in pos) and pos == sorted(pos)

    def test_static_plan_has_no_anchor_expand_line(self):
        text = explain(plan_training(bind_corpus("impute_value"), AnchorPolicy()))
        assert "AnchorExpand" not in text

    def test_explain_is_stable(self):
        plan = plan_training(bind_corpus("active_spender"), AnchorPolicy())
        assert explain(plan) == explain(plan)

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
    def test_training_goldens(self, entry):
        b = bind(parse(entry.text), schema(entry.schema_key))
        got = explain(plan_training(b, AnchorPolicy()))
        assert got == (GOLDEN / f"{entry.name}.train.txt").read_text()

    @pytest.mark.parametrize(
        "name", ["blue_articles", "impute_value", "active_spender_notified", "top_pages"]
    )
    def test_prediction_goldens(self, name):
        got = explain(plan_prediction(bind_corpus(name)))
        assert got == (GOLDEN / f"{name}.predict.txt").read_text()

    def test_naive_golden(self):
        b = bind_corpus("weekly_transactions")
        got = explain(plan_training(b, AnchorPolicy(), optimized=False))
        assert got == (GOLDEN / "weekly_transactions.naive.txt").read_text()

    @pytest.mark.parametrize(
        "name,suffix",
        [
            ("active_spender_notified", "train"),
            ("impute_value", "train"),
            ("weekly_transactions", "naive"),
            ("blue_articles", "predict"),
        ],
    )
    def test_json_goldens(self, name, suffix):
        # Byte for byte what `pql plan --json` prints.
        b = bind_corpus(name)
        if suffix == "predict":
            plan = plan_prediction(b)
        else:
            plan = plan_training(b, AnchorPolicy(), optimized=suffix == "train")
        got = json.dumps(plan_to_json(plan), indent=2) + "\n"
        assert got == (GOLDEN / f"{name}.{suffix}.json").read_text()

    def test_naive_plan_lists_late_filters_in_run_order(self):
        # The cross-product plan drops a pair under the first late filter,
        # in the order printed: static conjuncts, validity, temporal
        # conjuncts, ASSUMING.
        db = generate(hm_genspec(scale=0.0005, seed=4, validity=True))
        b = bind(parse(NAIVE_ORDER_QUERY), db.schema)
        policy = AnchorPolicy(count=3)
        plan = plan_training(b, policy, optimized=False)
        assert [n.kind for n in plan.nodes] == [
            "ScanEntities", "CrossJoinAnchors", "TargetCompute", "LateEntityFilter",
            "LateValidityFilter", "LateTemporalFilter", "AssumingFilter", "Project",
        ]
        text = explain(plan)
        assert text.index("CUSTOMERS.AGE > 30") < text.index("LateValidityFilter")
        assert text.index("LateValidityFilter") < text.index("COUNT(TRANSACTIONS.*, -30, 0, days)")

        dropped = materialize_training(plan, db).metadata["dropped"]
        anchors = resolve_anchors(b, policy, db)
        cust = db.table("CUSTOMERS")
        age = cust.column("AGE")
        old = ~age.null & (age.values > 30)
        start, end = (cust.column(c) for c in cust.definition.validity)
        invalid = 0
        for a in anchors:
            valid = (start.null | (start.values <= a)) & (end.null | (a < end.values))
            invalid += int((old & ~valid).sum())
        assert dropped["static_filtered"] == int((~old).sum()) * len(anchors)
        assert dropped["validity_pruned"] == invalid > 0
        assert dropped["temporal_filtered"] > 0 and dropped["assuming_filtered"] > 0

    def test_json_dump_shape(self):
        plan = plan_training(bind_corpus("active_spender_notified"), AnchorPolicy())
        doc = plan_to_json(plan)
        json.dumps(doc)  # serializable
        assert doc["mode"] == "training" and doc["optimized"] is True
        assert [s["name"] for s in doc["stages"]][0] == "static entity filters"
        assert doc["task"]["task_type"] == "binary_classification"
        kinds = [n["kind"] for s in doc["stages"] for n in s["nodes"]]
        assert "AssumingFilter" in kinds
