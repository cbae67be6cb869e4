"""Acceptance suite: the toolchain's exit criteria, one test per criterion.

Each test prints a single PASS line (visible with `pytest -s` or in the
captured output) once its assertions hold. The randomized corpora draw
schemas, databases and queries from the seeded generators; sizes vary from
a few hundred to a few thousand rows per database.
"""

import random
import statistics
import time

import pytest

from corpus import CORPUS, CORPUS_BY_NAME, schema

from pql.ast import unparse
from pql.bench import run_bench
from pql.binder import TaskType, bind
from pql.cli import main
from pql.engine import materialize_prediction, materialize_training
from pql.leakage import leakage_rows
from pql.oracle import _eval_cond, _eval_target, _Tables, _Touches, _validity_ok, oracle_training
from pql.parser import parse
from pql.planner import AnchorPolicy, plan_prediction, plan_training, resolve_anchors
from pql.sampler import build_request, collect, compute_on_subgraph
from pql.store import RowRef, build_row_graph
from pql.synth import GenSpec, generate, hm_genspec, random_database, random_query, random_schema
from pql.times import MICROS_PER_DAY

N_TRIPLES = 1000


def _triple(seed: int):
    """One randomized (schema, database, bound query) triple, <= 5k rows."""
    sch = random_schema(seed % 60)
    db = random_database(seed, sch, scale=1.0 + (seed % 7))
    if db.total_rows() > 5000:
        db = random_database(seed, sch, scale=1.0)
    bound = bind(random_query(seed * 7 + 1, sch), sch)
    return sch, db, bound


def _pair_domain(db, bound, anchors):
    alist = [None] if bound.is_static else list(anchors)
    n = db.nrows(bound.entity_table)
    return alist, n


def test_criterion_1_grammar_conformance():
    """Every corpus query parses, binds against its schema, round-trips."""
    assert len(CORPUS) >= 12
    for entry in CORPUS:
        q = parse(entry.text)
        bind(q, schema(entry.schema_key))
        assert parse(unparse(q)) == q, entry.name
    print(f"ACCEPTANCE 1 PASS grammar conformance: {len(CORPUS)}/{len(CORPUS)} queries")


def test_criterion_2_task_inference():
    cases = {
        "shirt_demand": (TaskType.REGRESSION, None),
        "active_spender": (TaskType.BINARY_CLASSIFICATION, None),
        "store_recommendation": (TaskType.LINK_PREDICTION, 12),
    }
    for name, (task, top_k) in cases.items():
        entry = CORPUS_BY_NAME[name]
        b = bind(parse(entry.text), schema(entry.schema_key))
        assert b.task.task_type is task, name
        if top_k is not None:
            assert b.task.top_k == top_k
    print("ACCEPTANCE 2 PASS task inference: regression / binary / link@12")


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for seed in range(N_TRIPLES):
        _, db, bound = _triple(seed)
        assert db.total_rows() <= 5000
        policy = AnchorPolicy(count=4)
        anchors = resolve_anchors(bound, policy, db)
        engine = materialize_training(plan_training(bound, policy), db)
        want = oracle_training(bound, db, anchors)
        assert engine.rows == want.rows, f"seed {seed}"
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"suite took {elapsed:.0f}s, budget is 5 minutes"
    print(f"ACCEPTANCE 3 PASS oracle equivalence: {checked} triples exact in {elapsed:.0f}s")


def test_criterion_4_leakage_invariants():
    # Label and filter reads come from the brute-force oracle, so the mask
    # built by the production code is checked against an independent record.
    violations = 0
    pairs_checked = 0
    for seed in range(N_TRIPLES):
        _, db, bound = _triple(seed)
        anchors = resolve_anchors(bound, AnchorPolicy(count=4), db)
        alist, n = _pair_domain(db, bound, anchors)
        if not alist or not n:
            continue
        t = _Tables(db)
        etable = bound.entity_table
        rnd = random.Random(seed)
        tf = bound.timeframe
        for _ in range(6):
            ref = RowRef(etable, rnd.randrange(n))
            anchor = rnd.choice(alist)
            if anchor is not None and bound.entity_validity is not None:
                if not _validity_ok(t, bound, ref.index, anchor):
                    continue
            pairs_checked += 1
            label = _Touches()
            _eval_target(t, bound.target, etable, ref.index, anchor, label)
            if bound.assuming is not None:
                _eval_cond(t, bound.assuming, etable, ref.index, anchor, label)
            filters = _Touches()
            for conj in bound.conjuncts:
                _eval_cond(t, conj.condition, etable, ref.index, anchor, filters)
            if anchor is not None:
                for row in label.window_rows:
                    when = db.value(row, db.table(row.table).definition.time_column)
                    if not (anchor <= when < anchor + tf.future):
                        violations += 1
                for row in filters.window_rows:
                    when = db.value(row, db.table(row.table).definition.time_column)
                    if when >= anchor or (tf.past is not None and when < anchor - tf.past):
                        violations += 1
            mask = leakage_rows(bound, db, ref, anchor)
            if not label.rows <= mask:
                violations += 1
    assert violations == 0
    print(f"ACCEPTANCE 4 PASS leakage invariants: 0 violations over {pairs_checked} pairs")


def test_criterion_5_path_equivalence():
    pair_sets = 0
    for seed in range(N_TRIPLES // 4):
        _, db, bound = _triple(seed)
        g = build_row_graph(db)
        policy = AnchorPolicy(count=4)
        anchors = resolve_anchors(bound, policy, db)
        alist, n = _pair_domain(db, bound, anchors)
        if not alist or not n:
            continue
        batch = materialize_training(plan_training(bound, policy), db, g)
        pk = db.table(bound.entity_table).column(db.table(bound.entity_table).definition.primary_key)
        rnd = random.Random(seed * 3 + 1)
        for _ in range(5):
            pairs = list(
                dict.fromkeys(
                    (RowRef(bound.entity_table, rnd.randrange(n)), rnd.choice(alist))
                    for _ in range(rnd.randrange(1, 20))
                )
            )
            sub = collect(g, build_request(bound, pairs))
            got = compute_on_subgraph(bound, sub, pairs, anchors_for_split=anchors)
            requested = {(pk.get(ref.index), a) for ref, a in pairs}
            want = [r for r in batch.rows if (r[0], r[1]) in requested]
            assert got.rows == want, f"seed {seed}"
            pair_sets += 1
    assert pair_sets >= 1000
    print(f"ACCEPTANCE 5 PASS path equivalence: {pair_sets} pair sets exact")


def test_criterion_6_timeframe_arithmetic():
    b = bind(parse(CORPUS_BY_NAME["active_spender"].text), schema("retail"))
    assert b.timeframe.past == 40 * MICROS_PER_DAY
    assert b.timeframe.future == 45 * MICROS_PER_DAY
    assert b.timeframe.total == 85 * MICROS_PER_DAY
    print("ACCEPTANCE 6 PASS timeframe: past 40d / future 45d / total 85d")


FILTERED_QUERY = (
    "PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID "
    "WHERE CUSTOMERS.AGE > 97"
)
UNFILTERED_QUERY = "PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID"


@pytest.fixture(scope="module")
def big_db():
    db = generate(hm_genspec(scale=0.04, seed=3))  # 1.24M transactions
    build_row_graph(db)
    return db


@pytest.fixture(scope="module")
def small_db():
    db = generate(hm_genspec(scale=0.001, seed=3))  # the 1/1000-scale variant
    build_row_graph(db)
    return db


def test_criterion_7a_optimized_vs_cross_product(big_db):
    assert big_db.nrows("TRANSACTIONS") >= 1_000_000
    report = run_bench(big_db, FILTERED_QUERY, paths=["optimized", "unoptimized"], runs=5)
    ratio = report.ratio("unoptimized", "optimized")
    assert ratio >= 3.0, f"speedup only {ratio:.2f}x"
    print(f"ACCEPTANCE 7a PASS optimized {ratio:.1f}x faster than cross-product plan")


def test_criterion_7b_sampler_vs_batch(big_db):
    report = run_bench(big_db, UNFILTERED_QUERY, paths=["sampler"], runs=5, pairs=100)
    ratio = report.ratio("batch_restricted", "sampler")
    touched = report.results["sampler"].rows_touched
    frac = touched / big_db.total_rows()
    assert ratio >= 10.0, f"sampler speedup only {ratio:.2f}x"
    assert frac <= 0.05, f"sampler touched {frac:.2%} of the database"
    assert not report.results["sampler"].note  # restricted batch agreed exactly
    print(
        f"ACCEPTANCE 7b PASS sampler {ratio:.1f}x faster for 100 pairs, "
        f"touching {frac:.2%} of rows"
    )


def test_criterion_7c_small_scale_gains_negligible(small_db):
    # Sub-millisecond medians are jittery in a shared sandbox, so the
    # paths are compared three times and the median ratio is judged.
    ratios = []
    for _ in range(3):
        report = run_bench(small_db, FILTERED_QUERY, paths=["optimized", "unoptimized"], runs=5)
        ratios.append(report.ratio("unoptimized", "optimized"))
    ratio = statistics.median(ratios)
    assert 0.5 < ratio < 2.0, f"paths differ by {ratio:.2f}x on the small database"
    print(f"ACCEPTANCE 7c PASS small-scale gap {ratio:.2f}x (< 2x)")


def test_criterion_8_determinism(tmp_path):
    data = tmp_path / "data"
    assert main(["gen-data", "--out-dir", str(data), "--scale", "0.0008", "--seed", "21"]) == 0
    queries = {
        # A filtered SUM: numeric cells, splits by anchor rank.
        "sum": "PREDICT SUM(TRANSACTIONS.VALUE, 0, 14, days) FOR EACH CUSTOMERS.CUSTOMER_ID "
               "WHERE COUNT(TRANSACTIONS.*, -30, 0, days) > 0",
        # A ranked list: each target cell is a JSON list.
        "list": "PREDICT LIST_DISTINCT(TRANSACTIONS.ARTICLE_ID, 0, 30, days) RANK TOP 12 "
                "FOR EACH CUSTOMERS.CUSTOMER_ID",
    }
    for name, query in queries.items():
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}"
            code = main(
                ["train-table", "--data-dir", str(data), "--out-dir", str(out),
                 "--seed", "5", "--query", query]
            )
            assert code == 0
            outs.append(out)
        for file in ("training.csv", "training.meta.json"):
            assert (outs[0] / file).read_bytes() == (outs[1] / file).read_bytes()
        if name == "list":
            assert '"[' in (outs[0] / "training.csv").read_text(encoding="utf-8")
    print(f"ACCEPTANCE 8 PASS byte-identical output across two runs of {len(queries)} queries")


def test_criterion_9_assuming_semantics():
    db = generate(GenSpec(seed=6, customers=400, articles=40, transactions=9000,
                          notifications=2500))
    g = build_row_graph(db)
    plain = bind(parse(CORPUS_BY_NAME["active_spender"].text), db.schema)
    assuming = bind(parse(CORPUS_BY_NAME["active_spender_notified"].text), db.schema)
    policy = AnchorPolicy(count=4)

    t_plain = materialize_training(plan_training(plain, policy), db, g)
    t_assume = materialize_training(plan_training(assuming, policy), db, g)
    assert 0 < len(t_assume.rows) < len(t_plain.rows)
    assert set(t_assume.rows) <= set(t_plain.rows)
    # The rows removed are exactly those failing the notification condition.
    removed = set(t_plain.rows) - set(t_assume.rows)
    t = _Tables(db)
    key_to_row = db.table("CUSTOMERS").pk_index
    for key, anchor, _, _ in removed:
        row = key_to_row[key]
        assert _eval_cond(t, assuming.assuming, "CUSTOMERS", row, anchor, None) is False

    p_plain = materialize_prediction(plan_prediction(plain), db, g)
    p_assume = materialize_prediction(plan_prediction(assuming), db, g)
    assert p_plain.rows == p_assume.rows
    print(
        f"ACCEPTANCE 9 PASS ASSUMING: training {len(t_assume.rows)}/{len(t_plain.rows)} subset, "
        f"prediction tables identical ({len(p_plain.rows)} rows)"
    )
