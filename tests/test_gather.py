"""Window gathers: the full scan and the window search both equal a scan of
the child times, each block takes the access path its shape picks, and the
row graph's (parent, time-rank) keys give the documented child order."""

import numpy as np
import pytest

from conftest import build_toy_db

from pql.ast import AggKind, TimeUnit, Window
from pql.binder import BoundAggregation, bind
from pql.engine import materialize_training
from pql.kernels import Gather, gather_children, window_slots
from pql.parser import parse
from pql.planner import AnchorPolicy, plan_training
from pql.sampler import build_request, collect, compute_on_subgraph, sample_pairs
from pql.store import (
    DataType,
    FkEdge,
    SemanticType,
    load_schema,
    load_table_data,
    new_database,
)
from pql.synth import random_database, random_schema
from pql.times import MICROS_PER_DAY, MICROS_PER_SECOND, parse_timestamp

T = parse_timestamp

HAND_SCHEMA = load_schema(
    {
        "tables": [
            {"name": "P", "primary_key": "ID",
             "columns": [{"name": "ID", "dtype": "int64", "stype": "key"}]},
            {"name": "C", "primary_key": "ID", "time_column": "AT",
             "foreign_keys": [{"column": "P_ID", "references": "P"}],
             "columns": [{"name": "ID", "dtype": "int64", "stype": "key"},
                         {"name": "P_ID", "dtype": "int64", "stype": "key"},
                         {"name": "AT", "dtype": "timestamp", "stype": "temporal"}]},
            {"name": "D", "primary_key": "ID",
             "foreign_keys": [{"column": "P_ID", "references": "P"}],
             "columns": [{"name": "ID", "dtype": "int64", "stype": "key"},
                         {"name": "P_ID", "dtype": "int64", "stype": "key"}]},
        ]
    }
)

# P row i holds ID i + 1. P 1 has two children on one day (tie) and an
# undated one loaded between dated ones; C rows 0 and 2 share a time across
# parents; P 3's history lies before, P 4's after the windows below; P 5 is
# childless; C row 5 has a null FK.
HAND_C = """ID,P_ID,AT
1,1,2024-01-02
2,1,2024-01-05
3,2,2024-01-02
4,2,
5,1,2024-01-05
6,,2024-01-03
7,3,2023-06-01
8,4,2025-06-01
9,2,2024-01-04
10,1,
11,1,2024-01-01
"""
HAND_D = """ID,P_ID
1,1
2,3
3,
4,1
"""
C_EDGE = FkEdge("C", "P_ID", "P")
D_EDGE = FkEdge("D", "P_ID", "P")


@pytest.fixture(scope="module")
def hand_db():
    db = new_database(HAND_SCHEMA)
    load_table_data(db, "P", "ID\n1\n2\n3\n4\n5\n")
    load_table_data(db, "C", HAND_C)
    load_table_data(db, "D", HAND_D)
    return db


def count_over(edge: FkEdge, window) -> BoundAggregation:
    return BoundAggregation(AggKind.COUNT, edge.child_table, None, None, None, edge, None, window,
                            DataType.INT64, SemanticType.NUMERICAL)


def checked(db, agg, parents, anchor) -> Gather:
    """The gather, after checking it against `scan_reference`."""
    parents = np.asarray(parents, dtype=np.int64)
    got = gather_children(db, agg, parents, anchor)
    assert got.n_seg == len(parents)
    by_segment = np.argsort(got.seg, kind="stable")
    assert (got.seg[by_segment].tolist(), got.child_rows[by_segment].tolist()) == scan_reference(
        db, got.idx, agg, parents, anchor)
    return got


def scan_reference(db, idx, agg, parents, anchor):
    """(segment, child row) of every child `agg` gathers for `parents` at
    `anchor` (one anchor, or one per parent), by segment and then in the
    reference child order: every child's parent and time is compared with
    every parent's and its window."""
    order = lexsort_order(db, idx)
    take = parents[:, None] == db.forward(idx.edge)[order][None, :]
    if agg.window is not None:
        tname = db.table(idx.edge.child_table).definition.time_column
        if tname is None:
            take[:] = False
        else:
            col = db.table(idx.edge.child_table).column(tname)
            times, dated = col.values[order][None, :], ~col.null[order][None, :]
            at = np.broadcast_to(np.asarray(anchor, dtype=np.int64), parents.shape)[:, None]
            take &= dated & (times < at + agg.window.end_micros)
            if agg.window.start_micros is not None:
                take &= times >= at + agg.window.start_micros
    seg, slot = np.nonzero(take)
    return seg.tolist(), order[slot].tolist()


def by_parent(gth: Gather, parents) -> dict:
    rows = gth.child_rows.tolist()
    out = {p: [] for p in parents}
    for s, r in zip(gth.seg.tolist(), rows):
        out[parents[s]].append(r)
    return out


def lexsort_order(db, idx) -> np.ndarray:
    """The reference child order of an edge: parent, dated before undated,
    time, then load order. A null cell's stored value is a placeholder, so
    undated children sort by load order alone."""
    child = db.table(idx.edge.child_table)
    forward = db.forward(idx.edge)
    linked = np.nonzero(forward >= 0)[0]
    tname = child.definition.time_column
    if tname is None:
        undated = np.ones(len(linked), dtype=np.bool_)
        times = np.zeros(len(linked), dtype=np.int64)
    else:
        undated = child.column(tname).null[linked]
        times = np.where(undated, 0, child.column(tname).values[linked])
    return linked[np.lexsort((times, undated, forward[linked]))]


class TestHandBuiltEdges:
    ALL = [0, 1, 2, 3, 4]

    def test_lo_is_kept_and_hi_dropped(self, hand_db):
        agg = count_over(C_EDGE, Window(0, 3, TimeUnit.DAYS))
        got = by_parent(checked(hand_db, agg, self.ALL, T("2024-01-02")), self.ALL)
        # [Jan 2, Jan 5): rows at Jan 2 kept, Jan 5 (rows 1 and 4) dropped;
        # the shared Jan 2 time counts for both parents.
        assert got == {0: [0], 1: [2, 8], 2: [], 3: [], 4: []}

    def test_each_parent_at_its_own_anchor(self, hand_db):
        agg = count_over(C_EDGE, Window(0, 3, TimeUnit.DAYS))
        anchors = np.array([T("2024-01-02"), T("2024-01-03")], dtype=np.int64)
        got = checked(hand_db, agg, [0, 1], anchors)
        # P 2 at Jan 3 loses its Jan 2 child, which it keeps at Jan 2.
        assert by_parent(got, [0, 1]) == {0: [0], 1: [8]}

    def test_ties_keep_load_order(self, hand_db):
        agg = count_over(C_EDGE, Window(-1, 0, TimeUnit.DAYS))
        got = by_parent(checked(hand_db, agg, [0], T("2024-01-06")), [0])
        assert got == {0: [1, 4]}

    def test_unbounded_lookback(self, hand_db):
        agg = count_over(C_EDGE, Window(None, 0, TimeUnit.DAYS))
        got = by_parent(checked(hand_db, agg, self.ALL, T("2024-01-05")), self.ALL)
        assert got == {0: [10, 0], 1: [2, 8], 2: [6], 3: [], 4: []}
        got = by_parent(checked(hand_db, agg, self.ALL, T("2030-01-01")), self.ALL)
        # Undated children never fall in a window.
        assert got == {0: [10, 0, 1, 4], 1: [2, 8], 2: [6], 3: [7], 4: []}

    def test_histories_before_or_after_the_window(self, hand_db):
        agg = count_over(C_EDGE, Window(-7, 7, TimeUnit.DAYS))
        got = by_parent(checked(hand_db, agg, [2, 3], T("2024-01-03")), [2, 3])
        assert got == {2: [], 3: []}
        got = by_parent(checked(hand_db, agg, self.ALL, T("1990-01-01")), self.ALL)
        assert got == {p: [] for p in self.ALL}
        got = by_parent(checked(hand_db, agg, self.ALL, T("2040-01-01")), self.ALL)
        assert got == {p: [] for p in self.ALL}

    def test_unwindowed_takes_undated_children_too(self, hand_db):
        got = by_parent(checked(hand_db, count_over(C_EDGE, None), self.ALL, None), self.ALL)
        assert got == {0: [10, 0, 1, 4, 9], 1: [2, 8, 3], 2: [6], 3: [7], 4: []}

    def test_child_table_without_time_column(self, hand_db):
        idx = hand_db.edge_index(D_EDGE)
        assert idx.radix == 1 and len(idx.time_values) == 0
        got = by_parent(checked(hand_db, count_over(D_EDGE, None), self.ALL, None), self.ALL)
        assert got == {0: [0, 3], 1: [], 2: [1], 3: [], 4: []}
        windowed = count_over(D_EDGE, Window(None, 1, TimeUnit.DAYS))
        got = by_parent(checked(hand_db, windowed, self.ALL, T("2024-01-01")), self.ALL)
        assert got == {p: [] for p in self.ALL}

    def test_null_foreign_keys_have_no_slot(self, hand_db):
        for edge, null_row in ((C_EDGE, 5), (D_EDGE, 2)):
            idx = hand_db.edge_index(edge)
            assert hand_db.forward(edge)[null_row] == -1
            assert null_row not in idx.order.tolist()

    def test_keys_and_order(self, hand_db):
        idx = hand_db.edge_index(C_EDGE)
        # Seven distinct times, the null-FK child's included: K = 8 and
        # undated children rank 7.
        assert idx.time_values.tolist() == [
            T(d) for d in ("2023-06-01", "2024-01-01", "2024-01-02", "2024-01-03",
                           "2024-01-04", "2024-01-05", "2025-06-01")
        ]
        assert idx.radix == 8
        assert idx.keys.tolist() == [1, 2, 5, 5, 7, 8 + 2, 8 + 4, 8 + 7, 16 + 0, 24 + 6]
        assert idx.order.tolist() == [10, 0, 1, 4, 9, 2, 8, 3, 6, 7]
        assert idx.order.tolist() == lexsort_order(hand_db, idx).tolist()
        assert idx.indptr.tolist() == [0, 5, 8, 9, 10, 10]


class TestRandomDatabases:
    @pytest.mark.parametrize("seed", range(12))
    def test_row_graph_keys_and_order(self, seed):
        db = random_database(seed, random_schema(seed % 10), scale=1.0 + seed % 3)
        for edge in db.schema.edges():
            idx = db.edge_index(edge)
            assert (np.diff(idx.keys) >= 0).all(), edge
            assert idx.order.tolist() == lexsort_order(db, idx).tolist(), edge
            assert (np.diff(idx.time_values) > 0).all(), edge
            parents = idx.keys // idx.radix
            assert parents.tolist() == db.forward(edge)[idx.order].tolist(), edge
            assert idx.indptr.tolist() == np.searchsorted(
                parents, np.arange(len(idx.indptr))).tolist(), edge

    @pytest.mark.parametrize("seed", range(12))
    def test_both_paths_equal_a_scan_of_the_child_times(self, seed):
        db = random_database(seed, random_schema(seed % 10), scale=1.0 + seed % 3)
        rng = np.random.default_rng(seed)
        windows = [Window(None, 0, TimeUnit.DAYS), Window(-30, 0, TimeUnit.DAYS),
                   Window(0, 45, TimeUnit.DAYS), Window(-200, 400, TimeUnit.DAYS),
                   Window(-5, 5, TimeUnit.SECONDS), None]
        for edge in db.schema.edges():
            idx = db.edge_index(edge)
            n_parent = len(idx.indptr) - 1
            if not n_parent:
                continue
            times = idx.time_values
            anchors = [int(times[0]) - MICROS_PER_DAY, int(times[-1]) + MICROS_PER_DAY] if len(times) else [0]
            if len(times):
                # Anchors that put a child time exactly on a window bound.
                picks = times[rng.integers(0, len(times), 4)]
                anchors += [int(t) + 5 * MICROS_PER_SECOND for t in picks]
                anchors += [int(t) - 5 * MICROS_PER_SECOND for t in picks]
                anchors += [int(t) for t in picks]
            scanned = False
            for window in windows:
                agg = count_over(edge, window)
                for anchor in anchors:
                    # Every parent in order or shuffled, or a subset; one
                    # anchor for all, or one per parent.
                    every = np.arange(n_parent)
                    blocks = [(every, anchor), (rng.permutation(n_parent), anchor),
                              (np.unique(rng.integers(0, n_parent, max(1, n_parent // 3))), anchor),
                              (every, rng.choice(anchors, n_parent))]
                    for parents, at in blocks:
                        checked(db, agg, parents, None if window is None else at)
                        # Only a bounded window at one anchor over every parent scans.
                        scanned |= (window is not None and window.start is not None
                                    and len(parents) == n_parent and not isinstance(at, np.ndarray))
                        assert (idx.slot_ranks is not None) == scanned, (edge, window, len(parents), at)

    @pytest.mark.parametrize("seed", range(12))
    def test_an_anchor_per_parent_equals_the_per_anchor_gathers(self, seed):
        db = random_database(seed, random_schema(seed % 10), scale=1.0 + seed % 3)
        rng = np.random.default_rng(seed)
        windows = [Window(None, 0, TimeUnit.DAYS), Window(-30, 0, TimeUnit.DAYS),
                   Window(0, 45, TimeUnit.DAYS), Window(-5, 5, TimeUnit.SECONDS)]
        for edge in db.schema.edges():
            idx = db.edge_index(edge)
            n_parent = len(idx.indptr) - 1
            if not n_parent or not len(idx.time_values):
                continue
            rank = {row: i for i, row in enumerate(lexsort_order(db, idx).tolist())}
            times = idx.time_values
            choices = np.concatenate([times[rng.integers(0, len(times), 4)], [times[0] - 1, times[-1] + 1]])
            for window in windows:
                agg = count_over(edge, window)
                # Parents repeat at other anchors, as one entity does in a
                # request; (parent, anchor) pairs are distinct, in any order.
                size = 3 * n_parent // 2 + 1
                drawn = {(int(p), int(a)) for p, a in zip(rng.integers(0, n_parent, size),
                                                          rng.choice(choices, size))}
                parents, anchors = np.array(rng.permutation(sorted(drawn)), dtype=np.int64).T
                got = checked(db, agg, parents, anchors)
                assert got.n_seg == len(parents) and (np.diff(got.seg) >= 0).all()
                for a in np.unique(anchors).tolist():
                    at = np.nonzero(anchors == a)[0]
                    at = at[np.argsort(parents[at])]
                    one = checked(db, agg, parents[at], a)
                    for local, s in enumerate(at.tolist()):
                        assert got.pos[got.seg == s].tolist() == one.pos[one.seg == local].tolist()
                # Within a parent, children keep the reference child order.
                for s in range(len(parents)):
                    order = [rank[row] for row in got.child_rows[got.seg == s].tolist()]
                    assert order == sorted(order)

    @pytest.mark.parametrize("seed", range(12))
    def test_window_slots_hold_the_children_dated_in_the_window(self, seed):
        db = random_database(seed, random_schema(seed % 10), scale=1.0 + seed % 3)
        rng = np.random.default_rng(seed)
        for edge in db.schema.edges():
            idx = db.edge_index(edge)
            n_parent = len(idx.indptr) - 1
            child = db.table(edge.child_table)
            tname = child.definition.time_column
            if not n_parent or tname is None or not len(idx.time_values):
                continue
            undated, at = child.column(tname).null, child.column(tname).values
            times = idx.time_values
            parents = np.unique(rng.integers(0, n_parent, max(1, n_parent // 2)))
            picks = [None, int(times[0]), int(times[-1]) + 1, *(int(t) for t in rng.choice(times, 3))]
            # A bound is open, one time for every parent, or a time per parent.
            bounds = [*picks, times[rng.integers(0, len(times), len(parents))] + rng.integers(-1, 2, len(parents))]
            order, forward = lexsort_order(db, idx).tolist(), db.forward(edge)
            for lo in bounds:
                for hi in bounds:
                    starts, ends = window_slots(idx, parents, lo, hi)
                    for i, p in enumerate(parents.tolist()):
                        lo_p = lo[i] if isinstance(lo, np.ndarray) else lo
                        hi_p = hi[i] if isinstance(hi, np.ndarray) else hi
                        want = [c for c in order if forward[c] == p and (
                            hi_p is None if undated[c]
                            else (lo_p is None or at[c] >= lo_p) and (hi_p is None or at[c] < hi_p))]
                        assert idx.order[starts[i]:ends[i]].tolist() == want, (edge, p, lo_p, hi_p)


class TestAccessPath:
    """On a freshly loaded database, a gather builds its edge's per-slot
    time ranks exactly when it scans: a bounded window at one anchor over
    every row of the parent table, whichever plan runs it."""

    COUNT_7D = "PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID"

    @staticmethod
    def scanned(retail_schema, run) -> set:
        """The child tables whose edges scanned while `run(db)` ran. Only an
        edge built on the way can hold slot ranks, so the built edges cover
        every edge a scanning block touched."""
        db = build_toy_db(retail_schema)
        run(db)
        return {name for name, t in db.tables.items() if any(idx.slot_ranks is not None for idx in t.edges.values())}

    @staticmethod
    def train(text: str, optimized: bool = True):
        def run(db):
            plan = plan_training(bind(parse(text), db.schema), AnchorPolicy(count=3), optimized=optimized)
            assert materialize_training(plan, db).row_count
        return run

    @pytest.mark.parametrize("optimized", [True, False])
    def test_an_unfiltered_bounded_window_scans(self, retail_schema, optimized):
        assert self.scanned(retail_schema, self.train(self.COUNT_7D, optimized)) == {"TRANSACTIONS"}

    def test_a_filtered_query_searches(self, retail_schema):
        text = self.COUNT_7D + ' WHERE CUSTOMERS.MEMBERSHIP_TYPE = "gold"'
        assert self.scanned(retail_schema, self.train(text)) == set()
        # The cross-product plan computes the target for every customer.
        assert self.scanned(retail_schema, self.train(text, optimized=False)) == {"TRANSACTIONS"}

    def test_an_unbounded_lookback_searches(self, retail_schema):
        text = ("PREDICT COUNT(NOTIFICATIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID "
                "WHERE COUNT(TRANSACTIONS.*, -INF, 0, days) > 0")
        assert "TRANSACTIONS" not in self.scanned(retail_schema, self.train(text))

    def test_a_sampler_request_searches(self, retail_schema):
        def run(db):
            bound = bind(parse(self.COUNT_7D), db.schema)
            pairs = sample_pairs(db, bound, 3)
            assert compute_on_subgraph(bound, collect(db, build_request(bound, pairs)), pairs).row_count
        assert self.scanned(retail_schema, run) == set()
