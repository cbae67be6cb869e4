"""Low-latency label computation via connected-subgraph collection.

Instead of scanning tables, this path walks the row graph from the
requested entities and collects exactly the rows the query can touch.
`engine.check_pairs` checks the request's (entity, anchor) pairs and keeps
each distinct pair once, as at every entry that takes pairs. `_reached_rows`
then walks `BoundQuery.parts` (the target, each WHERE conjunct's condition
and ASSUMING) once from those pairs, each row at its own anchor, visiting
each part's nodes by `binder.walk` outside aggregation filters:

* a column read follows its FK hops and pulls each hop's parent row;
* an aggregation gathers its window's children (every qualifying neighbor,
  no fan-out cap), then walks its filter over all of them at their
  parent's anchor, so filter columns pull parent rows and nested
  aggregations gather again.

`collect` reads the database's tables as they are loaded. The collected
row sets, a `Subgraph`, account for the work a request does: the
database, the sorted row indices of each table it reads, and their count.
Labels are computed for the requested pairs by the same kernels on the
same database, so results match the batch engine row for row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .binder import BoundAggregation, BoundColumn, BoundQuery, BoundTarget, iter_bound_aggregations, walk
from .engine import TrainingTable, _evaluate_distinct, check_pairs
from .errors import ExecutionError, PlanError
from .kernels import Anchor, distinct, gather_children, newest_first, window_slots
from .planner import AnchorPolicy, feasible_anchors
from .splits import SplitPolicy
from .store import Database, RowRef


@dataclass(frozen=True)
class SampleRequest:
    """Everything `collect` needs: the pairs, the query parts whose reads
    it follows (a None part, such as a missing ASSUMING, reads nothing), and
    whether the query is static, so that its pairs take no anchor."""

    entity_table: str
    pairs: Tuple[Tuple[RowRef, Optional[int]], ...]
    parts: Tuple[Optional[BoundTarget], ...]
    is_static: bool


def build_request(
    bound: BoundQuery, pairs: Sequence[Tuple[RowRef, Optional[int]]]
) -> SampleRequest:
    """The request for `pairs` over every query part that reads rows: the
    target, each WHERE conjunct's condition and ASSUMING. Table names are
    upper-cased; pairs already in upper case are kept as they are."""
    pairs = tuple(pairs)
    if any(t != t.upper() for t in {r.table for r, _ in pairs}):
        pairs = tuple((RowRef(r.table.upper(), r.index), a) for r, a in pairs)
    return SampleRequest(bound.entity_table, pairs, bound.parts, bound.is_static)


@dataclass
class Subgraph:
    """Per-table row index sets (sorted) of `db`, closed under the request's
    hop/window specification and connected to the requested entities."""

    db: Database
    rows: Dict[str, np.ndarray]
    touched_rows: int = 0


def _reached_rows(
    db: Database, parts: Sequence[Optional[BoundTarget]], rows: np.ndarray, at: Anchor
) -> Dict[str, List[np.ndarray]]:
    """Rows that `parts` read, apart from the entity rows, by table, for the
    distinct pairs of entity `rows` and anchors `at` that `check_pairs`
    returns. All pairs walk the query together, each at its own anchor, one
    array pass per edge."""
    acc: Dict[str, List[np.ndarray]] = {}

    def add(table: str, found: np.ndarray):
        if len(found):
            acc.setdefault(table, []).append(found)

    def reach(node, rows: np.ndarray, anchor: Anchor):
        for n in walk(node, filters=False):
            if isinstance(n, BoundColumn):
                parents = rows
                for edge in n.hops:
                    parents = db.forward(edge)[parents]
                    parents = parents[parents >= 0]
                    add(edge.parent_table, parents)
            elif isinstance(n, BoundAggregation):
                gathered = gather_children(db, n, rows, anchor)
                children = gathered.child_rows
                add(n.table, children)
                if len(children) and n.where is not None:
                    # A child's filter runs at its parent's anchor.
                    reach(n.where, children, anchor[gathered.seg] if isinstance(anchor, np.ndarray) else anchor)

    if len(rows):
        for part in parts:
            reach(part, rows, at)
    return acc


def collect(db: Database, request: SampleRequest) -> Subgraph:
    """Breadth-first collection of the connected row subgraph the request
    touches: the entity rows plus every row `_reached_rows` finds, in the
    tables `db` holds now."""
    _, rows, at = check_pairs(request.pairs, db, request.entity_table, request.is_static)
    acc = _reached_rows(db, request.parts, rows, at)
    if len(rows):
        acc.setdefault(request.entity_table, []).append(rows)
    packed = {t: distinct(np.concatenate(arrays)) for t, arrays in acc.items()}
    touched = sum(len(v) for v in packed.values())
    return Subgraph(db, packed, touched)


def compute_on_subgraph(
    bound: BoundQuery,
    sub: Subgraph,
    pairs: Sequence[Tuple[RowRef, Optional[int]]],
    *,
    anchors_for_split: Optional[Sequence[int]] = None,
    split: Optional[SplitPolicy] = None,
    keep_empty_labels: Optional[bool] = None,
) -> TrainingTable:
    """Training rows for pairs whose subgraph was collected: the kernels
    evaluate exactly these pairs on the tables `sub.db` holds now, so the
    rows are the batch engine's rows for the same pairs."""
    refs, rows, at = check_pairs(pairs, sub.db, bound.entity_table, bound.is_static)
    collected = sub.rows.get(bound.entity_table, np.empty(0, dtype=np.int64))
    # `collected` is sorted, so a row is collected where its search lands on it.
    found = np.minimum(collected.searchsorted(rows), len(collected) - 1)
    missing = collected[found] != rows if len(collected) else np.ones(len(rows), dtype=np.bool_)
    if missing.any():
        lost = set(rows[missing].tolist())
        ref = next(ref for ref in refs if ref.index in lost)
        raise ExecutionError(f"entity row {ref} was not collected; build the request from the same pairs")
    return _evaluate_distinct(sub.db, bound, rows, at, anchors_for_split, split, keep_empty_labels)


def sample_pairs(
    db: Database,
    bound: BoundQuery,
    n: int,
    *,
    anchor: Optional[int] = None,
) -> List[Tuple[RowRef, Optional[int]]]:
    """Default context selection: the `n` most recently active entities at
    `anchor`, by default the newest anchor of the default grid (ties by
    entity key). Activity is the newest child event strictly before the
    anchor across the query's child edges into the entity table.
    """
    if n < 0:
        raise PlanError(f"pair count must not be negative, got {n}")
    etable = bound.entity_table
    n_entities = db.nrows(etable)
    if bound.is_static:
        return [(RowRef(etable, i), None) for i in range(min(n, n_entities))]
    if anchor is None:
        anchor = feasible_anchors(bound, AnchorPolicy(), db)[0]
    entities = np.arange(n_entities, dtype=np.int64)
    none = np.iinfo(np.int64).min  # no child before the anchor: times start at year 1
    latest = np.full(n_entities, none, dtype=np.int64)
    aggs = [a for part in bound.parts for a in iter_bound_aggregations(part)]
    for edge in {a.group_edge for a in aggs if a.group_edge.parent_table == etable}:
        # An entity's newest child before the anchor is the last slot of its
        # window [-INF, anchor), where it has one.
        idx = db.edge_index(edge)
        starts, ends = window_slots(idx, entities, None, anchor)
        found = ends > starts
        if found.any():
            child = db.table(edge.child_table)
            times = child.column(child.definition.time_column).values[idx.order[ends[found] - 1]]
            latest[found] = np.maximum(latest[found], times)
    candidates = np.nonzero(latest > none)[0]
    keys = db.table(etable).column(db.table(etable).definition.primary_key).values[candidates]
    ranked = candidates[newest_first(latest[candidates], keys)]
    return [(RowRef(etable, i), anchor) for i in ranked[:n].tolist()]
