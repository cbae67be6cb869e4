"""Low-latency label computation via connected-subgraph collection.

Instead of scanning tables, this path walks the row graph from the
requested entities and collects exactly the rows the query can touch.
`_reached_rows` walks `BoundQuery.parts` (the target, each WHERE conjunct's
condition and ASSUMING) from the entity rows of each anchor:

* a column read follows its FK hops and pulls each hop's parent row;
* an aggregation gathers its window's children (every qualifying neighbor,
  no fan-out cap), then walks its filter over all of them, so filter
  columns pull parent rows and nested aggregations gather again;
* a comparison walks its left side, NOT its operand, AND and OR both.

The collected row sets account for the work a request does and can be
exported as the entities' subgraph; labels are computed for the requested
pairs by the restricted kernels on the shared store, so results match the
batch engine row for row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .binder import (
    BoundAggregation,
    BoundAnd,
    BoundColumn,
    BoundCompare,
    BoundNot,
    BoundOr,
    BoundQuery,
    BoundTarget,
    iter_bound_aggregations,
)
from .engine import TrainingTable, check_pair_entity, evaluate_pairs
from .errors import ExecutionError
from .kernels import VecCtx, gather_children
from .planner import AnchorPolicy, feasible_anchors
from .splits import SplitPolicy
from .store import Database, RowGraph, RowRef


@dataclass(frozen=True)
class SampleRequest:
    """Everything `collect` needs: the pairs and the query parts whose reads
    it follows (a None part, such as a missing ASSUMING, reads nothing)."""

    entity_table: str
    pairs: Tuple[Tuple[RowRef, Optional[int]], ...]
    parts: Tuple[Optional[BoundTarget], ...]


def build_request(
    bound: BoundQuery, pairs: Sequence[Tuple[RowRef, Optional[int]]]
) -> SampleRequest:
    """The request for `pairs` over every query part that reads rows: the
    target, each WHERE conjunct's condition and ASSUMING."""
    return SampleRequest(
        entity_table=bound.entity_table,
        pairs=tuple((RowRef(r.table.upper(), r.index), a) for r, a in pairs),
        parts=bound.parts,
    )


@dataclass
class Subgraph:
    """Per-table row index sets (sorted), closed under the request's
    hop/window specification and connected to the requested entities."""

    g: RowGraph
    rows: Dict[str, np.ndarray]
    touched_rows: int = 0


def _reached_rows(
    g: RowGraph, request: SampleRequest
) -> Tuple[Dict[str, List[np.ndarray]], List[np.ndarray]]:
    """Rows the request reads, apart from its entity rows, by table; and the
    entity rows, one sorted array per anchor. Pairs sharing an anchor walk
    the query together, one array pass per edge."""
    ctx = VecCtx(g.db, g)
    acc: Dict[str, List[np.ndarray]] = {}

    def add(table: str, rows: np.ndarray):
        if len(rows):
            acc.setdefault(table, []).append(rows)

    def walk(node, rows: np.ndarray, anchor: Optional[int]):
        if isinstance(node, BoundColumn):
            for edge in node.hops:
                rows = g.edge_index(edge).forward[rows]
                rows = rows[rows >= 0]
                add(edge.parent_table, rows)
        elif isinstance(node, BoundAggregation):
            children = gather_children(ctx, node, rows, anchor).child_rows
            add(node.table, children)
            if len(children) and node.where is not None:
                walk(node.where, children, anchor)
        elif isinstance(node, BoundCompare):
            walk(node.lhs, rows, anchor)
        elif isinstance(node, BoundNot):
            walk(node.operand, rows, anchor)
        elif isinstance(node, (BoundAnd, BoundOr)):
            walk(node.left, rows, anchor)
            walk(node.right, rows, anchor)

    by_anchor: Dict[Optional[int], List[int]] = {}
    nrows = g.db.nrows(request.entity_table)
    for ref, anchor in request.pairs:
        check_pair_entity(ref, request.entity_table, nrows)
        by_anchor.setdefault(anchor, []).append(ref.index)
    entities = []
    for anchor, indices in by_anchor.items():
        base = np.unique(np.array(indices, dtype=np.int64))
        entities.append(base)
        for part in request.parts:
            walk(part, base, anchor)
    return acc, entities


def collect(g: RowGraph, request: SampleRequest) -> Subgraph:
    """Breadth-first collection of the connected row subgraph the request
    touches: the entity rows plus every row `_reached_rows` finds."""
    acc, entities = _reached_rows(g, request)
    if entities:
        acc.setdefault(request.entity_table, []).extend(entities)
    packed = {t: np.unique(np.concatenate(arrays)) for t, arrays in acc.items()}
    touched = sum(len(v) for v in packed.values())
    return Subgraph(g, packed, touched)


def compute_on_subgraph(
    bound: BoundQuery,
    sub: Subgraph,
    pairs: Sequence[Tuple[RowRef, Optional[int]]],
    *,
    anchors_for_split: Optional[Sequence[int]] = None,
    split: Optional[SplitPolicy] = None,
    keep_empty_labels: Optional[bool] = None,
) -> TrainingTable:
    """Training rows for pairs whose subgraph was collected: the restricted
    kernels evaluate exactly these pairs on the shared store, so the rows
    are the batch engine's rows for the same pairs."""
    collected = sub.rows.get(bound.entity_table, np.empty(0, dtype=np.int64))
    indices = np.fromiter((ref.index for ref, _ in pairs), dtype=np.int64, count=len(pairs))
    missing = np.nonzero(~np.isin(indices, collected))[0]
    if len(missing):
        ref = pairs[int(missing[0])][0]
        raise ExecutionError(
            f"entity row {ref} was not collected; build the request from the same pairs"
        )
    return evaluate_pairs(
        sub.g.db,
        sub.g,
        bound,
        pairs,
        anchors_for_split=anchors_for_split,
        split=split,
        keep_empty_labels=keep_empty_labels,
    )


def sample_pairs(
    db: Database,
    g: RowGraph,
    bound: BoundQuery,
    n: int,
    *,
    anchor: Optional[int] = None,
) -> List[Tuple[RowRef, Optional[int]]]:
    """Default context selection: the `n` most recently active entities at
    `anchor`, by default the newest anchor of the default grid (ties by
    entity key). Activity is the newest child event strictly before the
    anchor across the query's child edges.
    """
    etable = bound.entity_table
    n_entities = db.nrows(etable)
    if bound.is_static:
        sel = range(min(n, n_entities))
        return [(RowRef(etable, i), None) for i in sel]
    if anchor is None:
        anchor = feasible_anchors(bound, AnchorPolicy(), db)[0]
    latest = np.full(n_entities, np.iinfo(np.int64).min, dtype=np.int64)
    entities = np.arange(n_entities, dtype=np.int64)
    aggs = [a for part in bound.parts for a in iter_bound_aggregations(part)]
    edges = {a.group_edge for a in aggs if a.group_edge.parent_table == etable}
    for edge in edges:
        idx = g.edge_index(edge)
        # Each entity's children before the anchor end where its keys reach
        # the anchor's rank; the slot before that end is the newest one.
        # Ranks belong to one child table, so compare times across edges.
        base = entities * idx.radix
        end = idx.keys.searchsorted(base + idx.time_values.searchsorted(anchor))
        has = np.nonzero(end > idx.indptr[:-1])[0]
        newest = idx.time_values[idx.keys[end[has] - 1] - base[has]]
        latest[has] = np.maximum(latest[has], newest)
    active = np.nonzero(latest > np.iinfo(np.int64).min)[0]
    keys = db.table(etable).column(db.table(etable).definition.primary_key).values[active]
    # Newest first, then by key: `~latest` orders as `-latest` without
    # overflow, and argsort ranks keys of any dtype, strings too.
    ranked = active[np.lexsort((np.argsort(np.argsort(keys, kind="stable")), ~latest[active]))]
    return [(RowRef(etable, i), anchor) for i in ranked[:n].tolist()]
