"""Low-latency label computation via connected-subgraph collection.

Instead of scanning tables, this path walks the row graph from the
requested entities and collects exactly the rows the query can touch: each
aggregation contributes a time-sliced child expansion (all qualifying
neighbors, no fan-out cap), each filter column a chain of single-row parent
hops, nested aggregations recurse. The collected row sets account for the
work a request does and can be exported as the entities' subgraph; labels
are computed for the requested pairs by the restricted kernels on the
shared store, so results match the batch engine row for row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .binder import (
    BoundAggregation,
    BoundAnd,
    BoundCompare,
    BoundNot,
    BoundOr,
    BoundQuery,
    HopChain,
    iter_bound_aggregations,
    iter_bound_columns,
)
from .engine import TrainingTable, evaluate_pairs
from .errors import ExecutionError
from .kernels import VecCtx, _edge_slot_arrays, gather_children
from .splits import SplitPolicy
from .store import Database, FkEdge, RowGraph, RowRef, build_row_graph


@dataclass(frozen=True)
class GatherNode:
    """One aggregation's child expansion: the aggregation (its edge and
    window), the parent-hop chains its filter reads, and the nested
    expansions below it."""

    agg: BoundAggregation
    hop_chains: Tuple[HopChain, ...]
    nested: Tuple["GatherNode", ...]


@dataclass(frozen=True)
class SampleRequest:
    """Everything `collect` needs: the pairs plus the shape of the reads."""

    entity_table: str
    pairs: Tuple[Tuple[RowRef, Optional[int]], ...]
    entity_hops: Tuple[HopChain, ...]
    gathers: Tuple[GatherNode, ...]

    @property
    def required_edges(self) -> Set[FkEdge]:
        out: Set[FkEdge] = set()

        def walk(node: GatherNode):
            out.add(node.agg.group_edge)
            for chain in node.hop_chains:
                out.update(chain)
            for sub in node.nested:
                walk(sub)

        for g in self.gathers:
            walk(g)
        for chain in self.entity_hops:
            out.update(chain)
        return out


def _gather_nodes(condition_or_agg) -> List[GatherNode]:
    """GatherNodes for every aggregation at the top level of a condition."""

    def from_agg(agg: BoundAggregation) -> GatherNode:
        chains: List[HopChain] = []
        nested: List[GatherNode] = []
        if agg.where is not None:
            chains = [c.hops for c in iter_bound_columns(agg.where) if c.hops]
            nested = _gather_nodes(agg.where)
        return GatherNode(agg, tuple(chains), tuple(nested))

    out: List[GatherNode] = []

    def walk(n):
        if isinstance(n, BoundAggregation):
            out.append(from_agg(n))
        elif isinstance(n, BoundCompare):
            walk(n.lhs)
        elif isinstance(n, BoundNot):
            walk(n.operand)
        elif isinstance(n, (BoundAnd, BoundOr)):
            walk(n.left)
            walk(n.right)

    if condition_or_agg is not None:
        walk(condition_or_agg)
    return out


def build_request(
    bound: BoundQuery, pairs: Sequence[Tuple[RowRef, Optional[int]]]
) -> SampleRequest:
    """Derive the sampling shape from a bound query: only the edges and
    windows the label computation and filters actually use."""
    gathers: List[GatherNode] = []
    entity_hops: List[HopChain] = []

    def entity_level(node):
        gathers.extend(_gather_nodes(node))
        entity_hops.extend(c.hops for c in iter_bound_columns(node) if c.hops)

    entity_level(bound.target)
    for conj in bound.conjuncts:
        entity_level(conj.condition)
    if bound.assuming is not None:
        entity_level(bound.assuming)

    return SampleRequest(
        entity_table=bound.entity_table,
        pairs=tuple((RowRef(r.table.upper(), r.index), a) for r, a in pairs),
        entity_hops=tuple(dict.fromkeys(entity_hops)),
        gathers=tuple(gathers),
    )


@dataclass
class Subgraph:
    """Per-table row index sets (sorted), closed under the request's
    hop/window specification and connected to the requested entities."""

    db: Database
    rows: Dict[str, np.ndarray]
    touched_rows: int = 0

    def row_count(self, table: str) -> int:
        arr = self.rows.get(table.upper())
        return 0 if arr is None else len(arr)


def _reached_rows(
    g: RowGraph, request: SampleRequest
) -> Tuple[Dict[str, List[np.ndarray]], List[np.ndarray]]:
    """Rows the request reads, apart from its entity rows, by table; and the
    entity rows, one sorted array per anchor. Child expansions are
    time-sliced per window (every qualifying neighbor, no fan-out cap),
    parent hops pull single rows unconditionally. Pairs sharing an anchor
    expand together, one array pass per edge."""
    ctx = VecCtx(g.db, g)
    acc: Dict[str, List[np.ndarray]] = {}

    def add(table: str, rows: np.ndarray):
        if len(rows):
            acc.setdefault(table, []).append(rows)

    def walk_chain(rows: np.ndarray, chain: HopChain):
        cur = rows
        for edge in chain:
            fwd = g.edge_index(edge).forward
            cur = fwd[cur]
            cur = cur[cur >= 0]
            add(edge.parent_table, cur)

    def expand(node: GatherNode, base_rows: np.ndarray, anchor: Optional[int]):
        children = gather_children(ctx, node.agg, base_rows, anchor).child_rows
        add(node.agg.table, children)
        if len(children):
            for chain in node.hop_chains:
                walk_chain(children, chain)
            for sub in node.nested:
                expand(sub, children, anchor)

    by_anchor: Dict[Optional[int], List[int]] = {}
    for ref, anchor in request.pairs:
        if ref.table.upper() != request.entity_table:
            raise ExecutionError(f"pair entity {ref} is not from {request.entity_table}")
        by_anchor.setdefault(anchor, []).append(ref.index)
    entities = []
    for anchor, indices in by_anchor.items():
        base = np.unique(np.array(indices, dtype=np.int64))
        entities.append(base)
        for chain in request.entity_hops:
            walk_chain(base, chain)
        for node in request.gathers:
            expand(node, base, anchor)
    return acc, entities


def collect(g: RowGraph, request: SampleRequest) -> Subgraph:
    """Breadth-first collection of the connected row subgraph the request
    touches: the entity rows plus every row `_reached_rows` finds."""
    acc, entities = _reached_rows(g, request)
    if entities:
        acc.setdefault(request.entity_table, []).extend(entities)
    packed = {t: np.unique(np.concatenate(arrays)) for t, arrays in acc.items()}
    touched = sum(len(v) for v in packed.values())
    return Subgraph(g.db, packed, touched)


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
        sub.db,
        build_row_graph(sub.db),
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
    the latest feasible anchor (ties by entity key). Activity is the newest
    child event strictly before the anchor across the query's child edges.
    """
    etable = bound.entity_table
    n_entities = db.nrows(etable)
    if bound.is_static:
        sel = range(min(n, n_entities))
        return [(RowRef(etable, i), None) for i in sel]
    if anchor is None:
        max_t = db.max_event_time()
        if max_t is None:
            raise ExecutionError("temporal query over a database with no dated rows")
        anchor = max_t - bound.timeframe.future
    latest = np.full(n_entities, np.iinfo(np.int64).min, dtype=np.int64)
    edges = {a.group_edge for a in _request_edges(bound) if a.group_edge.parent_table == etable}
    for edge in edges:
        idx = g.edge_index(edge)
        slot_parent, slot_dated = _edge_slot_arrays(idx)
        mask = slot_dated & (idx.times < anchor)
        np.maximum.at(latest, slot_parent[mask], idx.times[mask])
    active = np.nonzero(latest > np.iinfo(np.int64).min)[0]
    pk = db.table(etable).column(db.table(etable).definition.primary_key)
    ranked = sorted(active.tolist(), key=lambda i: (-int(latest[i]), pk.get(i)))
    return [(RowRef(etable, i), anchor) for i in ranked[:n]]


def _request_edges(bound: BoundQuery) -> List[BoundAggregation]:
    aggs = list(iter_bound_aggregations(bound.target))
    for conj in bound.conjuncts:
        aggs.extend(iter_bound_aggregations(conj.condition))
    aggs.extend(iter_bound_aggregations(bound.assuming))
    return aggs
