"""Plan execution over the vectorized kernels.

Training and prediction tables, and the training rows of explicit
(entity, anchor) pairs, all run one anchor's entity rows at a time through
the same stages: validity, static and temporal conjuncts, ASSUMING, then
the target, with every drop counted by cause. Optimized plans use the
restricted kernels on the selected rows; the unoptimized baseline
materializes the full entity-anchor cross product with full-table scans
and filters last. All paths produce identical tables.

Undefined values: aggregations over an empty (or all-null) set are
undefined for SUM/AVG/MIN/MAX/FIRST/LAST, zero for COUNT/COUNT_DISTINCT,
and an empty list for LIST_DISTINCT. A comparison against a null or
undefined operand is false (IS / IS NOT excepted). A target is undefined —
and its row dropped, counted — when a plain column target is null, an
aggregation target is undefined, or a raw column read feeding a condition
target is null.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .binder import BoundCondition, BoundQuery, TaskType
from .errors import ExecutionError
from .kernels import SumOverflow, VecCtx, eval_condition_vec, eval_target_vec
from .planner import LogicalPlan, resolve_anchors
from .splits import SplitPolicy, split_for_anchor_rank, split_for_keys
from .store import Database, ListType, RowGraph, RowRef, build_row_graph
from .times import format_timestamp


# ---------------------------------------------------------------------------
# Output tables


@dataclass
class TrainingTable:
    columns: Tuple[str, ...]
    rows: List[Tuple]  # (entity_key, anchor_micros | None, target, split)
    metadata: dict

    @property
    def row_count(self) -> int:
        return len(self.rows)


@dataclass
class PredictionTable:
    columns: Tuple[str, ...]
    rows: List[Tuple]  # (entity_key, anchor_micros | None)
    candidates: Optional[List] = None
    metadata: dict = field(default_factory=dict)


def _drop_empty_labels(task, keep_empty_labels: Optional[bool]) -> bool:
    if keep_empty_labels is not None:
        return not keep_empty_labels
    # Ranking needs positive links; multilabel admits all-negative rows.
    return task.task_type is TaskType.LINK_PREDICTION


def _is_list_target(bound: BoundQuery) -> bool:
    return isinstance(bound.task.target_dtype, ListType)


# ---------------------------------------------------------------------------
# Shared assembly helpers


@dataclass
class _Drops:
    validity: int = 0
    static_filter: int = 0
    temporal_filter: int = 0
    assuming: int = 0
    undefined_target: int = 0
    empty_label: int = 0

    def to_json(self) -> dict:
        return {
            "validity_pruned": self.validity,
            "static_filtered": self.static_filter,
            "temporal_filtered": self.temporal_filter,
            "assuming_filtered": self.assuming,
            "undefined_target": self.undefined_target,
            "empty_label": self.empty_label,
        }


def _validity_mask(
    ctx: VecCtx, bound: BoundQuery, sel: Optional[np.ndarray], anchor: int
) -> np.ndarray:
    start_col, end_col = bound.entity_validity
    table = ctx.db.table(bound.entity_table)
    n = table.nrows if sel is None else len(sel)
    mask = np.ones(n, dtype=np.bool_)
    if start_col is not None:
        col = table.column(start_col)
        vals = col.values if sel is None else col.values[sel]
        null = col.null if sel is None else col.null[sel]
        mask &= null | (vals <= anchor)
    if end_col is not None:
        col = table.column(end_col)
        vals = col.values if sel is None else col.values[sel]
        null = col.null if sel is None else col.null[sel]
        mask &= null | (anchor < vals)
    return mask


def _filter_rows(
    ctx: VecCtx,
    bound: BoundQuery,
    sel: np.ndarray,
    anchor: Optional[int],
    drops: _Drops,
    static: Sequence[BoundCondition] = (),
    temporal: Sequence[BoundCondition] = (),
    assuming: Optional[BoundCondition] = None,
) -> np.ndarray:
    """The filter stages over one anchor's entity rows, in order: validity
    (anchored rows only), the given static and temporal conjuncts, then
    ASSUMING. Each row dropped is counted once, under the first stage that
    drops it; returns the surviving rows."""
    if anchor is not None and bound.entity_validity is not None and len(sel):
        mask = _validity_mask(ctx, bound, sel, anchor)
        drops.validity += int(len(sel) - mask.sum())
        sel = sel[mask]
    stages = [(c, None, "static_filter") for c in static]
    stages += [(c, anchor, "temporal_filter") for c in temporal]
    if assuming is not None:
        stages.append((assuming, anchor, "assuming"))
    for cond, at, cause in stages:
        if len(sel) == 0:
            break
        mask = eval_condition_vec(ctx, cond, bound.entity_table, sel, at)
        setattr(drops, cause, getattr(drops, cause) + int(len(sel) - mask.sum()))
        sel = sel[mask]
    return sel


def _target_keep(
    ctx: VecCtx,
    bound: BoundQuery,
    sel: np.ndarray,
    anchor: Optional[int],
    drop_empty: bool,
    drops: _Drops,
):
    """Evaluate targets over `sel`; returns (kept sel, kept value array)."""
    values, defined = eval_target_vec(ctx, bound.target, bound.entity_table, sel, anchor)
    if _is_list_target(bound):
        empty = np.fromiter((len(v) == 0 for v in values), np.bool_, count=len(values))
        if drop_empty:
            keep = ~empty
            drops.empty_label += int(empty.sum())
        else:
            keep = np.ones(len(sel), dtype=np.bool_)
    else:
        keep = defined
        drops.undefined_target += int(len(sel) - keep.sum())
    return sel[keep], values[keep]


def _assemble(
    ctx: VecCtx,
    bound: BoundQuery,
    sel: np.ndarray,
    values: np.ndarray,
    anchor,
    split_name: Optional[str],
    split_policy: Optional[SplitPolicy] = None,
) -> List[Tuple]:
    """Rows for one anchor block, sorted by entity key (keys are unique per
    block, and blocks are produced newest-anchor-first, so concatenated
    blocks come out in canonical order with no global sort)."""
    keys = ctx.db.table(bound.entity_table).column(bound.entity_column).values[sel]
    order = np.argsort(keys, kind="stable")
    keys_l = keys[order].tolist()
    vals_l = values[order].tolist() if len(values) else []
    if split_name is None:  # static split hashes each key
        splits = split_for_keys(keys_l, split_policy)
        return [(k, anchor, v, s) for k, v, s in zip(keys_l, vals_l, splits)]
    return [(k, anchor, v, split_name) for k, v in zip(keys_l, vals_l)]


# ---------------------------------------------------------------------------
# Training materialization


def materialize_training(
    plan: LogicalPlan,
    db: Database,
    g: Optional[RowGraph] = None,
    *,
    split: Optional[SplitPolicy] = None,
    workers: int = 1,
    keep_empty_labels: Optional[bool] = None,
) -> TrainingTable:
    """Execute a training plan, producing the canonical sorted table."""
    if plan.mode != "training":
        raise ExecutionError("materialize_training needs a training-mode plan")
    bound = plan.bound
    g = g or build_row_graph(db)
    split = split or SplitPolicy()
    ctx = VecCtx(db, g)
    drop_empty = _drop_empty_labels(bound.task, keep_empty_labels)
    drops = _Drops()

    n_entities = db.nrows(bound.entity_table)
    all_rows = np.arange(n_entities, dtype=np.int64)

    anchors: List[int] = []
    if not bound.is_static:
        anchors = resolve_anchors(bound, plan.policy, db)
        if not anchors:
            raise ExecutionError(
                "no feasible anchors: the data span is shorter than one anchor stride"
            )
    anchor_rank = {a: i for i, a in enumerate(sorted(anchors, reverse=True))}

    if plan.optimized:
        # Static conjuncts run before anchor expansion, so their drops are
        # not pairs and are not counted.
        survivors = _filter_rows(ctx, bound, all_rows, None, _Drops(), bound.static_conjuncts)
        pairs_expanded = len(survivors) if bound.is_static else len(survivors) * len(anchors)
        if bound.is_static:
            sel, values = _target_keep(ctx, bound, survivors, None, drop_empty, drops)
            rows = _assemble(ctx, bound, sel, values, None, None, split)
        else:

            def run_anchor(anchor: int):
                local = _Drops()
                sel = _filter_rows(
                    ctx, bound, survivors, anchor, local,
                    temporal=bound.temporal_conjuncts, assuming=bound.assuming,
                )
                sel, values = _target_keep(ctx, bound, sel, anchor, drop_empty, local)
                split_name = split_for_anchor_rank(anchor_rank[anchor])
                return _assemble(ctx, bound, sel, values, anchor, split_name), local

            rows = []
            for partial, local in _map_anchors(run_anchor, anchors, workers):
                rows.extend(partial)
                _merge_drops(drops, local)
    else:
        # Baseline: full cross product, targets for everything, filters last.
        rows, pairs_expanded = _run_naive(
            ctx, bound, all_rows, anchors, anchor_rank, split, drop_empty, drops, workers
        )
    split_counts: Dict[str, int] = {}
    for r in rows:
        split_counts[r[3]] = split_counts.get(r[3], 0) + 1
    metadata = {
        "mode": "training",
        "strategy": "staged" if plan.optimized else "cross_product",
        "task": bound.task.to_json(),
        "timeframe": bound.timeframe.to_json(),
        "entity_table": bound.entity_table,
        "entity_column": bound.entity_column,
        "anchors": [format_timestamp(a) for a in sorted(anchors, reverse=True)],
        "entities_scanned": n_entities,
        "pairs_expanded": pairs_expanded,
        "row_count": len(rows),
        "split_counts": split_counts,
        "dropped": drops.to_json(),
        "split_policy": {"train": split.train, "val": split.val, "test": split.test, "seed": split.seed},
    }
    columns = ("ENTITY",) + (() if bound.is_static else ("TIMESTAMP",)) + ("TARGET", "SPLIT")
    return TrainingTable(columns, rows, metadata)


def _merge_drops(total: _Drops, local: _Drops):
    total.validity += local.validity
    total.static_filter += local.static_filter
    total.temporal_filter += local.temporal_filter
    total.assuming += local.assuming
    total.undefined_target += local.undefined_target
    total.empty_label += local.empty_label


def _map_anchors(fn, anchors: List[int], workers: int):
    if workers <= 1 or len(anchors) <= 1:
        return [fn(a) for a in anchors]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, anchors))


def _spare_overflow(fn, n: int):
    """Run the batch kernel `fn(rows)` over all `n` entity rows, setting
    aside rows whose int64 SUM leaves the range instead of failing the
    batch. Returns (result over the other rows, those rows or None for all,
    mask of the rows set aside)."""
    over = np.zeros(n, dtype=np.bool_)
    rows = None
    while True:
        try:
            return fn(rows), rows, over
        except SumOverflow as exc:
            over[exc.segments if rows is None else rows[exc.segments]] = True
            rows = np.nonzero(~over)[0]


def _widen(mask: np.ndarray, rows: Optional[np.ndarray], n: int) -> np.ndarray:
    if rows is None:
        return mask
    full = np.zeros(n, dtype=np.bool_)
    full[rows] = mask
    return full


def _run_naive(ctx, bound, all_rows, anchors, anchor_rank, split, drop_empty, drops, workers):
    """Cross-product execution: one full-table pass per anchor, targets
    first. A row whose SUM leaves int64 fails the run only when the stages
    before it keep the row, as in the staged plan."""
    etable = bound.entity_table
    n = len(all_rows)
    ctx.fullscan = True

    def run_anchor(anchor: Optional[int]):
        local = _Drops()
        # Target computation for every entity, before any filtering.
        (values, defined), live, target_over = _spare_overflow(
            lambda r: eval_target_vec(ctx, bound.target, etable, r, anchor), n
        )
        keep = np.ones(n, dtype=np.bool_)
        kept = n

        def apply(mask, bucket):
            nonlocal keep, kept
            keep &= mask
            now = int(keep.sum())
            setattr(local, bucket, getattr(local, bucket) + kept - now)
            kept = now

        def refuse_overflow(over):
            if (keep & over).any():
                raise ExecutionError("SUM leaves the int64 range")

        def apply_cond(cond, at, bucket):
            mask, rows, over = _spare_overflow(
                lambda r: eval_condition_vec(ctx, cond, etable, r, at), n
            )
            refuse_overflow(over)
            apply(_widen(mask, rows, n), bucket)

        for cond in bound.static_conjuncts:
            apply_cond(cond, None, "static_filter")
        if anchor is not None and bound.entity_validity is not None:
            apply(_validity_mask(ctx, bound, None, anchor), "validity")
        if anchor is not None:
            for cond in bound.temporal_conjuncts:
                apply_cond(cond, anchor, "temporal_filter")
            if bound.assuming is not None:
                apply_cond(bound.assuming, anchor, "assuming")
        refuse_overflow(target_over)
        if _is_list_target(bound):
            empty = np.fromiter((len(v) == 0 for v in values), np.bool_, count=len(values))
            if drop_empty:
                apply(_widen(~empty, live, n), "empty_label")
        else:
            apply(_widen(defined, live, n), "undefined_target")
        sel = np.nonzero(keep)[0]
        kept_vals = values[sel if live is None else np.searchsorted(live, sel)]
        if anchor is None:
            return _assemble(ctx, bound, sel, kept_vals, None, None, split), local
        split_name = split_for_anchor_rank(anchor_rank[anchor])
        return _assemble(ctx, bound, sel, kept_vals, anchor, split_name), local

    rows: List[Tuple] = []
    if bound.is_static:
        partial, local = run_anchor(None)
        rows.extend(partial)
        _merge_drops(drops, local)
        pairs = len(all_rows)
    else:
        for partial, local in _map_anchors(run_anchor, anchors, workers):
            rows.extend(partial)
            _merge_drops(drops, local)
        pairs = len(all_rows) * len(anchors)
    return rows, pairs


# ---------------------------------------------------------------------------
# Prediction materialization


def materialize_prediction(
    plan: LogicalPlan, db: Database, g: Optional[RowGraph] = None
) -> PredictionTable:
    """Execute a prediction plan: the entity set to predict for, with the
    candidate list for link tasks. ASSUMING never applies here."""
    if plan.mode != "prediction":
        raise ExecutionError("materialize_prediction needs a prediction-mode plan")
    bound = plan.bound
    g = g or build_row_graph(db)
    ctx = VecCtx(db, g)
    etable = bound.entity_table

    anchor: Optional[int] = None
    if not bound.is_static:
        anchor = plan.prediction_at
        if anchor is None:
            anchor = db.max_event_time()
            if anchor is None:
                raise ExecutionError("temporal query over a database with no dated rows")
    sel = _filter_rows(
        ctx, bound, np.arange(db.nrows(etable), dtype=np.int64), anchor, _Drops(),
        bound.static_conjuncts, bound.temporal_conjuncts,
    )
    if bound.is_static:
        # Static tables predict exactly the entities whose label could not
        # be computed during training (their values are to be imputed).
        drop_empty = _drop_empty_labels(bound.task, None)
        values, defined = eval_target_vec(ctx, bound.target, etable, sel, None)
        if _is_list_target(bound):
            if drop_empty:
                empty = np.fromiter((len(v) == 0 for v in values), np.bool_, count=len(values))
                sel = sel[empty]
            else:
                sel = sel[:0]
        else:
            sel = sel[~defined]

    keys = db.table(bound.entity_table).column(bound.entity_column).values[sel].tolist()
    rows = [(k, anchor) for k in sorted(keys)]

    candidates = None
    if bound.task.task_type is TaskType.LINK_PREDICTION:
        link_table = bound.task.link_target_table
        ltable = db.table(link_table)
        cand_sel = np.arange(ltable.nrows, dtype=np.int64)
        if bound.prediction_filter is not None and len(cand_sel):
            mask = eval_condition_vec(ctx, bound.prediction_filter, link_table, cand_sel, None)
            cand_sel = cand_sel[mask]
        pk = ltable.column(ltable.definition.primary_key)
        candidates = sorted(pk.values[cand_sel].tolist())

    metadata = {
        "mode": "prediction",
        "task": bound.task.to_json(),
        "timeframe": bound.timeframe.to_json(),
        "entity_table": bound.entity_table,
        "entity_column": bound.entity_column,
        "anchor": None if anchor is None else format_timestamp(anchor),
        "row_count": len(rows),
        "candidate_count": None if candidates is None else len(candidates),
    }
    columns = ("ENTITY",) if bound.is_static else ("ENTITY", "TIMESTAMP")
    return PredictionTable(columns, rows, candidates, metadata)


# ---------------------------------------------------------------------------
# Pairwise evaluation of explicit (entity, anchor) pairs


def evaluate_pairs(
    db: Database,
    g: RowGraph,
    bound: BoundQuery,
    pairs: Sequence[Tuple[RowRef, Optional[int]]],
    *,
    anchors_for_split: Optional[Sequence[int]] = None,
    split: Optional[SplitPolicy] = None,
    keep_empty_labels: Optional[bool] = None,
) -> TrainingTable:
    """Training rows for the given (entity, anchor) pairs only.

    Produces exactly the rows the batch engine would emit for those pairs:
    filters, validity pruning, drops and splits all apply. Pairs are grouped
    by anchor and each group runs through the same stages as a batch anchor,
    on the restricted kernels over the shared store. Used by the low-latency
    sampler and by the verification suites.
    """
    split = split or SplitPolicy()
    ctx = VecCtx(db, g)
    drop_empty = _drop_empty_labels(bound.task, keep_empty_labels)
    pairs = list(dict.fromkeys(pairs))  # (entity, anchor) rows are unique
    if anchors_for_split is None:
        anchors_for_split = sorted({a for _, a in pairs if a is not None}, reverse=True)
    rank = {a: i for i, a in enumerate(sorted(anchors_for_split, reverse=True))}

    by_anchor: Dict[Optional[int], List[int]] = {}
    for ref, anchor in pairs:
        if ref.table.upper() != bound.entity_table:
            raise ExecutionError(f"pair entity {ref} is not from {bound.entity_table}")
        if (anchor is None) != bound.is_static:
            raise ExecutionError(
                "static query takes no anchor" if bound.is_static else "temporal query needs an anchor"
            )
        by_anchor.setdefault(anchor, []).append(ref.index)

    rows: List[Tuple] = []
    drops = _Drops()
    for anchor in sorted(by_anchor, reverse=True):  # newest anchor first: canonical order
        sel = _filter_rows(
            ctx, bound, np.array(by_anchor[anchor], dtype=np.int64), anchor, drops,
            bound.static_conjuncts, bound.temporal_conjuncts, bound.assuming,
        )
        sel, values = _target_keep(ctx, bound, sel, anchor, drop_empty, drops)
        split_name = None if anchor is None else split_for_anchor_rank(rank[anchor])
        rows.extend(_assemble(ctx, bound, sel, values, anchor, split_name, split))

    metadata = {
        "mode": "training",
        "strategy": "pairwise",
        "task": bound.task.to_json(),
        "pairs_expanded": len(pairs),
        "row_count": len(rows),
        "dropped": drops.to_json(),
    }
    columns = ("ENTITY",) + (() if bound.is_static else ("TIMESTAMP",)) + ("TARGET", "SPLIT")
    return TrainingTable(columns, rows, metadata)
