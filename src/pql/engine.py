"""Plan execution over the vectorized kernels.

One executor runs every plan: training tables under both strategies,
prediction tables, and the training rows of explicit (entity, anchor)
pairs. It walks `LogicalPlan.nodes` in order, the plan `pql plan` prints,
and runs each node as one kernel call over a block: (entity, anchor) pairs
as entity rows with one anchor for the block or one per row, plus their
target values once TargetCompute has run (the Volcano operator-tree
design, a column at a time). The batch engine's leading scan and static
filters run once over the entity table; the expansion node fans that block
out into one block per anchor, and every later node runs per block, the
blocks in order on one thread. Explicit pairs run as one block whatever
their anchors. Each row a node drops is counted by cause, once, under the
first node that drops it. The plans differ only in their nodes: the
cross-product baseline computes targets for every pair before any filter,
and each gather picks a full scan or a window search from its block, by
the one rule `kernels.gather_children` states. Every entry takes the
database alone, which serves the row-graph edges the kernels read.
All paths produce identical tables, held as column arrays: Project sorts
each block's keys, anchors, values and split codes, and the blocks
concatenate. `rows` is a view.

Undefined values: aggregations over an empty (or all-null) set are
undefined for SUM/AVG/MIN/MAX/FIRST/LAST, zero for COUNT/COUNT_DISTINCT,
and an empty list for LIST_DISTINCT. A comparison against a null or
undefined operand is false (IS / IS NOT excepted). A target is undefined —
and its row dropped, counted — when a plain column target is null, an
aggregation target is undefined, or a raw column read feeding a condition
target is null.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .binder import BoundQuery, TaskType
from .errors import ExecutionError, PlanError
from .kernels import Anchor, SumOverflow, distinct, distinct_pairs, eval_condition_vec, eval_target_vec, newest_first
from .planner import LogicalPlan, PlanNode, feasible_anchors, latest_event_time, plan_training
from .splits import SPLITS, SplitPolicy, split_code_for_anchor_rank, split_counts, split_for_keys
from .store import _NUMPY_DTYPE, Column, Database, DataType, ListType, RowRef
from .times import MAX_MICROS, MIN_MICROS, format_timestamp


# ---------------------------------------------------------------------------
# Output tables: columns in canonical order, newest anchor first, then key


@dataclass
class _Table:
    columns: Tuple[str, ...]
    key_dtype: DataType
    target_dtype: Union[DataType, ListType]
    keys: np.ndarray
    anchors: Optional[np.ndarray]  # int64 micros per row; None for a static table

    @property
    def row_count(self) -> int:
        return len(self.keys)

    def _view(self, *more: np.ndarray) -> List[Tuple]:
        """Rows of Python values: key, anchor (None when static), then `more`."""
        anchors = [None] * len(self.keys) if self.anchors is None else self.anchors.tolist()
        return list(zip(self.keys.tolist(), anchors, *(column.tolist() for column in more)))


@dataclass
class TrainingTable(_Table):
    values: np.ndarray  # of the target's dtype; object (tuples) for list targets
    splits: np.ndarray  # int8 codes into `splits.SPLITS`
    metadata: dict

    @property
    def rows(self) -> List[Tuple]:
        """(entity_key, anchor_micros | None, target, split) per row."""
        return self._view(self.values, SPLITS[self.splits])


@dataclass
class PredictionTable(_Table):
    candidates: Optional[List] = None
    metadata: dict = field(default_factory=dict)

    @property
    def rows(self) -> List[Tuple]:
        """(entity_key, anchor_micros | None) per row."""
        return self._view()


def _drop_empty_labels(task, keep_empty_labels: Optional[bool]) -> bool:
    if keep_empty_labels is not None:
        return not keep_empty_labels
    # Ranking needs positive links; multilabel admits all-negative rows.
    return task.task_type is TaskType.LINK_PREDICTION


def _is_list_target(bound: BoundQuery) -> bool:
    return isinstance(bound.task.target_dtype, ListType)


# ---------------------------------------------------------------------------
# The plan executor

# Drop causes, in the order `dropped` reports them.
_CAUSES = (
    "validity_pruned",
    "static_filtered",
    "temporal_filtered",
    "assuming_filtered",
    "undefined_target",
    "empty_label",
)


@dataclass
class _Block:
    """(entity, anchor) pairs on their way through the plan."""

    anchor: Anchor  # None when static; an int64 array holds one per row of `sel`
    sel: Optional[np.ndarray]  # entity rows; None before ScanEntities
    drops: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(_CAUSES, 0))
    # Set by TargetCompute, aligned with `sel`: the target values, whether
    # the row has a label to keep, and (None when no row did) whether its
    # int64 SUM overflowed.
    values: Optional[np.ndarray] = None
    labelled: Optional[np.ndarray] = None
    overflow: Optional[np.ndarray] = None
    keys: Optional[np.ndarray] = None  # set by Project, as are `values` in key order
    splits: Optional[np.ndarray] = None  # set by Project: split codes
    candidates: Optional[List] = None  # set by CandidateSet

    def keep(self, mask: np.ndarray, cause: Optional[str]):
        dropped = int(len(mask) - mask.sum())
        if cause is not None:
            self.drops[cause] += dropped
        if not dropped:
            return
        self.sel = self.sel[mask]
        if isinstance(self.anchor, np.ndarray):
            self.anchor = self.anchor[mask]
        if self.values is not None:
            self.values = self.values[mask]
            self.labelled = self.labelled[mask]
        if self.overflow is not None:
            self.overflow = self.overflow[mask]


@dataclass
class _Run:
    """What the node handlers of one execution share."""

    plan: LogicalPlan
    db: Database
    drop_empty: bool
    split: Optional[SplitPolicy] = None
    split_codes: Dict[int, int] = field(default_factory=dict)  # by anchor
    bound: BoundQuery = field(init=False)
    list_target: bool = field(init=False)
    key_column: Column = field(init=False)
    value_dtype: type = field(init=False)

    def __post_init__(self):
        self.bound = self.plan.bound
        self.list_target = _is_list_target(self.bound)
        self.key_column = self.db.table(self.bound.entity_table).column(self.bound.entity_column)
        self.value_dtype = _NUMPY_DTYPE.get(self.bound.task.target_dtype, object)  # object for lists


def _split_codes(anchors: Sequence[int]) -> Dict[int, int]:
    return {a: split_code_for_anchor_rank(i) for i, a in enumerate(sorted(anchors, reverse=True))}


def _execute(
    run: _Run,
    anchors: Sequence[int] = (),
    blocks: Optional[List[_Block]] = None,
) -> Tuple[List[_Block], list, Dict[str, int], int]:
    """Walk the plan's nodes over the entity table, or over pre-anchored
    `blocks` of pairs. Returns the finished blocks, newest anchor first,
    their columns end to end (keys, anchors or None when static and, for
    training, values and split codes), their drops by cause, and the number
    of pairs that entered them.

    Without blocks the leading scan and static filters run once, and their
    drops go uncounted: those rows are not pairs yet. The expansion node
    then fans the survivors out over `anchors`. Pre-anchored blocks are
    pairs already, so every node, the leading ones included, runs on them
    and counts its drops; the expansion node only prunes by validity."""
    nodes = run.plan.nodes
    if blocks is None:
        head = _Block(None, None)
        while nodes[0].kind in ("ScanEntities", "StaticEntityFilter"):
            _HANDLERS[nodes[0].kind](run, head, nodes[0])
            nodes = nodes[1:]
        if nodes[0].kind in ("AnchorExpand", "CrossJoinAnchors"):
            blocks = [_Block(a, head.sel) for a in anchors]
        else:
            blocks = [_Block(None, head.sel)]
    pairs = sum(len(b.sel) for b in blocks)
    steps = [(_HANDLERS[node.kind], node) for node in nodes]
    for block in blocks:
        for handler, node in steps:
            handler(run, block, node)

    def concat(parts: List[np.ndarray], dtype) -> np.ndarray:  # a lone block's column is not copied
        return parts[0] if len(parts) == 1 else np.concatenate([np.empty(0, dtype), *parts])

    def column(name: str, dtype) -> np.ndarray:
        return concat([getattr(b, name) for b in blocks], dtype)

    columns = [column("keys", run.key_column.values.dtype), None]
    if not run.bound.is_static:
        columns[1] = concat([np.full(len(b.keys), b.anchor, dtype=np.int64) for b in blocks], np.int64)
    if run.plan.mode == "training":
        columns += [column("values", run.value_dtype), column("splits", np.int8)]
    drops = {cause: sum(b.drops[cause] for b in blocks) for cause in _CAUSES}
    return blocks, columns, drops, pairs


# -- node handlers: each runs one node over one block -----------------------


def _scan(run: _Run, block: _Block, node: PlanNode):
    if block.sel is None:  # pre-anchored blocks hold their rows already
        block.sel = np.arange(run.db.nrows(run.bound.entity_table), dtype=np.int64)


def _filter(cause: str, at_anchor: bool) -> Callable:
    def handler(run: _Run, block: _Block, node: PlanNode):
        if len(block.sel):
            at = block.anchor if at_anchor else None
            mask = eval_condition_vec(run.db, node.payload, run.bound.entity_table, block.sel, at)
            block.keep(mask, cause)

    return handler


def _validity_mask(db: Database, bound: BoundQuery, sel: np.ndarray, anchor: Anchor) -> np.ndarray:
    start_col, end_col = bound.entity_validity
    table = db.table(bound.entity_table)
    mask = np.ones(len(sel), dtype=np.bool_)
    if start_col is not None:
        col = table.column(start_col)
        mask &= col.null[sel] | (col.values[sel] <= anchor)
    if end_col is not None:
        col = table.column(end_col)
        mask &= col.null[sel] | (anchor < col.values[sel])
    return mask


def _validity(run: _Run, block: _Block, node: PlanNode):
    if block.anchor is not None and run.bound.entity_validity is not None and len(block.sel):
        block.keep(_validity_mask(run.db, run.bound, block.sel, block.anchor), "validity_pruned")


def _cross_join(run: _Run, block: _Block, node: PlanNode):
    """The fan-out is the whole node; validity is pruned late."""


def _target(run: _Run, block: _Block, node: PlanNode):
    """Target values for every row of the block. A row whose int64 SUM
    leaves the range is set aside, and fails the run only if it reaches
    Project, so a row a later filter drops cannot fail it."""
    sel, n = block.sel, len(block.sel)
    over: Optional[np.ndarray] = None
    live: Optional[np.ndarray] = None  # None: every row
    while True:
        try:
            rows, at = sel, block.anchor
            if live is not None:
                rows = sel[live]
                at = at[live] if isinstance(at, np.ndarray) else at
            values, defined = eval_target_vec(run.db, node.payload, run.bound.entity_table, rows, at)
            break
        except SumOverflow as exc:
            if over is None:
                over = np.zeros(n, dtype=np.bool_)
            over[exc.segments if live is None else live[exc.segments]] = True
            live = np.nonzero(~over)[0]
    if run.list_target:
        empty = np.fromiter((len(v) == 0 for v in values), np.bool_, count=len(values))
        labelled = ~empty if run.drop_empty else np.ones(len(values), dtype=np.bool_)
    else:
        labelled = defined
    if live is not None:
        values, labelled = _widen(values, live, n), _widen(labelled, live, n)
    block.values, block.labelled, block.overflow = values, labelled, over


def _widen(arr: np.ndarray, live: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=arr.dtype)
    out[live] = arr
    return out


def _refuse_overflow(block: _Block):
    if block.overflow is not None and block.overflow.any():
        raise ExecutionError("SUM leaves the int64 range")


def _select_missing_target(run: _Run, block: _Block, node: PlanNode):
    """Keep the rows a training table drops for their label."""
    _target(run, block, node)
    _refuse_overflow(block)
    block.keep(~block.labelled, None)


def _candidate_set(run: _Run, block: _Block, node: PlanNode):
    link_table = run.bound.task.link_target_table
    ltable = run.db.table(link_table)
    sel = np.arange(ltable.nrows, dtype=np.int64)
    if node.payload is not None and len(sel):
        sel = sel[eval_condition_vec(run.db, node.payload, link_table, sel, None)]
    pk = ltable.column(ltable.definition.primary_key)
    block.candidates = sorted(pk.values[sel].tolist())


def _project(run: _Run, block: _Block, node: PlanNode):
    """Sort the block's columns into canonical order, newest anchor first,
    then by entity key (pairs are unique per block, and blocks run newest
    anchor first, so concatenated blocks need no global sort). A training
    row without a label leaves here, after every filter."""
    training = run.plan.mode == "training"
    if training:
        _refuse_overflow(block)
        block.keep(block.labelled, "empty_label" if run.list_target else "undefined_target")
    keys = run.key_column.values[block.sel]
    per_row = isinstance(block.anchor, np.ndarray)
    if per_row:
        order = newest_first(block.anchor, keys)
        block.anchor = block.anchor[order]
    else:
        order = np.argsort(keys, kind="stable")
    block.keys = keys[order]
    if not training:
        return
    # An empty block's values may have another dtype, which would spread in concatenation.
    block.values = block.values[order].astype(run.value_dtype, copy=False)
    if block.anchor is None:  # static split hashes each key
        block.splits = split_for_keys(block.keys, run.split)
    elif per_row:
        grid = sorted(run.split_codes)
        codes = np.array([run.split_codes[a] for a in grid], dtype=np.int8)
        block.splits = codes[np.searchsorted(grid, block.anchor)]
    else:
        block.splits = np.full(len(order), run.split_codes[block.anchor], dtype=np.int8)


_HANDLERS: Dict[str, Callable[[_Run, _Block, PlanNode], None]] = {
    "ScanEntities": _scan,
    "StaticEntityFilter": _filter("static_filtered", at_anchor=False),
    "AnchorExpand": _validity,
    "CrossJoinAnchors": _cross_join,
    "TemporalEntityFilter": _filter("temporal_filtered", at_anchor=True),
    "AssumingFilter": _filter("assuming_filtered", at_anchor=True),
    "TargetCompute": _target,
    "LateEntityFilter": _filter("static_filtered", at_anchor=False),
    "LateValidityFilter": _validity,
    "LateTemporalFilter": _filter("temporal_filtered", at_anchor=True),
    "SelectMissingTarget": _select_missing_target,
    "CandidateSet": _candidate_set,
    "Project": _project,
}


# ---------------------------------------------------------------------------
# Training materialization


def materialize_training(
    plan: LogicalPlan,
    db: Database,
    g=None,
    *,
    split: Optional[SplitPolicy] = None,
    workers: int = 1,
    keep_empty_labels: Optional[bool] = None,
) -> TrainingTable:
    """Execute a training plan, producing the canonical sorted table.
    `g` and `workers` are accepted and ignored: the plan runs on `db`, on
    one thread."""
    if plan.mode != "training":
        raise ExecutionError("materialize_training needs a training-mode plan")
    bound = plan.bound
    split = split or SplitPolicy()
    anchors = feasible_anchors(bound, plan.policy, db)
    run = _Run(plan, db, _drop_empty_labels(bound.task, keep_empty_labels), split, _split_codes(anchors))
    _, columns, drops, pairs_expanded = _execute(run, anchors)
    metadata = {
        "mode": "training",
        "strategy": "staged" if plan.optimized else "cross_product",
        "task": bound.task.to_json(),
        "timeframe": bound.timeframe.to_json(),
        "entity_table": bound.entity_table,
        "entity_column": bound.entity_column,
        "anchors": [format_timestamp(a) for a in sorted(anchors, reverse=True)],
        "entities_scanned": db.nrows(bound.entity_table),
        "pairs_expanded": pairs_expanded,
        "row_count": len(columns[0]),
        "split_counts": split_counts(columns[3]),
        "dropped": drops,
        "split_policy": {"train": split.train, "val": split.val, "test": split.test, "seed": split.seed},
    }
    return TrainingTable(plan.output_columns, run.key_column.dtype, bound.task.target_dtype, *columns, metadata)


# ---------------------------------------------------------------------------
# Prediction materialization


def materialize_prediction(
    plan: LogicalPlan, db: Database, g=None
) -> PredictionTable:
    """Execute a prediction plan: the entity set to predict for, with the
    candidate list for link tasks. ASSUMING never applies here. `g` is
    accepted and ignored: the plan runs on `db`."""
    if plan.mode != "prediction":
        raise ExecutionError("materialize_prediction needs a prediction-mode plan")
    bound = plan.bound
    anchors: List[int] = []
    if not bound.is_static:
        anchors = [latest_event_time(db) if plan.prediction_at is None else plan.prediction_at]
    run = _Run(plan, db, _drop_empty_labels(bound.task, None))
    (block,), columns, _, _ = _execute(run, anchors)
    metadata = {
        "mode": "prediction",
        "task": bound.task.to_json(),
        "timeframe": bound.timeframe.to_json(),
        "entity_table": bound.entity_table,
        "entity_column": bound.entity_column,
        "anchor": None if block.anchor is None else format_timestamp(block.anchor),
        "row_count": len(columns[0]),
        "candidate_count": None if block.candidates is None else len(block.candidates),
    }
    return PredictionTable(plan.output_columns, run.key_column.dtype, bound.task.target_dtype, *columns,
                           block.candidates, metadata)


# ---------------------------------------------------------------------------
# Pairwise evaluation of explicit (entity, anchor) pairs


Pairs = Sequence[Tuple[RowRef, Optional[int]]]


def _int64s(values: Sequence) -> Tuple[np.ndarray, np.ndarray]:
    """`values` as an int64 array, and a mask of those that are not
    integers within int64 (each read as 0). Python or numpy integers
    convert in one step; anything else is read one value at a time."""
    array = np.array(values)
    if array.dtype.kind in "bi" or not len(values):
        return array.astype(np.int64, copy=False), np.zeros(len(values), dtype=np.bool_)
    bad = [not isinstance(v, (int, np.integer)) or not -(2**63) <= v < 2**63 for v in values]
    return np.array([0 if b else v for v, b in zip(values, bad)], dtype=np.int64), np.array(bad, dtype=np.bool_)


def check_pairs(pairs: Pairs, db: Database, table: str, is_static: bool) -> Tuple[tuple, np.ndarray, Anchor]:
    """The pairs' entity refs in input order, and each distinct (row,
    anchor) pair once, ordered by anchor then row: the rows as an int64
    array, the anchors as another (None for a static query). Refuses the
    first pair, in input order, whose entity is not one of the rows of
    `table` (a negative index would read a row from the end; a float,
    a string or a value past int64 is no index) or whose anchor does not
    fit the query: a static query takes none, a temporal query needs an
    integer within int64 that is a time in years 0001-9999."""
    nrows = db.nrows(table)
    refs, anchors = zip(*pairs) if pairs else ((), ())
    rows, bad_index = _int64s([ref.index for ref in refs])
    bad = bad_index | (rows < 0) | (rows >= nrows)
    if any(t.upper() != table for t in {ref.table for ref in refs}):
        bad |= np.array([ref.table.upper() != table for ref in refs], dtype=np.bool_)
    if not is_static:  # a missing anchor is no integer either
        at, bad_at = _int64s(anchors)
        bad |= bad_at | (at < MIN_MICROS) | (at > MAX_MICROS)
    elif anchors.count(None) != len(anchors):
        bad |= np.array([a is not None for a in anchors], dtype=np.bool_)
    if bad.any():
        first = int(bad.argmax())
        ref, anchor = refs[first], anchors[first]
        if ref.table.upper() != table:
            raise ExecutionError(f"pair entity {ref} is not from {table}")
        if bad_index[first]:
            raise ExecutionError(f"pair entity {ref} has no int64 row index")
        if not 0 <= ref.index < nrows:
            raise ExecutionError(f"pair entity {ref} is outside the {nrows} rows of {table}")
        if (anchor is None) != is_static:
            raise PlanError("static query takes no anchor" if is_static else "temporal query needs an anchor")
        if bad_at[first]:
            raise PlanError(f"pair anchor {anchor!r} is not an int64 timestamp")
        raise PlanError(f"pair anchor {int(anchor)} is outside years 0001-9999")
    if is_static:
        return refs, distinct(rows), None
    at, rows = distinct_pairs(at, rows)
    return refs, rows, at


def evaluate_pairs(
    db: Database,
    bound: BoundQuery,
    pairs: Pairs,
    *,
    anchors_for_split: Optional[Sequence[int]] = None,
    split: Optional[SplitPolicy] = None,
    keep_empty_labels: Optional[bool] = None,
) -> TrainingTable:
    """Training rows for the given (entity, anchor) pairs only.

    Produces exactly the rows the batch engine would emit for those pairs:
    filters, validity pruning, drops and splits all apply. The distinct
    pairs run as one pre-anchored block, each row at its own anchor,
    through the optimized training plan, on the kernels over the shared
    store; with an anchor per row every gather searches windows. Used by
    the low-latency sampler and by the verification suites.
    """
    _, rows, at = check_pairs(pairs, db, bound.entity_table, bound.is_static)
    return _evaluate_distinct(db, bound, rows, at, anchors_for_split, split, keep_empty_labels)


def _evaluate_distinct(
    db: Database,
    bound: BoundQuery,
    rows: np.ndarray,
    at: Anchor,
    anchors_for_split: Optional[Sequence[int]],
    split: Optional[SplitPolicy],
    keep_empty_labels: Optional[bool],
) -> TrainingTable:
    """`evaluate_pairs` over the distinct pairs `check_pairs` returns."""
    requested = [] if at is None else distinct(at).tolist()
    codes = _split_codes(requested if anchors_for_split is None else anchors_for_split)
    off_grid = [a for a in requested if a not in codes]
    if off_grid:
        # Splits rank each pair's anchor among these, so an anchor off them has no split.
        raise PlanError(f"pair anchor {format_timestamp(max(off_grid))} is not in anchors_for_split")

    plan = plan_training(bound)
    run = _Run(plan, db, _drop_empty_labels(bound.task, keep_empty_labels), split or SplitPolicy(), codes)
    _, columns, drops, _ = _execute(run, blocks=[_Block(at, rows)] if len(rows) else [])
    metadata = {
        "mode": "training",
        "strategy": "pairwise",
        "task": bound.task.to_json(),
        "pairs_expanded": len(rows),
        "row_count": len(columns[0]),
        "dropped": drops,
    }
    return TrainingTable(plan.output_columns, run.key_column.dtype, bound.task.target_dtype, *columns, metadata)
