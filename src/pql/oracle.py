"""Brute-force reference implementation for differential testing.

This deliberately shares nothing with the execution engine: no row graph,
no plan, no numpy. Every aggregation is a linear scan over the whole child
table inside an entity-by-anchor loop, with plain-Python value lists. Slow
on purpose; keep databases small (a few thousand rows).

`oracle_touches` additionally reports which rows a query consumes for one
(entity, anchor) pair — the yardstick for the subgraph sampler and the
leakage mask.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .ast import AggKind, RelOp, NULL_OPS
from .binder import (
    BoundAggregation,
    BoundAnd,
    BoundColumn,
    BoundCompare,
    BoundCondition,
    BoundNot,
    BoundOr,
    BoundQuery,
    BoundTarget,
    TaskType,
)
from .errors import ExecutionError
from .splits import SPLITS, SplitPolicy, split_code_for_anchor_rank, split_for_key
from .store import Database, DataType, ListType, RowRef
from .times import format_timestamp


class _Tables:
    """Plain-Python copy of the database: {table: {column: [values]}}."""

    def __init__(self, db: Database):
        self.cols: Dict[str, Dict[str, list]] = {}
        self.nrows: Dict[str, int] = {}
        self.pk: Dict[str, Dict[object, int]] = {}
        self.defs = {}
        for name, data in db.tables.items():
            self.cols[name] = {c: data.column(c).to_pylist() for c in data.definition.column_names}
            self.nrows[name] = data.nrows
            self.defs[name] = data.definition
            if data.definition.primary_key:
                pkcol = self.cols[name][data.definition.primary_key]
                self.pk[name] = {v: i for i, v in enumerate(pkcol)}

    def value(self, table: str, row: int, column: str):
        return self.cols[table][column][row]


class OracleTable(NamedTuple):
    """The oracle's rows: (entity_key, anchor_micros | None, target, split)."""

    columns: Tuple[str, ...]
    rows: List[Tuple]
    metadata: dict


class _Touches:
    def __init__(self):
        self.rows: Set[RowRef] = set()
        self.window_rows: Set[RowRef] = set()

    def row(self, table, i):
        self.rows.add(RowRef(table, i))

    def window(self, table, i):
        ref = RowRef(table, i)
        self.rows.add(ref)
        self.window_rows.add(ref)


def _fetch(t: _Tables, bc: BoundColumn, table: str, row: int, touch: Optional[_Touches]):
    cur_table, cur_row = table, row
    for edge in bc.hops:
        fk_value = t.value(cur_table, cur_row, edge.fk_column)
        if fk_value is None:
            return None
        parent_row = t.pk[edge.parent_table].get(fk_value)
        if parent_row is None:
            return None
        cur_table, cur_row = edge.parent_table, parent_row
        if touch:
            touch.row(cur_table, cur_row)
    if touch:
        touch.row(cur_table, cur_row)
    return t.value(cur_table, cur_row, bc.column)


def _like(value: str, pattern: str) -> bool:
    """Whether `pattern` matches the whole of `value`: `%` matches any run
    of characters, `_` exactly one, any other character itself. Characters
    are matched left to right; on a mismatch the last `%` takes one more
    character and matching resumes after it."""
    v = p = 0
    star, resume = -1, 0
    while v < len(value):
        if p < len(pattern) and pattern[p] == "%":
            star, resume = p, v
            p += 1
        elif p < len(pattern) and pattern[p] in ("_", value[v]):
            v, p = v + 1, p + 1
        elif star >= 0:
            resume += 1
            v, p = resume, star + 1
        else:
            return False
    return all(ch == "%" for ch in pattern[p:])


def _compare(op: RelOp, value, rhs) -> bool:
    if op is RelOp.IS:
        return value is None
    if op is RelOp.IS_NOT:
        return value is not None
    if value is None:
        return False
    const = rhs.value
    if op is RelOp.EQ:
        return value == const
    if op is RelOp.NE:
        return value != const
    if op is RelOp.LT:
        return value < const
    if op is RelOp.LE:
        return value <= const
    if op is RelOp.GT:
        return value > const
    if op is RelOp.GE:
        return value >= const
    if op in (RelOp.IN, RelOp.IS_IN):
        return any(value == e.value for e in const)
    if op is RelOp.LIKE:
        return _like(value, const)
    if op is RelOp.NOT_LIKE:
        return not _like(value, const)
    if op is RelOp.CONTAINS:
        return const in value
    if op is RelOp.NOT_CONTAINS:
        return const not in value
    if op is RelOp.STARTS_WITH:
        return value.startswith(const)
    if op is RelOp.ENDS_WITH:
        return value.endswith(const)
    raise AssertionError(op)


def _gather(
    t: _Tables,
    agg: BoundAggregation,
    parent_table: str,
    parent_row: int,
    anchor: Optional[int],
    touch: Optional[_Touches],
) -> List[int]:
    """Linear scan for the children an aggregation consumes, time-ordered."""
    child = agg.table
    key = t.value(parent_table, parent_row, t.defs[parent_table].primary_key)
    fk_vals = t.cols[child][agg.group_edge.fk_column]
    time_col = t.defs[child].time_column
    times = t.cols[child][time_col] if time_col else None

    dated: List[Tuple[int, int]] = []
    undated: List[int] = []
    for i in range(t.nrows[child]):
        if fk_vals[i] != key or fk_vals[i] is None:
            continue
        when = times[i] if times is not None else None
        if agg.window is not None:
            if when is None:
                continue
            start = agg.window.start_micros
            lo = None if start is None else anchor + start
            hi = anchor + agg.window.end_micros
            if (lo is not None and when < lo) or when >= hi:
                continue
            dated.append((when, i))
        else:
            if when is None:
                undated.append(i)
            else:
                dated.append((when, i))
    dated.sort(key=lambda p: p[0])  # stable: load order breaks ties
    rows = [i for _, i in dated] + undated
    if touch:
        for i in rows:
            touch.window(child, i)
    return rows


def _eval_agg(
    t: _Tables,
    agg: BoundAggregation,
    parent_table: str,
    parent_row: int,
    anchor: Optional[int],
    touch: Optional[_Touches],
):
    rows = _gather(t, agg, parent_table, parent_row, anchor, touch)
    if agg.where is not None:
        rows = [i for i in rows if _eval_cond(t, agg.where, agg.table, i, anchor, touch)]
    kind = agg.kind
    if kind is AggKind.COUNT:
        return len(rows)
    vals = [t.value(agg.table, i, agg.column) for i in rows]
    if kind is AggKind.COUNT_DISTINCT:
        return len({v for v in vals if v is not None})
    if kind is AggKind.LIST_DISTINCT:
        return tuple(sorted({v for v in vals if v is not None}))
    if kind in (AggKind.FIRST, AggKind.LAST):
        time_col = t.defs[agg.table].time_column
        stamped = [(i, v) for i, v in zip(rows, vals) if t.value(agg.table, i, time_col) is not None]
        if not stamped:
            return None
        if kind is AggKind.FIRST:
            return stamped[0][1]
        last_t = t.value(agg.table, stamped[-1][0], time_col)
        for i, v in stamped:
            if t.value(agg.table, i, time_col) == last_t:
                return v
    present = [v for v in vals if v is not None]
    if not present:
        return None
    if kind is AggKind.SUM:
        total = sum(present)
        if agg.column_dtype is DataType.INT64 and not -(2**63) <= total < 2**63:
            raise ExecutionError("SUM leaves the int64 range")
        return total
    if kind is AggKind.AVG:
        return float(sum(present)) / len(present)
    if kind is AggKind.MIN:
        return min(present)
    if kind is AggKind.MAX:
        return max(present)
    raise AssertionError(kind)


def _eval_cond(
    t: _Tables,
    cond: BoundCondition,
    table: str,
    row: int,
    anchor: Optional[int],
    touch: Optional[_Touches],
    nullflag: Optional[list] = None,
) -> bool:
    if isinstance(cond, BoundCompare):
        if isinstance(cond.lhs, BoundAggregation):
            value = _eval_agg(t, cond.lhs, table, row, anchor, touch)
        else:
            value = _fetch(t, cond.lhs, table, row, touch)
            if nullflag is not None and value is None and cond.op not in NULL_OPS:
                nullflag[0] = True
        return _compare(cond.op, value, cond.rhs)
    if isinstance(cond, BoundNot):
        return not _eval_cond(t, cond.operand, table, row, anchor, touch, nullflag)
    if isinstance(cond, BoundAnd):
        left = _eval_cond(t, cond.left, table, row, anchor, touch, nullflag)
        right = _eval_cond(t, cond.right, table, row, anchor, touch, nullflag)
        return left and right
    if isinstance(cond, BoundOr):
        left = _eval_cond(t, cond.left, table, row, anchor, touch, nullflag)
        right = _eval_cond(t, cond.right, table, row, anchor, touch, nullflag)
        return left or right
    raise AssertionError(type(cond))


def _eval_target(
    t: _Tables,
    target: BoundTarget,
    table: str,
    row: int,
    anchor: Optional[int],
    touch: Optional[_Touches],
) -> Tuple[object, bool]:
    if isinstance(target, BoundColumn):
        v = _fetch(t, target, table, row, touch)
        return v, v is not None
    if isinstance(target, BoundAggregation):
        v = _eval_agg(t, target, table, row, anchor, touch)
        if target.kind is AggKind.LIST_DISTINCT:
            return v, True
        return v, v is not None
    flag = [False]
    value = _eval_cond(t, target, table, row, anchor, touch, nullflag=flag)
    return value, not flag[0]


def _validity_ok(t: _Tables, bound: BoundQuery, row: int, anchor: int) -> bool:
    start_col, end_col = bound.entity_validity
    if start_col is not None:
        v = t.value(bound.entity_table, row, start_col)
        if v is not None and not (v <= anchor):
            return False
    if end_col is not None:
        v = t.value(bound.entity_table, row, end_col)
        if v is not None and not (anchor < v):
            return False
    return True


def oracle_training(
    bound: BoundQuery,
    db: Database,
    anchors: Sequence[int],
    *,
    split: Optional[SplitPolicy] = None,
    keep_empty_labels: Optional[bool] = None,
) -> OracleTable:
    """Ground-truth training table via exhaustive per-pair linear scans."""
    t = _Tables(db)
    split = split or SplitPolicy()
    # By default only ranking drops a row with an empty label list: it needs
    # positive links, and multilabel admits all-negative rows.
    if keep_empty_labels is None:
        drop_empty = bound.task.task_type is TaskType.LINK_PREDICTION
    else:
        drop_empty = not keep_empty_labels
    etable = bound.entity_table
    pk = t.defs[etable].primary_key
    rank = {a: i for i, a in enumerate(sorted(anchors, reverse=True))}
    anchor_list: List[Optional[int]] = [None] if bound.is_static else list(anchors)

    rows: List[Tuple] = []
    for entity_row in range(t.nrows[etable]):
        for anchor in anchor_list:
            if anchor is not None and bound.entity_validity is not None:
                if not _validity_ok(t, bound, entity_row, anchor):
                    continue
            keep = True
            for conj in bound.conjuncts:
                if not _eval_cond(t, conj.condition, etable, entity_row, anchor, None):
                    keep = False
                    break
            if not keep:
                continue
            if bound.assuming is not None:
                if not _eval_cond(t, bound.assuming, etable, entity_row, anchor, None):
                    continue
            value, defined = _eval_target(t, bound.target, etable, entity_row, anchor, None)
            if isinstance(bound.task.target_dtype, ListType):
                if drop_empty and len(value) == 0:
                    continue
            elif not defined:
                continue
            key = t.value(etable, entity_row, pk)
            if anchor is None:
                rows.append((key, None, value, split_for_key(key, split)))
            else:
                rows.append((key, anchor, value, SPLITS[split_code_for_anchor_rank(rank[anchor])]))

    if bound.is_static:
        rows.sort(key=lambda r: r[0])
    else:
        rows.sort(key=lambda r: (-r[1], r[0]))
    columns = ("ENTITY",) + (() if bound.is_static else ("TIMESTAMP",)) + ("TARGET", "SPLIT")
    metadata = {
        "mode": "training",
        "strategy": "oracle",
        "task": bound.task.to_json(),
        "anchors": [format_timestamp(a) for a in sorted(anchors, reverse=True)],
        "row_count": len(rows),
    }
    return OracleTable(columns, rows, metadata)


def oracle_touches(
    bound: BoundQuery, db: Database, entity_row: int, anchor: Optional[int]
) -> Tuple[Set[RowRef], Set[RowRef]]:
    """(all consumed rows, window-gathered rows) for one pair, evaluating
    every part of the query unconditionally (filters, ASSUMING, target,
    validity)."""
    t = _Tables(db)
    touch = _Touches()
    etable = bound.entity_table
    touch.row(etable, entity_row)
    for conj in bound.conjuncts:
        _eval_cond(t, conj.condition, etable, entity_row, anchor, touch)
    if bound.assuming is not None:
        _eval_cond(t, bound.assuming, etable, entity_row, anchor, touch)
    _eval_target(t, bound.target, etable, entity_row, anchor, touch)
    return touch.rows, touch.window_rows
