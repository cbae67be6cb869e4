"""Semantic analysis: bind an AST against a schema.

Binding resolves every column reference to a table plus a chain of
child-to-parent FK hops (each hop is many-to-one, so a base row resolves to
at most one value), assigns every aggregation the FK it groups by, type
checks comparisons, infers the task type and the temporal frame, and
derives the leakage bookkeeping downstream consumers need.

`walk` is the one traversal of a bound tree: every stage that only visits
nodes (temporality and timeframe here, undefined-target flags in the
kernels, the sampler's entity edges, the leakage mask's direct reads)
filters what it yields, and `BoundQuery.parts` lists the trees that read
rows.

Window placement rules enforced here keep label generation leak-free by
construction: windows under PREDICT or ASSUMING must start at or after the
anchor, windows under the entity filter must end at or before it.

`bind` memoizes its last `_BIND_CACHE_SIZE` results by the identity of the
query and the schema, so a text that `parse` serves from its cache binds
once per schema. An entry holds the query and the schema themselves, which
keeps their ids from being reused while it lives, and a hit checks both
with `is`. The key is identity, not equality: `Query` equality ignores
spans, and two texts that differ only in whitespace must not share one
`BoundQuery` and its spans. Once full, the memo drops its oldest entry.
Bound trees and schemas are frozen, so sharing a result is safe; an error
is never memoized.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple, Union

from . import ast
from .ast import AggKind, ConstKind, Hint, RelOp, Window
from .errors import BindError, Span
from .store import (
    ColumnDef,
    DataType,
    FkEdge,
    ListType,
    Schema,
    SemanticType,
)
from .times import format_duration, parse_timestamp

HopChain = Tuple[FkEdge, ...]

_MAX_HOPS = 6
_BIND_CACHE_SIZE = 256


class Place(enum.Enum):
    """Where a condition sits in the query; constrains window directions."""

    TARGET = "target"
    ENTITY = "entity"
    ASSUMING = "assuming"


@dataclass(frozen=True)
class BoundColumn:
    """A column read, resolved from a base table through FK hops."""

    table: str
    column: str
    dtype: DataType
    stype: SemanticType
    hops: HopChain = ()
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class BoundConstant:
    kind: ConstKind
    value: object

    @staticmethod
    def null() -> "BoundConstant":
        return BoundConstant(ConstKind.NULL, None)


@dataclass(frozen=True)
class BoundAggregation:
    kind: AggKind
    table: str  # the aggregated (child) table
    column: Optional[str]  # None for COUNT(T.*)
    column_dtype: Optional[DataType]
    column_stype: Optional[SemanticType]
    group_edge: FkEdge  # FK on `table` pointing at the context table
    where: Optional["BoundCondition"]
    window: Optional[Window]
    result_dtype: Union[DataType, ListType]
    result_stype: SemanticType
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class BoundCompare:
    lhs: Union[BoundColumn, BoundAggregation]
    op: RelOp
    rhs: BoundConstant
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class BoundNot:
    operand: "BoundCondition"


@dataclass(frozen=True)
class BoundAnd:
    left: "BoundCondition"
    right: "BoundCondition"


@dataclass(frozen=True)
class BoundOr:
    left: "BoundCondition"
    right: "BoundCondition"


BoundCondition = Union[BoundCompare, BoundNot, BoundAnd, BoundOr]
BoundTarget = Union[BoundColumn, BoundAggregation, BoundCondition]


class TaskType(enum.Enum):
    REGRESSION = "regression"
    BINARY_CLASSIFICATION = "binary_classification"
    MULTICLASS_CLASSIFICATION = "multiclass_classification"
    MULTILABEL_CLASSIFICATION = "multilabel_classification"
    LINK_PREDICTION = "link_prediction"


@dataclass(frozen=True)
class TaskSpec:
    task_type: TaskType
    temporality: str  # "static" | "temporal"
    target_dtype: Union[DataType, ListType]
    target_stype: SemanticType
    top_k: Optional[int] = None
    link_target_table: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "task_type": self.task_type.value,
            "temporality": self.temporality,
            "target_dtype": str(
                self.target_dtype.value
                if isinstance(self.target_dtype, DataType)
                else self.target_dtype
            ),
            "target_stype": self.target_stype.value,
            "top_k": self.top_k,
            "link_target_table": self.link_target_table,
        }


@dataclass(frozen=True)
class Timeframe:
    """Temporal extent one example consumes around its anchor, in micros.

    `past` is None when unbounded (-INF somewhere in the entity filter).
    Static queries use (0, 0).
    """

    past: Optional[int]
    future: int

    @property
    def total(self) -> Optional[int]:
        return None if self.past is None else self.past + self.future

    def describe(self) -> str:
        past = "unbounded" if self.past is None else format_duration(self.past)
        return f"past {past}, future {format_duration(self.future)}"

    def to_json(self) -> dict:
        return {"past_micros": self.past, "future_micros": self.future}


@dataclass(frozen=True)
class LeakageSpec:
    """Windows consumed by label computation, plus the global feature rule."""

    label_windows: Tuple[Tuple[str, Optional[int], int], ...]  # (table, lo, hi) rel micros
    feature_rule: str = "feature rows must satisfy time < anchor"

    def to_json(self) -> dict:
        return {
            "label_windows": [
                {"table": t, "start_micros": lo, "end_micros": hi}
                for (t, lo, hi) in self.label_windows
            ],
            "feature_rule": self.feature_rule,
        }


@dataclass(frozen=True)
class EntityConjunct:
    condition: BoundCondition
    temporal: bool


@dataclass(frozen=True)
class BoundQuery:
    entity_table: str
    entity_column: str
    entity_validity: Optional[Tuple[Optional[str], Optional[str]]]
    conjuncts: Tuple[EntityConjunct, ...]
    target: BoundTarget
    assuming: Optional[BoundCondition]
    task: TaskSpec
    timeframe: Timeframe
    leakage: LeakageSpec
    prediction_filter: Optional[BoundCondition]
    query: ast.Query

    @property
    def static_conjuncts(self) -> Tuple[BoundCondition, ...]:
        return tuple(c.condition for c in self.conjuncts if not c.temporal)

    @property
    def temporal_conjuncts(self) -> Tuple[BoundCondition, ...]:
        return tuple(c.condition for c in self.conjuncts if c.temporal)

    @property
    def is_static(self) -> bool:
        return self.task.temporality == "static"

    @property
    def parts(self) -> Tuple[Optional[BoundTarget], ...]:
        """The parts that read rows: the target, each WHERE conjunct's
        condition and ASSUMING (None when absent)."""
        return (self.target, *(c.condition for c in self.conjuncts), self.assuming)


# ---------------------------------------------------------------------------
# Bound-tree helpers


def walk(node, *, filters: bool = True) -> Iterator:
    """Every node of a bound target or condition, constants aside (nothing
    for None): each node before its operands, left before right. An
    aggregation's WHERE is entered only when `filters` is set."""
    stack = [node]
    while stack:
        n = stack.pop()
        if n is None:
            continue
        yield n
        if isinstance(n, BoundAggregation):
            if filters:
                stack.append(n.where)
        elif isinstance(n, BoundCompare):
            stack.append(n.lhs)
        elif isinstance(n, BoundNot):
            stack.append(n.operand)
        elif isinstance(n, (BoundAnd, BoundOr)):
            stack += (n.right, n.left)


def iter_bound_aggregations(node) -> List[BoundAggregation]:
    return [n for n in walk(node) if isinstance(n, BoundAggregation)]


def _windows(node) -> List[Window]:
    return [a.window for a in iter_bound_aggregations(node) if a.window is not None]


def and_operands(node) -> List[BoundCondition]:
    """The operands of an AND chain, left to right: `[node]` when it is no
    AND, nothing for None."""
    if node is None:
        return []
    if isinstance(node, BoundAnd):
        return and_operands(node.left) + and_operands(node.right)
    return [node]


# ---------------------------------------------------------------------------
# The binder


class _Binder:
    def __init__(self, schema: Schema):
        self.schema = schema

    # -- path resolution ----------------------------------------------

    def find_hop_chains(self, source: str, dest: str) -> List[HopChain]:
        """All simple child-to-parent hop chains from `source` to `dest`."""
        chains: List[HopChain] = []

        def walk(table: str, visited: Tuple[str, ...], acc: HopChain):
            if len(acc) >= _MAX_HOPS:
                return
            for edge in self.schema.edges_from(table):
                if edge.parent_table in visited:
                    continue
                nxt = acc + (edge,)
                if edge.parent_table == dest:
                    chains.append(nxt)
                else:
                    walk(edge.parent_table, visited + (edge.parent_table,), nxt)

        walk(source, (source,), ())
        return chains

    def resolve_column(self, ref: ast.ColumnRef, context_table: str) -> BoundColumn:
        if not self.schema.has_table(ref.table):
            raise BindError(f"unknown table {ref.table}", ref.span, code="unknown-table")
        tdef = self.schema.table(ref.table)
        cdef = tdef.column(ref.column)
        if cdef is None:
            raise BindError(
                f"unknown column {ref.table}.{ref.column}", ref.span, code="unknown-column"
            )
        if ref.table.upper() == context_table:
            return BoundColumn(tdef.name, cdef.name, cdef.dtype, cdef.stype, (), span=ref.span)
        chains = self.find_hop_chains(context_table, tdef.name)
        if not chains:
            raise BindError(
                f"column {ref} is not reachable from {context_table} via "
                f"child-to-parent foreign keys",
                ref.span,
                code="unreachable-column",
            )
        if len(chains) > 1:
            desc = " | ".join("->".join(f"{e.child_table}.{e.fk_column}" for e in c) for c in chains)
            raise BindError(
                f"ambiguous path from {context_table} to {tdef.name}: {desc}",
                ref.span,
                code="ambiguous-path",
            )
        return BoundColumn(tdef.name, cdef.name, cdef.dtype, cdef.stype, chains[0], span=ref.span)

    def group_edge(self, agg_table: str, context_table: str, span) -> FkEdge:
        candidates = [
            e for e in self.schema.edges_from(agg_table) if e.parent_table == context_table
        ]
        if not candidates:
            raise BindError(
                f"table {agg_table} has no foreign key referencing {context_table}; "
                f"aggregations must group by a direct foreign key",
                span,
                code="no-group-fk",
            )
        if len(candidates) > 1:
            names = ", ".join(e.fk_column for e in candidates)
            raise BindError(
                f"ambiguous foreign keys from {agg_table} to {context_table}: {names}",
                span,
                code="ambiguous-fk",
            )
        return candidates[0]

    # -- aggregation / condition binding --------------------------------

    def bind_aggregation(self, agg: ast.Aggregation, context_table: str, place: Place) -> BoundAggregation:
        if not self.schema.has_table(agg.column.table):
            raise BindError(f"unknown table {agg.column.table}", agg.column.span, code="unknown-table")
        tdef = self.schema.table(agg.column.table)
        if tdef.name == context_table:
            raise BindError(
                f"cannot aggregate {tdef.name} grouped by itself; aggregations run "
                f"over a child table of {context_table}",
                agg.span,
                code="no-group-fk",
            )
        edge = self.group_edge(tdef.name, context_table, agg.span)

        column = None
        cdef: Optional[ColumnDef] = None
        if not agg.column.is_wildcard:
            cdef = tdef.column(agg.column.column)
            if cdef is None:
                raise BindError(
                    f"unknown column {agg.column}", agg.column.span, code="unknown-column"
                )
            column = cdef.name
        self._check_agg_input(agg, cdef)

        if agg.window is not None:
            self._check_window_place(agg.window, place, agg.span)
            if tdef.time_column is None:
                raise BindError(
                    f"windowed aggregation over {tdef.name}, which has no time column",
                    agg.span,
                    code="no-time-column",
                )
        if agg.kind in (AggKind.FIRST, AggKind.LAST) and tdef.time_column is None:
            raise BindError(
                f"{agg.kind.value} needs a time column on {tdef.name}",
                agg.span,
                code="no-time-column",
            )

        where = None
        if agg.where is not None:
            where = self.bind_condition(agg.where, tdef.name, place)

        result_dtype, result_stype = _agg_result_type(agg.kind, cdef)
        return BoundAggregation(
            kind=agg.kind,
            table=tdef.name,
            column=column,
            column_dtype=cdef.dtype if cdef else None,
            column_stype=cdef.stype if cdef else None,
            group_edge=edge,
            where=where,
            window=agg.window,
            result_dtype=result_dtype,
            result_stype=result_stype,
            span=agg.span,
        )

    @staticmethod
    def _check_agg_input(agg: ast.Aggregation, cdef: Optional[ColumnDef]):
        if cdef is None:  # wildcard; the parser already restricts it to COUNT
            return
        kind = agg.kind
        if kind in (AggKind.SUM, AggKind.AVG) and cdef.stype is not SemanticType.NUMERICAL:
            raise BindError(
                f"{kind.value} needs a numerical column, got {cdef.name} ({cdef.stype.value})",
                agg.span,
                code="type-mismatch",
            )
        if kind in (AggKind.MIN, AggKind.MAX) and cdef.stype not in (
            SemanticType.NUMERICAL,
            SemanticType.TEMPORAL,
        ):
            raise BindError(
                f"{kind.value} needs an orderable column, got {cdef.name} ({cdef.stype.value})",
                agg.span,
                code="type-mismatch",
            )

    def _check_window_place(self, window: Window, place: Place, span):
        if place is Place.ENTITY:
            if window.end > 0:
                raise BindError(
                    "entity filter windows must not look past the anchor (end <= 0)",
                    window.span or span,
                    code="window-direction",
                )
        else:
            if window.start is None or window.start < 0:
                label = "target" if place is Place.TARGET else "ASSUMING"
                raise BindError(
                    f"{label} windows must look forward from the anchor (start >= 0)",
                    window.span or span,
                    code="window-direction",
                )

    def bind_condition(self, cond: ast.Condition, context_table: str, place: Place) -> BoundCondition:
        if isinstance(cond, ast.Compare):
            return self.bind_compare(cond, context_table, place)
        if isinstance(cond, ast.Not):
            return BoundNot(self.bind_condition(cond.operand, context_table, place))
        if isinstance(cond, ast.And):
            return BoundAnd(
                self.bind_condition(cond.left, context_table, place),
                self.bind_condition(cond.right, context_table, place),
            )
        if isinstance(cond, ast.Or):
            return BoundOr(
                self.bind_condition(cond.left, context_table, place),
                self.bind_condition(cond.right, context_table, place),
            )
        raise AssertionError(type(cond))

    def bind_compare(self, cmp: ast.Compare, context_table: str, place: Place) -> BoundCompare:
        if isinstance(cmp.lhs, ast.Aggregation):
            if cmp.lhs.kind is AggKind.LIST_DISTINCT:
                raise BindError(
                    "LIST_DISTINCT produces a list and cannot be compared; "
                    "use it only as the PREDICT target",
                    cmp.lhs.span,
                    code="type-mismatch",
                )
            lhs: Union[BoundColumn, BoundAggregation] = self.bind_aggregation(
                cmp.lhs, context_table, place
            )
            dtype, stype = lhs.result_dtype, lhs.result_stype
        else:
            if cmp.lhs.is_wildcard:
                raise BindError(
                    "wildcard column only allowed inside COUNT", cmp.lhs.span, code="wildcard"
                )
            lhs = self.resolve_column(cmp.lhs, context_table)
            dtype, stype = lhs.dtype, lhs.stype
        rhs = _check_compare(dtype, stype, cmp.op, cmp.rhs)
        return BoundCompare(lhs, cmp.op, rhs, span=cmp.span)


def _agg_result_type(kind: AggKind, cdef: Optional[ColumnDef]):
    if kind is AggKind.COUNT or kind is AggKind.COUNT_DISTINCT:
        return DataType.INT64, SemanticType.NUMERICAL
    assert cdef is not None
    if kind is AggKind.SUM:
        return cdef.dtype, SemanticType.NUMERICAL
    if kind is AggKind.AVG:
        return DataType.FLOAT64, SemanticType.NUMERICAL
    if kind in (AggKind.MIN, AggKind.MAX):
        return cdef.dtype, cdef.stype
    if kind in (AggKind.FIRST, AggKind.LAST):
        return cdef.dtype, cdef.stype
    if kind is AggKind.LIST_DISTINCT:
        return ListType(cdef.dtype), cdef.stype
    raise AssertionError(kind)


def _coerce_scalar(dtype: DataType, const: ast.Constant) -> BoundConstant:
    """Coerce one scalar constant against a column dtype, or raise."""
    kind, value = const.kind, const.value
    if dtype in (DataType.INT64, DataType.FLOAT64):
        if kind in (ConstKind.INT, ConstKind.FLOAT):
            return BoundConstant(kind, value)
    elif dtype is DataType.BOOL:
        if kind is ConstKind.BOOL:
            return BoundConstant(kind, value)
    elif dtype is DataType.STRING:
        if kind is ConstKind.STRING:
            return BoundConstant(kind, value)
    elif dtype is DataType.TIMESTAMP:
        if kind is ConstKind.STRING:
            try:
                return BoundConstant(ConstKind.TIMESTAMP, parse_timestamp(value))
            except ValueError:
                raise BindError(
                    f"expected an ISO-8601 datetime literal, got {value!r}", const.span,
                    code="type-mismatch",
                )
    raise BindError(
        f"constant {value!r} ({kind.value}) does not match operand type {dtype.value}",
        const.span,
        code="type-mismatch",
    )


def _check_compare(dtype: DataType, stype: SemanticType, op: RelOp, rhs: ast.Constant) -> BoundConstant:
    if op in ast.NULL_OPS:
        if rhs.kind is not ConstKind.NULL:
            raise BindError("IS / IS NOT can only be used with NULL", rhs.span, code="type-mismatch")
        return BoundConstant.null()
    if rhs.kind is ConstKind.NULL:
        raise BindError("use IS NULL / IS NOT NULL to test for null", rhs.span, code="type-mismatch")
    if op in ast.MEMBER_OPS:
        if rhs.kind is not ConstKind.ARRAY:
            raise BindError(f"{op.value} needs an array constant", rhs.span, code="type-mismatch")
        elements = tuple(_coerce_scalar(dtype, e) for e in rhs.value)
        return BoundConstant(ConstKind.ARRAY, elements)
    if rhs.kind is ConstKind.ARRAY:
        raise BindError(f"array constant not allowed with {op.value}", rhs.span, code="type-mismatch")
    if op in ast.STRING_OPS:
        if dtype is not DataType.STRING:
            raise BindError(
                f"{op.value} needs a string operand, got {dtype.value}", rhs.span,
                code="type-mismatch",
            )
        return _coerce_scalar(dtype, rhs)
    if op in ast.ORDER_OPS:
        if dtype is DataType.TIMESTAMP:
            return _coerce_scalar(dtype, rhs)
        if dtype in (DataType.INT64, DataType.FLOAT64) and stype is not SemanticType.KEY:
            return _coerce_scalar(dtype, rhs)
        raise BindError(
            f"{op.value} needs a numerical or temporal operand, got "
            f"{dtype.value}/{stype.value}",
            rhs.span,
            code="type-mismatch",
        )
    # EQ / NE accept any scalar type.
    return _coerce_scalar(dtype, rhs)


# ---------------------------------------------------------------------------
# Task inference, timeframe, prediction filter


def _classify_column_target(dtype: DataType, stype: SemanticType, hint, span) -> TaskType:
    if stype is SemanticType.TEXT:
        raise BindError("cannot predict a text column", span, code="task")
    if stype is SemanticType.TEMPORAL:
        raise BindError("cannot predict a temporal column", span, code="task")
    if stype is SemanticType.KEY:
        raise BindError(
            "cannot predict a key column; use LIST_DISTINCT over a foreign key "
            "for link prediction",
            span,
            code="task",
        )
    if dtype is DataType.BOOL:
        return TaskType.BINARY_CLASSIFICATION
    if stype is SemanticType.NUMERICAL:
        if hint is Hint.CLASSIFY:
            return TaskType.MULTICLASS_CLASSIFICATION
        return TaskType.REGRESSION
    return TaskType.MULTICLASS_CLASSIFICATION


def infer_task(
    target: BoundTarget,
    schema: Schema,
    hint: Optional[Hint],
    top_k: Optional[int],
    temporality: str,
    span: Optional[Span] = None,
) -> TaskSpec:
    """Derive the ML task from the bound target, per the language taxonomy."""

    def reject_rank():
        if hint is Hint.RANK:
            raise BindError(
                "RANK requires a LIST_DISTINCT target over a foreign key (link prediction)",
                span,
                code="task",
            )

    if isinstance(target, (BoundNot, BoundAnd, BoundOr, BoundCompare)):
        if hint is Hint.CLASSIFY:
            raise BindError(
                "CLASSIFY is redundant on a condition target (already binary)", span, code="task"
            )
        reject_rank()
        return TaskSpec(
            TaskType.BINARY_CLASSIFICATION, temporality, DataType.BOOL, SemanticType.CATEGORICAL
        )

    if isinstance(target, BoundAggregation):
        if target.kind is AggKind.LIST_DISTINCT:
            tdef = schema.table(target.table)
            fk = next((f for f in tdef.foreign_keys if f.column == target.column), None)
            if fk is not None:
                if hint is Hint.CLASSIFY:
                    raise BindError("CLASSIFY cannot apply to a link-prediction target", span, code="task")
                return TaskSpec(
                    TaskType.LINK_PREDICTION,
                    temporality,
                    target.result_dtype,
                    SemanticType.KEY,
                    top_k=top_k,
                    link_target_table=fk.references,
                )
            reject_rank()
            return TaskSpec(
                TaskType.MULTILABEL_CLASSIFICATION,
                temporality,
                target.result_dtype,
                SemanticType.CATEGORICAL,
            )
        reject_rank()
        if target.kind in (AggKind.FIRST, AggKind.LAST):
            task = _classify_column_target(
                target.column_dtype, target.column_stype, hint, span
            )
            return TaskSpec(task, temporality, target.result_dtype, target.result_stype)
        # SUM / AVG / MIN / MAX / COUNT / COUNT_DISTINCT produce one number.
        if hint is Hint.CLASSIFY:
            return TaskSpec(
                TaskType.MULTICLASS_CLASSIFICATION,
                temporality,
                target.result_dtype,
                SemanticType.CATEGORICAL,
            )
        return TaskSpec(TaskType.REGRESSION, temporality, target.result_dtype, SemanticType.NUMERICAL)

    # Plain column target.
    reject_rank()
    task = _classify_column_target(target.dtype, target.stype, hint, span)
    stype = SemanticType.CATEGORICAL if task is not TaskType.REGRESSION else SemanticType.NUMERICAL
    return TaskSpec(task, temporality, target.dtype, stype)


def compute_timeframe(
    target: BoundTarget,
    entity_filter: Optional[BoundCondition],
    assuming: Optional[BoundCondition],
) -> Timeframe:
    """Future extent covers target and ASSUMING windows; past covers the
    entity filter's lookback; static queries are (0, 0)."""
    future = [w for p in (target, assuming) for w in _windows(p)]
    lookback = _windows(entity_filter)
    if not future and not lookback:
        return Timeframe(0, 0)
    starts = [w.start_micros for w in lookback]
    past = None if None in starts else max([0, *(-s for s in starts)])
    return Timeframe(past, max([0, *(w.end_micros for w in future)]))


def derive_leakage(target: BoundTarget, assuming: Optional[BoundCondition]) -> LeakageSpec:
    windows = {
        (a.table, a.window.start_micros, a.window.end_micros)
        for part in (target, assuming)
        for a in iter_bound_aggregations(part)
        if a.window is not None
    }
    return LeakageSpec(tuple(sorted(windows)))


def extract_prediction_filter(target: BoundTarget, task: TaskSpec) -> Optional[BoundCondition]:
    """For link prediction, the maximal sub-conjunction of the LIST_DISTINCT
    filter that reads only the link target table; applied to the candidate
    set at prediction time. Anything under OR/NOT that mixes tables, and any
    nested aggregation, stays behind.
    """
    if task.task_type is not TaskType.LINK_PREDICTION:
        return None
    assert isinstance(target, BoundAggregation)
    link_table = task.link_target_table

    def reads_only_link_table(node) -> bool:
        # Every comparison reads a column or an aggregation, so a conjunct
        # without aggregations reads at least one column.
        return all(
            n.table == link_table if isinstance(n, BoundColumn) else not isinstance(n, BoundAggregation)
            for n in walk(node)
        )

    def reroot(node):
        if isinstance(node, BoundCompare):
            lhs = replace(node.lhs, hops=())
            return BoundCompare(lhs, node.op, node.rhs, span=node.span)
        if isinstance(node, BoundNot):
            return BoundNot(reroot(node.operand))
        if isinstance(node, BoundAnd):
            return BoundAnd(reroot(node.left), reroot(node.right))
        if isinstance(node, BoundOr):
            return BoundOr(reroot(node.left), reroot(node.right))
        raise AssertionError(type(node))

    extracted = [reroot(c) for c in and_operands(target.where) if reads_only_link_table(c)]
    if not extracted:
        return None
    out = extracted[0]
    for c in extracted[1:]:
        out = BoundAnd(out, c)
    return out


# ---------------------------------------------------------------------------
# Entry point


_memo: Dict[Tuple[int, int], Tuple[ast.Query, Schema, BoundQuery]] = {}
_memo_lock = threading.Lock()


def bind(query: ast.Query, schema: Schema) -> BoundQuery:
    """Bind `query` against `schema`, raising BindError on any violation.
    The same query object on the same schema object gives the same result."""
    key = (id(query), id(schema))
    hit = _memo.get(key)
    if hit is not None and hit[0] is query and hit[1] is schema:
        return hit[2]
    bound = _bind(query, schema)
    with _memo_lock:
        if key not in _memo and len(_memo) >= _BIND_CACHE_SIZE:
            del _memo[next(iter(_memo))]
        _memo[key] = (query, schema, bound)
    return bound


def _clear_memo():
    with _memo_lock:
        _memo.clear()


def _bind(query: ast.Query, schema: Schema) -> BoundQuery:
    binder = _Binder(schema)

    entity_ref = query.entity
    if entity_ref.is_wildcard:
        raise BindError("entity must be a primary-key column", entity_ref.span, code="entity")
    if not schema.has_table(entity_ref.table):
        raise BindError(f"unknown table {entity_ref.table}", entity_ref.span, code="unknown-table")
    etable = schema.table(entity_ref.table)
    ecol = etable.column(entity_ref.column)
    if ecol is None:
        raise BindError(f"unknown column {entity_ref}", entity_ref.span, code="unknown-column")
    if etable.primary_key != ecol.name:
        raise BindError(
            f"entity column {entity_ref} is not the primary key of {etable.name}",
            entity_ref.span,
            code="entity",
        )

    # Target.
    if isinstance(query.target, ast.ColumnRef):
        if query.target.is_wildcard:
            raise BindError(
                "wildcard column only allowed inside COUNT", query.target.span, code="wildcard"
            )
        target: BoundTarget = binder.resolve_column(query.target, etable.name)
    elif isinstance(query.target, ast.Aggregation):
        target = binder.bind_aggregation(query.target, etable.name, Place.TARGET)
    else:
        target = binder.bind_condition(query.target, etable.name, Place.TARGET)

    # Entity filter, split into conjuncts labelled static/temporal.
    entity_filter = None
    if query.entity_where is not None:
        entity_filter = binder.bind_condition(query.entity_where, etable.name, Place.ENTITY)
    conjuncts = tuple(EntityConjunct(c, temporal=bool(_windows(c))) for c in and_operands(entity_filter))

    assuming = None
    if query.assuming is not None:
        assuming = binder.bind_condition(query.assuming, etable.name, Place.ASSUMING)

    # Temporality: any window anywhere makes the query temporal, and then
    # every aggregation must carry a window (an unwindowed aggregate has no
    # meaning relative to an anchor; use -INF for "all history up to now").
    all_aggs = [a for part in (target, entity_filter, assuming) for a in iter_bound_aggregations(part)]
    temporal = any(a.window is not None for a in all_aggs)
    if temporal:
        for a in all_aggs:
            if a.window is None:
                raise BindError(
                    f"unwindowed {a.kind.value} over {a.table} in a temporal query; "
                    f"give it a window (use -INF for unbounded history)",
                    a.span,
                    code="mixed-temporality",
                )
    elif assuming is not None:
        # ASSUMING states an assumption about the future; a query with no
        # windows has no future to condition on.
        raise BindError(
            "ASSUMING requires a temporal query (no window appears anywhere)",
            query.span,
            code="mixed-temporality",
        )

    temporality = "temporal" if temporal else "static"
    task = infer_task(target, schema, query.hint, query.top_k, temporality, span=query.span)
    timeframe = compute_timeframe(target, entity_filter, assuming)
    leakage = derive_leakage(target, assuming)
    prediction_filter = extract_prediction_filter(target, task)

    return BoundQuery(
        entity_table=etable.name,
        entity_column=ecol.name,
        entity_validity=etable.validity,
        conjuncts=conjuncts,
        target=target,
        assuming=assuming,
        task=task,
        timeframe=timeframe,
        leakage=leakage,
        prediction_filter=prediction_filter,
        query=query,
    )
