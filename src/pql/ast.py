"""AST node types for the predictive query language, plus `unparse`.

Nodes are frozen dataclasses. Spans are carried for diagnostics but excluded
from equality so that parse(unparse(q)) compares structurally equal to q.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import ParseError, Span
from .times import (
    MICROS_PER_DAY,
    MICROS_PER_HOUR,
    MICROS_PER_MINUTE,
    MICROS_PER_MONTH,
    MICROS_PER_SECOND,
    MICROS_PER_WEEK,
)

WILDCARD = "*"


class AggKind(enum.Enum):
    SUM = "SUM"
    AVG = "AVG"
    MIN = "MIN"
    MAX = "MAX"
    COUNT = "COUNT"
    COUNT_DISTINCT = "COUNT_DISTINCT"
    FIRST = "FIRST"
    LAST = "LAST"
    LIST_DISTINCT = "LIST_DISTINCT"


class RelOp(enum.Enum):
    NE = "!="
    LE = "<="
    GE = ">="
    LT = "<"
    GT = ">"
    EQ = "="
    IS = "IS"
    IS_NOT = "IS NOT"
    IN = "IN"
    IS_IN = "IS IN"
    LIKE = "LIKE"
    NOT_LIKE = "NOT LIKE"
    CONTAINS = "CONTAINS"
    NOT_CONTAINS = "NOT CONTAINS"
    STARTS_WITH = "STARTS WITH"
    ENDS_WITH = "ENDS WITH"


ORDER_OPS = {RelOp.LT, RelOp.LE, RelOp.GT, RelOp.GE}
STRING_OPS = {
    RelOp.LIKE,
    RelOp.NOT_LIKE,
    RelOp.CONTAINS,
    RelOp.NOT_CONTAINS,
    RelOp.STARTS_WITH,
    RelOp.ENDS_WITH,
}
MEMBER_OPS = {RelOp.IN, RelOp.IS_IN}
NULL_OPS = {RelOp.IS, RelOp.IS_NOT}


class TimeUnit(enum.Enum):
    SECONDS = "seconds"
    MINUTES = "minutes"
    HOURS = "hours"
    DAYS = "days"
    WEEKS = "weeks"
    MONTHS = "months"

    @property
    def micros(self) -> int:
        return _UNIT_MICROS[self]


_UNIT_MICROS = {
    TimeUnit.SECONDS: MICROS_PER_SECOND,
    TimeUnit.MINUTES: MICROS_PER_MINUTE,
    TimeUnit.HOURS: MICROS_PER_HOUR,
    TimeUnit.DAYS: MICROS_PER_DAY,
    TimeUnit.WEEKS: MICROS_PER_WEEK,
    TimeUnit.MONTHS: MICROS_PER_MONTH,
}


class Hint(enum.Enum):
    RANK = "RANK"
    CLASSIFY = "CLASSIFY"


class ConstKind(enum.Enum):
    BOOL = "bool"
    INT = "int"
    FLOAT = "float"
    STRING = "string"
    NULL = "null"
    ARRAY = "array"
    # Only produced during binding when a string literal is reinterpreted
    # against a timestamp column; never emitted by the parser.
    TIMESTAMP = "timestamp"


@dataclass(frozen=True)
class ColumnRef:
    """Qualified column reference TABLE.COLUMN; column ``*`` is the wildcard."""

    table: str
    column: str
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    @property
    def is_wildcard(self) -> bool:
        return self.column == WILDCARD

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"


@dataclass(frozen=True)
class Window:
    """Half-open time window [start, end) in whole units relative to anchor.

    ``start`` is None for an unbounded (-INF) past.
    """

    start: Optional[int]
    end: int
    unit: TimeUnit = TimeUnit.DAYS
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.start is not None and self.start >= self.end:
            raise ParseError(
                f"window start must be less than end, got ({self.start}, {self.end})",
                self.span,
            )

    @property
    def start_micros(self) -> Optional[int]:
        return None if self.start is None else self.start * self.unit.micros

    @property
    def end_micros(self) -> int:
        return self.end * self.unit.micros


@dataclass(frozen=True)
class Constant:
    kind: ConstKind
    value: object
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.kind is ConstKind.ARRAY:
            kinds = {e.kind for e in self.value}
            if len(kinds) > 1 or kinds & {ConstKind.NULL, ConstKind.ARRAY}:
                raise ParseError("array elements must share one scalar type", self.span)


@dataclass(frozen=True)
class Aggregation:
    kind: AggKind
    column: ColumnRef
    where: Optional["Condition"] = None
    window: Optional[Window] = None
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.column.is_wildcard and self.kind is not AggKind.COUNT:
            raise ParseError(
                f"wildcard column only allowed with COUNT, not {self.kind.value}",
                self.column.span or self.span,
            )


@dataclass(frozen=True)
class Compare:
    lhs: Union[ColumnRef, Aggregation]
    op: RelOp
    rhs: Constant
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Not:
    operand: "Condition"
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class And:
    left: "Condition"
    right: "Condition"
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Or:
    left: "Condition"
    right: "Condition"
    span: Optional[Span] = field(default=None, compare=False, repr=False)


Condition = Union[Compare, Not, And, Or]
Target = Union[Condition, Aggregation, ColumnRef]


@dataclass(frozen=True)
class Query:
    target: Target
    entity: ColumnRef
    entity_where: Optional[Condition] = None
    assuming: Optional[Condition] = None
    hint: Optional[Hint] = None
    top_k: Optional[int] = None
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.top_k is not None and self.hint is not Hint.RANK:
            raise ParseError("TOP requires RANK", self.span)


def iter_aggregations(node) -> "list[Aggregation]":
    """All aggregations in a subtree, outermost first (includes nested ones)."""
    out: list[Aggregation] = []

    def walk(n):
        if isinstance(n, Aggregation):
            out.append(n)
            if n.where is not None:
                walk(n.where)
        elif isinstance(n, Compare):
            walk(n.lhs)
        elif isinstance(n, Not):
            walk(n.operand)
        elif isinstance(n, (And, Or)):
            walk(n.left)
            walk(n.right)

    if node is not None:
        walk(node)
    return out


# ---------------------------------------------------------------------------
# Unparsing


def _unparse_constant(c: Constant) -> str:
    if c.kind is ConstKind.NULL:
        return "NULL"
    if c.kind is ConstKind.BOOL:
        return "TRUE" if c.value else "FALSE"
    if c.kind is ConstKind.INT:
        return str(c.value)
    if c.kind is ConstKind.FLOAT:
        return repr(c.value)
    if c.kind is ConstKind.STRING:
        return '"' + str(c.value).replace('"', '""') + '"'
    if c.kind is ConstKind.ARRAY:
        return "[" + ", ".join(_unparse_constant(e) for e in c.value) + "]"
    if c.kind is ConstKind.TIMESTAMP:
        from .times import format_timestamp

        return '"' + format_timestamp(c.value) + '"'
    raise AssertionError(c.kind)


def _unparse_window(w: Window) -> str:
    start = "-INF" if w.start is None else str(w.start)
    return f", {start}, {w.end}, {w.unit.value}"


def _unparse_operand(node: Union[ColumnRef, Aggregation]) -> str:
    if isinstance(node, ColumnRef):
        return str(node)
    parts = str(node.column)
    if node.where is not None:
        parts += " WHERE " + _unparse_condition(node.where, 0)
    if node.window is not None:
        parts += _unparse_window(node.window)
    return f"{node.kind.value}({parts})"


_PREC_OR, _PREC_AND, _PREC_NOT = 1, 2, 3


def _unparse_condition(node: Condition, prec: int) -> str:
    if isinstance(node, Compare):
        return f"{_unparse_operand(node.lhs)} {node.op.value} {_unparse_constant(node.rhs)}"
    if isinstance(node, Not):
        text = "NOT " + _unparse_condition(node.operand, _PREC_NOT)
        return f"({text})" if prec > _PREC_NOT else text
    if isinstance(node, And):
        text = (
            _unparse_condition(node.left, _PREC_AND)
            + " AND "
            + _unparse_condition(node.right, _PREC_AND + 1)
        )
        return f"({text})" if prec > _PREC_AND else text
    if isinstance(node, Or):
        text = (
            _unparse_condition(node.left, _PREC_OR)
            + " OR "
            + _unparse_condition(node.right, _PREC_OR + 1)
        )
        return f"({text})" if prec > _PREC_OR else text
    raise AssertionError(type(node))


def unparse_expr(node: Target) -> str:
    """Render a target or condition subtree as canonical query text."""
    if isinstance(node, (ColumnRef, Aggregation)):
        return _unparse_operand(node)
    return _unparse_condition(node, 0)


def unparse(query: Query) -> str:
    """Render a query as canonical single-line text that reparses identically."""
    parts = ["PREDICT", unparse_expr(query.target)]
    if query.hint is not None:
        parts.append(query.hint.value)
    if query.top_k is not None:
        parts.append(f"TOP {query.top_k}")
    parts += ["FOR EACH", str(query.entity)]
    if query.entity_where is not None:
        parts += ["WHERE", _unparse_condition(query.entity_where, 0)]
    if query.assuming is not None:
        parts += ["ASSUMING", _unparse_condition(query.assuming, 0)]
    return " ".join(parts)
