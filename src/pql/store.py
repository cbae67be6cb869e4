"""In-memory relational store.

Schema metadata, columnar table storage with null bitmaps, and a derived
row graph: one CSR adjacency per foreign-key edge, with each parent's
children sorted by their event time, so that a time window covers one
contiguous run of the parent's dated children. Undated children sit after
the dated ones in load order.

Identifiers are case-insensitive and canonicalized to upper case. A table's
time column and validity columns must hold timestamps (stored as integer
microseconds since epoch, UTC). What is derived from a table lives on its
`TableData` and is built on first use: the primary-key index, the time
range, and for each foreign key its parent rows (`fk_forward`) and its
row-graph edge (`edges`). The `Database` serves both by edge
(`Database.forward`, `Database.edge_index`); there is no graph object.
A load replaces one table and drops the entries of other tables' foreign
keys into it. That is the one place anything is invalidated.

Every file pql reads or writes is UTF-8 text, whatever the locale. CSV
load works column at a time, from a file (`Path`) or text (`str`), with
one tokenizer and one converter. `_tokenize` cuts blocks of about
`_CHUNK_ROWS` records with numpy as `csv.reader` reads them: a record ends
at a line feed, CRLF or lone carriage return, a quoted field is read
between its quotes, a quote in an unquoted field is text, and text after a
closing quote or a quote open at the end is an error. `_convert_cells`
converts each column: the dtype's converter reads cells from their bytes
(int64, float64, bool, canonical timestamps via `times.canonical_micros`),
`_parse_cell`, which defines the accepted values and the error text, reads
each cell the converter refuses, and a string column's values are its
cells' text. The first error in row order is a `DataError` with its record.

`write_csv` writes every CSV file pql writes, tables and results alike,
from whole columns, as bytes that numpy assembles a chunk of
`_CHUNK_ROWS` rows at a time: `_column_cells` turns each column's
chunk into an (n, width) byte array (ints and the digits of short
decimal floats four at a time from a table, timestamps by
`times.canonical_cells`, bools and labels by lookup, other floats by
`repr`, text encoded once), one byte scan marks the text cells to quote,
and `_rows` lays the cells out with their separators and keeps their
bytes with one boolean compaction. A row with a carriage return in a
text cell is quoted whole.

An int64 primary key that strictly increases is unique as it stands;
any other key is checked with a set. `_resolve_fk` maps foreign keys to
parent rows once, for the load check: an int64 key into a dense parent
key (strictly increasing, `last - first == n - 1`) by its offset from the
first, any other int64 key by a sorted search, a key of another dtype
by a dict. The row graph reuses that mapping until the parent is loaded
again.
"""

from __future__ import annotations

import enum
import io
import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DataError, SchemaError
from .times import MAX_MICROS, MIN_MICROS, canonical_cells, canonical_micros, format_timestamp, parse_timestamp


class DataType(enum.Enum):
    INT64 = "int64"
    FLOAT64 = "float64"
    BOOL = "bool"
    STRING = "string"
    TIMESTAMP = "timestamp"


@dataclass(frozen=True)
class ListType:
    """List-of-scalar; appears only as a computed target type."""

    element: DataType

    def __str__(self) -> str:
        return f"list<{self.element.value}>"


@dataclass(frozen=True)
class LabelType:
    """Int codes, each written to CSV as its label `labels[code]`; a result
    table's split column."""

    labels: Tuple[str, ...]


class SemanticType(enum.Enum):
    NUMERICAL = "numerical"
    CATEGORICAL = "categorical"
    TEXT = "text"
    TEMPORAL = "temporal"
    KEY = "key"


_STYPE_DTYPES = {
    SemanticType.NUMERICAL: {DataType.INT64, DataType.FLOAT64},
    SemanticType.CATEGORICAL: {DataType.INT64, DataType.STRING, DataType.BOOL},
    SemanticType.TEXT: {DataType.STRING},
    SemanticType.TEMPORAL: {DataType.TIMESTAMP},
    SemanticType.KEY: {DataType.INT64, DataType.STRING},
}


@dataclass(frozen=True)
class ColumnDef:
    name: str
    dtype: DataType
    stype: SemanticType
    nullable: bool = True


@dataclass(frozen=True)
class ForeignKey:
    column: str
    references: str  # target table; the referenced column is its primary key


@dataclass(frozen=True)
class TableDef:
    name: str
    columns: Tuple[ColumnDef, ...]
    primary_key: Optional[str] = None
    foreign_keys: Tuple[ForeignKey, ...] = ()
    time_column: Optional[str] = None
    validity: Optional[Tuple[Optional[str], Optional[str]]] = None

    def column(self, name: str) -> Optional[ColumnDef]:
        upper = name.upper()
        for col in self.columns:
            if col.name == upper:
                return col
        return None

    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.columns)


class FkEdge(NamedTuple):
    """One foreign-key edge: child rows point at one parent row."""

    child_table: str
    fk_column: str
    parent_table: str

    def __str__(self) -> str:
        return f"{self.child_table}.{self.fk_column}->{self.parent_table}"


@dataclass(frozen=True)
class Schema:
    tables: Dict[str, TableDef]

    def table(self, name: str) -> TableDef:
        upper = name.upper()
        if upper not in self.tables:
            raise SchemaError(f"unknown table {name!r}")
        return self.tables[upper]

    def has_table(self, name: str) -> bool:
        return name.upper() in self.tables

    def edges(self) -> List[FkEdge]:
        out = []
        for t in self.tables.values():
            for fk in t.foreign_keys:
                out.append(FkEdge(t.name, fk.column, fk.references))
        return out

    def edges_from(self, child_table: str) -> List[FkEdge]:
        t = self.table(child_table)
        return [FkEdge(t.name, fk.column, fk.references) for fk in t.foreign_keys]

    def edges_into(self, parent_table: str) -> List[FkEdge]:
        upper = parent_table.upper()
        return [e for e in self.edges() if e.parent_table == upper]


class RowRef(NamedTuple):
    table: str
    index: int


# ---------------------------------------------------------------------------
# Schema loading


_JSON_KINDS = {str: "a string", list: "a list", dict: "an object", bool: "true or false"}


def _field(raw: dict, key: str, kind: type, where: str, required: bool = False):
    """`raw[key]`, None when it is absent or null, unless `required`. A
    value of another kind than `kind` is a SchemaError naming `where` and
    the key, as is a missing required one."""
    value = raw.get(key)
    if value is None:
        if required:
            raise SchemaError(f"{where} missing {key!r}")
        return None
    if not isinstance(value, kind):
        raise SchemaError(f"{where}: {key!r} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _objects(raw: dict, key: str, where: str) -> List[dict]:
    """The objects listed under `key`; none when it is absent."""
    entries = _field(raw, key, list, where) or []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: {key}[{i}] must be an object, got {entry!r}")
    return entries


def _parse_column(raw: dict, table: str) -> ColumnDef:
    name = _field(raw, "name", str, f"table {table}: column entry", required=True).upper()
    where = f"table {table}: column {name}"
    try:
        dtype = DataType(_field(raw, "dtype", str, where, required=True).lower())
        stype = SemanticType(_field(raw, "stype", str, where, required=True).lower())
    except ValueError as exc:
        raise SchemaError(f"table {table}: {exc}")
    if dtype not in _STYPE_DTYPES[stype]:
        raise SchemaError(
            f"table {table}: column {name}: bad dtype/stype combination "
            f"({dtype.value}/{stype.value})"
        )
    nullable = _field(raw, "nullable", bool, where)
    return ColumnDef(name, dtype, stype, nullable=nullable is not False)


# A JSON string, or an integer literal (group 1): digits that are not part
# of a string, a fraction or an exponent.
_JSON_STRING_OR_INT = re.compile(r'"(?:[^"\\]|\\.)*"|(?<![\w.+-])(-?[0-9]+)(?![\w.])')


def parse_json(text: str):
    """`json.loads`, except that an integer literal longer than `int` takes
    (`sys.get_int_max_str_digits()`) fails as a malformed document does,
    with a `json.JSONDecodeError` at the literal."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        limit = sys.get_int_max_str_digits()
        for found in _JSON_STRING_OR_INT.finditer(text) if limit else ():
            if found.group(1) and len(found.group(1).lstrip("-")) > limit:
                raise json.JSONDecodeError(f"integer of more than {limit} digits", text, found.start(1)) from None
        raise


def load_schema(source: Union[str, dict, Path]) -> Schema:
    """Load and validate a schema from its JSON document (text, dict, or path)."""
    if isinstance(source, Path):
        try:
            source = source.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            reason = f"{exc.reason} at byte {exc.start}"
            raise SchemaError(f"schema document {source} is not UTF-8: {reason}") from None
    if isinstance(source, str):
        try:
            doc = parse_json(source)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"schema document is not valid JSON: {exc}")
    else:
        doc = source
    if not isinstance(doc, dict) or not isinstance(doc.get("tables"), list):
        raise SchemaError("schema document must be an object with a 'tables' list")

    tables: Dict[str, TableDef] = {}
    for i, raw in enumerate(_objects(doc, "tables", "schema document")):
        name = (_field(raw, "name", str, f"tables[{i}]") or "").upper()
        if not name:
            raise SchemaError("table entry missing 'name'")
        if name in tables:
            raise SchemaError(f"duplicate table {name}")
        where = f"table {name}"
        columns = tuple(_parse_column(c, name) for c in _objects(raw, "columns", where))
        seen = set()
        for col in columns:
            if col.name in seen:
                raise SchemaError(f"table {name}: duplicate column {col.name}")
            seen.add(col.name)

        tdef = TableDef(name, columns)

        def _col(cname: str, role: str) -> ColumnDef:
            found = tdef.column(cname)
            if found is None:
                raise SchemaError(f"table {name}: {role} column {cname!r} not defined")
            return found

        primary_key = None
        if _field(raw, "primary_key", str, where):
            pk = _col(raw["primary_key"], "primary key")
            if pk.stype is not SemanticType.KEY:
                raise SchemaError(f"table {name}: primary key {pk.name} must have stype 'key'")
            primary_key = pk.name

        time_column = None
        if _field(raw, "time_column", str, where):
            tc = _col(raw["time_column"], "time")
            if tc.dtype is not DataType.TIMESTAMP:
                raise SchemaError(f"table {name}: time column {tc.name} must be a timestamp")
            time_column = tc.name

        validity = None
        if _field(raw, "validity", dict, where):
            v = raw["validity"]
            start = _field(v, "start", str, f"{where}: validity")
            end = _field(v, "end", str, f"{where}: validity")
            if start is None and end is None:
                raise SchemaError(f"table {name}: validity needs a start or end column")
            for part in (start, end):
                if part is not None and _col(part, "validity").dtype is not DataType.TIMESTAMP:
                    raise SchemaError(f"table {name}: validity column {part} must be a timestamp")
            validity = (start.upper() if start else None, end.upper() if end else None)

        fks = []
        for rawfk in _objects(raw, "foreign_keys", where):
            col = _col(_field(rawfk, "column", str, f"{where}: foreign key entry", required=True), "foreign key")
            if col.stype is not SemanticType.KEY:
                raise SchemaError(f"table {name}: foreign key {col.name} must have stype 'key'")
            references = _field(rawfk, "references", str, f"{where}: foreign key {col.name}", required=True)
            fks.append(ForeignKey(col.name, references.upper()))

        tables[name] = TableDef(
            name,
            columns,
            primary_key=primary_key,
            foreign_keys=tuple(fks),
            time_column=time_column,
            validity=validity,
        )

    schema = Schema(tables)
    for t in tables.values():
        for fk in t.foreign_keys:
            if fk.references not in tables:
                raise SchemaError(
                    f"unresolved foreign key: {t.name}.{fk.column} references "
                    f"unknown table {fk.references}"
                )
            target = tables[fk.references]
            if target.primary_key is None:
                raise SchemaError(
                    f"foreign key {t.name}.{fk.column} targets {fk.references}, "
                    f"which has no primary key"
                )
            fkcol = t.column(fk.column)
            pkcol = target.column(target.primary_key)
            if fkcol.dtype is not pkcol.dtype:
                raise SchemaError(
                    f"foreign key {t.name}.{fk.column} ({fkcol.dtype.value}) does not "
                    f"match {fk.references}.{target.primary_key} ({pkcol.dtype.value})"
                )
    return schema


def schema_to_json(schema: Schema) -> dict:
    tables = []
    for t in schema.tables.values():
        raw = {
            "name": t.name,
            "columns": [
                # `nullable` is written only when false, so nullable schemas keep their bytes.
                {"name": c.name, "dtype": c.dtype.value, "stype": c.stype.value}
                | ({} if c.nullable else {"nullable": False})
                for c in t.columns
            ],
        }
        if t.primary_key:
            raw["primary_key"] = t.primary_key
        if t.time_column:
            raw["time_column"] = t.time_column
        if t.validity:
            raw["validity"] = {
                k: v for k, v in zip(("start", "end"), t.validity) if v is not None
            }
        if t.foreign_keys:
            raw["foreign_keys"] = [
                {"column": fk.column, "references": fk.references} for fk in t.foreign_keys
            ]
        tables.append(raw)
    return {"tables": tables}


# ---------------------------------------------------------------------------
# Columnar data


@dataclass
class Column:
    dtype: DataType
    values: np.ndarray  # int64/float64/bool_/object; timestamps as int64 micros
    null: np.ndarray  # bool mask, True = null

    def get(self, i: int):
        return None if self.null[i] else self.values.item(i)

    def to_pylist(self) -> list:
        out = self.values.tolist()
        for i in np.nonzero(self.null)[0]:
            out[i] = None
        return out


_NUMPY_DTYPE = {
    DataType.INT64: np.int64,
    DataType.FLOAT64: np.float64,
    DataType.BOOL: np.bool_,
    DataType.STRING: object,
    DataType.TIMESTAMP: np.int64,
}


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _parse_cell(text: str, dtype: DataType):
    """Parse one CSV cell; '' means null. Returns None for null."""
    if text == "":
        return None
    if dtype is DataType.INT64:
        value = int(text)
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise OverflowError(f"{text!r} does not fit in int64")
        return value
    if dtype is DataType.FLOAT64:
        v = float(text)
        return None if math.isnan(v) else v
    if dtype is DataType.BOOL:
        lowered = text.strip().lower()
        if lowered in ("true", "1", "t"):
            return True
        if lowered in ("false", "0", "f"):
            return False
        raise ValueError(f"not a bool: {text!r}")
    if dtype is DataType.TIMESTAMP:
        return parse_timestamp(text)
    return text


# Records converted per batch: bounds the Python objects and numpy
# temporaries alive at once while loading and saving, so peak memory stays
# near that of the final arrays.
_CHUNK_ROWS = 16384
_BOOL_CELLS = {"true": True, "1": True, "t": True, "false": False, "0": False, "f": False}
_NL, _COMMA, _MINUS, _PLUS, _DOT, _EXP, _QUOTE, _CR = b'\n,-+.e"\r'
_POW10_INT = 10 ** np.arange(20, dtype=np.uint64)
_POW10_FLOAT = 10.0 ** np.arange(20)  # every one exact in float64
_INT64_LIMIT = np.uint64(2**63 - 1)


class _CellError(Exception):
    """The first bad cell of a column slice: its offset and the reason."""

    def __init__(self, offset: int, detail: str):
        super().__init__(detail)
        self.offset = offset


# Converters: the values of the cells buf[starts[i]:ends[i]] of one column
# slice, and a mask of the nonempty cells the converter refuses. Each
# accepts only text that `_parse_cell` reads to the same value, and every
# cell `save_table_csv` writes. Empty cells (nulls) read as the column's
# fill value (0, 0.0, False, the epoch); a refused cell's value is unset.


def _fixed_width(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray, width: int) -> np.ndarray:
    """(width, n) uint8 array: row k holds byte k of every cell, 0 past a
    cell's end. Rows keep each byte position's operations contiguous."""
    k = np.arange(width, dtype=starts.dtype)[:, None]
    index = starts + k
    cells = buf[np.minimum(index, len(buf) - 1, out=index)]
    cells[k >= lengths] = 0
    return cells


def _ints(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """`[-]digits` with at most 19 digits and within int64."""
    neg = (buf[np.minimum(starts, len(buf) - 1)] == _MINUS) & (ends > starts)
    ndigits = ends - starts - neg
    refused = (ends > starts) & ((ndigits < 1) | (ndigits > 19))
    width = min(int(ndigits.max()), 19)
    # Right-aligned: row k holds the digit of place value 10**(width-1-k).
    k = np.arange(width, dtype=ends.dtype)[:, None]
    digits = buf[np.maximum(ends - width + k, 0)] - np.uint8(48)
    digits[k < width - ndigits] = 0
    refused |= (digits > 9).any(axis=0)
    magnitude = _POW10_INT[:width][::-1] @ digits
    refused |= magnitude > _INT64_LIMIT + neg
    return np.where(neg, np.uint64(0) - magnitude, magnitude).view(np.int64), refused


def _floats(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """`[-]digits[.digits][e[+|-]digits]` and `[-]inf`, the forms `repr`
    writes. Without an exponent, a mantissa of at most 19 digits and at
    most 2**53 is divided by a power of ten, both exact in float64
    (Clinger's fast path, so the quotient is the correctly rounded value
    `float` gives); numpy's bytes-to-float64 cast, which is `float`, reads
    the rest."""
    lengths = ends - starts
    width = max(int(lengths.max()), 4)
    cells = _fixed_width(buf, starts, lengths, width)
    k = np.arange(width)[:, None]
    neg = cells[0] == _MINUS
    digit = cells - np.uint8(48) <= 9
    dot, exp = cells == _DOT, cells == _EXP
    n_dot, n_exp = dot.sum(axis=0), exp.sum(axis=0)
    p_exp = np.where(n_exp > 0, exp.argmax(axis=0), lengths)
    p_dot = np.where(n_dot > 0, dot.argmax(axis=0), p_exp)
    exp_sign = (k == p_exp + 1) & ((cells == _MINUS) | (cells == _PLUS))
    allowed = digit | dot | exp | exp_sign | (k >= lengths)
    allowed[0] |= neg
    fraction = np.maximum(p_exp - p_dot - 1, 0)
    number = allowed.all(axis=0) & (n_dot <= 1) & (n_exp <= 1) & (p_dot <= p_exp)
    number &= (p_dot - neg >= 1) & ((n_dot == 0) | (fraction >= 1))
    number &= (n_exp == 0) | (lengths - p_exp - 1 - exp_sign.any(axis=0) >= 1)

    mantissa = digit & (k < p_exp)
    fast = number & (n_exp == 0) & (mantissa.sum(axis=0) <= 19)
    m = np.zeros(len(starts), dtype=np.uint64)
    for row, take in zip(cells, mantissa):
        m = np.where(take, m * np.uint64(10) + (row - np.uint8(48)), m)
    fast &= m <= 2**53
    values = m / _POW10_FLOAT[np.minimum(fraction, 19)]
    values[neg] *= -1
    body, cols = neg.astype(np.intp), np.arange(len(starts))
    inf = lengths == body + 3
    for i, byte in enumerate(b"inf"):
        inf &= cells[body + i, cols] == byte
    rest = np.flatnonzero((number & ~fast) | inf)
    if len(rest):
        text = [buf[a:b].tobytes() for a, b in zip(starts[rest].tolist(), ends[rest].tolist())]
        with np.errstate(over="ignore"):  # past float64's range reads +-inf, as `float` reads it
            values[rest] = np.array(text).astype(np.float64)
    return values, (lengths > 0) & ~number & ~inf


def _bools(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The six spellings of `_BOOL_CELLS`, exactly."""
    lengths = ends - starts
    cells = _fixed_width(buf, starts, lengths, 5)
    values, known = np.zeros(len(starts), dtype=np.bool_), lengths == 0
    for spelling, value in _BOOL_CELLS.items():
        hit = lengths == len(spelling)
        for row, byte in zip(cells, spelling.encode()):
            hit &= row == byte
        values |= hit & value
        known |= hit
    return values, ~known


def _timestamps(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The canonical form of `times.canonical_micros`."""
    lengths = ends - starts
    micros, ok = canonical_micros(_fixed_width(buf, starts, lengths, 27), lengths)
    return micros, (lengths > 0) & ~ok


_CONVERTERS = {
    DataType.INT64: _ints,
    DataType.FLOAT64: _floats,
    DataType.BOOL: _bools,
    DataType.TIMESTAMP: _timestamps,
}


def _shared(cells: Iterable[str]) -> List[str]:
    """The cells, equal strings sharing one object. A categorical column
    holds a few distinct values, so most of its cells cost a pointer."""
    memo: Dict[str, str] = {}
    return [memo.setdefault(c, c) for c in cells]


def _convert_cells(
    cdef: ColumnDef, buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, texts: Callable[..., Iterable[str]]
) -> Tuple[np.ndarray, np.ndarray]:
    """(values, null mask) of one column's cells buf[starts[i]:ends[i]], as
    `_parse_cell` reads each one; raises `_CellError` at the first bad cell
    or disallowed null. `texts(i)`, the text of the cells at an index array
    or slice, gives a string column's values and each refused cell."""
    null = starts == ends
    bad = None
    if cdef.dtype is DataType.STRING:
        values = np.array(_shared(texts(slice(None))), dtype=object)
        values[null] = None
    else:
        values, refused = _CONVERTERS[cdef.dtype](buf, starts, ends)
        refused = np.flatnonzero(refused)
        for i, cell in zip(refused.tolist(), texts(refused)):
            try:
                value = _parse_cell(cell, cdef.dtype)
            except (ValueError, OverflowError) as exc:
                bad = (i, str(exc))
                break
            null[i] = value is None
            values[i] = 0 if value is None else value
    if not cdef.nullable and null.any():
        first = int(np.argmax(null))
        if bad is None or first < bad[0]:
            bad = (first, "null not allowed")
    if bad is not None:
        raise _CellError(*bad)
    return values, null


@dataclass
class TableData:
    """One table's columns, and what is derived from them and from its
    parents, each built on first use (see the module docstring)."""

    definition: TableDef
    columns: Dict[str, Column]
    nrows: int
    _pk_index: Optional[Dict[object, int]] = field(default=None, repr=False)
    # Foreign-key column -> child row -> parent row, -1 when null/dangling.
    fk_forward: Dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    # Foreign-key column -> the row graph's CSR adjacency of that edge.
    edges: Dict[str, "EdgeIndex"] = field(default_factory=dict, repr=False)
    _ranks: Optional[Tuple[np.ndarray, np.ndarray]] = field(default=None, repr=False)
    _time_range: Optional[Tuple[Optional[int], Optional[int]]] = field(default=None, repr=False)

    def column(self, name: str) -> Column:
        return self.columns[name.upper()]

    @property
    def pk_index(self) -> Dict[object, int]:
        """Primary key value -> row; built on first use (load checks the keys)."""
        if self._pk_index is None:
            pk = self.definition.primary_key
            keys = self.column(pk).values.tolist() if pk is not None else []
            self._pk_index = dict(zip(keys, range(len(keys))))
        return self._pk_index

    def time_ranks(self) -> Tuple[np.ndarray, np.ndarray]:
        """The sorted distinct times of the time column, and each row's
        dense rank among them (undated rows rank last, at
        `len(time_values)`); kept until the last edge is built."""
        if self._ranks is None:
            tname = self.definition.time_column
            if tname is None:
                self._ranks = np.empty(0, dtype=np.int64), np.zeros(self.nrows, dtype=np.int64)
            else:
                tcol = self.column(tname)
                dated = ~tcol.null
                time_values, inverse = np.unique(tcol.values[dated], return_inverse=True)
                ranks = np.full(len(tcol.values), len(time_values), dtype=np.int64)
                ranks[dated] = inverse
                self._ranks = time_values, ranks
        return self._ranks

    def time_range(self) -> Tuple[Optional[int], Optional[int]]:
        """The earliest and latest value of the time column, or (None, None)
        when no row is dated."""
        if self._time_range is None:
            tc = self.definition.time_column
            col = self.column(tc) if tc is not None else None
            dated = col.values[~col.null] if col is not None else ()
            self._time_range = (int(dated.min()), int(dated.max())) if len(dated) else (None, None)
        return self._time_range


@dataclass
class LoadReport:
    table: str
    rows: int
    dangling_fk: int = 0
    samples: List[str] = field(default_factory=list)


@dataclass
class Database:
    """A schema and the data of each of its tables: zero rows until loaded.
    It serves its heterogeneous row graph by edge. Each edge is built on
    first use (as database cracking builds an index when a query first asks
    for it), so a command pays only for the edges its query reads:
    `forward` and `edge_index` read the child table's `fk_forward` and
    `edges` entries, and fill them when they are missing."""

    schema: Schema
    tables: Dict[str, TableData] = field(default_factory=dict)
    reports: List[LoadReport] = field(default_factory=list)
    # The edges `forward` and `edge_index` serve: a set lookup, on every hop.
    _schema_edges: FrozenSet[FkEdge] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._schema_edges = frozenset(self.schema.edges())
        for t in self.schema.tables.values():
            if t.name not in self.tables:
                cols = {c.name: Column(c.dtype, np.empty(0, dtype=_NUMPY_DTYPE[c.dtype]), np.empty(0, dtype=np.bool_))
                        for c in t.columns}
                self.tables[t.name] = TableData(t, cols, 0)

    def table(self, name: str) -> TableData:
        upper = name.upper()
        if upper not in self.tables:
            raise DataError(f"unknown table {name!r}")
        return self.tables[upper]

    def nrows(self, name: str) -> int:
        return self.table(name).nrows

    def total_rows(self) -> int:
        return sum(t.nrows for t in self.tables.values())

    def value(self, ref: RowRef, column: str):
        return self.table(ref.table).column(column).get(ref.index)

    def _dated_ranges(self) -> List[Tuple[int, int]]:
        return [r for r in (t.time_range() for t in self.tables.values()) if r[0] is not None]

    def max_event_time(self) -> Optional[int]:
        """Latest value across all time columns, or None if no dated rows."""
        return max((hi for _, hi in self._dated_ranges()), default=None)

    def min_event_time(self) -> Optional[int]:
        return min((lo for lo, _ in self._dated_ranges()), default=None)

    def _child(self, edge: FkEdge) -> TableData:
        if edge not in self._schema_edges:
            raise DataError(f"no such foreign-key edge: {edge}")
        return self.tables[edge.child_table]

    def forward(self, edge: FkEdge) -> np.ndarray:
        """Child row -> parent row over `edge`, -1 where the key is null or
        dangling: the array the load resolved, until the parent is loaded
        again, so a hop never sorts."""
        child = self._child(edge)
        forward = child.fk_forward.get(edge.fk_column)
        if forward is None:
            parent = self.tables[edge.parent_table]
            forward = child.fk_forward[edge.fk_column] = _resolve_fk(child.column(edge.fk_column), parent)
        return forward

    def edge_index(self, edge: FkEdge) -> EdgeIndex:
        """The CSR adjacency of `edge`, built the first time it is asked for."""
        child = self._child(edge)
        idx = child.edges.get(edge.fk_column)
        if idx is None:
            idx = child.edges[edge.fk_column] = self._build_edge(edge, child)
            if all(fk.column in child.edges for fk in child.definition.foreign_keys):
                child._ranks = None  # no edge of the table is left to use them
        return idx

    def _build_edge(self, edge: FkEdge, child: TableData) -> EdgeIndex:
        time_values, ranks = child.time_ranks()
        forward = self.forward(edge)
        n_parent = self.tables[edge.parent_table].nrows
        linked = np.nonzero(forward >= 0)[0]
        radix = len(time_values) + 1
        # One sort by (parent, rank): dated before undated, then time. Ties
        # keep load order, which is what the window tie rule requires.
        keys = forward[linked] * radix + ranks[linked]
        order, keys = _sort_by_key(keys, linked, len(forward), n_parent * radix)
        indptr = np.searchsorted(keys, np.arange(n_parent + 1, dtype=np.int64) * radix)
        return EdgeIndex(edge, indptr, order, keys, time_values)


def new_database(schema: Schema) -> Database:
    """Create an empty database; every table starts with zero rows."""
    return Database(schema)


def load_table_data(db: Database, table: str, rows: Union[str, Path], *, strict: bool = True) -> Database:
    """Load CSV records (header required, '' = null) into `table`, from a
    file path or from text, as `csv.reader` reads them. Text after a
    closing quote, and a quote open at the end of the input, are errors.

    In strict mode a foreign key value that does not resolve to a parent row
    is an error; in lenient mode the row is kept and counted in the report.
    Checks run against parents loaded so far, so load parent tables first.
    """
    tdef = db.schema.table(table)
    if isinstance(rows, Path):
        with open(rows, "rb") as fh:
            columns, nrows = _read_file(tdef, fh, "strict")
    else:
        # A lone surrogate has no UTF-8 bytes; these bytes decode back to it.
        columns, nrows = _read_file(tdef, io.BytesIO(rows.encode(errors="surrogatepass")), "surrogatepass")
    data = TableData(tdef, columns, nrows)
    report = LoadReport(tdef.name, nrows)
    if tdef.primary_key is not None:
        _check_primary_key(tdef, columns[tdef.primary_key])

    for fk in tdef.foreign_keys:
        fkcol = columns[fk.column]
        # A key into its own table resolves against the rows being loaded.
        forward = _resolve_fk(fkcol, data if fk.references == tdef.name else db.tables[fk.references])
        data.fk_forward[fk.column] = forward
        dangling = np.flatnonzero((forward < 0) & ~fkcol.null)
        if not len(dangling):
            continue
        if strict:
            raise DataError(
                f"table {tdef.name}: row {dangling[0] + 1}: foreign key "
                f"{fk.column}={fkcol.get(dangling[0])!r} has no match in {fk.references}"
            )
        report.dangling_fk += len(dangling)
        for i in dangling[: 5 - len(report.samples)].tolist():
            report.samples.append(f"{fk.column}={fkcol.get(i)!r}")

    # What other tables derived from the rows replaced goes with them.
    for other in db.tables.values():
        for fk in other.definition.foreign_keys:
            if fk.references == tdef.name:
                other.fk_forward.pop(fk.column, None)
                other.edges.pop(fk.column, None)
    db.tables[tdef.name] = data
    db.reports.append(report)
    return db


def _read_file(tdef: TableDef, fh: BinaryIO, errors: str) -> Tuple[Dict[str, Column], int]:
    """The columns of the CSV bytes `fh` reads, and their number of rows,
    text decoded from UTF-8 with the `errors` handler. A first pass counts
    the record ends, so each column is allocated once (and cut to size if
    quotes held some); then blocks of about `_CHUNK_ROWS` records convert
    into place, so only one block's temporaries are alive at a time."""
    cdefs, at = _header(tdef, fh, errors)
    fh.seek(at)
    # At least the records: line feeds, lone carriage returns, a last one without an end.
    total, last = 0, b"\n"
    for piece in iter(lambda: fh.read(1 << 20), b""):
        total += piece.count(b"\n") - (last.endswith(b"\r") and piece.startswith(b"\n"))
        if b"\r" in piece:
            total += piece.count(b"\r") - piece.count(b"\r\n")
        last = piece
    total += not last.endswith((b"\n", b"\r"))
    fh.seek(at)
    columns = {
        c.name: Column(c.dtype, np.empty(total, dtype=_NUMPY_DTYPE[c.dtype]), np.empty(total, dtype=np.bool_))
        for c in tdef.columns
    }
    nrows, row_bytes, tail = 0, at, b""
    while True:
        data = fh.read(max(_CHUNK_ROWS * row_bytes, 2 * len(tail)))
        final = not data
        data = tail + data
        if not data:
            break
        tokens = _tokenize(data, final)
        if nrows + tokens.records > total:
            raise DataError(f"table {tdef.name}: row {total + 1}: the file grew while it was read")
        _convert_block(tdef.name, tokens, cdefs, columns, nrows, errors)
        nrows += tokens.records
        row_bytes = -(-tokens.size // tokens.records) if tokens.records else row_bytes
        tail = data[tokens.size:]
        if final:  # the last record was whole, or its error was raised
            break
    if nrows < total:
        for column in columns.values():
            column.values, column.null = column.values[:nrows].copy(), column.null[:nrows].copy()
    return columns, nrows


def _header(tdef: TableDef, fh: BinaryIO, errors: str) -> Tuple[List[ColumnDef], int]:
    """The columns that the first record of `fh` names, in its order, and
    the bytes that record takes. Reads a line, then doubles what it holds
    until the record is whole, so that an open quote costs linear time."""
    head = more = fh.readline(1 << 16)
    if not head:
        raise DataError(f"table {tdef.name}: empty input, header row required")
    while not ((tokens := _tokenize(head, not more)).records or tokens.bad or not more):
        more = fh.read(len(head))
        head += more
    if not tokens.records:
        raise DataError(f"table {tdef.name}: header: {tokens.bad}")
    last, fields = _record_fields(tokens)
    try:
        header = [name.upper() for name in _cell_texts(tokens.data, tokens.starts, tokens.ends, tokens.escaped,
                                                       errors)(slice(0, fields[0]))]
    except UnicodeDecodeError:
        raise DataError(f"table {tdef.name}: header: text is not UTF-8") from None
    if sorted(header) != sorted(names := list(tdef.column_names)):
        raise DataError(f"table {tdef.name}: header {header} does not match schema columns {names}")
    return [tdef.column(name) for name in header], int(tokens.seps[last[0]]) + 1


class _Tokens(NamedTuple):
    """The `records` whole records in the first `size` bytes of `data` (also
    `buf`). Field k is data[starts[k]:ends[k]], inside any quotes, and is
    ended by seps[k]. `escaped` marks the quoted fields holding a doubled
    quote, if any. `bad` is why the next record cannot be read."""

    data: bytes
    buf: np.ndarray
    size: int
    records: int
    starts: np.ndarray
    ends: np.ndarray
    seps: np.ndarray
    escaped: Optional[np.ndarray] = None
    bad: Optional[str] = None


def _field_starts(seps: np.ndarray) -> np.ndarray:
    return np.concatenate((np.zeros(min(len(seps), 1), seps.dtype), seps[:-1] + 1))


def _tokenize(data: bytes, final: bool) -> _Tokens:
    """The fields of the whole records at the front of `data`, as the csv
    module reads them; `final` when no bytes follow, so the last record
    needs no end. Data holding no quote, or no carriage return, skips its steps.

    Cut at each comma, line feed and lone carriage return, the bytes fall
    into pieces. A piece that starts with a quote, or inside quotes, flips
    the quote state once per quote it holds; one that starts outside
    quotes with another byte is an unquoted field, whose quotes are text.
    So the state after a piece is the parity of the flips since the last
    unquoted field holding an odd number of quotes, and a cut inside quotes
    ends no field. Every second quote that is not text closes a quoted
    field, and must be followed by a comma, a record end or a quote that it
    escapes: text after it, or a quote open at the end, is `bad`."""
    if final and not data.endswith((b"\n", b"\r")):
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    has_cr = b"\r" in data
    # A carriage return that ends data before its end may start a CRLF.
    block = buf[:len(data) - (not final and data.endswith(b"\r"))]
    cuts = (block == _COMMA) | (block == _NL)
    if has_cr:
        crs = np.flatnonzero(block == _CR)
        cuts[crs[buf[np.minimum(crs + 1, len(buf) - 1)] != _NL]] = True
    seps = cuts = np.flatnonzero(cuts).astype(np.int32 if len(data) < 2**31 else np.int64)
    bad, count = None, None
    if b'"' in data and len(cuts):
        is_quote = block == _QUOTE
        quotes = np.flatnonzero(is_quote).astype(cuts.dtype)
        # count[p]: the quotes before byte p.
        count = np.concatenate((np.zeros(1, cuts.dtype), np.cumsum(is_quote, dtype=cuts.dtype)))
        before = count[cuts]
        counts = np.diff(before, prepend=0)  # quotes in the piece each cut ends
        odd = counts % 2 == 1
        opens = buf[_field_starts(cuts)] == _QUOTE
        flips = np.cumsum(opens & odd)
        reset = np.maximum.accumulate(np.where(odd & ~opens, np.arange(len(cuts)), -1))
        inside = (flips - np.where(reset >= 0, flips[reset], 0)) % 2 == 1
        text = np.concatenate(([True], ~inside[:-1])) & ~opens
        live = quotes[:before[-1]][~np.repeat(text, counts)]
        closing, reopening = live[1::2], live[2::2]
        after = buf[closing + 1]
        fine = (after == _COMMA) | (after == _NL) | (after == _CR)
        fine[:len(reopening)] |= reopening == closing[:len(reopening)] + 1
        if not fine.all():  # before any quote left open
            bad = (int(closing[np.argmin(fine)]), "text after a closing quote")
        elif final and len(live) % 2:
            bad = (int(live[-1]), "quote not closed at the end of the input")
        seps = cuts[~inside]
    last = np.flatnonzero(buf[seps] != _COMMA)
    records = int(np.searchsorted(seps[last], bad[0])) if bad else len(last)
    seps = seps[:last[records - 1] + 1] if records else seps[:0]
    starts = _field_starts(seps)
    ends = seps - ((buf[seps] == _NL) & (buf[np.maximum(seps - 1, 0)] == _CR)) if has_cr else seps
    escaped = None
    if count is not None:
        quoted = buf[starts] == _QUOTE
        starts, ends = starts + quoted, ends - quoted
        escaped = quoted & (count[ends] > count[starts])
    size = int(seps[-1]) + 1 if records else 0
    return _Tokens(data, buf, size, records, starts, ends, seps,
                   escaped if escaped is not None and escaped.any() else None, bad and bad[1])


def _record_fields(t: _Tokens) -> Tuple[np.ndarray, np.ndarray]:
    """The index of each record's last field, and its number of fields. A
    blank record has none; a quoted empty cell starts at its closing quote."""
    last = np.flatnonzero(t.buf[t.seps] != _COMMA)
    fields = np.diff(last, prepend=-1)
    fields[(fields == 1) & (t.starts[last] == t.ends[last]) & (t.buf[t.starts[last]] != _QUOTE)] = 0
    return last, fields


def _cell_texts(
    data: bytes, starts: np.ndarray, ends: np.ndarray, escaped: Optional[np.ndarray], errors: str
) -> Callable[..., Iterable[str]]:
    """texts(i): the text of the cells data[starts[i]:ends[i]] at an index
    array or slice `i`, each doubled quote of an `escaped` cell made one."""

    def texts(i):
        cells = (data[a:b].decode("utf-8", errors) for a, b in zip(starts[i].tolist(), ends[i].tolist()))
        if escaped is None:
            return cells
        return (c.replace('""', '"') if x else c for c, x in zip(cells, escaped[i].tolist()))

    return texts


def _convert_block(
    table: str, tokens: _Tokens, cdefs: List[ColumnDef], columns: Dict[str, Column], offset: int, errors: str
) -> None:
    """Convert the records of `tokens` into rows `offset`.. of `columns`.
    The first error in row order raises `DataError` with its row: in a
    record, malformed quoting, bytes that are not UTF-8, not one field per
    column, then a bad cell or null in header order. Only the records
    before the first that cannot be read are converted."""
    data, buf, size, n, starts, ends, seps, escaped, bad = tokens
    ncols = len(cdefs)
    unreadable = [(n, 0, f": {bad}")] if bad else []  # (record, rank, text)
    if ncols == 1 or len(seps) != n * ncols or (buf[seps[ncols - 1::ncols]] == _COMMA).any():
        wrong = np.flatnonzero(_record_fields(tokens)[1] != ncols)
        if len(wrong):
            unreadable.append((int(wrong[0]), 2, f": expected {ncols} fields"))
    if not data.isascii():
        try:
            data[:size].decode("utf-8", errors)
        except UnicodeDecodeError as exc:
            unreadable.append((int(np.searchsorted(seps[buf[seps] != _COMMA], exc.start)), 1, ": text is not UTF-8"))
    stop = min(unreadable)[0] if unreadable else n
    starts, ends = starts[:stop * ncols].reshape(stop, ncols), ends[:stop * ncols].reshape(stop, ncols)
    escaped = None if escaped is None else escaped[:stop * ncols].reshape(stop, ncols)
    rows = slice(offset, offset + stop)
    for j, cdef in enumerate(cdefs if stop else ()):
        s, e = starts[:, j], ends[:, j]
        texts = _cell_texts(data, s, e, None if escaped is None else escaped[:, j], errors)
        try:
            values, null = _convert_cells(cdef, buf, s, e, texts)
        except _CellError as err:  # in a record before `stop`, so before those above
            unreadable.append((err.offset, 3 + j, f", column {cdef.name}: {err}"))
            continue
        column = columns[cdef.name]
        column.values[rows] = values
        column.null[rows] = null
    if unreadable:
        row, _, text = min(unreadable)
        raise DataError(f"table {table}: row {offset + row + 1}{text}")


def _increasing(col: Column) -> bool:
    """Whether `col` holds int64 keys, none null, each larger than the one
    before: such keys are unique."""
    v = col.values
    return col.dtype is DataType.INT64 and not col.null.any() and bool((v[1:] > v[:-1]).all())


def _check_primary_key(tdef: TableDef, col: Column) -> None:
    """Raise at the first null or repeated key, in row order."""
    if _increasing(col):
        return
    if len(set(col.values.tolist())) == len(col.values) and not col.null.any():
        return
    seen: set = set()
    for i, (key, null) in enumerate(zip(col.values.tolist(), col.null.tolist())):
        if null:
            raise DataError(f"table {tdef.name}: row {i + 1}: null primary key")
        if key in seen:
            raise DataError(f"table {tdef.name}: duplicate primary key {key!r}")
        seen.add(key)


def _resolve_fk(fkcol: Column, parent: TableData) -> np.ndarray:
    """Parent row of each child row, -1 where the key is null or dangling."""
    forward = np.full(len(fkcol.values), -1, dtype=np.int64)
    if not parent.nrows or not len(forward):
        return forward
    if fkcol.dtype is DataType.INT64:
        pkcol = parent.column(parent.definition.primary_key)
        pk = pkcol.values
        if int(pk[-1]) - int(pk[0]) == len(pk) - 1 and _increasing(pkcol):
            # Dense keys: key k is row k - first. The range test comes
            # first, so the subtraction stays inside int64.
            hit = (fkcol.values >= pk[0]) & (fkcol.values <= pk[-1]) & ~fkcol.null
            np.subtract(fkcol.values, pk[0], out=forward, where=hit)
            return forward
        sorter = np.argsort(pk, kind="stable")
        sorted_pk = pk[sorter]
        pos = np.minimum(np.searchsorted(sorted_pk, fkcol.values), len(sorted_pk) - 1)
        hit = (sorted_pk[pos] == fkcol.values) & ~fkcol.null
        forward[hit] = sorter[pos[hit]]
    else:  # a dict took 0.28 s against 1.14 s for a sorted search over 1M string keys
        pk_index = parent.pk_index
        forward[:] = [pk_index.get(v, -1) for v in fkcol.values.tolist()]
        forward[fkcol.null] = -1
    return forward


# ---------------------------------------------------------------------------
# CSV writer

# A block of rows is laid out in one (rows, width) array, padding included;
# a chunk whose widest cells would make it larger is written in halves.
_BLOCK_BYTES = 1 << 24
# Digits after the point that a float's cell is built from, at most.
_FLOAT_PLACES = 6
# Each number below 10,000 as four ASCII digits in one uint32, and its digit count.
_FOUR_DIGITS = np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0"))
_FOUR_DIGITS = _FOUR_DIGITS.view(np.uint32)[:, 0]
_GROUP_DIGITS = np.repeat(np.arange(1, 5, dtype=np.uint8), [10, 90, 900, 9000])


class _Cells(NamedTuple):
    """One column's cells in a block of rows, as bytes. `data` is an
    (n, width) uint8 array whose row i holds cell i, from its column
    `starts[i]` (0 if `starts` is None) on; or the cells' bytes back to
    back. `lengths` holds each cell's length in bytes, `quote` marks the
    cells to quote and `cr` those holding a carriage return (None: no such
    cell)."""

    data: np.ndarray
    lengths: np.ndarray
    starts: Optional[np.ndarray] = None
    quote: Optional[np.ndarray] = None
    cr: Optional[np.ndarray] = None

    @property
    def width(self) -> int:
        return self.data.shape[1] if self.data.ndim == 2 else int(self.lengths.max(initial=0))


def _digits(magnitude: np.ndarray, negative: np.ndarray, places: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """The decimal digits of uint64 magnitudes, four at a time from a
    table: an (n, width) uint8 array whose row i ends with value i's
    digits, zero-padded to whole groups of four and to `places` digits or
    more, with a minus sign just before its leading digit where
    `negative`; and each value's length, its sign and its digits without
    leading zeros."""
    groups = -(-max(len(str(magnitude.max(initial=0))), places) // 4)
    data = np.empty((len(magnitude), groups + 1), dtype=np.uint32)  # room for a sign, then the groups
    digits = np.ones(len(magnitude), dtype=np.int64)
    for g in range(groups):
        magnitude, low = np.divmod(magnitude, 10000)
        data[:, groups - g] = _FOUR_DIGITS[low]
        np.copyto(digits, 4 * g + _GROUP_DIGITS[low], where=low > 0)
    data = data.view(np.uint8)
    lengths = digits + negative
    data[negative, data.shape[1] - lengths[negative]] = _MINUS
    return data, lengths


def _int_cells(values: np.ndarray) -> _Cells:
    """Decimal int64 cells, from each value's magnitude as a uint64 (so
    -2**63 is exact)."""
    negative = values < 0
    magnitude = values.view(np.uint64)
    data, lengths = _digits(np.where(negative, -magnitude, magnitude), negative)
    data = data[:, data.shape[1] - int(lengths.max(initial=1)):]
    return _Cells(data, lengths, starts=data.shape[1] - lengths)


def _float_cells(values: np.ndarray, null: Optional[np.ndarray]) -> _Cells:
    """`repr` cells. A value from 1e-4 up to 1e15 that is the float nearest
    a decimal of at most 15 significant digits, at most `_FLOAT_PLACES` of
    them after the point, has that decimal as its shortest round-trip text,
    which `repr` spells in fixed notation: such cells are built from the
    decimal's digits, and the other cells by `repr`."""
    magnitude = np.abs(values)
    small = np.where(magnitude < 1e15, magnitude, 0.0)  # no overflow below
    places = np.full(len(values), -1)  # digits after the point, or -1 for `repr`
    if null is not None:
        places[null] = 0
    scaled = np.zeros(len(values))
    for k in range(_FLOAT_PLACES + 1):  # the fewest places win
        m = np.rint(small * 10.0**k)
        hit = (m / 10.0**k == magnitude) & (m < 1e15) & (places < 0)
        np.copyto(places, k, where=hit)
        np.copyto(scaled, m, where=hit)
        if places.min(initial=0) >= 0:
            break
    places[(magnitude < 1e-4) & (magnitude != 0)] = -1
    slow = np.flatnonzero(places < 0)
    places[slow] = 0  # their cells are replaced below
    width = max(int(places.max(initial=0)), 1)  # the fraction digits laid out
    whole, fraction = np.divmod(scaled.astype(np.uint64), _POW10_INT[places])
    head, lengths = _digits(whole, np.signbit(values))
    tail = _digits(fraction * _POW10_INT[width - places], np.zeros(len(values), dtype=np.bool_), width)[0]
    data = np.concatenate([head, np.full((len(values), 1), _DOT, dtype=np.uint8), tail[:, -width:]], axis=1)
    starts = head.shape[1] - lengths
    lengths += 1 + np.maximum(places, 1)  # a whole number shows ".0"
    if len(slow):
        text = _text_cells(list(map(repr, values[slow].tolist())))
        if text.width > data.shape[1]:
            data = np.pad(data, ((0, 0), (0, text.width - data.shape[1])))
        data[slow, :text.width] = _left_aligned(text)
        starts[slow], lengths[slow] = 0, text.lengths
    return _Cells(data, lengths, starts)


def _text_cells(cells: List[str]) -> _Cells:
    """Text cells back to back in UTF-8. A cell holding a comma, a quote or
    a line feed is to be quoted, and each of its quotes is doubled; `cr`
    marks the cells holding a carriage return."""
    text = "".join(cells)
    data = np.frombuffer(text.encode(), dtype=np.uint8)
    lengths = np.fromiter(map(len, cells if text.isascii() else map(str.encode, cells)), np.int64, len(cells))
    if not any(c in text for c in ',"\n\r'):
        return _Cells(data, lengths)
    ends = np.cumsum(lengths)

    def cells_with(mask: np.ndarray) -> np.ndarray:
        return np.searchsorted(ends, np.flatnonzero(mask), side="right")

    quotes = data == _QUOTE
    quote = np.zeros(len(cells), dtype=np.bool_)
    quote[cells_with(quotes | (data == _COMMA) | (data == _NL))] = True
    cr = np.zeros(len(cells), dtype=np.bool_)
    cr[cells_with(data == _CR)] = True
    if quotes.any():
        lengths = lengths + np.bincount(cells_with(quotes), minlength=len(cells))
        data = np.repeat(data, quotes + 1)
    return _Cells(data, lengths, quote=quote, cr=cr if cr.any() else None)


def _left_aligned(cells: _Cells) -> np.ndarray:
    """The (n, width) array of cells given back to back."""
    data = np.zeros((len(cells.lengths), cells.width), dtype=np.uint8)
    data[np.arange(cells.width) < cells.lengths[:, None]] = cells.data
    return data


def _label_cells(labels: Sequence[str], codes: np.ndarray, null: Optional[np.ndarray]) -> _Cells:
    """The cells `labels[codes]` by table lookup, empty at nulls."""
    table = _text_cells([*labels, ""])
    if null is not None:
        codes = np.where(null, len(labels), codes)
    return _Cells(_left_aligned(table)[codes], table.lengths[codes],
                  quote=None if table.quote is None else table.quote[codes],
                  cr=None if table.cr is None else table.cr[codes])


def _column_cells(dtype: Union[DataType, ListType, LabelType], values, null: Optional[np.ndarray]) -> _Cells:
    """The CSV cells of one column slice, given as a numpy array or a list
    of Python values: '' at nulls, `str` ints, canonical timestamps,
    true/false, `repr` floats, and a list as the JSON array of its
    elements' values (timestamps as text). Raises `_CellError` at the first
    timestamp outside years 0001-9999."""
    if dtype is DataType.BOOL:
        return _label_cells(("false", "true"), np.asarray(values, dtype=np.bool_).view(np.uint8), null)
    if isinstance(dtype, LabelType):
        return _label_cells(dtype.labels, values, null)
    if dtype is DataType.INT64:
        cells = _int_cells(np.asarray(values, dtype=np.int64))
    elif dtype is DataType.FLOAT64:
        cells = _float_cells(np.asarray(values, dtype=np.float64), null)
    elif dtype is DataType.TIMESTAMP:
        values = np.asarray(values, dtype=np.int64)
        if null is not None:  # a null cell's value is never written
            values = np.where(null, 0, values)
        outside = (values < MIN_MICROS) | (values > MAX_MICROS)
        if outside.any():
            i = int(np.argmax(outside))
            raise _CellError(i, f"timestamp {values[i]} is outside years 0001-9999")
        data, lengths = canonical_cells(values)
        cells = _Cells(data.T, lengths)
    else:
        if isinstance(dtype, ListType):
            spell = format_timestamp if dtype.element is DataType.TIMESTAMP else lambda v: v
            text = [json.dumps([spell(v) for v in value]) for value in values]
        else:
            text = values.tolist() if isinstance(values, np.ndarray) else list(values)
        if null is not None:
            for i in np.flatnonzero(null).tolist():
                text[i] = ""
        return _text_cells(text)
    if null is not None:
        cells.lengths[null] = 0
    return cells


def _rows(columns: Sequence[_Cells]) -> np.ndarray:
    """The CSV bytes of a block of rows. Each row's cells, quotes and
    separators are laid out in one (n, width) array, and one boolean
    compaction keeps their bytes in row-major order. A row with a carriage
    return in any cell has every cell quoted, and a row of one empty cell
    is written as a quoted empty cell."""
    if not columns:
        return np.frombuffer(b"\n", dtype=np.uint8)
    crs = [c.cr for c in columns if c.cr is not None]
    whole = np.logical_or.reduce(crs) if crs else None
    quotes = []
    for c in columns:
        marks = [m for m in (c.quote, whole) if m is not None]
        if len(columns) == 1:
            marks.append(c.lengths == 0)
        quote = np.logical_or.reduce(marks) if marks else None
        quotes.append(quote if quote is not None and quote.any() else None)
    n = len(columns[0].lengths)
    width = sum(c.width + 1 + 2 * (q is not None) for c, q in zip(columns, quotes))
    out = np.empty((n, width), dtype=np.uint8)
    # Built a byte position at a time, so each of its rows is contiguous.
    keep = np.empty((width, n), dtype=np.bool_)
    at = 0
    for c, quote in zip(columns, quotes):
        if quote is not None:
            out[:, at], keep[at] = _QUOTE, quote
            at += 1
        w = c.width
        span, mask = np.arange(w)[:, None], keep[at:at + w]
        if c.starts is None:
            np.less(span, c.lengths, out=mask)
        else:
            ends = c.starts + c.lengths
            np.greater_equal(span, c.starts, out=mask)
            if ends.min(initial=w) < w:
                mask &= span < ends
        if c.data.ndim == 2:
            out[:, at:at + w] = c.data
        else:
            out[:, at:at + w][mask.T] = c.data
        at += w
        if quote is not None:
            out[:, at], keep[at] = _QUOTE, quote
            at += 1
        out[:, at], keep[at] = _COMMA, True
        at += 1
    out[:, -1] = _NL
    return np.compress(keep.T.ravel(), out.ravel())


def _write_block(fh: BinaryIO, header: Sequence[str], columns: Sequence[Tuple], lo: int, hi: int) -> None:
    """Write rows lo..hi, in halves while their byte array would pass `_BLOCK_BYTES`."""
    cells = []
    for name, (dtype, values, null) in zip(header, columns):
        try:
            cells.append(_column_cells(dtype, values[lo:hi], None if null is None else null[lo:hi]))
        except _CellError as exc:
            raise DataError(f"column {name}: row {lo + exc.offset + 1}: {exc}") from None
    if hi - lo > 1 and (hi - lo) * sum(c.width + 3 for c in cells) > _BLOCK_BYTES:
        mid = (lo + hi) // 2
        _write_block(fh, header, columns, lo, mid)
        _write_block(fh, header, columns, mid, hi)
    else:
        fh.write(_rows(cells))


def write_csv(path: Path, header: Sequence[str], columns: Sequence[Tuple]) -> None:
    """Write an RFC-4180 file with LF line endings: the header, then the
    rows, `_CHUNK_ROWS` at a time, each chunk's bytes assembled by numpy
    and written at once. A column is a `(dtype, values, null)` triple: its
    values as a numpy array or a list of Python values, and a bool null
    mask or None. Every CSV file pql writes goes through here. A
    timestamp outside years 0001-9999 is a `DataError` naming its column
    and row."""
    nrows = len(columns[0][1]) if columns else 0
    with open(path, "wb") as fh:
        # The header's cells are quoted as any cell is, except that a
        # carriage return in a name does not quote the whole row.
        fh.write(_rows([_text_cells([name])._replace(cr=None) for name in header]))
        for lo in range(0, nrows, _CHUNK_ROWS):
            _write_block(fh, header, columns, lo, min(lo + _CHUNK_ROWS, nrows))


def save_table_csv(db: Database, table: str, path: Path) -> None:
    data = db.table(table)
    cols = [data.column(n) for n in data.definition.column_names]
    write_csv(path, data.definition.column_names, [(c.dtype, c.values, c.null) for c in cols])


def save_database(db: Database, directory: Path) -> None:
    """Write schema.json plus one <table>.csv per table into `directory`."""
    directory.mkdir(parents=True, exist_ok=True)
    schema_text = json.dumps(schema_to_json(db.schema), indent=2) + "\n"
    (directory / "schema.json").write_text(schema_text, encoding="utf-8")
    for name in db.schema.tables:
        save_table_csv(db, name, directory / f"{name.lower()}.csv")


def load_database(schema_path: Path, data_dir: Path, *, strict: bool = True) -> Database:
    schema = load_schema(Path(schema_path))
    db = new_database(schema)
    # Parents before children so strict FK checks can resolve.
    for name in _load_order(schema):
        path = Path(data_dir) / f"{name.lower()}.csv"
        if path.exists():
            load_table_data(db, name, path, strict=strict)
    return db


def _load_order(schema: Schema) -> List[str]:
    """Topological order over FK dependencies (parents first); cycles fall
    back to name order for the remainder."""
    remaining = dict(schema.tables)
    ordered: List[str] = []
    placed: set = set()
    while remaining:
        progressed = False
        for name in sorted(remaining):
            deps = {fk.references for fk in remaining[name].foreign_keys} - {name}
            if deps <= placed:
                ordered.append(name)
                placed.add(name)
                del remaining[name]
                progressed = True
        if not progressed:
            ordered.extend(sorted(remaining))
            break
    return ordered


# ---------------------------------------------------------------------------
# Row graph


def _sort_by_key(keys: np.ndarray, rows: np.ndarray, n_rows: int, bound: int) -> Tuple[np.ndarray, np.ndarray]:
    """`rows` and `keys` ordered by key, ties in row order: what a stable
    argsort of `keys` gives, for `rows` increasing and below `n_rows` and
    `keys` in [0, bound). Where the packed key `key * n_rows + row` fits in
    int64 it is unique, so one plain sort of it gives both (on a 2-core VM,
    a stable argsort of 1.2M transactions' keys took 5-8x as long);
    otherwise a stable argsort."""
    if bound * n_rows > 1 << 63:
        perm = np.argsort(keys, kind="stable")
        return rows[perm], keys[perm]
    packed = keys * n_rows
    packed += rows
    packed.sort()
    order = packed % n_rows
    packed //= n_rows
    return order, packed


@dataclass
class EdgeIndex:
    """CSR adjacency for one FK edge, built by `Database.edge_index` the
    first time a query reads the edge, and kept on the child table.

    `order` lists child row indices grouped by parent; within a parent the
    dated children come first sorted by time (ties keep load order), then
    undated children in load order.

    `keys` aligns with `order` and is non-decreasing: slot `s` holding a
    child of parent `p` has key `p * K + rank`, where `rank` is the dense
    rank of the child's time in `time_values` (the child table's sorted
    distinct times, shared by its edges) and an undated child has rank
    `K - 1`, with `K = radix = len(time_values) + 1`. Rank order is time
    order, so a window [lo, hi) of parent `p` is the slot range between
    `searchsorted(keys, p * K + searchsorted(time_values, lo))` and the
    same search with `hi`.
    """

    edge: FkEdge
    indptr: np.ndarray  # parent row -> slice start in `order`
    order: np.ndarray
    keys: np.ndarray
    time_values: np.ndarray
    # Per-slot time rank for full-scan gathers, aligned with `order`;
    # `kernels._edge_slot_arrays` builds it on first use.
    slot_ranks: Optional[np.ndarray] = None

    @property
    def radix(self) -> int:
        """K: one more than the number of distinct child times."""
        return len(self.time_values) + 1


def build_row_graph(db: Database) -> Database:
    """`db` itself, which serves its own row-graph edges. Nothing in pql
    calls it; it stays only until the benchmark's warm set-up stops
    calling it."""
    return db
