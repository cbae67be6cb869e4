"""In-memory relational store.

Schema metadata, columnar table storage with null bitmaps, and a derived
row graph: one CSR adjacency per foreign-key edge, with each parent's
children sorted by their event time, so that a time window covers one
contiguous run of the parent's dated children. Undated children sit after
the dated ones in load order.

Identifiers are case-insensitive and canonicalized to upper case. A table's
time column and validity columns must hold timestamps (stored as integer
microseconds since epoch, UTC). Databases are immutable once loaded; the
row graph and each table's primary-key index are built lazily and cached.

Every file pql reads or writes is UTF-8 text, whatever the locale. CSV
load works column at a time, by one of two tokenizers and one set of
converters. A file given as a `Path` goes to the byte tokenizer
(`_read_file`): it reads blocks of about `_CHUNK_ROWS` records cut after a
line break, numpy finds the offsets of each block's commas and line
breaks, one check confirms that every record has one field per column, and
the converters turn each column's cells into values straight from their
bytes (int64, float64, bool, canonical timestamps via
`times.canonical_micros`; strings are cut from the block's decoded text).
Anything the byte tokenizer does not fully accept (a quote, carriage
return or NUL byte, a blank line, a missing final line break, a wrong
field count, a cell a converter refuses, a disallowed null, text that is
not UTF-8) sends the whole table to the csv tokenizer (`_read_csv`), which
reads text and file objects too: the `csv` module splits records, a chunk
of them at a time, and each column slice goes to the same converters as
one cell per line; `_parse_cell`, which defines the accepted values and
the error text, reads each cell they refuse. The first error in row order
raises `DataError` with its row number, so errors never depend on the
tokenizer. `write_csv` writes every CSV file pql writes, tables and
results alike, from whole columns: `_format_cells` spells a column's
chunk of `_CHUNK_ROWS` cells in one pass, and a row holding a lone
carriage return is quoted whole.
`_resolve_fk` maps foreign keys to parent rows once, for the load check;
the row graph reuses that mapping while its parent table is still the one
loaded.
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DataError, SchemaError
from .times import canonical_micros, format_timestamp, format_timestamps, parse_timestamp


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


def _parse_column(raw: dict, table: str) -> ColumnDef:
    try:
        name = raw["name"].upper()
        dtype = DataType(raw["dtype"].lower())
        stype = SemanticType(raw["stype"].lower())
    except KeyError as exc:
        raise SchemaError(f"table {table}: column entry missing {exc}")
    except ValueError as exc:
        raise SchemaError(f"table {table}: {exc}")
    if dtype not in _STYPE_DTYPES[stype]:
        raise SchemaError(
            f"table {table}: column {name}: bad dtype/stype combination "
            f"({dtype.value}/{stype.value})"
        )
    return ColumnDef(name, dtype, stype, nullable=bool(raw.get("nullable", True)))


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
    if not isinstance(doc, dict) or "tables" not in doc:
        raise SchemaError("schema document must be an object with a 'tables' list")

    tables: Dict[str, TableDef] = {}
    for raw in doc["tables"]:
        name = raw.get("name", "").upper()
        if not name:
            raise SchemaError("table entry missing 'name'")
        if name in tables:
            raise SchemaError(f"duplicate table {name}")
        columns = tuple(_parse_column(c, name) for c in raw.get("columns", []))
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
        if raw.get("primary_key"):
            pk = _col(raw["primary_key"], "primary key")
            if pk.stype is not SemanticType.KEY:
                raise SchemaError(f"table {name}: primary key {pk.name} must have stype 'key'")
            primary_key = pk.name

        time_column = None
        if raw.get("time_column"):
            tc = _col(raw["time_column"], "time")
            if tc.dtype is not DataType.TIMESTAMP:
                raise SchemaError(f"table {name}: time column {tc.name} must be a timestamp")
            time_column = tc.name

        validity = None
        if raw.get("validity"):
            v = raw["validity"]
            start = v.get("start")
            end = v.get("end")
            if start is None and end is None:
                raise SchemaError(f"table {name}: validity needs a start or end column")
            for part in (start, end):
                if part is not None and _col(part, "validity").dtype is not DataType.TIMESTAMP:
                    raise SchemaError(f"table {name}: validity column {part} must be a timestamp")
            validity = (start.upper() if start else None, end.upper() if end else None)

        fks = []
        for rawfk in raw.get("foreign_keys", []):
            col = _col(rawfk["column"], "foreign key")
            if col.stype is not SemanticType.KEY:
                raise SchemaError(f"table {name}: foreign key {col.name} must have stype 'key'")
            fks.append(ForeignKey(col.name, rawfk["references"].upper()))

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
# The csv module refuses a field over 131,072 characters by default, while
# `save_table_csv` writes cells of any length. The limit is process-wide in
# the csv module, so it is raised once here, to the largest C long on every
# platform, for every saved table to load back.
csv.field_size_limit(2**31 - 1)
_BOOL_CELLS = {"true": True, "1": True, "t": True, "false": False, "0": False, "f": False}
_NL, _COMMA, _MINUS, _PLUS, _DOT, _EXP = b"\n,-+.e"
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


def _convert_slice(cells: Tuple[str, ...], cdef: ColumnDef) -> Tuple[np.ndarray, np.ndarray]:
    """(values, null mask) of one column slice of the csv tokenizer, as
    `_parse_cell` reads each cell; raises `_CellError` at the slice's first
    bad or disallowed cell. The converters read the slice's text as bytes,
    one cell per line; `_parse_cell` reads each cell they refuse."""
    if cdef.dtype is DataType.STRING:
        values = np.array(_shared(cells), dtype=object)
        null = values == ""
        values[null] = None
        refused: Iterable[int] = ()
    else:
        # An unencodable character becomes "?", which every converter refuses.
        buf = np.frombuffer(("\n".join(cells) + "\n").encode(errors="replace"), dtype=np.uint8)
        ends = np.flatnonzero(buf == _NL)
        if len(ends) == len(cells):
            starts = np.concatenate(([0], ends[:-1] + 1))
            values, refused_mask = _CONVERTERS[cdef.dtype](buf, starts, ends)
            null = starts == ends
            refused = np.flatnonzero(refused_mask).tolist()
        else:  # a cell holds a line break
            values = np.zeros(len(cells), dtype=_NUMPY_DTYPE[cdef.dtype])
            null = np.zeros(len(cells), dtype=np.bool_)
            refused = range(len(cells))
    bad = None
    for i in refused:
        try:
            value = _parse_cell(cells[i], cdef.dtype)
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


def _format_cells(dtype: Union[DataType, ListType], values, null: Optional[np.ndarray]) -> list:
    """CSV cells of one column slice, given as a numpy array or a sequence
    of Python values: '' at nulls, canonical timestamps, `repr` floats,
    `str` ints, true/false, and a list as the JSON array of its elements'
    values (timestamps as text)."""
    if isinstance(dtype, ListType):
        spell = format_timestamp if dtype.element is DataType.TIMESTAMP else lambda v: v
        cells = [json.dumps([spell(v) for v in value]) for value in values]
    elif dtype is DataType.TIMESTAMP:
        # A column of anchors repeats a few values on every row.
        distinct, index = np.unique(values, return_inverse=True)
        cells = np.array(format_timestamps(distinct), dtype=object)[index].tolist()
    elif dtype is DataType.BOOL:
        cells = np.where(values, "true", "false").tolist()
    else:
        if isinstance(values, np.ndarray):
            values = values.tolist()
        if dtype is not DataType.STRING:
            values = map(repr if dtype is DataType.FLOAT64 else str, values)
        cells = list(values)
    if null is not None:
        for i in np.flatnonzero(null).tolist():
            cells[i] = ""
    return cells


@dataclass
class TableData:
    definition: TableDef
    columns: Dict[str, Column]
    nrows: int
    _pk_index: Optional[Dict[object, int]] = field(default=None, repr=False)
    # Foreign-key column -> (the parent TableData the load check resolved
    # it against, child row -> parent row); the row graph reuses it while
    # that parent is still the loaded one.
    fk_forward: Dict[str, Tuple[Optional["TableData"], np.ndarray]] = field(default_factory=dict, repr=False)

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


@dataclass
class LoadReport:
    table: str
    rows: int
    dangling_fk: int = 0
    samples: List[str] = field(default_factory=list)


@dataclass
class Database:
    schema: Schema
    tables: Dict[str, TableData] = field(default_factory=dict)
    reports: List[LoadReport] = field(default_factory=list)
    _graph: Optional["RowGraph"] = field(default=None, repr=False)
    _time_range: Optional[tuple] = field(default=None, repr=False)

    def table(self, name: str) -> TableData:
        upper = name.upper()
        if upper not in self.tables:
            raise DataError(f"no data loaded for table {name}")
        return self.tables[upper]

    def nrows(self, name: str) -> int:
        upper = name.upper()
        return self.tables[upper].nrows if upper in self.tables else 0

    def total_rows(self) -> int:
        return sum(t.nrows for t in self.tables.values())

    def value(self, ref: RowRef, column: str):
        return self.table(ref.table).column(column).get(ref.index)

    def _event_time_range(self) -> tuple:
        # Cached; the database is immutable once loaded.
        if self._time_range is None:
            lo = hi = None
            for t in self.tables.values():
                tc = t.definition.time_column
                if tc is None or t.nrows == 0:
                    continue
                col = t.column(tc)
                dated = ~col.null
                if dated.any():
                    vals = col.values[dated]
                    a, b = int(vals.min()), int(vals.max())
                    lo = a if lo is None else min(lo, a)
                    hi = b if hi is None else max(hi, b)
            self._time_range = (lo, hi)
        return self._time_range

    def max_event_time(self) -> Optional[int]:
        """Latest value across all time columns, or None if no dated rows."""
        return self._event_time_range()[1]

    def min_event_time(self) -> Optional[int]:
        return self._event_time_range()[0]


def new_database(schema: Schema) -> Database:
    """Create an empty database; every table starts with zero rows."""
    db = Database(schema)
    for t in schema.tables.values():
        cols = {
            c.name: Column(
                c.dtype,
                np.empty(0, dtype=_NUMPY_DTYPE[c.dtype]),
                np.empty(0, dtype=np.bool_),
            )
            for c in t.columns
        }
        db.tables[t.name] = TableData(t, cols, 0)
    return db


def load_table_data(
    db: Database,
    table: str,
    rows: Union[str, Path, Iterable[str], io.TextIOBase],
    *,
    strict: bool = True,
) -> Database:
    """Load CSV rows (header required, '' = null) into `table`.

    In strict mode a foreign key value that does not resolve to a parent row
    is an error; in lenient mode the row is kept and counted in the report.
    Checks run against parents loaded so far, so load parent tables first.
    """
    tdef = db.schema.table(table)
    loaded = _read_file(tdef, rows) if isinstance(rows, Path) else None
    if loaded is None:
        loaded = _read_csv(tdef, rows)
    columns, nrows = loaded
    data = TableData(tdef, columns, nrows)
    report = LoadReport(tdef.name, nrows)
    if tdef.primary_key is not None:
        _check_primary_key(tdef, columns[tdef.primary_key])

    for fk in tdef.foreign_keys:
        fkcol = columns[fk.column]
        parent = db.tables.get(fk.references)
        forward = _resolve_fk(fkcol, parent)
        data.fk_forward[fk.column] = (parent, forward)
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

    db.tables[tdef.name] = data
    db.reports.append(report)
    db._graph = None
    db._time_range = None
    return db


def _read_file(tdef: TableDef, path: Path) -> Optional[Tuple[Dict[str, Column], int]]:
    """The byte tokenizer: the columns of a CSV file, or None when the file
    needs the csv tokenizer. That is when the header does not match the
    schema, and when a block fails `_convert_block`; the file then loads
    as if this function did not exist, errors and row numbers included.

    A first pass counts the line breaks, so each column is allocated once
    at its final size; the second reads blocks of about `_CHUNK_ROWS`
    records, cut after a line break, and converts them into place. Only
    one block's temporaries are alive at a time."""
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n") or any(b in line for b in (b'"', b"\r", b"\0")):
            return None
        try:
            header = line[:-1].decode().upper().split(",")
        except UnicodeDecodeError:
            return None
        if sorted(header) != sorted(tdef.column_names):
            return None
        total = sum(piece.count(b"\n") for piece in iter(lambda: fh.read(1 << 20), b""))
        fh.seek(len(line))
        columns = {
            c.name: Column(c.dtype, np.empty(total, dtype=_NUMPY_DTYPE[c.dtype]), np.empty(total, dtype=np.bool_))
            for c in tdef.columns
        }
        cdefs = [tdef.column(name) for name in header]
        nrows, row_bytes, tail = 0, len(line), b""
        while True:
            data = fh.read(max(_CHUNK_ROWS * row_bytes, 2 * len(tail)))
            if not data:
                if tail:  # no line break after the last record
                    return None
                break
            data = tail + data
            cut = data.rfind(b"\n") + 1
            block, tail = data[:cut], data[cut:]
            if not block:
                continue
            count = _convert_block(block, cdefs, columns, nrows)
            if count is None:
                return None
            nrows += count
            row_bytes = -(-len(block) // count)
    return (columns, nrows) if nrows == total else None


def _convert_block(block: bytes, cdefs: List[ColumnDef], columns: Dict[str, Column], offset: int) -> Optional[int]:
    """Convert whole CSV records into rows `offset`.. of `columns` and
    return their number, or None when the csv module could read them
    differently or `_parse_cell` must read a cell: any quote, carriage
    return or NUL byte, a blank line, a record without exactly one field
    per column, a cell a converter refuses, a null where none is allowed,
    or text that is not UTF-8."""
    if any(b in block for b in (b'"', b"\r", b"\0", b"\n\n")) or block[0] == _NL:
        return None
    buf = np.frombuffer(block, dtype=np.uint8)
    ncols, nrecords = len(cdefs), block.count(b"\n")
    offsets = np.int32 if len(block) < 2**31 else np.int64
    ends = np.flatnonzero((buf == _COMMA) | (buf == _NL)).astype(offsets)
    if len(ends) != nrecords * ncols or offset + nrecords > len(columns[cdefs[0].name].null):
        return None
    starts = np.empty_like(ends)
    starts[0], starts[1:] = 0, ends[:-1] + 1
    ends, starts = ends.reshape(nrecords, ncols), starts.reshape(nrecords, ncols)
    # Every record's last delimiter is a line break; with the count above,
    # each record holds exactly ncols fields.
    if (buf[ends[:, -1]] != _NL).any():
        return None
    rows = slice(offset, offset + nrecords)
    text = before = None
    for j, cdef in enumerate(cdefs):
        s, e = starts[:, j], ends[:, j]
        null = s == e
        if not cdef.nullable and null.any():
            return None
        column = columns[cdef.name]
        if cdef.dtype is DataType.STRING:
            if text is None:
                try:
                    text, before = _decode_block(block, buf, offsets)
                except UnicodeDecodeError:
                    return None
            if before is not None:  # byte offsets to character offsets
                s, e = s - before[s], e - before[e]
            column.values[rows] = _shared(map(text.__getitem__, map(slice, s.tolist(), e.tolist())))
            column.values[rows][null] = None
        else:
            values, refused = _CONVERTERS[cdef.dtype](buf, s, e)
            if refused.any():
                return None
            column.values[rows] = values
        column.null[rows] = null
    return nrecords


def _decode_block(block: bytes, buf: np.ndarray, offsets: type) -> Tuple[str, Optional[np.ndarray]]:
    """The block's UTF-8 text and, unless it is ASCII, the number of UTF-8
    continuation bytes before each byte offset (0..len(block))."""
    text = block.decode()
    if len(text) == len(block):
        return text, None
    before = np.zeros(len(block) + 1, dtype=offsets)
    np.cumsum((buf & 0xC0) == 0x80, out=before[1:])
    return text, before


def _read_csv(tdef: TableDef, rows) -> Tuple[Dict[str, Column], int]:
    """The csv tokenizer: the columns of CSV text, read by the csv module.
    A file is UTF-8 text; the first record holding bytes that are not
    fails as a `DataError` with its row."""
    if isinstance(rows, Path):
        # newline="" hands line breaks inside quoted cells to the csv
        # reader intact; only \r and \n end records, never U+2028 etc.
        with open(rows, encoding="utf-8", newline="") as fh:
            try:
                return _read_csv(tdef, fh)
            except UnicodeDecodeError:
                pass
        # The decoder reads ahead of the records, so read again with the
        # bad bytes escaped to find the record that holds them.
        with open(rows, encoding="utf-8", errors="surrogateescape", newline="") as fh:
            return _read_csv(tdef, map(_utf8_line, fh))
    if isinstance(rows, str):
        rows = io.StringIO(rows, newline="")
    reader = csv.reader(rows)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"table {tdef.name}: empty input, header row required")
    except csv.Error as exc:
        raise DataError(f"table {tdef.name}: header: {exc}")
    header = [h.upper() for h in header]
    if sorted(header) != sorted(tdef.column_names):
        raise DataError(
            f"table {tdef.name}: header {header} does not match schema columns "
            f"{list(tdef.column_names)}"
        )
    return _read_columns(tdef, header, reader)


def _utf8_line(line: str) -> str:
    """`line`, or a `csv.Error` when it holds an escaped byte that is not UTF-8."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        raise csv.Error("text is not UTF-8") from None
    return line


def _read_columns(tdef: TableDef, header: List[str], reader) -> Tuple[Dict[str, Column], int]:
    """Convert the CSV records after the header, a chunk of rows and one
    column slice at a time. The first error in row order (a short or long
    record, a bad cell, a disallowed null, a record the csv module refuses)
    raises `DataError` with its 1-based row."""
    cdefs = [tdef.column(name) for name in header]
    parts: Dict[str, list] = {name: [] for name in header}
    nrows = 0
    while True:
        chunk: List[list] = []
        try:
            chunk.extend(itertools.islice(reader, _CHUNK_ROWS))
            pending = None
        except csv.Error as exc:  # reported after the rows read before it
            pending = exc
        if not chunk and pending is None:
            break
        short = None
        if set(map(len, chunk)) - {len(header)}:
            short = next(i for i, record in enumerate(chunk) if len(record) != len(header))
            del chunk[short:]
        first: Optional[Tuple[int, str]] = None
        for cdef, cells in zip(cdefs, zip(*chunk)):
            try:
                values, null = _convert_slice(cells, cdef)
            except _CellError as err:
                if first is None or err.offset < first[0]:
                    first = (err.offset, f"column {cdef.name}: {err}")
                continue
            parts[cdef.name].append((values, null))
        if first is not None:
            raise DataError(f"table {tdef.name}: row {nrows + first[0] + 1}, {first[1]}")
        if short is not None:
            raise DataError(f"table {tdef.name}: row {nrows + short + 1}: expected {len(header)} fields")
        nrows += len(chunk)
        if pending is not None:
            raise DataError(f"table {tdef.name}: row {nrows + 1}: {pending}")

    columns: Dict[str, Column] = {}
    for cdef in tdef.columns:
        chunks = parts.pop(cdef.name)  # freed column by column
        if not chunks:
            empty = np.empty(0, dtype=_NUMPY_DTYPE[cdef.dtype])
            chunks = [(empty, np.empty(0, dtype=np.bool_))]
        values = np.concatenate([v for v, _ in chunks])
        null = np.concatenate([n for _, n in chunks])
        columns[cdef.name] = Column(cdef.dtype, values, null)
    return columns, nrows


def _check_primary_key(tdef: TableDef, col: Column) -> None:
    """Raise at the first null or repeated key, in row order."""
    if len(set(col.values.tolist())) == len(col.values) and not col.null.any():
        return
    seen: set = set()
    for i, (key, null) in enumerate(zip(col.values.tolist(), col.null.tolist())):
        if null:
            raise DataError(f"table {tdef.name}: row {i + 1}: null primary key")
        if key in seen:
            raise DataError(f"table {tdef.name}: duplicate primary key {key!r}")
        seen.add(key)


def _resolve_fk(fkcol: Column, parent: Optional[TableData]) -> np.ndarray:
    """Parent row of each child row, -1 where the key is null or dangling."""
    forward = np.full(len(fkcol.values), -1, dtype=np.int64)
    if parent is None or not parent.nrows or not len(forward):
        return forward
    if fkcol.dtype is DataType.INT64:
        pk = parent.column(parent.definition.primary_key).values
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


def write_csv(path: Path, header: Sequence[str], columns: Sequence[Tuple]) -> None:
    """Write an RFC-4180 file with LF line endings: the header, then the
    rows, `_CHUNK_ROWS` at a time. A column is a `(dtype, values, null)`
    triple: its values as a numpy array or a list of Python values, and a
    bool null mask or None. Every CSV file pql writes goes through here."""
    strings = [i for i, (dtype, _, _) in enumerate(columns) if dtype is DataType.STRING]
    nrows = len(columns[0][1]) if columns else 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(header)
        for lo in range(0, nrows, _CHUNK_ROWS):
            part = slice(lo, lo + _CHUNK_ROWS)
            cells = [_format_cells(dtype, values[part], None if null is None else null[part])
                     for dtype, values, null in columns]
            # The writer quotes only cells holding a character of its "\n"
            # line terminator, so a row with a lone "\r" in a string is
            # quoted whole.
            if not any("\r" in "".join(cells[i]) for i in strings):
                writer.writerows(zip(*cells))
                continue
            for row in zip(*cells):
                (quoted if any("\r" in row[i] for i in strings) else writer).writerow(row)


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


@dataclass
class EdgeIndex:
    """CSR adjacency for one FK edge.

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
    forward: np.ndarray  # child row -> parent row, -1 when null/dangling
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


class RowGraph:
    """Immutable heterogeneous row graph over a loaded database."""

    def __init__(self, db: Database):
        self.db = db
        self.edges: Dict[FkEdge, EdgeIndex] = {}
        ranked: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for edge in db.schema.edges():
            if edge.child_table not in ranked:
                ranked[edge.child_table] = self._time_ranks(db.tables.get(edge.child_table))
            self.edges[edge] = self._build_edge(db, edge, *ranked[edge.child_table])

    @staticmethod
    def _time_ranks(child: Optional[TableData]) -> Tuple[np.ndarray, np.ndarray]:
        """A child table's sorted distinct times, and each row's dense rank
        among them (undated rows rank last, at `len(time_values)`)."""
        tname = child.definition.time_column if child is not None else None
        if tname is None:
            n = child.nrows if child is not None else 0
            return np.empty(0, dtype=np.int64), np.zeros(n, dtype=np.int64)
        tcol = child.column(tname)
        dated = ~tcol.null
        time_values, inverse = np.unique(tcol.values[dated], return_inverse=True)
        ranks = np.full(len(tcol.values), len(time_values), dtype=np.int64)
        ranks[dated] = inverse
        return time_values, ranks

    @staticmethod
    def _build_edge(db: Database, edge: FkEdge, time_values: np.ndarray, ranks: np.ndarray) -> EdgeIndex:
        child = db.tables.get(edge.child_table)
        parent = db.tables.get(edge.parent_table)
        n_parent = parent.nrows if parent else 0

        if child:
            resolved_against, forward = child.fk_forward.get(edge.fk_column, (None, None))
            if forward is None or resolved_against is not parent:
                forward = _resolve_fk(child.column(edge.fk_column), parent)
        else:
            forward = np.empty(0, dtype=np.int64)
        linked = np.nonzero(forward >= 0)[0]
        radix = len(time_values) + 1
        # One stable sort of (parent, rank): dated before undated, then
        # time. Ties keep load order, which is what the window tie rule
        # requires.
        keys = forward[linked] * radix + ranks[linked]
        perm = np.argsort(keys, kind="stable")
        order = linked[perm]
        keys = keys[perm]
        indptr = np.searchsorted(keys, np.arange(n_parent + 1, dtype=np.int64) * radix)
        return EdgeIndex(edge, forward, indptr, order, keys, time_values)

    def edge_index(self, edge: FkEdge) -> EdgeIndex:
        if edge not in self.edges:
            raise DataError(f"no such foreign-key edge: {edge}")
        return self.edges[edge]


def build_row_graph(db: Database) -> RowGraph:
    """Build (or return the cached) row graph for a loaded database."""
    if db._graph is None:
        db._graph = RowGraph(db)
    return db._graph
