"""The CSV writer: `write_csv` writes the bytes that the `csv` module's
writer wrote from per-cell Python text, which `reference_csv` keeps."""

import csv
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pql import store
from pql.errors import DataError
from pql.store import DataType, LabelType, ListType, write_csv
from pql.times import MAX_MICROS, MIN_MICROS, format_timestamp

# Cells that need quoting, or look as if they might: delimiters, quotes,
# every line break the csv module or `str.splitlines` knows, non-ASCII text.
HARD = [",", '"', '""', "\n", "\r", "\r\n", "a\rb", " ", "\u0085", "ü中", "", " ", "x,y", 'say "hi"']


def reference_cells(dtype, values, null):
    """One column slice's cells as Python text, as the writer once spelled
    them one cell at a time."""
    if isinstance(dtype, ListType):
        spell = format_timestamp if dtype.element is DataType.TIMESTAMP else lambda v: v
        cells = [json.dumps([spell(v) for v in value]) for value in values]
    elif isinstance(dtype, LabelType):
        cells = [dtype.labels[code] for code in np.asarray(values).tolist()]
    elif dtype is DataType.TIMESTAMP:
        cells = [format_timestamp(v) for v in np.asarray(values).tolist()]
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


def reference_csv(path, header, columns, chunk_rows=16384):
    """The writer as it was, through `csv.writer`: a row with a carriage
    return in a string cell is quoted whole, since the csv module quotes
    only cells holding a character of its "\\n" line terminator."""
    text = [i for i, (dtype, _, _) in enumerate(columns) if dtype is DataType.STRING or isinstance(dtype, LabelType)]
    nrows = len(columns[0][1]) if columns else 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(header)
        for lo in range(0, nrows, chunk_rows):
            part = slice(lo, lo + chunk_rows)
            cells = [reference_cells(dtype, values[part], None if null is None else null[part])
                     for dtype, values, null in columns]
            for row in zip(*cells):
                (quoted if any("\r" in row[i] for i in text) else writer).writerow(row)


def both(header, columns):
    """(write_csv bytes, reference bytes) of one table."""
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "ours.csv", Path(tmp) / "theirs.csv"
        write_csv(ours, header, columns)
        reference_csv(theirs, header, columns)
        return ours.read_bytes(), theirs.read_bytes()


def objects(items):
    out = np.empty(len(items), dtype=object)
    out[:] = items
    return out


INT64_EXTREMES = [-(2**63), -(2**63) + 1, -1, 0, 1, 9, 10, 9999, 10000, 99999999, 10**18, 2**63 - 1]
FLOAT_EDGES = [-0.0, 0.0, math.inf, -math.inf, 5e-324, 1e22, 1e16, 0.1, math.nan, -1.7976931348623157e308]
TIME_EDGES = [MIN_MICROS, MAX_MICROS, 0, -1, 1, 10**6, -(10**6)]
texts = st.one_of(st.sampled_from(HARD), st.text(max_size=6))
ELEMENTS = {
    DataType.INT64: st.one_of(st.sampled_from(INT64_EXTREMES), st.integers(-(2**63), 2**63 - 1)),
    DataType.FLOAT64: st.one_of(st.sampled_from(FLOAT_EDGES), st.floats()),
    DataType.BOOL: st.booleans(),
    DataType.STRING: texts,
    DataType.TIMESTAMP: st.one_of(st.sampled_from(TIME_EDGES), st.integers(MIN_MICROS, MAX_MICROS),
                                  st.integers(MIN_MICROS // 10**6, MAX_MICROS // 10**6).map(lambda s: s * 10**6)),
}
NUMPY = {DataType.INT64: np.int64, DataType.FLOAT64: np.float64, DataType.BOOL: np.bool_,
         DataType.TIMESTAMP: np.int64}


@st.composite
def column(draw, nrows):
    """A (dtype, values, null) triple of any dtype the writer takes."""
    kind = draw(st.sampled_from([*DataType, "list", "label"]))
    if kind == "list":
        element = draw(st.sampled_from([DataType.INT64, DataType.STRING, DataType.TIMESTAMP]))
        dtype = ListType(element)
        values = objects([tuple(draw(st.lists(ELEMENTS[element], max_size=3))) for _ in range(nrows)])
    elif kind == "label":
        dtype = LabelType(tuple(draw(st.lists(texts, min_size=1, max_size=3))))
        values = np.array(draw(st.lists(st.integers(0, len(dtype.labels) - 1), min_size=nrows, max_size=nrows)),
                          dtype=np.int8)
    else:
        dtype = kind
        items = draw(st.lists(ELEMENTS[kind], min_size=nrows, max_size=nrows))
        values = objects(items) if kind is DataType.STRING else np.array(items, dtype=NUMPY[kind])
        if draw(st.booleans()):
            values = list(items)  # a list of Python values, as the candidates are given
    null = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=nrows, max_size=nrows).map(np.array)))
    if null is not None and kind is DataType.STRING:
        values = objects([None if n else v for v, n in zip(values, null)])
    return dtype, values, null


@st.composite
def tables(draw):
    nrows = draw(st.integers(0, 8))
    columns = draw(st.lists(column(nrows), min_size=1, max_size=4))
    header = draw(st.lists(st.one_of(st.sampled_from(["ENTITY", "TARGET", "A B"]), texts),
                           min_size=len(columns), max_size=len(columns)))
    return header, columns


class TestMatchesTheReference:
    @settings(max_examples=300, deadline=None)
    @given(tables(), st.sampled_from([(3, 1 << 24), (16384, 1 << 24), (4, 64)]))
    def test_bytes_equal_the_reference(self, table, sizes):
        chunk_rows, block_bytes = sizes
        header, columns = table
        with mock.patch.object(store, "_CHUNK_ROWS", chunk_rows), mock.patch.object(store, "_BLOCK_BYTES", block_bytes):
            ours, theirs = both(header, columns)
        assert ours == theirs

    @pytest.mark.parametrize("dtype, items", [
        (DataType.INT64, INT64_EXTREMES),
        (DataType.FLOAT64, FLOAT_EDGES),
        (DataType.TIMESTAMP, TIME_EDGES),
        (DataType.BOOL, [True, False]),
        (DataType.STRING, HARD),
    ])
    def test_edge_values(self, dtype, items):
        values = objects(items) if dtype is DataType.STRING else np.array(items, dtype=NUMPY[dtype])
        for column in ([(dtype, values, None)], [(DataType.INT64, np.arange(len(items)), None), (dtype, values, None)]):
            ours, theirs = both([c[0].value for c in column], column)
            assert ours == theirs

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.builds(lambda m, k: m / 10**k, st.integers(-(10**16), 10**16),
                                                     st.integers(0, 9))), max_size=40))
    def test_float_cells_are_their_repr(self, items):
        ours, theirs = both(["F"], [(DataType.FLOAT64, np.array(items, dtype=np.float64), None)])
        assert ours == theirs

    def test_decimals_of_every_size_are_their_repr(self):
        rng = np.random.default_rng(7)
        values = np.concatenate(
            [np.round(rng.uniform(-(10.0**e), 10.0**e, 200), k) for e in range(-6, 18, 2) for k in range(10)]
            + [np.array([1e-4, 9.9999e-5, 1e15, 1e15 - 1, 999999999999999.9, 99999999999999.98, 0.1 + 0.2,
                         1 / 3, 2.5, 1e16, 123456.123456, 0.000123456, 1234567.1234567, -0.0, 0.0])])
        null = rng.random(len(values)) < 0.1
        for column in ((DataType.FLOAT64, values, None), (DataType.FLOAT64, values, null)):
            ours, theirs = both(["F"], [column])
            assert ours == theirs

    def test_list_cells_holding_strings(self):
        values = objects([tuple(HARD), (), ("a",), ("\r",)])
        ours, theirs = both(["TARGET"], [(ListType(DataType.STRING), values, None)])
        assert ours == theirs
        assert ours.count(b"\n") == 5  # JSON escapes every line break

    @pytest.mark.parametrize("dtype, values, null", [
        (DataType.STRING, objects([""]), None),
        (DataType.STRING, objects([None]), np.array([True])),
        (DataType.INT64, np.array([7]), np.array([True])),
        (DataType.TIMESTAMP, np.array([0]), np.array([True])),
        (LabelType(("",)), np.array([0]), None),
    ])
    def test_one_column_file_whose_cell_is_empty(self, dtype, values, null):
        ours, theirs = both(["A"], [(dtype, values, null)])
        assert ours == theirs == b'A\n""\n'

    @pytest.mark.parametrize("header", [[], [""], ["A"], ["A", "B"], ["a,b", 'q"', "c\rr"]])
    def test_empty_tables(self, header):
        columns = [(DataType.INT64, np.zeros(0, dtype=np.int64), None) for _ in header]
        ours, theirs = both(header, columns)
        assert ours == theirs

    def test_a_carriage_return_quotes_its_row_only(self):
        columns = [(DataType.INT64, np.arange(3), None), (DataType.STRING, objects(["a", "b\rc", "d"]), None),
                   (DataType.TIMESTAMP, np.array([0, 10**6, 1]), np.array([False, True, False]))]
        ours, theirs = both(["I", "S", "T"], columns)
        assert ours == theirs
        assert ours.split(b"\n")[2] == b'"1","b\rc",""'

    def test_a_wide_cell_writes_the_chunk_in_blocks(self):
        cells = ["x" * 200_000 if i == 5 else str(i) for i in range(40)]
        columns = [(DataType.STRING, objects(cells), None), (DataType.INT64, np.arange(40), None)]
        with mock.patch.object(store, "_BLOCK_BYTES", 1 << 16):
            ours, theirs = both(["S", "I"], columns)
        assert ours == theirs


class TestUnwritableTimestamps:
    @pytest.mark.parametrize("value", [2**62, -(2**62), MAX_MICROS + 1, MIN_MICROS - 1, 2**63 - 1, -(2**63)])
    def test_out_of_range_is_a_data_error_naming_column_and_row(self, value, tmp_path):
        values = np.array([0, 1, value, value], dtype=np.int64)
        with mock.patch.object(store, "_CHUNK_ROWS", 2):
            with pytest.raises(DataError, match=r"column ANCHOR: row 3: timestamp .* outside years 0001-9999"):
                write_csv(tmp_path / "t.csv", ["KEY", "ANCHOR"],
                          [(DataType.INT64, np.arange(4), None), (DataType.TIMESTAMP, values, None)])

    def test_a_null_cell_is_not_checked(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["T"], [(DataType.TIMESTAMP, np.array([2**62, 0]), np.array([True, False]))])
        assert (tmp_path / "t.csv").read_bytes() == b'T\n""\n1970-01-01T00:00:00Z\n'
