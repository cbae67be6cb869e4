"""Deterministic file output for materialized tables.

Training, sample and prediction tables go to CSV with a JSON metadata
sidecar. `store.write_csv` writes every CSV file, so result cells are
spelled, and rows quoted, exactly as `save_table_csv` writes table cells.
This module only turns each chunk of a table's rows into columns, formats
each distinct anchor once, and JSON-encodes list-valued targets into a
single cell. Identical tables produce identical bytes at any worker count.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Callable, List, Sequence

from .engine import PredictionTable, TrainingTable
from .store import DataType, write_csv
from .times import format_timestamp

# A table has a few tens of anchors at most, repeated on every row.
_format_anchor = functools.lru_cache(maxsize=1024)(format_timestamp)
# Rows turned into columns per write. The table is alive while it is
# written, so the slice's formatted cells add to the peak: slices of 16,384
# rows raised a 152k-row `train-table`'s peak RSS by 4.4 MB, slices of
# 1,024 rows by nothing measurable.
_SLICE_ROWS = 1024


def _write_rows(path: Path, header: Sequence[str], rows: Sequence, dtypes: List[DataType],
                columns: Callable[[Sequence], List[Sequence]]) -> Path:
    """Write `rows` one `_SLICE_ROWS` slice at a time, laid out as columns by
    `columns`. The first column holds keys: int64 or string values."""
    first_key = columns(rows[:1])[0][0] if rows else None
    key_dtype = DataType.STRING if isinstance(first_key, str) else DataType.INT64
    chunks = ([(values, None) for values in columns(rows[lo : lo + _SLICE_ROWS])]
              for lo in range(0, len(rows), _SLICE_ROWS))
    write_csv(path, header, [key_dtype, *dtypes], chunks)
    return path


def _write(table, out_dir: Path, basename: str, dtypes: List[DataType], columns: Callable) -> List[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = _write_rows(out_dir / f"{basename}.csv", table.columns, table.rows, dtypes, columns)
    meta_path = out_dir / f"{basename}.meta.json"
    meta_path.write_text(json.dumps(table.metadata, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return [csv_path, meta_path]


def write_training_table(table: TrainingTable, out_dir: Path, basename: str = "training") -> List[Path]:
    target = table.metadata["task"]["target_dtype"]
    temporal = "TIMESTAMP" in table.columns
    element = target[5:-1] if target.startswith("list<") else None

    def columns(chunk: Sequence) -> List[Sequence]:
        keys, anchors, targets, splits = zip(*chunk)
        if element == "timestamp":
            targets = [json.dumps([format_timestamp(v) for v in value]) for value in targets]
        elif element is not None:
            targets = [json.dumps(list(value)) for value in targets]
        return [keys, *([list(map(_format_anchor, anchors))] if temporal else []), targets, splits]

    # Anchors and list targets reach the writer as text.
    dtypes = [DataType.STRING] * temporal + [DataType(target) if element is None else DataType.STRING]
    return _write(table, out_dir, basename, dtypes + [DataType.STRING], columns)


def write_prediction_table(
    table: PredictionTable, out_dir: Path, basename: str = "prediction"
) -> List[Path]:
    temporal = "TIMESTAMP" in table.columns

    def columns(chunk: Sequence) -> List[Sequence]:
        keys, anchors = zip(*chunk)
        return [keys, *([list(map(_format_anchor, anchors))] if temporal else [])]

    paths = _write(table, out_dir, basename, [DataType.STRING] * temporal, columns)
    if table.candidates is not None:
        paths.append(_write_rows(Path(out_dir) / "candidates.csv", ["CANDIDATE"], table.candidates, [],
                                 lambda chunk: [chunk]))
    return paths
