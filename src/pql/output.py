"""Deterministic file output for materialized tables.

Training, sample and prediction tables go to CSV with a JSON metadata
sidecar. `store.write_csv` writes every CSV file as bytes that numpy
assembles a chunk of rows at a time, so result cells are spelled, and
rows quoted, exactly as `save_table_csv` writes table cells. This module
only hands it a table's whole columns with their dtypes: the entity
key's, timestamps for anchors, the target's (a list target becomes one
JSON cell) and the split codes, written as their `SPLITS` labels by
lookup. Identical tables produce identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Tuple

from .engine import PredictionTable, TrainingTable
from .splits import SPLITS
from .store import DataType, LabelType, write_csv


def _write(table, out_dir: Path, basename: str, *more: Tuple) -> List[Path]:
    """The CSV file of the table's keys, anchors and columns `more`, and its metadata sidecar."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    anchors = [] if table.anchors is None else [(DataType.TIMESTAMP, table.anchors, None)]
    csv_path = out_dir / f"{basename}.csv"
    write_csv(csv_path, table.columns, [(table.key_dtype, table.keys, None), *anchors, *more])
    meta_path = out_dir / f"{basename}.meta.json"
    meta_path.write_text(json.dumps(table.metadata, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return [csv_path, meta_path]


def write_training_table(table: TrainingTable, out_dir: Path, basename: str = "training") -> List[Path]:
    return _write(table, out_dir, basename, (table.target_dtype, table.values, None),
                  (LabelType(tuple(SPLITS)), table.splits, None))


def write_prediction_table(
    table: PredictionTable, out_dir: Path, basename: str = "prediction"
) -> List[Path]:
    paths = _write(table, out_dir, basename)
    if table.candidates is not None:
        # Candidates are keys of the table the list target's elements reference.
        paths.append(Path(out_dir) / "candidates.csv")
        write_csv(paths[-1], ["CANDIDATE"], [(table.target_dtype.element, table.candidates, None)])
    return paths
