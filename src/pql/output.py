"""Deterministic file output for materialized tables.

Training and prediction tables go to CSV (RFC-4180, LF line endings) with a
JSON metadata sidecar; list-valued targets are JSON-encoded into a single
cell. Identical tables produce identical bytes regardless of worker count.
"""

from __future__ import annotations

import csv
import functools
import json
from pathlib import Path
from typing import List

from .engine import PredictionTable, TrainingTable
from .times import format_timestamp


def _target_formatter(dtype_name: str):
    if dtype_name.startswith("list<"):
        element = dtype_name[5:-1]

        def fmt_list(value) -> str:
            if element == "timestamp":
                return json.dumps([format_timestamp(v) for v in value])
            return json.dumps(list(value))

        return fmt_list
    if dtype_name == "timestamp":
        return format_timestamp
    if dtype_name == "bool":
        return lambda v: "true" if v else "false"
    if dtype_name == "float64":
        return lambda v: repr(float(v))
    return str


def write_training_table(table: TrainingTable, out_dir: Path, basename: str = "training") -> List[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{basename}.csv"
    meta_path = out_dir / f"{basename}.meta.json"
    fmt = _target_formatter(table.metadata["task"]["target_dtype"])
    temporal = "TIMESTAMP" in table.columns
    # A table has a few tens of anchors at most, repeated on every row.
    format_anchor = functools.lru_cache(maxsize=None)(format_timestamp)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.columns)
        for key, anchor, target, split in table.rows:
            rec = [str(key)]
            if temporal:
                rec.append(format_anchor(anchor))
            rec.append(fmt(target))
            rec.append(split)
            writer.writerow(rec)
    meta_path.write_text(json.dumps(table.metadata, indent=2, sort_keys=True) + "\n")
    return [csv_path, meta_path]


def write_prediction_table(
    table: PredictionTable, out_dir: Path, basename: str = "prediction"
) -> List[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{basename}.csv"
    meta_path = out_dir / f"{basename}.meta.json"
    temporal = "TIMESTAMP" in table.columns
    # A table has a few tens of anchors at most, repeated on every row.
    format_anchor = functools.lru_cache(maxsize=None)(format_timestamp)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.columns)
        for key, anchor in table.rows:
            rec = [str(key)]
            if temporal:
                rec.append(format_anchor(anchor))
            writer.writerow(rec)
    paths = [csv_path, meta_path]
    if table.candidates is not None:
        cand_path = out_dir / "candidates.csv"
        with open(cand_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["CANDIDATE"])
            for value in table.candidates:
                writer.writerow([str(value)])
        paths.append(cand_path)
    meta_path.write_text(json.dumps(table.metadata, indent=2, sort_keys=True) + "\n")
    return paths
