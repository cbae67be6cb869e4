"""Benchmark harness comparing the execution paths on one query.

Paths: the brute-force oracle (only sensible on small data), the
unoptimized cross-product plan, the optimized staged plan, and the
subgraph-sampler path for a fixed number of (entity, anchor) pairs.
Each timed region covers parse-bind-plan-execute for that path; the
database is loaded outside it, and builds each row-graph edge a path reads
on first use, in that path's untimed warm-up run (the oracle reads no
edge). `parse` and `bind` serve a repeated query from their caches, so
every run goes through `_cold_bind`, which empties both first: each run,
warm-up included, tokenizes, parses and binds the text afresh, as a first
request would.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from . import binder, parser
from .binder import BoundQuery
from .engine import evaluate_pairs, materialize_training
from .oracle import oracle_training
from .planner import AnchorPolicy, plan_training, resolve_anchors
from .sampler import build_request, collect, compute_on_subgraph, sample_pairs
from .splits import SplitPolicy
from .store import Database

ORACLE_ROW_LIMIT = 20_000
# The paths `run_bench` knows, in the order `pql bench` runs them by default.
PATHS = ("optimized", "unoptimized", "sampler", "oracle")


@dataclass
class PathResult:
    path: str
    runs_s: List[float] = field(default_factory=list)
    rows_out: int = 0
    rows_touched: Optional[int] = None
    note: str = ""

    @property
    def median_s(self) -> Optional[float]:
        return statistics.median(self.runs_s) if self.runs_s else None

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "median_s": self.median_s,
            "runs_s": self.runs_s,
            "rows_out": self.rows_out,
            "rows_touched": self.rows_touched,
            "note": self.note or None,
        }


@dataclass
class BenchReport:
    query: str
    total_rows: int
    results: Dict[str, PathResult]

    def ratio(self, slow: str, fast: str) -> Optional[float]:
        a, b = self.results.get(slow), self.results.get(fast)
        if not a or not b or a.median_s is None or not b.median_s:
            return None
        return a.median_s / b.median_s

    def to_json(self) -> dict:
        out = {
            "query": self.query,
            "total_rows": self.total_rows,
            "paths": {k: v.to_json() for k, v in self.results.items()},
            "ratios": {},
        }
        r = self.ratio("unoptimized", "optimized")
        if r is not None:
            out["ratios"]["unoptimized_over_optimized"] = r
        r = self.ratio("batch_restricted", "sampler")
        if r is not None:
            out["ratios"]["batch_over_sampler"] = r
        if "sampler" in self.results and self.results["sampler"].rows_touched is not None:
            out["sampler_touched_fraction"] = (
                self.results["sampler"].rows_touched / max(1, self.total_rows)
            )
        return out


def _timed_group(fns: Dict[str, object], runs: int, warmup: bool = True):
    """Time several callables with interleaved runs, so drift in machine
    load lands on every path evenly instead of skewing one of them.
    Returns ({name: result}, {name: samples}). GC stays off inside the
    timed regions to keep medians free of collector pauses."""
    import gc

    results = {}
    if warmup:
        for name, fn in fns.items():
            results[name] = fn()
    samples: Dict[str, List[float]] = {name: [] for name in fns}
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(runs):
            for name, fn in fns.items():
                t0 = time.perf_counter()
                results[name] = fn()
                samples[name].append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return results, samples


def _timed(fn, runs: int, warmup: bool = True):
    results, samples = _timed_group({"fn": fn}, runs, warmup)
    return results["fn"], samples["fn"]


def _cold_bind(text: str, schema) -> BoundQuery:
    """Parse and bind `text` with the front-end caches emptied first."""
    parser._parse_text.cache_clear()
    binder._clear_memo()
    return binder.bind(parser.parse(text), schema)


def run_bench(
    db: Database,
    query_text: str,
    *,
    paths: List[str],
    runs: int = 5,
    pairs: int = 100,
    anchors: int = 10,
    seed: int = 0,
) -> BenchReport:
    policy = AnchorPolicy(count=anchors)
    split = SplitPolicy(seed=seed)
    results: Dict[str, PathResult] = {}
    total_rows = db.total_rows()

    bound0 = _cold_bind(query_text, db.schema)

    def optimized():
        bound = _cold_bind(query_text, db.schema)
        plan = plan_training(bound, policy)
        return materialize_training(plan, db, split=split)

    def unoptimized():
        bound = _cold_bind(query_text, db.schema)
        plan = plan_training(bound, policy, optimized=False)
        return materialize_training(plan, db, split=split)

    batch_fns = {}
    if "optimized" in paths:
        batch_fns["optimized"] = optimized
    if "unoptimized" in paths:
        batch_fns["unoptimized"] = unoptimized
    if batch_fns:
        tables, samples = _timed_group(batch_fns, runs)
        for name in batch_fns:
            results[name] = PathResult(name, samples[name], rows_out=tables[name].row_count)
    if "oracle" in paths:
        if total_rows > ORACLE_ROW_LIMIT:
            results["oracle"] = PathResult(
                "oracle", note=f"skipped: {total_rows} rows exceeds the {ORACLE_ROW_LIMIT}-row guard"
            )
        else:
            resolved = resolve_anchors(bound0, policy, db)

            def oracle():
                bound = _cold_bind(query_text, db.schema)
                return oracle_training(bound, db, resolved, split=split)

            table, samples = _timed(oracle, runs, warmup=False)
            results["oracle"] = PathResult("oracle", samples, rows_out=len(table.rows))

    if "sampler" in paths:
        pair_list = sample_pairs(db, bound0, pairs)
        resolved = resolve_anchors(bound0, policy, db) if not bound0.is_static else []

        def sampler():
            bound = _cold_bind(query_text, db.schema)
            request = build_request(bound, pair_list)
            sub = collect(db, request)
            table = compute_on_subgraph(
                bound, sub, pair_list, anchors_for_split=resolved, split=split
            )
            return table, sub

        # Reference: full batch materialization, then restrict to the pairs:
        # the key column picks the candidate rows, and only their tuples are
        # built for the exact (key, anchor) check.
        def batch_restricted():
            table = optimized()
            keys = {
                (db.value(ref, db.table(ref.table).definition.primary_key), anchor)
                for ref, anchor in pair_list
            }
            wanted = np.array([k for k, _ in keys], dtype=table.keys.dtype)
            near = np.nonzero(np.isin(table.keys, wanted))[0]
            near_table = replace(
                table,
                keys=table.keys[near],
                anchors=None if table.anchors is None else table.anchors[near],
                values=table.values[near],
                splits=table.splits[near],
            )
            return [r for r in near_table.rows if (r[0], r[1]) in keys]

        outs, samples = _timed_group(
            {"sampler": sampler, "batch_restricted": batch_restricted}, runs
        )
        table, sub = outs["sampler"]
        results["sampler"] = PathResult(
            "sampler", samples["sampler"], rows_out=table.row_count, rows_touched=sub.touched_rows
        )
        rows = outs["batch_restricted"]
        results["batch_restricted"] = PathResult(
            "batch_restricted", samples["batch_restricted"], rows_out=len(rows)
        )
        pairs_table = evaluate_pairs(
            db, bound0, pair_list, anchors_for_split=resolved, split=split
        )
        if rows != pairs_table.rows:
            results["sampler"].note = "WARNING: restricted batch disagrees with pair evaluation"

    return BenchReport(query_text, total_rows, results)


def format_report(report: BenchReport) -> str:
    lines = [f"total rows: {report.total_rows}"]
    for name, res in report.results.items():
        if res.median_s is None:
            lines.append(f"{name:18s} {res.note}")
            continue
        extra = f"  rows_out={res.rows_out}"
        if res.rows_touched is not None:
            frac = res.rows_touched / max(1, report.total_rows)
            extra += f"  rows_touched={res.rows_touched} ({frac:.3%} of db)"
        if res.note:
            extra += f"  [{res.note}]"
        lines.append(f"{name:18s} median {res.median_s * 1e3:9.2f} ms{extra}")
    r = report.ratio("unoptimized", "optimized")
    if r is not None:
        lines.append(f"unoptimized / optimized speed ratio: {r:.2f}x")
    r = report.ratio("batch_restricted", "sampler")
    if r is not None:
        lines.append(f"full batch / sampler speed ratio:    {r:.2f}x")
    return "\n".join(lines)
