"""Command-line interface.

Commands: validate, infer, plan, train-table, predict-table, sample,
gen-data, bench. Options resolve as flags > config file > defaults; the
config file is a JSON object whose keys mirror the long option names with
underscores (e.g. {"schema": "s.json", "anchors": 12}). A malformed option
value, from a flag or the config file, is a validation failure that names
the option.

Exit codes: 0 success, 1 validation failure, 2 empty result, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, get_args, get_type_hints

from .bench import format_report, run_bench
from .binder import bind
from .engine import materialize_prediction, materialize_training
from .errors import ExecutionError, PlanError, PqlError
from .output import write_prediction_table, write_training_table
from .parser import parse
from .planner import AnchorPolicy, explain, plan_prediction, plan_to_json, plan_training, resolve_anchors
from .sampler import build_request, collect, compute_on_subgraph, sample_pairs
from .splits import SplitPolicy
from .store import build_row_graph, load_database, load_schema
from .synth import GenSpec, generate, hm_genspec
from .store import save_database
from .times import format_duration, format_timestamp, parse_duration, parse_timestamp

EXIT_OK, EXIT_VALIDATION, EXIT_EMPTY, EXIT_IO = 0, 1, 2, 3


@dataclass
class RunConfig:
    schema: Optional[str] = None
    data_dir: Optional[str] = None
    query: Optional[str] = None
    query_file: Optional[str] = None
    out_dir: str = "out"
    anchors: int = 10
    stride: Optional[str] = None
    latest: Optional[str] = None
    at: Optional[str] = None
    split: str = "0.8,0.1,0.1"
    seed: int = 0
    workers: int = 0  # 0 = available parallelism
    strategy: str = "optimized"
    mode: str = "training"
    lenient_fk: bool = False
    pairs: int = 100
    runs: int = 5
    keep_empty_labels: Optional[bool] = None


_CONFIG_FIELDS = set(RunConfig.__dataclass_fields__)
_CONFIG_TYPES = {name: get_args(hint) or hint for name, hint in get_type_hints(RunConfig).items()}


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        doc = json.loads(Path(args.config).read_text())
        unknown = set(doc) - _CONFIG_FIELDS
        if unknown:
            raise PqlError(f"unknown config keys: {sorted(unknown)}")
        for key, value in doc.items():
            if not isinstance(value, _CONFIG_TYPES[key]):
                raise PqlError(f"config key {key!r} has the wrong type: {value!r}")
            setattr(cfg, key, value)
    for key in _CONFIG_FIELDS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def _query_text(cfg: RunConfig) -> str:
    if cfg.query and cfg.query_file:
        raise PqlError("give exactly one of --query / --query-file")
    if cfg.query:
        return cfg.query
    if cfg.query_file:
        return Path(cfg.query_file).read_text()
    raise PqlError("no query given; use --query or --query-file")


def _load_schema(cfg: RunConfig):
    if not cfg.schema:
        raise PqlError("no schema given; use --schema")
    return load_schema(Path(cfg.schema))


def _load_db(cfg: RunConfig):
    if not cfg.data_dir:
        raise PqlError("no data directory given; use --data-dir")
    if not Path(cfg.data_dir).is_dir():
        raise FileNotFoundError(f"data directory {cfg.data_dir} does not exist")
    if not cfg.schema:
        candidate = Path(cfg.data_dir) / "schema.json"
        if candidate.exists():
            cfg.schema = str(candidate)
    if not cfg.schema:
        raise PqlError("no schema given; use --schema")
    return load_database(Path(cfg.schema), Path(cfg.data_dir), strict=not cfg.lenient_fk)


def _option(name: str, parse: Callable, text: Optional[str], default=None):
    """`parse(text)`, or `default` when the option is not given; a malformed
    value fails as a `PqlError` that names the option."""
    if not text:
        return default
    try:
        return parse(text)
    except (ValueError, OverflowError) as exc:
        raise PqlError(f"--{name}: {exc}") from None


def _policy(cfg: RunConfig) -> AnchorPolicy:
    stride = _option("stride", parse_duration, cfg.stride, "auto")
    latest = _option("latest", parse_timestamp, cfg.latest, "auto")
    return AnchorPolicy(count=cfg.anchors, stride=stride, latest=latest)


def _split(cfg: RunConfig) -> SplitPolicy:
    parts = _option("split", lambda text: [float(x) for x in text.split(",")], cfg.split, [])
    if len(parts) != 3:
        raise PqlError(f"--split needs three comma-separated ratios, got {cfg.split!r}")
    return SplitPolicy(*parts, seed=cfg.seed)


def _pairs(cfg: RunConfig) -> int:
    if cfg.pairs < 1:
        raise PqlError(f"--pairs must be at least 1, got {cfg.pairs}")
    return cfg.pairs


def _workers(cfg: RunConfig) -> int:
    if cfg.workers and cfg.workers > 0:
        return cfg.workers
    import os

    return os.cpu_count() or 1


def _bound(cfg: RunConfig, schema=None):
    text = _query_text(cfg)
    schema = schema or _load_schema(cfg)
    return bind(parse(text), schema), text


# ---------------------------------------------------------------------------
# Commands


def cmd_validate(cfg: RunConfig, args) -> int:
    try:
        bound, _ = _bound(cfg)
    except PqlError as exc:
        if args.json:
            print(json.dumps([exc.diagnostic().to_json()], indent=2))
        else:
            print(exc.diagnostic(), file=sys.stderr)
        return EXIT_VALIDATION
    summary = f"task={bound.task.task_type.value}, frame={bound.timeframe.describe()}"
    if args.json:
        print(json.dumps({"diagnostics": [], "task": bound.task.to_json(),
                          "timeframe": bound.timeframe.to_json()}, indent=2))
    else:
        print(f"ok: {summary}")
    return EXIT_OK


def cmd_infer(cfg: RunConfig, args) -> int:
    bound, _ = _bound(cfg)
    doc = {
        "task": bound.task.to_json(),
        "timeframe": bound.timeframe.to_json(),
        "leakage": bound.leakage.to_json(),
        "entity": {"table": bound.entity_table, "column": bound.entity_column},
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_plan(cfg: RunConfig, args) -> int:
    bound, _ = _bound(cfg)
    if cfg.mode == "prediction":
        plan = plan_prediction(bound, _option("at", parse_timestamp, cfg.at))
    else:
        plan = plan_training(bound, _policy(cfg), optimized=cfg.strategy != "naive")
    if args.json:
        print(json.dumps(plan_to_json(plan), indent=2))
    else:
        print(explain(plan), end="")
    return EXIT_OK


def cmd_train_table(cfg: RunConfig, args) -> int:
    db = _load_db(cfg)
    bound, _ = _bound(cfg, db.schema)
    plan = plan_training(bound, _policy(cfg), optimized=cfg.strategy != "naive")
    table = materialize_training(
        plan,
        db,
        split=_split(cfg),
        workers=_workers(cfg),
        keep_empty_labels=cfg.keep_empty_labels,
    )
    paths = write_training_table(table, Path(cfg.out_dir))
    dropped = table.metadata["dropped"]
    print(
        f"rows={table.row_count} splits={table.metadata['split_counts']} "
        f"dropped={ {k: v for k, v in dropped.items() if v} or '{}' }"
    )
    for p in paths:
        print(f"wrote {p}")
    if table.row_count == 0:
        print("empty result: no entity passed the filters", file=sys.stderr)
        return EXIT_EMPTY
    return EXIT_OK


def cmd_predict_table(cfg: RunConfig, args) -> int:
    db = _load_db(cfg)
    bound, _ = _bound(cfg, db.schema)
    plan = plan_prediction(bound, _option("at", parse_timestamp, cfg.at))
    table = materialize_prediction(plan, db)
    paths = write_prediction_table(table, Path(cfg.out_dir))
    cand = table.metadata.get("candidate_count")
    extra = f" candidates={cand}" if cand is not None else ""
    print(f"rows={len(table.rows)}{extra}")
    for p in paths:
        print(f"wrote {p}")
    if len(table.rows) == 0:
        print("empty result: no entity passed the filters", file=sys.stderr)
        return EXIT_EMPTY
    return EXIT_OK


def cmd_sample(cfg: RunConfig, args) -> int:
    pairs = _pairs(cfg)
    db = _load_db(cfg)
    bound, _ = _bound(cfg, db.schema)
    g = build_row_graph(db)
    anchor = _option("at", parse_timestamp, cfg.at)
    anchors = resolve_anchors(bound, _policy(cfg), db) if not bound.is_static else []
    if anchor is not None and not bound.is_static and anchor not in anchors:
        # Splits rank anchors on this grid, so an anchor off it has no split.
        raise PlanError(f"--at {format_timestamp(anchor)} is not on the anchor grid ({_describe_grid(anchors)}); "
                        "pick one of its anchors, or move the grid with --latest and --stride")
    pair_list = sample_pairs(db, g, bound, pairs, anchor=anchor)
    if not pair_list:
        print("no active entities to sample", file=sys.stderr)
        return EXIT_EMPTY
    request = build_request(bound, pair_list)
    sub = collect(g, request)
    table = compute_on_subgraph(
        bound, sub, pair_list, anchors_for_split=anchors,
        split=_split(cfg), keep_empty_labels=cfg.keep_empty_labels,
    )
    paths = write_training_table(table, Path(cfg.out_dir), basename="sample")
    frac = sub.touched_rows / max(1, db.total_rows())
    print(
        f"pairs={len(pair_list)} rows={table.row_count} "
        f"rows_touched={sub.touched_rows} ({frac:.3%} of {db.total_rows()})"
    )
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK if table.row_count else EXIT_EMPTY


def _describe_grid(anchors: List[int]) -> str:
    if not anchors:
        return "no anchors"
    text = f"{len(anchors)} anchor{'s' if len(anchors) > 1 else ''}, newest {format_timestamp(anchors[0])}"
    if len(anchors) > 1:
        text += f", every {format_duration(anchors[0] - anchors[1])} back to {format_timestamp(anchors[-1])}"
    return text


def cmd_gen_data(cfg: RunConfig, args) -> int:
    if args.genspec:
        spec = GenSpec.from_json(json.loads(Path(args.genspec).read_text()))
    else:
        spec = hm_genspec(scale=args.scale, seed=cfg.seed, validity=args.validity,
                          upscale=args.upscale)
    db = generate(spec)
    out = Path(cfg.out_dir)
    save_database(db, out)
    (out / "genspec.json").write_text(json.dumps(spec.to_json(), indent=2) + "\n")
    counts = ", ".join(f"{name.lower()}={db.nrows(name)}" for name in db.schema.tables)
    print(f"wrote {out}: {counts}")
    return EXIT_OK


def cmd_bench(cfg: RunConfig, args) -> int:
    if cfg.data_dir:
        db = _load_db(cfg)
    else:
        db = generate(hm_genspec(scale=args.scale, seed=cfg.seed))
    query = _query_text(cfg)
    paths = [p.strip() for p in args.paths.split(",") if p.strip()]
    report = run_bench(
        db,
        query,
        paths=paths,
        runs=cfg.runs,
        pairs=_pairs(cfg),
        anchors=cfg.anchors,
        seed=cfg.seed,
        # Timing comparisons run single-threaded unless asked otherwise.
        workers=cfg.workers if cfg.workers > 0 else 1,
    )
    print(format_report(report))
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(p: argparse.ArgumentParser, *, query: bool = True, data: bool = False, seed: bool = False):
    p.add_argument("--config", help="JSON config file; flags override it")
    if query:
        p.add_argument("--schema", help="schema JSON path")
        p.add_argument("--query", help="query text")
        p.add_argument("--query-file", dest="query_file", help="file containing the query")
    if seed:
        p.add_argument("--seed", type=int, default=None)
    if data:
        p.add_argument("--data-dir", dest="data_dir", help="directory of <table>.csv files")
        p.add_argument("--out-dir", dest="out_dir", default=None)
        p.add_argument("--lenient-fk", dest="lenient_fk", action="store_const", const=True,
                       default=None, help="keep rows with dangling foreign keys")
        p.add_argument("--workers", type=int, default=None)


def _add_anchor_flags(p: argparse.ArgumentParser):
    p.add_argument("--anchors", type=int, default=None, help="anchor count (default 10)")
    p.add_argument("--stride", default=None, help="anchor spacing, e.g. 45d (default: one timeframe)")
    p.add_argument("--latest", default=None, help="latest anchor timestamp (ISO-8601)")


def _add_label_flags(p: argparse.ArgumentParser):
    p.add_argument("--split", default=None, help="train,val,test ratios for static splits")
    p.add_argument(
        "--keep-empty-labels",
        dest="keep_empty_labels",
        action="store_const",
        const=True,
        default=None,
        help="keep rows whose list label is empty (default: dropped for ranking tasks)",
    )


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="pql",
        description="Predictive query toolchain: validate, plan and materialize "
        "leakage-free training tables over relational CSV data.",
    )
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and bind a query against a schema")
    _add_common(p)
    p.add_argument("--json", action="store_true", help="machine-readable diagnostics")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("infer", help="print the inferred task, timeframe and leakage spec")
    _add_common(p)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("plan", help="print the staged logical plan")
    _add_common(p)
    p.add_argument("--mode", choices=["training", "prediction"], default=None)
    p.add_argument("--strategy", choices=["optimized", "naive"], default=None)
    p.add_argument("--at", default=None, help="prediction anchor (ISO-8601)")
    _add_anchor_flags(p)
    p.add_argument("--json", action="store_true", help="dump the plan as JSON")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("train-table", help="materialize the training table")
    _add_common(p, data=True, seed=True)
    _add_anchor_flags(p)
    _add_label_flags(p)
    p.add_argument("--strategy", choices=["optimized", "naive"], default=None)
    p.set_defaults(fn=cmd_train_table)

    p = sub.add_parser("predict-table", help="materialize the prediction table")
    # --workers is accepted and unused (prediction runs on one thread), so
    # callers can pass the same flags to every data command.
    _add_common(p, data=True)
    p.add_argument("--at", default=None, help="prediction anchor (ISO-8601, default: latest event)")
    p.set_defaults(fn=cmd_predict_table)

    p = sub.add_parser("sample", help="low-latency labels for the most recently active entities")
    # --workers is accepted and unused (sampling runs on one thread), so
    # callers can pass the same flags to every data command.
    _add_common(p, data=True, seed=True)
    _add_anchor_flags(p)
    _add_label_flags(p)
    p.add_argument("--pairs", type=int, default=None, help="number of (entity, anchor) pairs")
    p.add_argument("--at", default=None, help="anchor override (ISO-8601)")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("gen-data", help="generate a synthetic retail-shaped database")
    _add_common(p, query=False, seed=True)
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.add_argument("--scale", type=float, default=0.001,
                   help="template scale; 1.0 = 31M transactions (default 0.001)")
    p.add_argument("--genspec", default=None, help="generator spec JSON file")
    p.add_argument("--validity", action="store_true", help="add customer validity intervals")
    p.add_argument("--upscale", type=int, default=1,
                   help="duplicate customer/transaction partitions this many times")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("bench", help="compare execution paths on one query")
    # --out-dir is accepted and unused (--out names the report file), so
    # callers can pass the same flags to every data command.
    _add_common(p, data=True, seed=True)
    p.add_argument("--paths", default="optimized,unoptimized,sampler,oracle",
                   help="comma list: optimized,unoptimized,sampler,oracle")
    p.add_argument("--runs", type=int, default=None, help="timed runs per path (median reported)")
    p.add_argument("--pairs", type=int, default=None, help="pairs for the sampler path")
    p.add_argument("--anchors", type=int, default=None, help="anchor count (default 10)")
    p.add_argument("--scale", type=float, default=0.001,
                   help="template scale when no --data-dir is given")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(fn=cmd_bench)

    return root


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        return args.fn(cfg, args)
    except ExecutionError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return EXIT_EMPTY
    except PqlError as exc:
        print(str(exc.diagnostic()), file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"i/o error: bad JSON: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
