"""Command-line interface.

Commands: validate, infer, plan, train-table, predict-table, sample,
gen-data, bench. `build_parser` is the one definition of every command's
options: their names, defaults and types. `--config run.json` names a JSON
object whose keys are long options in snake_case (e.g. {"schema": "s.json",
"anchors": 12}). Its values become the running command's defaults, so
explicit flags win, and a key that only another command takes is ignored.
A malformed option value, from a flag or the config file, is a validation
failure that names the option.

Exit codes: 0 success, 1 validation failure, 2 empty result, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

from .bench import format_report, run_bench
from .binder import bind
from .engine import materialize_prediction, materialize_training
from .errors import ExecutionError, PlanError, PqlError
from .output import write_prediction_table, write_training_table
from .parser import parse
from .planner import AnchorPolicy, explain, feasible_anchors, plan_prediction, plan_to_json, plan_training
from .sampler import build_request, collect, compute_on_subgraph, sample_pairs
from .splits import SplitPolicy
from .store import build_row_graph, load_database, load_schema, parse_json, save_database
from .synth import GenSpec, generate, hm_genspec
from .times import format_duration, format_timestamp, parse_duration, parse_timestamp

EXIT_OK, EXIT_VALIDATION, EXIT_EMPTY, EXIT_IO = 0, 1, 2, 3


def _read_text(path: str) -> str:
    """The UTF-8 text of the file at `path`; a file that is not UTF-8 fails
    as an I/O error that names it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from None


def _query_text(args) -> str:
    if args.query and args.query_file:
        raise PqlError("give exactly one of --query / --query-file")
    if args.query:
        return args.query
    if args.query_file:
        return _read_text(args.query_file)
    raise PqlError("no query given; use --query or --query-file")


def _load_db(args):
    if not args.data_dir:
        raise PqlError("no data directory given; use --data-dir")
    data_dir = Path(args.data_dir)
    if not data_dir.is_dir():
        raise FileNotFoundError(f"data directory {data_dir} does not exist")
    schema = args.schema
    if not schema and (data_dir / "schema.json").exists():
        schema = data_dir / "schema.json"
    if not schema:
        raise PqlError("no schema given; use --schema")
    db = load_database(Path(schema), data_dir, strict=not args.lenient_fk)
    for report in db.reports:
        if report.dangling_fk:
            many = "s" if report.dangling_fk > 1 else ""
            print(f"--lenient-fk: kept {report.dangling_fk} dangling foreign key{many} in {report.table}: "
                  f"{', '.join(report.samples)}", file=sys.stderr)
    return db


def _option(name: str, parse: Callable, text: Optional[str], default=None):
    """`parse(text)`, or `default` when the option is not given; a malformed
    value fails as a `PqlError` that names the option."""
    if not text:
        return default
    try:
        return parse(text)
    except (ValueError, OverflowError) as exc:
        raise PqlError(f"--{name}: {exc}") from None


def _at_least(args, name: str) -> int:
    value = getattr(args, name)
    if value < 1:
        raise PqlError(f"--{name} must be at least 1, got {value}")
    return value


def _scale(args) -> float:
    if not (math.isfinite(args.scale) and args.scale > 0):
        raise PqlError(f"--scale must be a finite number above 0, got {args.scale}")
    return args.scale


def _policy(args) -> AnchorPolicy:
    stride = _option("stride", parse_duration, args.stride, "auto")
    latest = _option("latest", parse_timestamp, args.latest, "auto")
    return AnchorPolicy(count=args.anchors, stride=stride, latest=latest)


def _split(args) -> SplitPolicy:
    parts = _option("split", lambda text: [float(x) for x in text.split(",")], args.split, [])
    if len(parts) != 3:
        raise PqlError(f"--split needs three comma-separated ratios, got {args.split!r}")
    return SplitPolicy(*parts, seed=args.seed)


def _bound(args, schema=None):
    text = _query_text(args)
    if schema is None and not args.schema:
        raise PqlError("no schema given; use --schema")
    return bind(parse(text), schema or load_schema(Path(args.schema)))


# ---------------------------------------------------------------------------
# Commands


def cmd_validate(args) -> int:
    try:
        bound = _bound(args)
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


def cmd_infer(args) -> int:
    bound = _bound(args)
    doc = {
        "task": bound.task.to_json(),
        "timeframe": bound.timeframe.to_json(),
        "leakage": bound.leakage.to_json(),
        "entity": {"table": bound.entity_table, "column": bound.entity_column},
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_plan(args) -> int:
    bound = _bound(args)
    if args.mode == "prediction":
        plan = plan_prediction(bound, _option("at", parse_timestamp, args.at))
    else:
        plan = plan_training(bound, _policy(args), optimized=args.strategy != "naive")
    if args.json:
        print(json.dumps(plan_to_json(plan), indent=2))
    else:
        print(explain(plan), end="")
    return EXIT_OK


def cmd_train_table(args) -> int:
    db = _load_db(args)
    bound = _bound(args, db.schema)
    plan = plan_training(bound, _policy(args), optimized=args.strategy != "naive")
    table = materialize_training(plan, db, split=_split(args), keep_empty_labels=args.keep_empty_labels)
    paths = write_training_table(table, Path(args.out_dir))
    dropped = table.metadata["dropped"]
    print(
        f"rows={table.row_count} splits={table.metadata['split_counts']} "
        f"dropped={ {k: v for k, v in dropped.items() if v} or '{}' }"
    )
    return _wrote(paths, table.row_count)


def cmd_predict_table(args) -> int:
    db = _load_db(args)
    bound = _bound(args, db.schema)
    plan = plan_prediction(bound, _option("at", parse_timestamp, args.at))
    table = materialize_prediction(plan, db)
    paths = write_prediction_table(table, Path(args.out_dir))
    cand = table.metadata.get("candidate_count")
    extra = f" candidates={cand}" if cand is not None else ""
    print(f"rows={table.row_count}{extra}")
    return _wrote(paths, table.row_count)


def _wrote(paths: List[Path], rows: int) -> int:
    """Name the files written; the exit code for a table of `rows` rows."""
    for p in paths:
        print(f"wrote {p}")
    if rows == 0:
        print("empty result: no entity passed the filters", file=sys.stderr)
        return EXIT_EMPTY
    return EXIT_OK


def cmd_sample(args) -> int:
    pairs = _at_least(args, "pairs")
    db = _load_db(args)
    bound = _bound(args, db.schema)
    anchor = _option("at", parse_timestamp, args.at)
    if bound.is_static and anchor is not None:
        raise PlanError("static query takes no anchor")
    anchors = [] if bound.is_static else feasible_anchors(bound, _policy(args), db)
    if anchors and anchor is None:
        anchor = anchors[0]
    elif anchors and anchor not in anchors:
        # Splits rank anchors on this grid, so an anchor off it has no split.
        raise PlanError(f"--at {format_timestamp(anchor)} is not on the anchor grid ({_describe_grid(anchors)}); "
                        "pick one of its anchors, or move the grid with --latest and --stride")
    pair_list = sample_pairs(db, bound, pairs, anchor=anchor)
    if not pair_list:
        print("no active entities to sample", file=sys.stderr)
        return EXIT_EMPTY
    request = build_request(bound, pair_list)
    sub = collect(build_row_graph(db), request)
    table = compute_on_subgraph(bound, sub, pair_list, anchors_for_split=anchors, split=_split(args),
                                keep_empty_labels=args.keep_empty_labels)
    paths = write_training_table(table, Path(args.out_dir), basename="sample")
    frac = sub.touched_rows / max(1, db.total_rows())
    print(
        f"pairs={len(pair_list)} rows={table.row_count} "
        f"rows_touched={sub.touched_rows} ({frac:.3%} of {db.total_rows()})"
    )
    return _wrote(paths, table.row_count)


def _describe_grid(anchors: List[int]) -> str:
    text = f"{len(anchors)} anchor{'s' if len(anchors) > 1 else ''}, newest {format_timestamp(anchors[0])}"
    if len(anchors) > 1:
        text += f", every {format_duration(anchors[0] - anchors[1])} back to {format_timestamp(anchors[-1])}"
    return text


def cmd_gen_data(args) -> int:
    if args.genspec:
        spec = GenSpec.from_json(parse_json(_read_text(args.genspec)))
    else:
        spec = hm_genspec(scale=_scale(args), seed=args.seed, validity=args.validity,
                          upscale=_at_least(args, "upscale"))
    db = generate(spec)
    out = Path(args.out_dir)
    save_database(db, out)
    (out / "genspec.json").write_text(json.dumps(spec.to_json(), indent=2) + "\n", encoding="utf-8")
    counts = ", ".join(f"{name.lower()}={db.nrows(name)}" for name in db.schema.tables)
    print(f"wrote {out}: {counts}")
    return EXIT_OK


def cmd_bench(args) -> int:
    runs, pairs = _at_least(args, "runs"), _at_least(args, "pairs")
    if args.data_dir:
        db = _load_db(args)
    else:
        db = generate(hm_genspec(scale=_scale(args), seed=args.seed))
    paths = [p.strip() for p in args.paths.split(",") if p.strip()]
    report = run_bench(db, _query_text(args), paths=paths, runs=runs, pairs=pairs, anchors=args.anchors,
                       seed=args.seed)
    print(format_report(report))
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that keeps each option's action by its dest, and
    each command's parser by its name, so a config file can be checked
    against the options of the command it configures."""

    def __init__(self, **kwargs):
        self.options: Dict[str, argparse.Action] = {}
        self.commands: Dict[str, _Parser] = {}
        super().__init__(**kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.options[action.dest] = action
        return action

    def add_subparsers(self, **kwargs):
        sub = super().add_subparsers(**kwargs)
        self.commands = sub.choices
        return sub

    def error(self, message: str):
        """A malformed command line is a validation failure, as a malformed
        config file is."""
        raise PqlError(message)


def _add_common(p: argparse.ArgumentParser, *, query: bool = True, data: bool = False,
                out_dir: bool = False, seed: bool = False):
    p.add_argument("--config", help="JSON file of option defaults; flags override it")
    if query:
        p.add_argument("--schema", help="schema JSON path")
        p.add_argument("--query", help="query text")
        p.add_argument("--query-file", dest="query_file", help="file containing the query")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if out_dir:
        p.add_argument("--out-dir", dest="out_dir", default="out")
    if data:
        p.add_argument("--data-dir", dest="data_dir", help="directory of <table>.csv files")
        p.add_argument("--lenient-fk", dest="lenient_fk", action="store_true",
                       help="keep rows with dangling foreign keys")
        # Accepted and unused on all four data commands (train-table,
        # predict-table, sample and bench), which run on one thread, so
        # callers can pass it to any of them.
        p.add_argument("--workers", type=int, default=0, help="ignored: every command runs on one thread")


def _add_anchor_flags(p: argparse.ArgumentParser, *, grid: bool = True):
    p.add_argument("--anchors", type=int, default=10, help="anchor count (default %(default)s)")
    if grid:
        p.add_argument("--stride", help="anchor spacing, e.g. 45d (default: one timeframe)")
        p.add_argument("--latest", help="latest anchor timestamp (ISO-8601)")


def _add_label_flags(p: argparse.ArgumentParser):
    p.add_argument("--split", default="0.8,0.1,0.1",
                   help="train,val,test ratios for static splits (default %(default)s)")
    p.add_argument("--keep-empty-labels", dest="keep_empty_labels", action="store_const", const=True,
                   help="keep rows whose list label is empty (default: dropped for ranking tasks)")


def build_parser() -> argparse.ArgumentParser:
    root = _Parser(
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
    p.add_argument("--mode", choices=["training", "prediction"], default="training")
    p.add_argument("--strategy", choices=["optimized", "naive"], default="optimized")
    p.add_argument("--at", help="prediction anchor (ISO-8601)")
    _add_anchor_flags(p)
    p.add_argument("--json", action="store_true", help="dump the plan as JSON")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("train-table", help="materialize the training table")
    _add_common(p, data=True, out_dir=True, seed=True)
    _add_anchor_flags(p)
    _add_label_flags(p)
    p.add_argument("--strategy", choices=["optimized", "naive"], default="optimized")
    p.set_defaults(fn=cmd_train_table)

    p = sub.add_parser("predict-table", help="materialize the prediction table")
    _add_common(p, data=True, out_dir=True)
    p.add_argument("--at", help="prediction anchor (ISO-8601, default: latest event)")
    p.set_defaults(fn=cmd_predict_table)

    p = sub.add_parser("sample", help="low-latency labels for the most recently active entities")
    _add_common(p, data=True, out_dir=True, seed=True)
    _add_anchor_flags(p)
    _add_label_flags(p)
    p.add_argument("--pairs", type=int, default=100, help="number of (entity, anchor) pairs")
    p.add_argument("--at", help="anchor, on the anchor grid (ISO-8601, default: its newest)")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("gen-data", help="generate a synthetic retail-shaped database")
    _add_common(p, query=False, out_dir=True, seed=True)
    p.add_argument("--scale", type=float, default=0.001,
                   help="template scale; 1.0 = 31M transactions (default %(default)s)")
    p.add_argument("--genspec", help="generator spec JSON file")
    p.add_argument("--validity", action="store_true", help="add customer validity intervals")
    p.add_argument("--upscale", type=int, default=1,
                   help="duplicate customer/transaction partitions this many times")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("bench", help="compare execution paths on one query")
    _add_common(p, data=True, seed=True)
    p.add_argument("--paths", default="optimized,unoptimized,sampler,oracle",
                   help="comma list: optimized,unoptimized,sampler,oracle")
    p.add_argument("--runs", type=int, default=5, help="timed runs per path (median reported)")
    p.add_argument("--pairs", type=int, default=100, help="pairs for the sampler path")
    _add_anchor_flags(p, grid=False)
    p.add_argument("--scale", type=float, default=0.001,
                   help="template scale when no --data-dir is given")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(fn=cmd_bench)

    return root


# The JSON types a config value may have, by the type of its option.
_JSON_TYPES = {int: int, float: (int, float), None: str}


def _config_default(key: str, value, action: argparse.Action):
    """`value` from a config file as the default of `action`'s option. A
    JSON type the option cannot take fails as a `PqlError` naming the key."""
    if value is None:
        ok = action.default is None
    elif action.nargs == 0:  # a flag
        ok = isinstance(value, bool)
    else:
        ok = not isinstance(value, bool) and isinstance(value, _JSON_TYPES[action.type])
    if not ok:
        raise PqlError(f"config key {key!r} has the wrong type: {value!r}")
    if action.choices and value not in action.choices:
        raise PqlError(f"config key {key!r} must be one of {action.choices}, got {value!r}")
    # argparse converts a text default with the option's type, so a number
    # parses exactly as the same number given as a flag does.
    return str(value) if action.type else value


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    """The parsed command line. With `--config`, the file's keys first
    become the defaults of the running command's options."""
    root = build_parser()
    args = root.parse_args(argv)
    if not args.config:
        return args
    doc = parse_json(_read_text(args.config))
    if not isinstance(doc, dict):
        raise PqlError("the config file must hold a JSON object")
    known = {key for command in root.commands.values() for key in command.options} - {"help", "config"}
    unknown = set(doc) - known
    if unknown:
        raise PqlError(f"unknown config keys: {sorted(unknown)}")
    command = root.commands[args.command]
    command.set_defaults(**{key: _config_default(key, value, command.options[key])
                            for key, value in doc.items() if key in command.options})
    return root.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = parse_args(argv)
        return args.fn(args)
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
