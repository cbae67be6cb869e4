"""Worker process of the warm workloads (batch_warm, sample_serve).

Set-up is everything a long-lived process pays once: interpreter start,
imports, `load_database`, `build_row_graph` and the lazy per-database work
the first operation would otherwise pay. The worker prints `ready` when
set-up is done, then waits for one line on stdin: `exit` ends it, `go`
runs the pass and writes the result file.

The pass repeats the workload's fixed operation list in whole rounds until
`--seconds` have passed and at least MIN_TAIL_SAMPLES operations ran. Only
the operations are timed. Round 0 results are kept; later rounds must equal
them. After the pass (and the peak-memory reading) round 0 is checked
against the reference, so a later round's verdict is round 0's verdict.
"""

from __future__ import annotations

import time

import pql.cli  # noqa: F401  (the same start-up a `pql` command pays)

IMPORTED_AT = time.time()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from pql import binder, engine, kernels, parser, planner, sampler, store  # noqa: E402
from pql.store import RowRef  # noqa: E402

from calibrate import probe_seconds  # noqa: E402
from layertrace import Tracer, peak_rss_mb  # noqa: E402
from reference import Reference  # noqa: E402
from workloads import BATCH_OPS, DAY_MICROS, MIN_TAIL_SAMPLES, SAMPLE_QUERIES, Op  # noqa: E402


# The probe runs this many times before each round (about 80 ms).
PROBE_REPEATS = 5


def set_up(data_dir: Path):
    db = store.load_database(data_dir / "schema.json", data_dir)
    g = store.build_row_graph(db)
    for edge in db.schema.edges():
        kernels._edge_slot_arrays(g.edge_index(edge))
    db.max_event_time()
    return db, g


def batch_ops(db, g):
    """One callable per operation: parse, bind, plan, materialize."""

    def make(op: Op):
        def run():
            bound = binder.bind(parser.parse(op.query.text()), db.schema)
            if op.command == "predict-table":
                table = engine.materialize_prediction(planner.plan_prediction(bound), db, g)
                return table.rows, table.candidates, table.metadata
            stride = "auto" if op.stride_days is None else op.stride_days * DAY_MICROS
            plan = planner.plan_training(bound, planner.AnchorPolicy(count=op.anchors, stride=stride))
            table = engine.materialize_training(plan, db, g, workers=1)
            return table.rows, table.metadata

        return run

    return [make(op) for op in BATCH_OPS]


def sample_ops(db, g, requests: list):
    """One callable per request: parse, bind, build_request, collect,
    compute_on_subgraph. Keys map to row numbers before the pass."""
    etable = db.table("CUSTOMERS")

    def make(req: dict):
        text = SAMPLE_QUERIES[req["template"]].text()
        pairs = [(RowRef("CUSTOMERS", etable.pk_index[k]), a) for k, a in req["pairs"]]
        anchors = req["anchors"]

        def run():
            bound = binder.bind(parser.parse(text), db.schema)
            request = sampler.build_request(bound, pairs)
            sub = sampler.collect(g, request)
            table = sampler.compute_on_subgraph(bound, sub, pairs, anchors_for_split=anchors)
            return table.rows, table.metadata

        return run

    return [make(r) for r in requests]


def run_rounds(ops, seconds: float, first: list, changed: list, tracer=None):
    """Whole rounds of `ops`; returns per-round lists of op seconds and the
    machine-speed probe time taken before each round. `first` collects round
    0's results; a later result that differs from round 0's is recorded in
    `changed` as (phase, round, op)."""
    phase = "plain" if tracer is None else "traced"
    rounds: list = []
    probes: list = []
    start = time.perf_counter()
    perf = time.perf_counter
    while True:
        if tracer is not None:
            tracer.uninstall()
        probes.append(probe_seconds(PROBE_REPEATS))
        if tracer is not None:
            tracer.round = len(rounds)
            tracer.install()
        times = []
        for i, op in enumerate(ops):
            t0 = perf()
            result = op()
            times.append(perf() - t0)
            if len(first) < len(ops):
                first.append(result)
            elif result != first[i]:
                changed.append((phase, len(rounds), i))
        rounds.append(times)
        enough = sum(len(r) for r in rounds) >= MIN_TAIL_SAMPLES
        if enough and perf() - start >= seconds:
            return rounds, probes


def check(workload: str, ref: Reference, first: list, requests: list) -> list:
    """Problems per operation of round 0."""
    out = []
    if workload == "batch_warm":
        for op, result in zip(BATCH_OPS, first):
            if op.command == "predict-table":
                out.append(ref.check_prediction(op, *result))
            else:
                out.append(ref.check_training(op, *result))
        return out
    for i, (req, (rows, meta)) in enumerate(zip(requests, first)):
        pairs = [tuple(p) for p in req["pairs"]]
        spot = ref.spot_keys(f"request{i}", [k for k, _ in pairs])
        out.append(ref.check_pairs(SAMPLE_QUERIES[req["template"]], pairs, req["anchors"],
                                   rows, meta, spot))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["batch_warm", "sample_serve"])
    ap.add_argument("--data-dir", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--requests")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    data_dir = Path(args.data_dir)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    db, g = set_up(data_dir)
    if tracer:
        tracer.uninstall()
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    requests = json.loads(Path(args.requests).read_text()) if args.requests else []
    ops = batch_ops(db, g) if args.workload == "batch_warm" else sample_ops(db, g, requests)
    first: list = []
    changed: list = []
    rounds, probes = run_rounds(ops, args.seconds, first, changed)
    traced_rounds, traced_probes = [], []
    if tracer:
        traced_rounds, traced_probes = run_rounds(ops, args.seconds, first, changed, tracer)
        tracer.uninstall()
    peak = peak_rss_mb()

    ref = Reference(data_dir, args.seed)
    problems = check(args.workload, ref, first, requests)
    loads_match = all(db.nrows(t) == len(ref.raw.records[t]) for t in db.schema.tables)
    doc = {
        "imported_at": IMPORTED_AT,
        "rounds": rounds,
        "probes": probes,
        "traced_rounds": traced_rounds,
        "traced_probes": traced_probes,
        "peak_rss_mb": peak,
        "problems": problems,
        "changed_results": changed,
        "loads_match": loads_match,
        "trace": tracer.to_json() if tracer else None,
    }
    Path(args.result).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
