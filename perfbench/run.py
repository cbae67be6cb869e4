#!/usr/bin/env python3
"""pql benchmark: three workloads, end-to-end metrics, and a traced mode.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 15 --trace 0

Workloads (see perfbench/README.md for their make-up):

* cli_cold      fresh `pql train-table` / `predict-table` / `sample`
                processes, spawn to exit with files written;
* batch_warm    one loaded database, then parse/bind/plan/materialize of a
                fixed query list in memory;
* sample_serve  one loaded database, then a seeded list of sampler requests.

The database is written by the program's own `pql gen-data` (hm_genspec
template) from `--seed`; the program gets only those CSV files. The load
is a closed loop with one client, and the engine runs one worker.

With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics, taken by wrapping
pql's layer functions from outside (perfbench/layertrace.py) in a run that
also measures an untraced pass, so the tracing overhead is reported too.
Every operation's output is checked (perfbench/reference.py); a failed
check counts the operation as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from calibrate import REFERENCE_PROBE_S, probe_seconds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("cli.startup_ms", "ms"),
    ("store.load_s", "s"),
    ("store.load_rows", "count"),
    ("store.load_peak_rss_mb", "MB"),
    ("store.save_s", "s"),
    ("store.row_graph_s", "s"),
    ("frontend.parse_ms", "ms"),
    ("frontend.bind_ms", "ms"),
    ("frontend.plan_ms", "ms"),
    ("engine.materialize_training_s", "s"),
    ("engine.materialize_prediction_s", "s"),
    ("kernels.gather_children_s", "s"),
    ("kernels.gather_calls", "count"),
    ("kernels.children_gathered", "count"),
    ("kernels.eval_condition_s", "s"),
    ("kernels.eval_target_s", "s"),
    ("engine.pairs_expanded", "count"),
    ("engine.rows_out", "count"),
    ("sampler.collect_ms", "ms"),
    ("sampler.rows_touched", "count"),
    ("sampler.touched_per_row_out", "ratio"),
    ("sampler.compute_on_subgraph_ms", "ms"),
    ("engine.evaluate_pairs_ms", "ms"),
    ("sampler.sample_pairs_ms", "ms"),
    ("output.write_s", "s"),
    ("output.bytes_written", "bytes"),
    ("trace.overhead_pct", "%"),
)
# Counts that must repeat exactly from round to round.
REPEATING_COUNTS = (
    "engine.pairs_expanded",
    "engine.rows_out",
    "kernels.children_gathered",
    "sampler.rows_touched",
    "output.bytes_written",
)
SETUP_REPEATS = 3
# A cold command takes seconds, so one round of five gives too few samples.
CLI_MIN_ROUNDS = 2
RUN_TIMEOUT_S = 170.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


def run_pql(args: List[str], deadline: float, log: Path,
            trace_out: Optional[Path] = None, rnd: int = -1):
    """Run one `pql` command; returns (seconds, exit code, peak RSS in MB,
    spawn wall-clock time). With `trace_out` it runs under the tracer."""
    if trace_out is None:
        argv = [sys.executable, "-m", "pql.cli", *args]
    else:
        argv = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_out), str(rnd), *args]
    with open(log, "wb") as err:
        spawned_at = time.time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        ended, usage = reap(proc, deadline)
    if proc.returncode != 0:
        sys.stderr.write(log.read_text(errors="replace"))
    return ended - t0, proc.returncode, usage.ru_maxrss / 1024.0, spawned_at


def reap(proc: subprocess.Popen, deadline: float):
    """Wait for `proc`, killing it at the deadline; returns (perf_counter at
    its exit, resource usage of that child alone) and sets its returncode."""
    timer = threading.Timer(deadline - time.monotonic(), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        ended = time.perf_counter()
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ended, usage


def gen_data(data_dir: Path, seed: int, scale: float, deadline: float,
             trace_out: Optional[Path] = None) -> float:
    seconds, code, _, _ = run_pql(
        ["gen-data", "--scale", repr(scale), "--seed", str(seed), "--out-dir", str(data_dir)],
        deadline, data_dir.parent / "gen.log", trace_out,
    )
    if code != 0:
        raise RuntimeError(f"pql gen-data exited with {code}")
    return seconds


def percentile(values: List[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def speed_factor(probes: List[float]) -> float:
    """Scale for times measured alongside these probe times: durations at
    the speed at which the probe takes REFERENCE_PROBE_S (calibrate.py)."""
    return REFERENCE_PROBE_S / statistics.median(probes)


def scaled(rounds: List[List[float]], factor: float) -> List[List[float]]:
    return [[t * factor for t in r] for r in rounds]


def timing_metrics(rounds: List[List[float]]) -> Dict[str, float]:
    ops = [t for r in rounds for t in r]
    return {
        "pass_s": statistics.median(sum(r) for r in rounds),
        "op_p50_ms": 1000.0 * statistics.median(ops),
        "op_p95_ms": 1000.0 * percentile(ops, 95),
    }


def layer_metrics(traces: List[dict], gen_traces: List[dict], rounds: int,
                  startup_ms: List[float], factor: float, overhead_pct: float):
    """Every per-layer metric, times scaled by `factor`; a layer the
    workload never calls reads 0. Also says whether the counts repeated."""
    from layertrace import TraceSummary, median

    s = TraceSummary(traces, list(range(rounds)))
    gen = TraceSummary(gen_traces, [])
    rows_out = s.count("sampler.rows_out")
    metrics = {
        "cli.startup_ms": median(startup_ms),
        "store.load_s": median(s.calls.get("store.load", [])),
        "store.load_rows": median(s.load_rows),
        "store.load_peak_rss_mb": median(s.load_peak),
        "store.save_s": median(gen.calls.get("store.save", [])),
        "store.row_graph_s": s.process_s("store.row_graph"),
        "frontend.parse_ms": s.call_ms("frontend.parse"),
        "frontend.bind_ms": s.call_ms("frontend.bind"),
        "frontend.plan_ms": s.call_ms("frontend.plan"),
        "engine.materialize_training_s": s.pass_s("engine.materialize_training"),
        "engine.materialize_prediction_s": s.pass_s("engine.materialize_prediction"),
        "kernels.gather_children_s": s.pass_s("kernels.gather_children"),
        "kernels.gather_calls": s.count("kernels.gather_calls"),
        "kernels.children_gathered": s.count("kernels.children_gathered"),
        "kernels.eval_condition_s": s.pass_s("kernels.eval_condition"),
        "kernels.eval_target_s": s.pass_s("kernels.eval_target"),
        "engine.pairs_expanded": s.count("engine.pairs_expanded"),
        "engine.rows_out": s.count("engine.rows_out"),
        "sampler.collect_ms": s.call_ms("sampler.collect"),
        "sampler.rows_touched": s.count("sampler.rows_touched"),
        "sampler.touched_per_row_out": s.count("sampler.rows_touched") / rows_out if rows_out else 0.0,
        "sampler.compute_on_subgraph_ms": s.call_ms("sampler.compute_on_subgraph", own=True),
        "engine.evaluate_pairs_ms": s.call_ms("engine.evaluate_pairs"),
        "sampler.sample_pairs_ms": s.call_ms("sampler.sample_pairs"),
        "output.write_s": s.pass_s("output.write"),
        "output.bytes_written": s.count("output.bytes_written"),
        "trace.overhead_pct": overhead_pct,
    }
    units = dict(PER_LAYER)
    for name, value in metrics.items():
        if units[name] in ("s", "ms"):
            metrics[name] = value * factor
    return metrics, s.counts_repeat(REPEATING_COUNTS)


def overhead(untraced: List[List[float]], traced: List[List[float]]) -> float:
    plain = statistics.median(sum(r) for r in untraced)
    return 100.0 * (statistics.median(sum(r) for r in traced) / plain - 1.0)


# ---------------------------------------------------------------------------
# cli_cold


def cli_cold(args, work: Path, deadline: float) -> dict:
    from workloads import CLI_OPS

    data = work / "data"
    setups, setup_probes, gen_traces = [], [], []
    if args.trace:
        gen_data(data, args.seed, args.scale, deadline, work / "gen.trace.json")
        gen_traces.append(json.loads((work / "gen.trace.json").read_text()))
    else:
        for _ in range(SETUP_REPEATS):
            setup_probes.append(probe_seconds())
            setups.append(gen_data(data, args.seed, args.scale, deadline))
            setup_probes.append(probe_seconds())

    outputs: List[tuple] = []  # (op, output directory, exit code), in run order
    traces: List[dict] = []
    startup: List[float] = []
    peak = [0.0]

    def run_rounds(phase: str):
        rounds: List[List[float]] = []
        probes: List[float] = []
        start = time.perf_counter()
        while len(rounds) < CLI_MIN_ROUNDS or time.perf_counter() - start < args.seconds:
            times = []
            for op in CLI_OPS:
                probes.append(probe_seconds())
                out = work / "out" / f"{phase}{len(rounds)}" / op.name
                trace_out = work / "cmd.trace.json" if phase == "traced" else None
                seconds, code, rss_mb, spawned_at = run_pql(
                    op.cli_args(str(data), str(out)), deadline, work / "cmd.log",
                    trace_out, len(rounds))
                times.append(seconds)
                outputs.append((op, out, code))
                if trace_out is not None:
                    doc = json.loads(trace_out.read_text())
                    startup.append(1000.0 * (doc.pop("imported_at") - spawned_at))
                    traces.append(doc)
                else:
                    peak[0] = max(peak[0], rss_mb)
            rounds.append(times)
        return rounds, probes

    rounds, probes = run_rounds("plain")
    traced, traced_probes = run_rounds("traced") if args.trace else ([], [])
    # A child's peak RSS counts its parent's memory at spawn, so the
    # reference is built only after the last command has run.
    report, reference_checked = check_cli_outputs(args.seed, data, outputs)
    result = {"correct": True, "attempted": len(outputs), "failed": sum(map(bool, report)),
              "reference_checked": reference_checked}
    if args.trace:
        factor = speed_factor(probes + traced_probes)
        metrics, repeat = layer_metrics(
            traces, gen_traces, len(traced), startup, factor,
            overhead(scaled(rounds, speed_factor(probes)), scaled(traced, speed_factor(traced_probes))))
        result["correct"] = repeat
    else:
        raw = dict(timing_metrics(rounds), setup_s=statistics.median(setups))
        factor = speed_factor(setup_probes + probes)
        metrics = dict(timing_metrics(scaled(rounds, factor)), setup_s=raw["setup_s"] * factor,
                       peak_rss_mb=peak[0])
        result["raw"] = raw
    result["metrics"] = metrics
    return result


def check_cli_outputs(seed: int, data: Path, outputs: List[tuple]):
    """Problems per command, and how many outputs were checked against the
    reference: an operation's first output is, and a later one must be
    byte-identical to it."""
    from reference import Reference, read_prediction, read_training

    ref = Reference(data, seed)
    verdicts: Dict[str, tuple] = {}  # op name -> (first output's digest, problems)

    def check_files(op, out: Path) -> List[str]:
        table = ref.bound(op.query.text()).entity_table
        if op.command == "train-table":
            return ref.check_training(op, *read_training(ref, out, "training", table))
        if op.command == "predict-table":
            return ref.check_prediction(op, *read_prediction(ref, out))
        rows, meta = read_training(ref, out, "sample", table)
        anchor, keys = ref.sample_choice(op.query, op.pairs)
        anchors = ref.anchors(ref.bound(op.query.text()), op.anchors, op.stride_days)
        return ref.check_pairs(op.query, [(k, anchor) for k in keys], anchors, rows, meta,
                               ref.spot_keys(op.name, keys, 3))

    report = []
    for op, out, code in outputs:
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            digest = hashlib.sha256()
            for path in sorted(out.iterdir()):
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
            if op.name not in verdicts:
                verdicts[op.name] = (digest.digest(), check_files(op, out))
            first, problems = verdicts[op.name]
            if digest.digest() != first:
                problems = ["output differs from the first run of this command"]
        if problems:
            print(f"FAILED {op.name} ({out.parent.name}): {problems}", file=sys.stderr)
        report.append(problems)
    return report, len(verdicts)


# ---------------------------------------------------------------------------
# batch_warm and sample_serve


def warm(args, work: Path, deadline: float) -> dict:
    data = work / "data"
    gen_traces: List[dict] = []
    gen_data(data, args.seed, args.scale, deadline, work / "gen.trace.json" if args.trace else None)
    if args.trace:
        gen_traces.append(json.loads((work / "gen.trace.json").read_text()))
    requests = None
    if args.workload == "sample_serve":
        # In a child process: a child's peak RSS counts its parent's memory.
        requests = work / "requests.json"
        proc = subprocess.run([sys.executable, str(BENCH / "workloads.py"), str(data),
                               str(args.seed), str(requests)], env=child_env(),
                              timeout=deadline - time.monotonic())
        if proc.returncode != 0:
            raise RuntimeError("making the sampler requests failed")
    result_path = work / "worker.json"
    argv = [sys.executable, str(BENCH / "warm.py"), "--workload", args.workload,
            "--data-dir", str(data), "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--result", str(result_path)]
    if requests is not None:
        argv += ["--requests", str(requests)]

    setups: List[float] = []
    spawned_at = 0.0
    repeats = 1 if args.trace else SETUP_REPEATS
    for i in range(repeats):
        spawned_at = time.time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)
        timer = threading.Timer(deadline - time.monotonic(), proc.kill)
        timer.start()
        try:
            if proc.stdout.readline().strip() != "ready":
                raise RuntimeError("the worker did not finish set-up")
            setups.append(time.perf_counter() - t0)
            proc.stdin.write("go\n" if i == repeats - 1 else "exit\n")
            proc.stdin.close()
            proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"the worker exited with {proc.returncode}")

    doc = json.loads(result_path.read_text())
    rounds, traced = doc["rounds"], doc["traced_rounds"]
    per_op = doc["problems"]
    for i, problems in enumerate(per_op):
        if problems:
            print(f"FAILED operation {i}: {problems}", file=sys.stderr)
    changed = {tuple(x) for x in doc["changed_results"]}
    if changed:
        print(f"FAILED: {len(changed)} results differ from round 0", file=sys.stderr)
    phases = {"plain": rounds, "traced": traced}
    attempted = sum(len(r) for r in rounds + traced)
    # Round 0 is checked against the reference; later rounds must equal it.
    failed = sum(1 for phase, rs in phases.items() for n, r in enumerate(rs) for i in range(len(r))
                 if per_op[i] or (phase, n, i) in changed)
    result = {"correct": doc["loads_match"], "attempted": attempted, "failed": failed}
    if args.trace:
        startup = [1000.0 * (doc["imported_at"] - spawned_at)]
        metrics, repeat = layer_metrics(
            [doc["trace"]], gen_traces, len(traced), startup,
            speed_factor(doc["probes"] + doc["traced_probes"]),
            overhead(scaled(rounds, speed_factor(doc["probes"])),
                     scaled(traced, speed_factor(doc["traced_probes"]))))
        result["correct"] = result["correct"] and repeat
    else:
        raw = dict(timing_metrics(rounds), setup_s=statistics.median(setups))
        # Probes next to a process start or exit read high, so the worker's
        # own probes, taken while nothing else runs, scale the whole run.
        factor = speed_factor(doc["probes"])
        metrics = dict(timing_metrics(scaled(rounds, factor)), setup_s=raw["setup_s"] * factor,
                       peak_rss_mb=doc["peak_rss_mb"])
        result["raw"] = raw
    result["metrics"] = metrics
    result["reference_checked"] = len(per_op)
    return result


WORKLOADS = {"cli_cold": cli_cold, "batch_warm": warm, "sample_serve": warm}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float, default=None,
                    help="hm_genspec scale (default: the workloads' scale; the smoke test uses less)")
    args = ap.parse_args(argv)
    if not (SRC / "pql" / "cli.py").is_file():
        print(f"perfbench: no pql sources at {SRC}; run from a pql checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import SCALE

    if args.scale is None:
        args.scale = SCALE
    deadline = time.monotonic() + RUN_TIMEOUT_S
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = WORKLOADS[args.workload](args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    raw = " ".join(f"{k}={v:.6g}" for k, v in result.pop("raw", {}).items())
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"reference_checked={result.pop('reference_checked')} "
          f"attempted={result['attempted']} failed={result['failed']}"
          + (f" unscaled: {raw}" if raw else ""))
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
