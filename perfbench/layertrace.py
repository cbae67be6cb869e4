"""Layer tracing from outside the program.

`Tracer.install()` replaces the public functions of pql's layers with
wrappers, at every module attribute of the `pql` package that refers to
them, so calls are caught where they are looked up (`pql.cli` calls
`materialize_training` through its own imported name, `pql.engine` calls
`eval_condition_vec` through its own, and so on). Each call becomes a span
(name, start, end, parent span, round) kept in memory; `uninstall()` puts
the originals back. Nothing under `src/` is changed.

Self time of a span is its duration minus the durations of the spans it
directly caused. Engine workers are pinned to one thread by the benchmark,
so every span's children run on the span's own thread.
"""

from __future__ import annotations

import functools
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

# (module, function, span name). The span name is the layer metric prefix.
LAYER_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("pql.store", "load_database", "store.load"),
    ("pql.store", "save_database", "store.save"),
    ("pql.store", "build_row_graph", "store.row_graph"),
    ("pql.parser", "parse", "frontend.parse"),
    ("pql.binder", "bind", "frontend.bind"),
    ("pql.planner", "plan_training", "frontend.plan"),
    ("pql.planner", "plan_prediction", "frontend.plan"),
    ("pql.engine", "materialize_training", "engine.materialize_training"),
    ("pql.engine", "materialize_prediction", "engine.materialize_prediction"),
    ("pql.engine", "evaluate_pairs", "engine.evaluate_pairs"),
    ("pql.kernels", "gather_children", "kernels.gather_children"),
    ("pql.kernels", "eval_condition_vec", "kernels.eval_condition"),
    ("pql.kernels", "eval_target_vec", "kernels.eval_target"),
    ("pql.sampler", "build_request", "sampler.build_request"),
    ("pql.sampler", "collect", "sampler.collect"),
    ("pql.sampler", "compute_on_subgraph", "sampler.compute_on_subgraph"),
    ("pql.sampler", "sample_pairs", "sampler.sample_pairs"),
    ("pql.output", "write_training_table", "output.write"),
    ("pql.output", "write_prediction_table", "output.write"),
)

# The sampler builds a throw-away row graph for every request's
# sub-database; that work is the sampler's own, so the lookup in
# `pql.sampler` stays unwrapped and the time lands in compute_on_subgraph's
# self time instead of in the store's row-graph figure.
UNWRAPPED_SITES = {("pql.sampler", "build_row_graph")}


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans and counts for the wrapped layer functions."""

    def __init__(self):
        # Each span: [name, start, end, parent index or -1, round].
        self.spans: List[list] = []
        self.counts: Dict[Tuple[str, int], float] = {}
        self.round = -1  # -1 = set-up, outside any round
        self.load_rows: List[int] = []
        self.load_peak_rss_mb: Optional[float] = None
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, Callable]] = []

    def add(self, name: str, value: float):
        key = (name, self.round)
        self.counts[key] = self.counts.get(key, 0) + value

    # -- wrapping --------------------------------------------------------

    def _wrap(self, span: str, fn: Callable) -> Callable:
        tracer = self
        spans = self.spans
        stack = self._stack
        perf = time.perf_counter
        on_result = _COUNTERS.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [span, 0.0, 0.0, stack[-1] if stack else -1, tracer.round]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                stack.pop()
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def install(self):
        """Wrap every layer function at each pql module attribute naming it."""
        import pql.cli  # noqa: F401  (load every module that looks names up)
        import pql.sampler  # noqa: F401

        modules = {n: m for n, m in sys.modules.items() if n == "pql" or n.startswith("pql.")}
        for mod_name, fn_name, span in LAYER_FUNCTIONS:
            original = getattr(modules[mod_name], fn_name)
            wrapper = self._wrap(span, original)
            for site_name, site in modules.items():
                if (site_name, fn_name) in UNWRAPPED_SITES:
                    continue
                for attr, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, attr, wrapper)
                        self._patched.append((site, attr, original))

    def uninstall(self):
        for site, attr, original in reversed(self._patched):
            setattr(site, attr, original)
        self._patched.clear()

    # -- reading ---------------------------------------------------------

    def self_times(self) -> List[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[2] - s[1]) - c for s, c in zip(self.spans, child)]

    def to_json(self) -> dict:
        """Spans, self times and counts, for writing out when a run ends."""
        return {
            "spans": self.spans,
            "self": self.self_times(),
            "counts": [[n, r, v] for (n, r), v in self.counts.items()],
            "load_rows": self.load_rows,
            "load_peak_rss_mb": self.load_peak_rss_mb,
        }


def _count_load(tracer: Tracer, db):
    tracer.load_rows.append(db.total_rows())
    if tracer.load_peak_rss_mb is None:
        tracer.load_peak_rss_mb = peak_rss_mb()


def _count_training(tracer: Tracer, table):
    tracer.add("engine.pairs_expanded", table.metadata["pairs_expanded"])
    tracer.add("engine.rows_out", table.row_count)


def _count_prediction(tracer: Tracer, table):
    tracer.add("engine.rows_out", len(table.rows))


def _count_gather(tracer: Tracer, gathered):
    tracer.add("kernels.gather_calls", 1)
    tracer.add("kernels.children_gathered", len(gathered.pos))


def _count_collect(tracer: Tracer, sub):
    tracer.add("sampler.rows_touched", sub.touched_rows)


def _count_subgraph(tracer: Tracer, table):
    tracer.add("sampler.rows_out", table.row_count)


def _count_write(tracer: Tracer, paths):
    tracer.add("output.bytes_written", sum(Path(p).stat().st_size for p in paths))


_COUNTERS = {
    "store.load": _count_load,
    "engine.materialize_training": _count_training,
    "engine.materialize_prediction": _count_prediction,
    "engine.evaluate_pairs": _count_training,
    "kernels.gather_children": _count_gather,
    "sampler.collect": _count_collect,
    "sampler.compute_on_subgraph": _count_subgraph,
    "output.write": _count_write,
}


# ---------------------------------------------------------------------------
# Per-layer metrics from one or more traces


def median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


class TraceSummary:
    """Per-layer figures from traces of one workload run.

    `traces` are `Tracer.to_json()` documents: one per process. `rounds`
    lists the traced pass rounds; set-up spans carry round -1. For the
    cold CLI, every command is its own process and trace, and the round
    number says which pass the command belonged to.
    """

    def __init__(self, traces: List[dict], rounds: List[int]):
        self.rounds = rounds
        self.calls: Dict[str, List[float]] = {}  # span name -> durations
        self.self_calls: Dict[str, List[float]] = {}
        self.per_round_self: Dict[str, Dict[int, float]] = {}
        self.per_process: Dict[str, List[float]] = {}
        self.counts: Dict[str, Dict[int, float]] = {}
        self.load_peak: List[float] = []
        self.load_rows: List[int] = []
        for doc in traces:
            in_process: Dict[str, float] = {}
            for (name, start, end, _parent, rnd), own in zip(doc["spans"], doc["self"]):
                self.calls.setdefault(name, []).append(end - start)
                self.self_calls.setdefault(name, []).append(own)
                per = self.per_round_self.setdefault(name, {})
                per[rnd] = per.get(rnd, 0.0) + own
                in_process[name] = in_process.get(name, 0.0) + (end - start)
            for name, total in in_process.items():
                self.per_process.setdefault(name, []).append(total)
            for name, rnd, value in doc["counts"]:
                per = self.counts.setdefault(name, {})
                per[rnd] = per.get(rnd, 0) + value
            self.load_rows.extend(doc["load_rows"])
            if doc.get("load_peak_rss_mb") is not None:
                self.load_peak.append(doc["load_peak_rss_mb"])

    def call_ms(self, name: str, own: bool = False) -> float:
        """Median duration of one call, in ms."""
        source = self.self_calls if own else self.calls
        return 1000.0 * median(source.get(name, []))

    def pass_s(self, name: str) -> float:
        """Median over traced rounds of the self time summed in one round."""
        per = self.per_round_self.get(name, {})
        return median(per.get(r, 0.0) for r in self.rounds)

    def per_round_counts(self, name: str) -> List[float]:
        per = self.counts.get(name, {})
        return [per.get(r, 0) for r in self.rounds]

    def count(self, name: str) -> float:
        """A count per pass; counts must repeat exactly from round to round."""
        values = self.per_round_counts(name)
        return values[0] if values else 0

    def counts_repeat(self, names) -> bool:
        return all(len(set(self.per_round_counts(n))) <= 1 for n in names)

    def process_s(self, name: str) -> float:
        """Median over processes of the time one process spent in `name`."""
        return median(self.per_process.get(name, []))
