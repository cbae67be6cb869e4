"""Machine-speed probe, so that times read the same on a busy shared host.

On the reference machine, a 2-core VM on a shared host, the same CPU-bound
code runs up to 40% slower for stretches of ten seconds or more, and the
process CPU time slows with it (the host, not the scheduler, is slow).
Medians over a run cannot remove that. So the benchmark runs this fixed
probe before every round of a warm workload, and around every `gen-data`
and before every command of `cli_cold`, and multiplies the run's times by
`REFERENCE_PROBE_S / median probe time`: durations at the speed at which
the probe takes REFERENCE_PROBE_S. The probe mixes what pql
spends its time on: numpy sorting and gathers, tuple building, CSV
parsing and interpreter loops. It is the benchmark's own code, so a change
to pql cannot move it.
"""

from __future__ import annotations

import csv
import statistics
import time

import numpy as np

# The probe's median time on the reference machine (2-core VM, shared host),
# so that scaled times stay close to seconds there.
REFERENCE_PROBE_S = 0.0160

_VALUES = np.random.default_rng(0).integers(0, 1 << 40, 50_000)
_LINES = [f"{i},{i * 0.25},2023-01-01T00:00:{i % 60:02d}Z,{i % 997}" for i in range(4_000)]


def _probe() -> int:
    order = np.argsort(_VALUES, kind="stable")
    keys = _VALUES[order].tolist()
    rows = [(k, i) for i, k in enumerate(keys[:20_000])]
    sums: dict = {}
    for rec in csv.reader(_LINES):
        sums[rec[3]] = sums.get(rec[3], 0.0) + float(rec[1])
    total = 0
    for i in range(10_000):
        total += i * i % 7
    return total + len(rows) + len(sums)


def probe_seconds(repeats: int = 3) -> float:
    """Median time of `repeats` runs of the probe."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _probe()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
