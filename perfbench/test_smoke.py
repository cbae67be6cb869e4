"""Smoke test for the benchmark: every workload at a tiny scale, both modes.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q

It checks that each run prints every metric name and unit that
BENCHMARK.json lists, that every distinct operation was checked against
the reference and nothing failed, and that the benchmark refuses to run
without the pql sources next to it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
from workloads import BATCH_OPS, CLI_OPS, SAMPLE_REQUESTS  # noqa: E402

TINY = ["--seed", "3", "--seconds", "1", "--scale", "0.001"]


def run(cwd: Path, script: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_and_checks_every_operation(workload, trace):
    proc = run(ROOT, BENCH / "run.py", "--workload", workload, "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stderr
    summary, last = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in wanted}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    # Each distinct operation's first result went through the reference.
    distinct = {"cli_cold": len(CLI_OPS), "batch_warm": len(BATCH_OPS),
                "sample_serve": SAMPLE_REQUESTS}[workload]
    assert f"reference_checked={distinct} " in summary
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_program_sources():
    bare = BENCH / ".work" / f"smoke-bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, bare / "perfbench" / "run.py", "--workload", "cli_cold", "--trace", "0", *TINY)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
