"""What the benchmark under perfbench/ looks up in pql: the layer functions
its tracer wraps and the flags its cold commands pass. perfbench's own smoke
test runs the workloads end to end; this catches a renamed function or a
dropped flag in a second. The perfbench files are only read."""

import importlib
import sys
import types
from pathlib import Path

import pytest

from pql.cli import build_parser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"_perfbench_{name}")
    sys.modules[module.__name__] = module  # dataclasses resolve annotations through it
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


layertrace = _load("layertrace")
workloads = _load("workloads")


@pytest.mark.parametrize(
    "module,function", sorted({(m, f) for m, f, _ in layertrace.LAYER_FUNCTIONS}), ids=".".join
)
def test_traced_layer_function_exists(module, function):
    assert callable(getattr(importlib.import_module(module), function, None))


@pytest.mark.parametrize("op", workloads.CLI_OPS, ids=lambda op: op.name)
def test_cold_command_flags_parse(op):
    args = build_parser().parse_args(op.cli_args("data", "out"))
    assert args.command == op.command
