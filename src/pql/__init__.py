"""Toolchain for a declarative predictive query language over relational data.

Parse and validate queries against a schema, infer the ML task and temporal
frame, compile to a staged logical plan, and execute it into leakage-free
training and prediction tables — in batch over an in-memory columnar store,
or via low-latency row-subgraph sampling for a handful of entities.
"""

from .ast import Query, unparse
from .binder import BoundQuery, TaskSpec, TaskType, Timeframe, bind, extract_prediction_filter, infer_task
from .engine import (
    PredictionTable,
    TrainingTable,
    evaluate_pairs,
    materialize_prediction,
    materialize_training,
)
from .errors import BindError, DataError, ExecutionError, LexError, ParseError, PqlError, SchemaError
from .leakage import leakage_rows
from .oracle import oracle_training
from .parser import parse
from .planner import AnchorPolicy, LogicalPlan, explain, plan_prediction, plan_training, resolve_anchors
from .sampler import SampleRequest, Subgraph, build_request, collect, compute_on_subgraph, sample_pairs
from .splits import SplitPolicy
from .store import (
    Database,
    RowGraph,
    RowRef,
    Schema,
    build_row_graph,
    load_database,
    load_schema,
    load_table_data,
    new_database,
)
from .synth import GenSpec, generate, hm_genspec, random_database, random_query, random_schema

__version__ = "0.1.0"

__all__ = [
    "AnchorPolicy",
    "BindError",
    "BoundQuery",
    "Database",
    "DataError",
    "ExecutionError",
    "GenSpec",
    "LexError",
    "LogicalPlan",
    "ParseError",
    "PqlError",
    "PredictionTable",
    "Query",
    "RowGraph",
    "RowRef",
    "SampleRequest",
    "Schema",
    "SchemaError",
    "SplitPolicy",
    "Subgraph",
    "TaskSpec",
    "TaskType",
    "Timeframe",
    "TrainingTable",
    "bind",
    "build_request",
    "build_row_graph",
    "collect",
    "compute_on_subgraph",
    "evaluate_pairs",
    "explain",
    "extract_prediction_filter",
    "generate",
    "hm_genspec",
    "infer_task",
    "leakage_rows",
    "load_database",
    "load_schema",
    "load_table_data",
    "materialize_prediction",
    "materialize_training",
    "new_database",
    "oracle_training",
    "parse",
    "plan_prediction",
    "plan_training",
    "random_database",
    "random_query",
    "random_schema",
    "resolve_anchors",
    "sample_pairs",
    "unparse",
]
