"""Logical planning: lower a bound query into a staged plan of operator nodes.

A plan is a chain of nodes, each fed by the one before it. `pql.engine`
runs a plan by walking its nodes in order, one column-at-a-time kernel call
per node. The nodes are the whole plan: `explain` and `plan_to_json` derive
the stages and each node's text from them when the plan is printed, so the
plan `pql plan` prints is the plan that runs, and building a plan renders
no text. The optimized training plan has four stages with materialization
barriers between them:

  1. static entity filters       (anchor-independent conjuncts, pushed down)
  2. anchor expansion            (entity x anchor generator, validity-pruned)
  3. temporal filters            (anchor-dependent conjuncts, then ASSUMING)
  4. target computation          (last; it drops the fewest rows)

Static queries skip stages 2-3. The unoptimized variant used as a benchmark
baseline materializes a genuine entity-by-anchor cross product, computes
targets for every pair, and then filters in the order it lists: static
conjuncts, validity, temporal conjuncts, ASSUMING. In both, a row whose
target gives no label (undefined, or an empty list where those are
dropped) leaves at the final Project, after every filter.

Prediction plans have a single anchor, never compute targets, and never
apply ASSUMING. Static ones keep exactly the entities whose label training
drops (SelectMissingTarget); link-prediction plans carry the candidate
filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .ast import Aggregation, And, ColumnRef, Compare, Constant, Not, Or, unparse_expr
from .binder import BoundAggregation, BoundAnd, BoundColumn, BoundCompare, BoundNot, BoundQuery, TaskType
from .errors import ExecutionError, PlanError
from .store import ListType
from .times import format_duration, format_timestamp


@dataclass(frozen=True)
class AnchorPolicy:
    """How anchor timestamps are chosen for training tables.

    `stride` and `latest` default to "auto": stride becomes one full
    timeframe (past + future when the past is bounded, else one future
    extent), and the latest anchor becomes the dataset's maximum event time
    minus the future extent. Anchors walk back from the latest one.
    """

    count: int = 10
    stride: Union[int, str] = "auto"  # micros or "auto"
    latest: Union[int, str] = "auto"  # micros or "auto"

    def __post_init__(self):
        if self.count < 1:
            raise PlanError("anchor count must be positive")
        if isinstance(self.stride, int) and self.stride <= 0:
            raise PlanError("anchor stride must be positive")


@dataclass(frozen=True)
class PlanNode:
    """One operator: its kind, and what it evaluates (a bound condition or
    target, or the Project's column names)."""

    kind: str
    payload: object = None


@dataclass(frozen=True)
class LogicalPlan:
    mode: str  # "training" | "prediction"
    optimized: bool
    bound: BoundQuery
    policy: Optional[AnchorPolicy]
    nodes: Tuple[PlanNode, ...]
    prediction_at: Optional[int] = None

    @property
    def output_columns(self) -> Tuple[str, ...]:
        """The columns of the final Project node."""
        return self.nodes[-1].payload


def _project(bound: BoundQuery, mode: str) -> PlanNode:
    cols: Tuple[str, ...] = ("ENTITY",) if bound.is_static else ("ENTITY", "TIMESTAMP")
    if mode == "training":
        cols += ("TARGET", "SPLIT")
    return PlanNode("Project", cols)


def _entity_nodes(bound: BoundQuery) -> List[PlanNode]:
    return [PlanNode("ScanEntities")] + [PlanNode("StaticEntityFilter", c) for c in bound.static_conjuncts]


def _temporal_nodes(bound: BoundQuery) -> List[PlanNode]:
    """Anchor expansion, then the anchor-dependent conjuncts."""
    return [PlanNode("AnchorExpand")] + [PlanNode("TemporalEntityFilter", c) for c in bound.temporal_conjuncts]


def plan_training(
    bound: BoundQuery, policy: Optional[AnchorPolicy] = None, *, optimized: bool = True
) -> LogicalPlan:
    """Lower a bound query to a training-table plan."""
    policy = policy or AnchorPolicy()
    if not optimized:
        return _plan_training_naive(bound, policy)

    nodes = _entity_nodes(bound)
    if not bound.is_static:
        nodes += _temporal_nodes(bound)
        if bound.assuming is not None:
            nodes.append(PlanNode("AssumingFilter", bound.assuming))
    nodes += [PlanNode("TargetCompute", bound.target), _project(bound, "training")]
    return LogicalPlan("training", True, bound, policy, tuple(nodes))


def _plan_training_naive(bound: BoundQuery, policy: AnchorPolicy) -> LogicalPlan:
    """Baseline plan: real cross product, targets for every pair, then the
    filters in the order they run, no stage barriers."""
    nodes = [PlanNode("ScanEntities")]
    if not bound.is_static:
        nodes.append(PlanNode("CrossJoinAnchors"))
    nodes.append(PlanNode("TargetCompute", bound.target))
    nodes += [PlanNode("LateEntityFilter", c) for c in bound.static_conjuncts]
    if bound.entity_validity and not bound.is_static:
        nodes.append(PlanNode("LateValidityFilter"))
    nodes += [PlanNode("LateTemporalFilter", c) for c in bound.temporal_conjuncts]
    if bound.assuming is not None:
        nodes.append(PlanNode("AssumingFilter", bound.assuming))
    nodes.append(_project(bound, "training"))
    return LogicalPlan("training", False, bound, policy, tuple(nodes))


def plan_prediction(bound: BoundQuery, at: Optional[int] = None) -> LogicalPlan:
    """Prediction-table plan: one anchor, no target computation, no ASSUMING."""
    if bound.is_static and at is not None:
        raise PlanError("static query takes no anchor")
    nodes = _entity_nodes(bound)
    if bound.is_static:
        nodes.append(PlanNode("SelectMissingTarget", bound.target))
    else:
        nodes += _temporal_nodes(bound)
    if bound.task.task_type is TaskType.LINK_PREDICTION:
        nodes.append(PlanNode("CandidateSet", bound.prediction_filter))
    nodes.append(_project(bound, "prediction"))
    return LogicalPlan("prediction", True, bound, None, tuple(nodes), prediction_at=at)


# ---------------------------------------------------------------------------
# Anchor resolution (needs the data's time range, so it runs at execution)


def resolve_stride(bound: BoundQuery, policy: AnchorPolicy) -> int:
    """One full timeframe, or 0 when that is degenerate (an unbounded
    lookback with no forward window overlaps every anchor regardless, so
    only a single anchor is emitted unless the user sets a stride)."""
    if isinstance(policy.stride, int):
        return policy.stride
    tf = bound.timeframe
    return tf.future if tf.past is None else tf.past + tf.future


def latest_event_time(db) -> int:
    """The newest time in any time column: a temporal query's anchors
    count back from it, and a prediction without `--at` is made at it."""
    max_t = db.max_event_time()
    if max_t is None:
        raise PlanError("temporal query over a database with no dated rows")
    return max_t


def resolve_anchors(bound: BoundQuery, policy: AnchorPolicy, db) -> List[int]:
    """Concrete anchor timestamps, newest first.

    The newest anchor leaves room for the future extent; anchors step back
    one stride at a time. With an unbounded (-INF) lookback the earliest
    anchor keeps one stride of history ahead of the dataset start; otherwise
    anchors simply never precede the dataset start.
    """
    if bound.is_static:
        return []
    max_t = latest_event_time(db)
    min_t = db.min_event_time()
    stride = resolve_stride(bound, policy)
    latest = policy.latest if isinstance(policy.latest, int) else max_t - bound.timeframe.future
    if stride == 0:
        return [latest] if latest >= min_t else []
    floor = min_t + stride if bound.timeframe.past is None else min_t
    anchors = []
    t = latest
    for _ in range(policy.count):
        if t < floor:
            break
        anchors.append(t)
        t -= stride
    return anchors


def feasible_anchors(bound: BoundQuery, policy: AnchorPolicy, db) -> List[int]:
    """`resolve_anchors`, refusing an empty grid for a temporal query as an
    `ExecutionError`: no anchor leaves room for its windows in the data."""
    anchors = resolve_anchors(bound, policy, db)
    if not anchors and not bound.is_static:
        raise ExecutionError("no feasible anchors: the data span is shorter than one anchor stride")
    return anchors


# ---------------------------------------------------------------------------
# Explain / serialization


# The printed stage of each node kind in an optimized plan.
_STAGE_NAMES = ("static entity filters", "anchor expansion", "temporal filters", "target computation")
_STAGE_OF = {
    "ScanEntities": 0,
    "StaticEntityFilter": 0,
    "SelectMissingTarget": 0,
    "AnchorExpand": 1,
    "TemporalEntityFilter": 2,
    "AssumingFilter": 2,
    "TargetCompute": 3,
    "CandidateSet": 3,
    "Project": 3,
}


def _stages(plan: LogicalPlan) -> List[Tuple[str, str, List[int]]]:
    """The printed stages: (name, note, ids of their nodes). The
    cross-product plan is one stage, as it has no materialization barriers."""
    if not plan.optimized:
        return [("single pass (no materialization barriers)", "", list(range(len(plan.nodes))))]
    ids: List[List[int]] = [[] for _ in _STAGE_NAMES]
    for nid, node in enumerate(plan.nodes):
        ids[_STAGE_OF[node.kind]].append(nid)
    skipped = "skipped: static query" if plan.bound.is_static else ""
    predicted = "skipped: labels are predicted" if plan.mode == "prediction" else ""
    return list(zip(_STAGE_NAMES, ("", skipped, skipped, predicted), ids))


def _as_ast(node):
    """The parse tree a bound target or condition renders as."""
    if isinstance(node, BoundColumn):
        return ColumnRef(node.table, node.column)
    if isinstance(node, BoundAggregation):
        where = None if node.where is None else _as_ast(node.where)
        return Aggregation(node.kind, ColumnRef(node.table, node.column or "*"), where, node.window)
    if isinstance(node, BoundCompare):
        return Compare(_as_ast(node.lhs), node.op, Constant(node.rhs.kind, node.rhs.value))
    if isinstance(node, BoundNot):
        return Not(_as_ast(node.operand))
    return (And if isinstance(node, BoundAnd) else Or)(_as_ast(node.left), _as_ast(node.right))


def _describe(node) -> str:
    """A bound target or condition as canonical query text."""
    return unparse_expr(_as_ast(node))


def _fmt_stride(policy: AnchorPolicy) -> str:
    return policy.stride if isinstance(policy.stride, str) else format_duration(policy.stride)


def _fmt_latest(policy: AnchorPolicy) -> str:
    return policy.latest if isinstance(policy.latest, str) else format_timestamp(policy.latest)


def _missing_target_detail(bound: BoundQuery) -> str:
    """The entities a static prediction keeps: those whose training row is
    dropped for its label. A ranking drops an empty list; a multilabel task
    keeps it as an all-negative label, so it predicts for no entity."""
    target = _describe(bound.target)
    if not isinstance(bound.task.target_dtype, ListType):
        return f"keep entities whose target {target} is undefined"
    if bound.task.task_type is TaskType.LINK_PREDICTION:
        return f"keep entities whose target {target} is an empty list"
    return f"keep no entities: an empty {target} is a label"


def _detail(plan: LogicalPlan, node: PlanNode) -> str:
    """The text printed after a node's kind."""
    bound, kind, policy = plan.bound, node.kind, plan.policy
    if kind == "ScanEntities":
        return bound.entity_table
    if kind == "AnchorExpand" and plan.mode == "prediction":
        at = plan.prediction_at
        return "single anchor = " + ("latest event time" if at is None else format_timestamp(at))
    if kind == "AnchorExpand":
        validity = "validity-pruned" if bound.entity_validity else "no validity columns"
        return f"count={policy.count} stride={_fmt_stride(policy)} latest={_fmt_latest(policy)} ({validity})"
    if kind == "CrossJoinAnchors":
        return f"count={policy.count} stride={_fmt_stride(policy)} (materialized cross product)"
    if kind == "LateValidityFilter":
        return "drop anchors outside entity validity"
    if kind == "SelectMissingTarget":
        return _missing_target_detail(bound)
    if kind == "CandidateSet":
        where = "" if node.payload is None else f" where {_describe(node.payload)}"
        return f"candidates = {bound.task.link_target_table}{where}"
    if kind == "Project":
        return ", ".join(node.payload)
    if kind == "TargetCompute" and not plan.optimized:
        return _describe(node.payload) + " (all pairs)"
    return _describe(node.payload)


def explain(plan: LogicalPlan) -> str:
    """Stable, human-readable rendering of a plan, stage by stage."""
    bound = plan.bound
    lines = [
        f"{plan.mode.capitalize()}Plan "
        f"({'optimized' if plan.optimized else 'unoptimized'}, "
        f"task={bound.task.task_type.value}, {bound.timeframe.describe()})"
    ]
    for i, (name, note, ids) in enumerate(_stages(plan), start=1):
        head = f"Stage {i}: {name}" if plan.optimized else name.capitalize()
        lines.append(f"{head} ({note})" if note else head)
        lines += [f"  {plan.nodes[nid].kind} {_detail(plan, plan.nodes[nid])}" for nid in ids]
    return "\n".join(lines) + "\n"


def plan_to_json(plan: LogicalPlan) -> dict:
    """The plan as JSON, stage by stage; each node is fed by the one before it."""
    return {
        "mode": plan.mode,
        "optimized": plan.optimized,
        "task": plan.bound.task.to_json(),
        "timeframe": plan.bound.timeframe.to_json(),
        "leakage": plan.bound.leakage.to_json(),
        "output_columns": list(plan.output_columns),
        "stages": [
            {
                "name": name,
                "note": note or None,
                "nodes": [
                    {
                        "id": nid,
                        "kind": plan.nodes[nid].kind,
                        "detail": _detail(plan, plan.nodes[nid]),
                        "inputs": [nid - 1] if nid else [],
                    }
                    for nid in ids
                ],
            }
            for name, note, ids in _stages(plan)
        ],
    }
