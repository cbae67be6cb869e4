"""Logical planning: lower a bound query into a staged plan of operator nodes.

A plan is a chain of nodes, each fed by the one before it, grouped into
stages for display. `pql.engine` runs a plan by walking its nodes in order,
one column-at-a-time kernel call per node, so the plan `explain` prints is
the plan that runs. The optimized training plan has four stages with
materialization barriers between them:

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

from dataclasses import dataclass, field
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
    kind: str
    detail: str = ""
    payload: object = field(default=None, compare=False, repr=False)
    inputs: Tuple[int, ...] = ()


@dataclass(frozen=True)
class Stage:
    name: str
    node_ids: Tuple[int, ...]
    note: str = ""


@dataclass(frozen=True)
class LogicalPlan:
    mode: str  # "training" | "prediction"
    optimized: bool
    bound: BoundQuery
    policy: Optional[AnchorPolicy]
    nodes: Tuple[PlanNode, ...]
    stages: Tuple[Stage, ...]
    prediction_at: Optional[int] = None

    @property
    def output_columns(self) -> Tuple[str, ...]:
        """The columns of the final Project node."""
        return self.nodes[-1].payload


_STATIC_SKIPS = (
    Stage("anchor expansion", (), note="skipped: static query"),
    Stage("temporal filters", (), note="skipped: static query"),
)


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


def _append(nodes: List[PlanNode], kind: str, detail: str = "", payload: object = None) -> int:
    """Append a node fed by the previous one; returns its id."""
    nid = len(nodes)
    nodes.append(PlanNode(kind, detail, payload, (nid - 1,) if nid else ()))
    return nid


def _append_project(nodes: List[PlanNode], bound: BoundQuery, mode: str) -> int:
    cols: Tuple[str, ...] = ("ENTITY",) if bound.is_static else ("ENTITY", "TIMESTAMP")
    if mode == "training":
        cols += ("TARGET", "SPLIT")
    return _append(nodes, "Project", ", ".join(cols), cols)


def _entity_stage_nodes(bound: BoundQuery, nodes: List[PlanNode]) -> List[int]:
    return [_append(nodes, "ScanEntities", bound.entity_table)] + [
        _append(nodes, "StaticEntityFilter", _describe(c), c)
        for c in bound.static_conjuncts
    ]


def plan_training(
    bound: BoundQuery, policy: Optional[AnchorPolicy] = None, *, optimized: bool = True
) -> LogicalPlan:
    """Lower a bound query to a training-table plan."""
    policy = policy or AnchorPolicy()
    if not optimized:
        return _plan_training_naive(bound, policy)

    nodes: List[PlanNode] = []
    stages = [Stage("static entity filters", tuple(_entity_stage_nodes(bound, nodes)))]
    if bound.is_static:
        stages += _STATIC_SKIPS
    else:
        validity = "validity-pruned" if bound.entity_validity else "no validity columns"
        detail = (
            f"count={policy.count} stride={_fmt_stride(policy)} "
            f"latest={_fmt_latest(policy)} ({validity})"
        )
        stages.append(Stage("anchor expansion", (_append(nodes, "AnchorExpand", detail, policy),)))
        stage3 = [
            _append(nodes, "TemporalEntityFilter", _describe(c), c)
            for c in bound.temporal_conjuncts
        ]
        if bound.assuming is not None:
            stage3.append(
                _append(nodes, "AssumingFilter", _describe(bound.assuming), bound.assuming)
            )
        stages.append(Stage("temporal filters", tuple(stage3)))

    target = _append(nodes, "TargetCompute", _describe(bound.target), bound.target)
    stages.append(Stage("target computation", (target, _append_project(nodes, bound, "training"))))
    return LogicalPlan("training", True, bound, policy, tuple(nodes), tuple(stages))


def _plan_training_naive(bound: BoundQuery, policy: AnchorPolicy) -> LogicalPlan:
    """Baseline plan: real cross product, targets for every pair, then the
    filters in the order they run, no stage barriers."""
    nodes: List[PlanNode] = []
    _append(nodes, "ScanEntities", bound.entity_table)
    if not bound.is_static:
        detail = f"count={policy.count} stride={_fmt_stride(policy)} (materialized cross product)"
        _append(nodes, "CrossJoinAnchors", detail, policy)
    _append(nodes, "TargetCompute", _describe(bound.target) + " (all pairs)", bound.target)
    for cond in bound.static_conjuncts:
        _append(nodes, "LateEntityFilter", _describe(cond), cond)
    if bound.entity_validity and not bound.is_static:
        _append(nodes, "LateValidityFilter", "drop anchors outside entity validity")
    for cond in bound.temporal_conjuncts:
        _append(nodes, "LateTemporalFilter", _describe(cond), cond)
    if bound.assuming is not None:
        _append(nodes, "AssumingFilter", _describe(bound.assuming), bound.assuming)
    _append_project(nodes, bound, "training")
    return LogicalPlan(
        "training",
        False,
        bound,
        policy,
        tuple(nodes),
        (Stage("single pass (no materialization barriers)", tuple(range(len(nodes)))),),
    )


def plan_prediction(bound: BoundQuery, at: Optional[int] = None) -> LogicalPlan:
    """Prediction-table plan: one anchor, no target computation, no ASSUMING."""
    nodes: List[PlanNode] = []
    stage1 = _entity_stage_nodes(bound, nodes)
    if bound.is_static:
        stage1.append(
            _append(nodes, "SelectMissingTarget", _missing_target_detail(bound), bound.target)
        )
        stages = [Stage("static entity filters", tuple(stage1)), *_STATIC_SKIPS]
    else:
        at_text = "latest event time" if at is None else format_timestamp(at)
        expand = _append(nodes, "AnchorExpand", f"single anchor = {at_text}")
        stage3 = [
            _append(nodes, "TemporalEntityFilter", _describe(c), c)
            for c in bound.temporal_conjuncts
        ]
        stages = [
            Stage("static entity filters", tuple(stage1)),
            Stage("anchor expansion", (expand,)),
            Stage("temporal filters", tuple(stage3)),
        ]

    extra: List[int] = []
    if bound.task.task_type is TaskType.LINK_PREDICTION:
        detail = f"candidates = {bound.task.link_target_table}"
        if bound.prediction_filter is not None:
            detail += f" where {_describe(bound.prediction_filter)}"
        extra.append(_append(nodes, "CandidateSet", detail, bound.prediction_filter))
    extra.append(_append_project(nodes, bound, "prediction"))
    stages.append(Stage("target computation", tuple(extra), note="skipped: labels are predicted"))
    return LogicalPlan("prediction", True, bound, None, tuple(nodes), tuple(stages), prediction_at=at)


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


def _fmt_stride(policy: AnchorPolicy) -> str:
    return policy.stride if isinstance(policy.stride, str) else format_duration(policy.stride)


def _fmt_latest(policy: AnchorPolicy) -> str:
    return policy.latest if isinstance(policy.latest, str) else format_timestamp(policy.latest)


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


def resolve_anchors(bound: BoundQuery, policy: AnchorPolicy, db) -> List[int]:
    """Concrete anchor timestamps, newest first.

    The newest anchor leaves room for the future extent; anchors step back
    one stride at a time. With an unbounded (-INF) lookback the earliest
    anchor keeps one stride of history ahead of the dataset start; otherwise
    anchors simply never precede the dataset start.
    """
    if bound.is_static:
        return []
    max_t = db.max_event_time()
    min_t = db.min_event_time()
    if max_t is None:
        raise PlanError("temporal query over a database with no dated rows")
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


def explain(plan: LogicalPlan) -> str:
    """Stable, human-readable rendering of a plan, stage by stage."""
    bound = plan.bound
    lines = [
        f"{plan.mode.capitalize()}Plan "
        f"({'optimized' if plan.optimized else 'unoptimized'}, "
        f"task={bound.task.task_type.value}, {bound.timeframe.describe()})"
    ]
    for i, stage in enumerate(plan.stages, start=1):
        head = f"Stage {i}: {stage.name}" if plan.optimized else stage.name.capitalize()
        if stage.note:
            head += f" ({stage.note})"
        lines.append(head)
        for nid in stage.node_ids:
            node = plan.nodes[nid]
            detail = f" {node.detail}" if node.detail else ""
            lines.append(f"  {node.kind}{detail}")
    return "\n".join(lines) + "\n"


def plan_to_json(plan: LogicalPlan) -> dict:
    return {
        "mode": plan.mode,
        "optimized": plan.optimized,
        "task": plan.bound.task.to_json(),
        "timeframe": plan.bound.timeframe.to_json(),
        "leakage": plan.bound.leakage.to_json(),
        "output_columns": list(plan.output_columns),
        "stages": [
            {
                "name": s.name,
                "note": s.note or None,
                "nodes": [
                    {
                        "id": nid,
                        "kind": plan.nodes[nid].kind,
                        "detail": plan.nodes[nid].detail,
                        "inputs": list(plan.nodes[nid].inputs),
                    }
                    for nid in s.node_ids
                ],
            }
            for s in plan.stages
        ],
    }
