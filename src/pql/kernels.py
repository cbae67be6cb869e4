"""Vectorized evaluation kernels over the columnar store and row graph.

Everything here computes per-row numpy arrays for a batch of base rows.
The anchor is one int for the whole batch or an int64 array with one
anchor per row, so pairs at several anchors run in one pass. Two gather
modes drive the two execution strategies:

* restricted — a binary-searched window: each selected parent's window is
  cut out of the CSR adjacency by two `searchsorted` calls on the edge's
  sorted (parent, time-rank) keys, at that parent's anchor, and only the
  window's slots are taken, so work scales with parents x log(children)
  plus the rows kept;
* full scan — one boolean mask over a whole child table per anchor, the
  shape of the baseline cross-product strategy; it takes one anchor.

These kernels are the one production definition of PQL semantics: the
batch engine, the pairwise evaluator and the sampler all run on them, and
`pql.oracle` is the independent check. A comparison with a null or
undefined operand is false (IS / IS NOT excepted), connectives are
two-valued.

Each operator has one code path for every column dtype: numpy compares,
sorts and tests membership of string (object) arrays element by element,
and the null mask hides what null and undefined cells hold. Two forks are
chosen by dtype because they measured faster: `_distinct_lists` builds a
set per entity for strings (2.2-3.5x faster than an object sort at
100k-1M rows), and `store._resolve_fk` maps string keys through a dict
(0.28 s against 1.14 s for a sorted search over 1M keys). `_string_loop`,
a per-row Python loop, serves only the string-only operators LIKE,
CONTAINS, STARTS_WITH and ENDS_WITH.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .ast import AggKind, RelOp, NULL_OPS
from .binder import (
    BoundAggregation,
    BoundAnd,
    BoundColumn,
    BoundCompare,
    BoundCondition,
    BoundNot,
    BoundOr,
    BoundTarget,
    walk,
)
from .errors import ExecutionError
from .store import Database, DataType, EdgeIndex, RowGraph

_INT_MIN = np.iinfo(np.int64).min
_INT_MAX = np.iinfo(np.int64).max

# No anchor, one anchor for the batch, or an int64 anchor per row.
Anchor = Union[None, int, np.ndarray]


@dataclass
class VecCtx:
    db: Database
    g: RowGraph
    regexes: Dict[int, "re.Pattern"] = field(default_factory=dict)
    # When set, child gathers always scan the whole child table (the shape
    # of the unoptimized cross-product strategy) instead of slicing the CSR
    # adjacency per selected parent.
    fullscan: bool = False


class SumOverflow(ExecutionError):
    """An int64 SUM left the int64 range; `segments` masks the base rows of
    the batch whose sum did."""

    def __init__(self, segments: np.ndarray):
        super().__init__("SUM leaves the int64 range")
        self.segments = segments


def like_regex(pattern: str) -> "re.Pattern":
    """Translate a LIKE pattern (% = any run, _ = one char) to a regex."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out), re.DOTALL)


def _edge_slot_arrays(idx: EdgeIndex) -> np.ndarray:
    """Per-slot time ranks (`keys % K`) for full-scan gathers, built on first
    use and kept on the edge index."""
    if idx.slot_ranks is None:
        idx.slot_ranks = idx.keys % idx.radix
    return idx.slot_ranks


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an int64 array. A sort and a neighbour
    compare: `np.unique` hashes, which at a few thousand values costs about
    ten times as much."""
    values = np.sort(values)
    if len(values) < 2:
        return values
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _multiarange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offset = np.cumsum(lengths) - lengths
    return np.repeat(starts - offset, lengths) + np.arange(total, dtype=np.int64)


@dataclass
class Gather:
    """Children gathered for a batch of parents: CSR slot positions plus the
    local segment (parent) id of every slot."""

    idx: EdgeIndex
    pos: np.ndarray  # CSR slot positions, per-segment ascending
    seg: np.ndarray  # local parent index aligned with pos
    n_seg: int

    @property
    def child_rows(self) -> np.ndarray:
        return self.idx.order[self.pos]

    @property
    def ranks(self) -> np.ndarray:
        """Time rank of every slot (`EdgeIndex.radix - 1` when undated)."""
        return self.idx.keys[self.pos] % self.idx.radix

    def keep(self, mask: np.ndarray) -> "Gather":
        return Gather(self.idx, self.pos[mask], self.seg[mask], self.n_seg)


def gather_children(
    ctx: VecCtx,
    agg: BoundAggregation,
    parents: np.ndarray,
    anchor: Anchor,
) -> Gather:
    """Collect child slots for each of the given parent rows. Windowed
    gathers take the dated children in [anchor + start, anchor + end), at
    each parent's own anchor when `anchor` is an array aligned with
    `parents`; unwindowed gathers take every child, undated included.

    The restricted gather is a binary-searched window: the window's time
    bounds become ranks in the child table's `time_values`, and each
    parent's slot range is found by searching `parent * K + rank` in the
    edge's sorted keys. The full scan masks every slot's rank instead."""
    idx = ctx.g.edge_index(agg.group_edge)
    windowed = agg.window is not None
    if windowed:
        if anchor is None:
            raise ExecutionError("windowed gather requires an anchor")
        start = agg.window.start_micros
        # Time bounds as ranks: time >= lo iff rank >= lo_rank, time < hi
        # iff rank < hi_rank, and hi_rank never exceeds the undated rank.
        lo_rank = None if start is None else idx.time_values.searchsorted(anchor + start)
        hi_rank = idx.time_values.searchsorted(anchor + agg.window.end_micros)

    if ctx.fullscan:
        if isinstance(anchor, np.ndarray):
            raise ExecutionError("a full-scan gather takes one anchor")
        if windowed:
            ranks = _edge_slot_arrays(idx)
            mask = ranks < hi_rank
            if lo_rank is not None:
                mask &= ranks >= lo_rank
            pos = np.nonzero(mask)[0]
        else:
            pos = np.arange(len(idx.order), dtype=np.int64)
        seg = idx.keys[pos] // idx.radix
        # Remap global parent rows onto the requested selection.
        local = np.full(len(idx.indptr) - 1, -1, dtype=np.int64)
        local[parents] = np.arange(len(parents), dtype=np.int64)
        seg_local = local[seg]
        inside = seg_local >= 0
        return Gather(idx, pos[inside], seg_local[inside], len(parents))

    # Restricted: binary-search each selected parent's window bounds in the
    # sorted keys and take only the window's slots. Work scales with the
    # selected parents and the rows kept, never with the table. Per-row
    # anchors give per-row ranks, and the searches run elementwise.
    if windowed:
        base = parents * idx.radix
        starts = idx.indptr[parents] if lo_rank is None else idx.keys.searchsorted(base + lo_rank)
        ends = idx.keys.searchsorted(base + hi_rank)
    else:
        starts = idx.indptr[parents]
        ends = idx.indptr[parents + 1]
    lengths = ends - starts
    pos = _multiarange(starts, lengths)
    seg = np.repeat(np.arange(len(parents), dtype=np.int64), lengths)
    return Gather(idx, pos, seg, len(parents))


# ---------------------------------------------------------------------------
# Column fetch


def fetch_rows(ctx: VecCtx, bc: BoundColumn, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Values and null mask of a bound column for a batch of base rows,
    walking child-to-parent hops; an unresolvable hop yields null."""
    cur = rows
    null: Optional[np.ndarray] = None
    for edge in bc.hops:
        nxt = ctx.g.edge_index(edge).forward[cur]
        bad = nxt < 0
        null = bad if null is None else (null | bad)
        cur = np.where(bad, 0, nxt)
    col = ctx.db.table(bc.table).column(bc.column)
    if len(cur) and len(col.values):
        vals = col.values[cur]
        null = col.null[cur] if null is None else (null | col.null[cur])
    else:  # no rows, or hops into an empty table, which reads null
        vals = np.zeros(len(cur), dtype=col.values.dtype)
        null = np.ones(len(cur), dtype=np.bool_)
    return vals, null


# ---------------------------------------------------------------------------
# Comparison / condition kernels


def _string_loop(vals, null, fn) -> np.ndarray:
    out = np.fromiter(
        (False if n else fn(v) for v, n in zip(vals, null)), dtype=np.bool_, count=len(vals)
    )
    return out


def eval_compare_vec(
    ctx: VecCtx, cmp: BoundCompare, table: str, rows: np.ndarray, anchor: Anchor
) -> np.ndarray:
    if isinstance(cmp.lhs, BoundAggregation):
        vals, defined = eval_agg_vec(ctx, cmp.lhs, table, rows, anchor)
        null = ~defined
    else:
        vals, null = fetch_rows(ctx, cmp.lhs, rows)

    op, rhs = cmp.op, cmp.rhs
    if op is RelOp.IS:
        return null.copy()
    if op is RelOp.IS_NOT:
        return ~null

    ok = ~null
    if len(vals) == 0:
        return np.zeros(0, dtype=np.bool_)

    if op in (RelOp.IN, RelOp.IS_IN):
        members = [e.value for e in rhs.value]
        if not members:
            return np.zeros(len(vals), dtype=np.bool_)
        # Members keep their own dtype: cast to the column's, a member
        # outside int64 would raise OverflowError instead of matching nothing.
        return np.isin(vals, np.array(members)) & ok

    if op in (RelOp.LIKE, RelOp.NOT_LIKE):
        pat = ctx.regexes.get(id(cmp))
        if pat is None:
            pat = like_regex(rhs.value)
            ctx.regexes[id(cmp)] = pat
        hit = _string_loop(vals, null, lambda v: pat.fullmatch(v) is not None)
        return hit if op is RelOp.LIKE else (~hit & ok)
    if op in (RelOp.CONTAINS, RelOp.NOT_CONTAINS):
        needle = rhs.value
        hit = _string_loop(vals, null, lambda v: needle in v)
        return hit if op is RelOp.CONTAINS else (~hit & ok)
    if op is RelOp.STARTS_WITH:
        return _string_loop(vals, null, lambda v: v.startswith(rhs.value))
    if op is RelOp.ENDS_WITH:
        return _string_loop(vals, null, lambda v: v.endswith(rhs.value))

    const = rhs.value
    if op is RelOp.EQ:
        return (vals == const) & ok
    if op is RelOp.NE:
        return (vals != const) & ok
    if op is RelOp.LT:
        return (vals < const) & ok
    if op is RelOp.LE:
        return (vals <= const) & ok
    if op is RelOp.GT:
        return (vals > const) & ok
    if op is RelOp.GE:
        return (vals >= const) & ok
    raise AssertionError(op)


def eval_condition_vec(
    ctx: VecCtx, cond: BoundCondition, table: str, rows: np.ndarray, anchor: Anchor
) -> np.ndarray:
    if isinstance(cond, BoundCompare):
        return eval_compare_vec(ctx, cond, table, rows, anchor)
    if isinstance(cond, BoundNot):
        return ~eval_condition_vec(ctx, cond.operand, table, rows, anchor)
    if isinstance(cond, BoundAnd):
        return eval_condition_vec(ctx, cond.left, table, rows, anchor) & eval_condition_vec(
            ctx, cond.right, table, rows, anchor
        )
    if isinstance(cond, BoundOr):
        return eval_condition_vec(ctx, cond.left, table, rows, anchor) | eval_condition_vec(
            ctx, cond.right, table, rows, anchor
        )
    raise AssertionError(type(cond))


# ---------------------------------------------------------------------------
# Aggregation kernels


def eval_agg_vec(
    ctx: VecCtx,
    agg: BoundAggregation,
    table: str,
    rows: np.ndarray,
    anchor: Anchor,
) -> Tuple[np.ndarray, np.ndarray]:
    """Aggregate values per base row. Returns (values, defined)."""
    gathered = gather_children(ctx, agg, rows, anchor)
    if agg.where is not None:
        try:
            # A child's filter runs at its parent's anchor.
            at = anchor[gathered.seg] if isinstance(anchor, np.ndarray) else anchor
            keep = eval_condition_vec(ctx, agg.where, agg.table, gathered.child_rows, at)
        except SumOverflow as exc:
            # A nested SUM overflowed for some children: report their parents.
            parents = np.bincount(gathered.seg[exc.segments], minlength=gathered.n_seg) > 0
            raise SumOverflow(parents) from None
        gathered = gathered.keep(keep)
    return _fold(ctx, agg, gathered)


def _fold(ctx: VecCtx, agg: BoundAggregation, gth: Gather) -> Tuple[np.ndarray, np.ndarray]:
    n = gth.n_seg
    kind = agg.kind
    seg = gth.seg

    if kind is AggKind.COUNT:
        counts = np.bincount(seg, minlength=n).astype(np.int64)
        return counts, np.ones(n, dtype=np.bool_)

    col = ctx.db.table(agg.table).column(agg.column)
    child_rows = gth.child_rows
    vals = col.values[child_rows]
    null = col.null[child_rows]

    if kind in (AggKind.FIRST, AggKind.LAST):
        # Rank order is time order, so ranks pick and tie as times do.
        ranks = gth.ranks
        dated = ranks < gth.idx.radix - 1
        big = _INT_MAX
        if kind is AggKind.FIRST:
            pick = np.full(n, big, dtype=np.int64)
            np.minimum.at(pick, seg[dated], gth.pos[dated])
        else:
            r_max = np.full(n, -1, dtype=np.int64)
            np.maximum.at(r_max, seg[dated], ranks[dated])
            tie = dated & (ranks == r_max[seg])
            pick = np.full(n, big, dtype=np.int64)
            np.minimum.at(pick, seg[tie], gth.pos[tie])
        has = pick < big
        if len(gth.idx.order) == 0:
            empty = np.zeros(n, dtype=col.values.dtype)
            return empty, np.zeros(n, dtype=np.bool_)
        picked_rows = gth.idx.order[np.where(has, pick, 0)]
        out_vals = col.values[picked_rows]
        out_null = col.null[picked_rows] | ~has
        return out_vals, ~out_null

    m = ~null
    if kind is AggKind.SUM:
        if col.dtype is DataType.INT64:
            out, over = _int_sums(seg[m], vals[m], n)
            if over.any():
                raise SumOverflow(over)
        else:
            out = np.bincount(seg[m], weights=vals[m].astype(np.float64), minlength=n)
        defined = np.bincount(seg[m], minlength=n) > 0
        return out, defined

    if kind is AggKind.AVG:
        sums = np.bincount(seg[m], weights=vals[m].astype(np.float64), minlength=n)
        cnts = np.bincount(seg[m], minlength=n)
        defined = cnts > 0
        return sums / np.maximum(cnts, 1), defined

    if kind in (AggKind.MIN, AggKind.MAX):
        if col.dtype is DataType.FLOAT64:
            init = np.inf if kind is AggKind.MIN else -np.inf
            out = np.full(n, init, dtype=np.float64)
        else:
            out = np.full(n, _INT_MAX if kind is AggKind.MIN else _INT_MIN, dtype=np.int64)
        fn = np.minimum if kind is AggKind.MIN else np.maximum
        fn.at(out, seg[m], vals[m])
        defined = np.bincount(seg[m], minlength=n) > 0
        return out, defined

    if kind is AggKind.COUNT_DISTINCT:
        counts = _distinct_counts(seg[m], vals[m], n)
        return counts, np.ones(n, dtype=np.bool_)

    if kind is AggKind.LIST_DISTINCT:
        lists = _distinct_lists(seg[m], vals[m], n)
        return lists, np.ones(n, dtype=np.bool_)

    raise AssertionError(kind)


def _int_sums(seg: np.ndarray, vals: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Exact per-segment sums of int64 values, and the mask of segments whose
    true sum falls outside int64 (their sum reads 0).

    The low and high 32-bit halves are summed apart, where neither can
    overflow, then carried and range-checked."""
    low = np.zeros(n, dtype=np.int64)
    high = np.zeros(n, dtype=np.int64)
    np.add.at(low, seg, vals & 0xFFFFFFFF)
    np.add.at(high, seg, vals >> 32)
    high += low >> 32
    over = (high < -(1 << 31)) | (high >= 1 << 31)
    return np.where(over, 0, (high << 32) | (low & 0xFFFFFFFF)), over


def distinct_pairs(major: np.ndarray, minor: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each distinct (major, minor) pair once, ordered by major then minor:
    a `lexsort` and a neighbour compare. Any dtype numpy orders will do,
    strings included; of equal values (0.0 and -0.0) the first kept is the
    first in input order."""
    order = np.lexsort((minor, major))
    major, minor = major[order], minor[order]
    first = np.ones(len(major), dtype=np.bool_)
    first[1:] = (major[1:] != major[:-1]) | (minor[1:] != minor[:-1])
    return major[first], minor[first]


def _distinct_counts(seg: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    return np.bincount(distinct_pairs(seg, vals)[0], minlength=n).astype(np.int64)


def _distinct_lists(seg: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    out = np.empty(n, dtype=object)
    # Strings: a set per entity beat an object sort 2.2-3.5x at 100k-1M rows.
    if vals.dtype == object:
        acc = [set() for _ in range(n)]
        for s, v in zip(seg, vals):
            acc[s].add(v)
        for i in range(n):
            out[i] = tuple(sorted(acc[i]))
        return out
    if len(seg) == 0:
        out[:] = [() for _ in range(n)]
        return out
    s, v = distinct_pairs(seg, vals)
    bounds = np.searchsorted(s, np.arange(n + 1))
    vlist = v.tolist()
    for i in range(n):
        out[i] = tuple(vlist[bounds[i] : bounds[i + 1]])
    return out


# ---------------------------------------------------------------------------
# Target kernels


def eval_target_vec(
    ctx: VecCtx, target: BoundTarget, table: str, rows: np.ndarray, anchor: Anchor
) -> Tuple[np.ndarray, np.ndarray]:
    """Target values and definedness for a batch of entity rows.

    A plain column target is undefined where the column is null; an
    aggregation target where the aggregate is undefined; a condition target
    where any raw column read feeding a comparison is null (the value the
    label should be computed from is missing, so the row is an imputation
    candidate, not a labelled example). Reads inside an aggregation's
    filter never escape the aggregation.
    """
    if isinstance(target, BoundColumn):
        vals, null = fetch_rows(ctx, target, rows)
        return vals, ~null
    if isinstance(target, BoundAggregation):
        return eval_agg_vec(ctx, target, table, rows, anchor)
    flags = np.zeros(len(rows), dtype=np.bool_)
    for node in walk(target, filters=False):
        # Reads under IS / IS NOT interrogate null, so they are exempt.
        if isinstance(node, BoundCompare) and isinstance(node.lhs, BoundColumn) and node.op not in NULL_OPS:
            flags |= fetch_rows(ctx, node.lhs, rows)[1]
    result = eval_condition_vec(ctx, target, table, rows, anchor)
    return result, ~flags
