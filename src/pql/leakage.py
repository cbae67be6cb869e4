"""Leakage mask: the rows a downstream model must not see as features.

For one (entity, anchor) pair the mask is the union of

* every row read while computing the label (target and ASSUMING
  evaluation, including parent rows resolved for their filters), and
* every row timestamped at or after the anchor in any time-annotated table
  reachable from the entity table — those rows did not exist at prediction
  time, for any entity.

Static queries have no time axis; their mask is just the rows housing the
target value itself.
"""

from __future__ import annotations

from typing import Optional, Set

import numpy as np

from .binder import BoundColumn, BoundQuery, walk
from .engine import _validity_mask
from .errors import ExecutionError, PlanError
from .kernels import VecCtx
from .sampler import SampleRequest, _reached_rows
from .store import Database, RowRef, build_row_graph


def reachable_tables(db: Database, start: str) -> Set[str]:
    """Tables connected to `start` through FK edges in either direction."""
    seen = {start.upper()}
    frontier = [start.upper()]
    edges = db.schema.edges()
    while frontier:
        cur = frontier.pop()
        for e in edges:
            for nxt in (e.parent_table, e.child_table):
                if cur in (e.parent_table, e.child_table) and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


def leakage_rows(
    bound: BoundQuery, db: Database, entity: RowRef, anchor: Optional[int]
) -> Set[RowRef]:
    """All rows that would leak label information into features for this
    (entity, anchor): a superset of everything the target computation reads.
    """
    if (anchor is None) != bound.is_static:
        raise PlanError("static query takes no anchor" if bound.is_static else "temporal query needs an anchor")
    g = build_row_graph(db)
    if anchor is not None and bound.entity_validity is not None:
        if not _validity_mask(VecCtx(db, g), bound, np.array([entity.index]), anchor)[0]:
            raise ExecutionError(
                f"anchor {anchor} is outside the validity interval of {entity}"
            )

    # The rows the label parts (target and ASSUMING) read, collected as
    # the sampler collects them. The entity row itself counts only when a
    # label part reads one of its columns directly.
    labels = (bound.target, bound.assuming)
    reached, entities = _reached_rows(g, SampleRequest(bound.entity_table, ((entity, anchor),), labels))
    if any(
        isinstance(n, BoundColumn) and not n.hops for part in labels for n in walk(part, filters=False)
    ):
        reached.setdefault(bound.entity_table, []).append(entities)
    mask: Set[RowRef] = {
        RowRef(table, i) for table, arrays in reached.items() for rows in arrays for i in rows.tolist()
    }

    if anchor is not None:
        for name in reachable_tables(db, bound.entity_table):
            tdata = db.tables.get(name)
            if tdata is None or tdata.definition.time_column is None:
                continue
            col = tdata.column(tdata.definition.time_column)
            future = np.nonzero(~col.null & (col.values >= anchor))[0]
            for i in future:
                mask.add(RowRef(name, int(i)))
    return mask
