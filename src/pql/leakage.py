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
from .engine import _validity_mask, check_pairs
from .errors import ExecutionError
from .sampler import _reached_rows
from .store import Database, RowRef


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
    table = bound.entity_table
    _, rows, at = check_pairs(((entity, anchor),), db, table, bound.is_static)
    if at is not None and bound.entity_validity is not None and not _validity_mask(db, bound, rows, at)[0]:
        raise ExecutionError(f"anchor {anchor} is outside the validity interval of {entity}")

    # The rows the label parts (target and ASSUMING) read, collected as
    # the sampler collects them. The entity row itself counts only when a
    # label part reads one of its columns directly.
    labels = (bound.target, bound.assuming)
    reached = _reached_rows(db, labels, rows, at)
    if any(
        isinstance(n, BoundColumn) and not n.hops for part in labels for n in walk(part, filters=False)
    ):
        reached.setdefault(table, []).append(rows)
    mask: Set[RowRef] = {
        RowRef(name, i) for name, arrays in reached.items() for found in arrays for i in found.tolist()
    }

    if anchor is not None:
        for name in reachable_tables(db, table):
            tdata = db.table(name)
            if tdata.definition.time_column is None:
                continue
            col = tdata.column(tdata.definition.time_column)
            future = np.nonzero(~col.null & (col.values >= anchor))[0]
            for i in future:
                mask.add(RowRef(name, int(i)))
    return mask
