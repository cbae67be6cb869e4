"""Correctness checks for every operation the benchmark runs.

The reference is computed apart from the engine and the sampler:

* the CSV files are read here with the `csv` module, and the anchors,
  candidate lists and the sampler's entity choice are recomputed from that
  text;
* labels come from the brute-force `pql.oracle`, run on a seeded slice of
  entities: a small database holding only the chosen entities, their child
  rows and the parents those rows reference, built from the CSV text.

Property checks on top: canonical row order (anchor descending, then
entity ascending), `row_count` plus the drop counts equals
`pairs_expanded`, split counts match the rows, every split matches its
anchor's rank. Each check returns a list of problems; empty means passed.
"""

from __future__ import annotations

import csv
import io
import json
import random
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from pql import binder, oracle, parser, store

from workloads import DAY_MICROS, Op, QuerySpec

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_ONE_MICRO = timedelta(microseconds=1)


def iso_micros(text: str) -> int:
    """ISO-8601 text to epoch microseconds, naive values taken as UTC."""
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return (dt - _EPOCH) // _ONE_MICRO


class RawDb:
    """The CSV database as text records, read with the `csv` module."""

    def __init__(self, data_dir: Path, schema: store.Schema):
        self.schema = schema
        self.header: Dict[str, List[str]] = {}
        self.records: Dict[str, List[List[str]]] = {}
        for name in schema.tables:
            with open(Path(data_dir) / f"{name.lower()}.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            self.header[name] = [h.upper() for h in rows[0]]
            self.records[name] = rows[1:]
        self._index: Dict[Tuple[str, str], Dict[str, List[int]]] = {}
        times: List[int] = []
        for name, tdef in schema.tables.items():
            if tdef.time_column:
                i = self.col(name, tdef.time_column)
                times.extend(iso_micros(r[i]) for r in self.records[name] if r[i])
        self.min_t, self.max_t = min(times), max(times)

    def col(self, table: str, column: str) -> int:
        return self.header[table].index(column.upper())

    def index(self, table: str, column: str) -> Dict[str, List[int]]:
        """Cell text -> record numbers, for one column."""
        key = (table, column)
        if key not in self._index:
            i = self.col(table, column)
            out: Dict[str, List[int]] = {}
            for n, r in enumerate(self.records[table]):
                out.setdefault(r[i], []).append(n)
            self._index[key] = out
        return self._index[key]

    def keys(self, table: str) -> List[str]:
        i = self.col(table, self.schema.table(table).primary_key)
        return [r[i] for r in self.records[table]]

    def children_per_key(self, table: str, child: str) -> Counter:
        """How many `child` rows reference each row of `table`."""
        fk = next(f for f in self.schema.table(child).foreign_keys if f.references == table)
        return Counter({k: len(v) for k, v in self.index(child, fk.column).items() if k})

    def slice_db(self, table: str, keys: Set[str]) -> store.Database:
        """A database of the `table` rows with these keys, their child rows,
        and every parent row those reference, in the original row order."""
        schema = self.schema
        pk_col = schema.table(table).primary_key
        include: Dict[str, Set[int]] = {
            table: {n for k in keys for n in self.index(table, pk_col).get(k, [])}
        }
        for name, tdef in schema.tables.items():
            for fk in tdef.foreign_keys:
                if fk.references == table and name != table:
                    rows = include.setdefault(name, set())
                    for k in keys:
                        rows.update(self.index(name, fk.column).get(k, []))
        changed = True
        while changed:
            changed = False
            for name in list(include):
                for fk in schema.table(name).foreign_keys:
                    i = self.col(name, fk.column)
                    needed = {self.records[name][n][i] for n in include[name]} - {""}
                    parent_pk = self.index(fk.references, schema.table(fk.references).primary_key)
                    have = include.setdefault(fk.references, set())
                    new = {n for v in needed for n in parent_pk.get(v, [])} - have
                    if new:
                        have.update(new)
                        changed = True
        db = store.new_database(schema)
        for name in _parents_first(schema):
            if name not in include:
                continue
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(self.header[name])
            writer.writerows(self.records[name][n] for n in sorted(include[name]))
            store.load_table_data(db, name, buf.getvalue())
        return db


def _parents_first(schema: store.Schema) -> List[str]:
    order: List[str] = []
    pending = sorted(schema.tables)
    while pending:
        ready = [n for n in pending
                 if {fk.references for fk in schema.table(n).foreign_keys} - {n} <= set(order)]
        if not ready:
            raise ValueError("foreign keys form a cycle")
        order.extend(ready)
        pending = [n for n in pending if n not in ready]
    return order


def _canonical(rows: Sequence[tuple], temporal: bool) -> bool:
    keys = [(-r[1], r[0]) for r in rows] if temporal else [r[0] for r in rows]
    return all(a < b for a, b in zip(keys, keys[1:]))


def _split_for_rank(rank: int) -> str:
    return "test" if rank == 0 else "val" if rank == 1 else "train"


def _first_difference(got: Sequence, want: Sequence) -> str:
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"row {i}: got {a!r}, want {b!r}"
    return f"got {len(got)} rows, want {len(want)}"


class Reference:
    """Reference results and checks for one generated database and seed."""

    SLICE_UNIFORM = 4  # entities drawn uniformly per batch/CLI operation
    SLICE_RETURNED = 2  # plus entities drawn from the operation's rows
    HEAVY_RANKS = (5, 50)  # plus one from these ranks by child-row count

    def __init__(self, data_dir: Path, seed: int):
        self.schema = store.load_schema(Path(data_dir) / "schema.json")
        self.raw = RawDb(Path(data_dir), self.schema)
        self.seed = seed
        self._slices: Dict[Tuple[str, frozenset], store.Database] = {}
        self._bound: Dict[str, binder.BoundQuery] = {}
        self._oracle: Dict[tuple, list] = {}

    # -- building blocks -------------------------------------------------

    def bound(self, text: str) -> binder.BoundQuery:
        if text not in self._bound:
            self._bound[text] = binder.bind(parser.parse(text), self.schema)
        return self._bound[text]

    def key_value(self, table: str, cell: str):
        pk = self.schema.table(table).primary_key
        dtype = self.schema.table(table).column(pk).dtype
        return int(cell) if dtype is store.DataType.INT64 else cell

    def anchors(self, bound: binder.BoundQuery, count: int, stride_days: Optional[int]) -> List[int]:
        """Anchors, newest first, from the CSV's time range and the policy."""
        if bound.is_static:
            return []
        tf = bound.timeframe
        if stride_days is not None:
            stride = stride_days * DAY_MICROS
        else:
            stride = tf.future if tf.past is None else tf.past + tf.future
        latest = self.raw.max_t - tf.future
        if stride == 0:
            return [latest] if latest >= self.raw.min_t else []
        floor = self.raw.min_t + stride if tf.past is None else self.raw.min_t
        out: List[int] = []
        t = latest
        for _ in range(count):
            if t < floor:
                break
            out.append(t)
            t -= stride
        return out

    def slice_keys(self, op_name: str, table: str, returned: Sequence = ()) -> Set[str]:
        """Seeded entities to compare with the oracle: some drawn uniformly,
        some of those the operation returned, and one busy entity."""
        rng = random.Random(f"{self.seed}:{op_name}")
        chosen = set(rng.sample(self.raw.keys(table), self.SLICE_UNIFORM))
        returned = sorted({str(k) for k in returned})
        chosen.update(rng.sample(returned, min(self.SLICE_RETURNED, len(returned))))
        children = [n for n, t in self.schema.tables.items()
                    if any(fk.references == table for fk in t.foreign_keys) and t.time_column]
        if children:
            busiest = max(children, key=lambda n: len(self.raw.records[n]))
            ranked = [k for k, _ in self.raw.children_per_key(table, busiest).most_common()]
            lo, hi = self.HEAVY_RANKS
            if ranked[lo:hi]:
                chosen.add(rng.choice(ranked[lo:hi]))
        return chosen

    def oracle_rows(self, text: str, table: str, keys: Set[str], anchors: Sequence[int]) -> list:
        cache_key = (text, table, frozenset(keys), tuple(anchors))
        if cache_key not in self._oracle:
            skey = (table, frozenset(keys))
            if skey not in self._slices:
                self._slices[skey] = self.raw.slice_db(table, keys)
            table_ = oracle.oracle_training(self.bound(text), self._slices[skey], anchors)
            self._oracle[cache_key] = table_.rows
        return self._oracle[cache_key]

    # -- checks ----------------------------------------------------------

    def check_training(self, op: Op, rows: Sequence[tuple], meta: dict) -> List[str]:
        text = op.query.text()
        bound = self.bound(text)
        temporal = not bound.is_static
        problems: List[str] = []
        if not _canonical(rows, temporal):
            problems.append("rows are not in canonical order")
        if meta["row_count"] != len(rows):
            problems.append(f"row_count {meta['row_count']} != {len(rows)} rows")
        dropped = sum(meta["dropped"].values())
        if meta["row_count"] + dropped != meta["pairs_expanded"]:
            problems.append(
                f"row_count {meta['row_count']} + dropped {dropped} != "
                f"pairs_expanded {meta['pairs_expanded']}"
            )
        if dict(Counter(r[3] for r in rows)) != meta["split_counts"]:
            problems.append(f"split_counts {meta['split_counts']} do not match the rows")
        anchors = self.anchors(bound, op.anchors, op.stride_days)
        if temporal:
            got = [iso_micros(a) for a in meta["anchors"]]
            if got != anchors:
                problems.append(f"anchors {meta['anchors']} differ from the reference")
            rank = {a: i for i, a in enumerate(anchors)}
            if any(r[1] not in rank or r[3] != _split_for_rank(rank[r[1]]) for r in rows):
                problems.append("a row's split does not match its anchor's rank")
        keys = self.slice_keys(op.name, bound.entity_table, [r[0] for r in rows])
        want = self.oracle_rows(text, bound.entity_table, keys, anchors)
        got_rows = [r for r in rows if str(r[0]) in keys]
        if got_rows != want:
            problems.append("rows differ from the oracle on the entity slice: "
                            + _first_difference(got_rows, want))
        return problems

    def check_prediction(self, op: Op, rows: Sequence[tuple], candidates, meta: dict) -> List[str]:
        bound = self.bound(op.query.text())
        problems: List[str] = []
        anchor = None if bound.is_static else self.raw.max_t
        if any(r[1] != anchor for r in rows):
            problems.append("a prediction row has the wrong anchor")
        if not _canonical(rows, False):
            problems.append("rows are not in canonical order")
        if meta["row_count"] != len(rows):
            problems.append(f"row_count {meta['row_count']} != {len(rows)} rows")
        # Which entities are predicted: the same entity filter under a target
        # that is always defined, at the prediction anchor.
        presence = QuerySpec("COUNT(TRANSACTIONS.*, 0, 1, days)", op.query.entity, op.query.where)
        keys = self.slice_keys(op.name, bound.entity_table, [r[0] for r in rows])
        want = [r[0] for r in self.oracle_rows(presence.text(), bound.entity_table, keys, [anchor])]
        got = [r[0] for r in rows if str(r[0]) in keys]
        if got != want:
            problems.append(f"predicted entities {got} differ from the oracle's {want}")
        if op.candidates is not None:
            table, column, value = op.candidates
            i = self.raw.col(table, column)
            pk = self.raw.col(table, self.schema.table(table).primary_key)
            expect = sorted(self.key_value(table, r[pk]) for r in self.raw.records[table] if r[i] == value)
            if list(candidates or []) != expect:
                problems.append("candidates differ from the CSV recomputation")
            if meta["candidate_count"] != len(expect):
                problems.append("candidate_count does not match")
        return problems

    def check_pairs(
        self,
        query: QuerySpec,
        pairs: Sequence[Tuple[int, int]],
        anchors_for_split: Sequence[int],
        rows: Sequence[tuple],
        meta: dict,
        spot_keys: Sequence[int],
    ) -> List[str]:
        """Checks for a sampler result over explicit (entity key, anchor) pairs;
        `spot_keys` are the entities whose rows are compared with the oracle."""
        text = query.text()
        bound = self.bound(text)
        problems: List[str] = []
        wanted = set(pairs)
        if not _canonical(rows, not bound.is_static):
            problems.append("rows are not in canonical order")
        if meta["row_count"] != len(rows) or meta["pairs_expanded"] != len(wanted):
            problems.append("row_count or pairs_expanded does not match the request")
        if meta["row_count"] + sum(meta["dropped"].values()) != meta["pairs_expanded"]:
            problems.append("row_count plus dropped does not equal pairs_expanded")
        if any((r[0], r[1]) not in wanted for r in rows):
            problems.append("a row is not one of the requested pairs")
        rank = {a: i for i, a in enumerate(sorted(anchors_for_split, reverse=True))}
        if any(r[1] not in rank or r[3] != _split_for_rank(rank[r[1]]) for r in rows):
            problems.append("a row's split does not match its anchor's rank")
        for key in spot_keys:
            key_anchors = sorted({a for k, a in pairs if k == key}, reverse=True)
            want = [r[:3] for r in self.oracle_rows(text, bound.entity_table, {str(key)}, key_anchors)]
            got = [r[:3] for r in rows if r[0] == key]
            if got != want:
                problems.append(f"entity {key}: rows {got} differ from the oracle's {want}")
        return problems

    def sample_choice(self, query: QuerySpec, n: int) -> Tuple[int, List[int]]:
        """`pql sample`'s default pairs, from the CSV: the anchor leaves one
        future extent after the last event, and the `n` customers with the
        newest transaction before it are taken, ties by key."""
        bound = self.bound(query.text())
        anchor = self.raw.max_t - bound.timeframe.future
        tx = self.raw.records["TRANSACTIONS"]
        ci, ti = self.raw.col("TRANSACTIONS", "CUSTOMER_ID"), self.raw.col("TRANSACTIONS", "TIMESTAMP")
        latest: Dict[int, int] = {}
        for r in tx:
            if r[ci] and r[ti]:
                t = iso_micros(r[ti])
                if t < anchor:
                    k = int(r[ci])
                    if t > latest.get(k, -(2**63)):
                        latest[k] = t
        ranked = sorted(latest, key=lambda k: (-latest[k], k))
        return anchor, ranked[:n]

    def spot_keys(self, label: str, keys: Sequence[int], n: int = 2) -> List[int]:
        rng = random.Random(f"{self.seed}:{label}")
        return rng.sample(sorted(set(keys)), min(n, len(set(keys))))


# ---------------------------------------------------------------------------
# Reading `pql` output files back


def _cell(text: str, dtype: str):
    if dtype.startswith("list<"):
        values = json.loads(text)
        if dtype[5:-1] == "timestamp":
            values = [iso_micros(v) for v in values]
        return tuple(values)
    if dtype == "int64":
        return int(text)
    if dtype == "float64":
        return float(text)
    if dtype == "bool":
        return {"true": True, "false": False}[text]
    if dtype == "timestamp":
        return iso_micros(text)
    return text


def read_training(
    ref: Reference, out_dir: Path, basename: str, table: str
) -> Tuple[List[tuple], dict]:
    """A written training table as (entity, anchor, target, split) rows."""
    meta = json.loads((out_dir / f"{basename}.meta.json").read_text())
    dtype = meta["task"]["target_dtype"]
    with open(out_dir / f"{basename}.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        temporal = "TIMESTAMP" in header
        rows = []
        for rec in reader:
            key = ref.key_value(table, rec[0])
            if temporal:
                rows.append((key, iso_micros(rec[1]), _cell(rec[2], dtype), rec[3]))
            else:
                rows.append((key, None, _cell(rec[1], dtype), rec[2]))
    return rows, meta


def read_prediction(ref: Reference, out_dir: Path) -> Tuple[List[tuple], Optional[list], dict]:
    meta = json.loads((out_dir / "prediction.meta.json").read_text())
    table = meta["entity_table"]
    with open(out_dir / "prediction.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        temporal = "TIMESTAMP" in header
        rows = [(ref.key_value(table, r[0]), iso_micros(r[1]) if temporal else None) for r in reader]
    candidates = None
    cand_path = out_dir / "candidates.csv"
    if cand_path.exists():
        link = meta["task"]["link_target_table"]
        with open(cand_path, newline="") as fh:
            candidates = [ref.key_value(link, r[0]) for r in list(csv.reader(fh))[1:]]
    return rows, candidates, meta
