"""Deterministic synthetic relational databases and queries.

Three generator families live here:

* `generate` + `GenSpec` — a retail-shaped template (customers, articles,
  timestamped transactions, notifications) with Zipf-skewed activity,
  scalable from desk-size to millions of rows, plus a partition-duplicating
  upscale mode;
* `random_schema` / `random_database` — small tree-shaped schemas with
  mixed column types, null injection and undated rows, for differential
  and property testing;
* `random_query` — a grammar-directed query generator that only emits
  queries that bind against the given schema.

Float columns are quantized to quarters: dyadic values keep every partial
sum exact in float64, so differently-ordered summation paths agree bit for
bit and tables can be compared exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Optional, Sequence

import numpy as np

from . import ast
from .ast import AggKind, ConstKind, Hint, RelOp, TimeUnit
from .errors import DataError
from .store import (
    Column,
    Database,
    DataType,
    Schema,
    SemanticType,
    TableData,
    load_schema,
)
from .times import MICROS_PER_DAY, parse_timestamp


# ---------------------------------------------------------------------------
# Retail template


@dataclass(frozen=True)
class GenSpec:
    """Reproducible recipe for the retail-shaped template database."""

    seed: int = 0
    customers: int = 1300
    articles: int = 105
    transactions: int = 31000
    notifications: int = 2000
    span_start: str = "2022-01-01"
    span_end: str = "2024-01-01"
    zipf_a: float = 1.1
    null_rates: Dict[str, float] = field(
        default_factory=lambda: {
            "value": 0.02,
            "timestamp": 0.01,
            "location": 0.03,
            "color": 0.02,
            "fk": 0.01,
        }
    )
    validity: bool = False
    upscale: int = 1

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(doc) -> "GenSpec":
        """The spec a JSON document holds. An unknown key, or a value that
        does not fit its key, is a DataError naming the key."""
        if not isinstance(doc, dict):
            raise DataError(f"a genspec must be a JSON object, got {doc!r}")
        for key, value in doc.items():
            if key not in _GENSPEC_FIELDS:
                raise DataError(f"unknown genspec key {key!r}")
            fits, kind = _GENSPEC_FIELDS[key]
            if not fits(value):
                raise DataError(f"genspec key {key!r} must be {kind}, got {value!r}")
        return GenSpec(**doc)


def _whole(low: int):
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= low


def _real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _date(v) -> bool:
    if not isinstance(v, str):
        return False
    try:
        parse_timestamp(v)
    except ValueError:
        return False
    return True


# Per GenSpec field: whether a JSON value fits it, and what fits.
_GENSPEC_FIELDS = {
    "seed": (_whole(0), "a whole number of at least 0"),
    "customers": (_whole(0), "a whole number of at least 0"),
    "articles": (_whole(0), "a whole number of at least 0"),
    "transactions": (_whole(0), "a whole number of at least 0"),
    "notifications": (_whole(0), "a whole number of at least 0"),
    "span_start": (_date, "an ISO-8601 date"),
    "span_end": (_date, "an ISO-8601 date"),
    "zipf_a": (_real, "a finite number"),
    "null_rates": (lambda v: isinstance(v, dict) and all(map(_real, v.values())), "an object of finite numbers"),
    "validity": (lambda v: isinstance(v, bool), "true or false"),
    "upscale": (_whole(1), "a whole number of at least 1"),
}


def hm_genspec(scale: float = 0.001, seed: int = 0, **overrides) -> GenSpec:
    """Template sized like the public retail benchmark at `scale`:
    scale 1.0 means 1.3M customers, 105k articles, 31M transactions."""
    spec = GenSpec(
        seed=seed,
        customers=max(2, round(1_300_000 * scale)),
        articles=max(2, round(105_000 * scale)),
        transactions=max(2, round(31_000_000 * scale)),
        notifications=max(2, round(2_000_000 * scale)),
    )
    return replace(spec, **overrides) if overrides else spec


LOCATIONS = [f"L{i:02d}" for i in range(100)]
LOCATIONS[0] = "New York"  # keep the running examples runnable
COLORS = ["blue", "red", "green", "black", "white", "yellow", "grey", "pink"]
ARTICLE_TYPES = ["shirt", "trousers", "dress", "shoes", "hat", "socks", "coat", "scarf"]
MEMBERSHIPS = ["basic", "silver", "gold"]
NOTIFICATION_TYPES = ["PUSH", "EMAIL", "SMS"]


def template_schema(validity: bool = False) -> Schema:
    customers_cols = [
        {"name": "CUSTOMER_ID", "dtype": "int64", "stype": "key"},
        {"name": "LOCATION_ID", "dtype": "string", "stype": "categorical"},
        {"name": "SIGNUP_DATE", "dtype": "timestamp", "stype": "temporal"},
        {"name": "MEMBERSHIP_TYPE", "dtype": "string", "stype": "categorical"},
        {"name": "AGE", "dtype": "int64", "stype": "numerical"},
    ]
    customers = {
        "name": "CUSTOMERS",
        "columns": customers_cols,
        "primary_key": "CUSTOMER_ID",
    }
    if validity:
        customers_cols.append({"name": "VALID_FROM", "dtype": "timestamp", "stype": "temporal"})
        customers_cols.append({"name": "VALID_TO", "dtype": "timestamp", "stype": "temporal"})
        customers["validity"] = {"start": "VALID_FROM", "end": "VALID_TO"}
    return load_schema(
        {
            "tables": [
                customers,
                {
                    "name": "ARTICLES",
                    "columns": [
                        {"name": "ARTICLE_ID", "dtype": "int64", "stype": "key"},
                        {"name": "ARTICLE_NAME", "dtype": "string", "stype": "text"},
                        {"name": "ARTICLE_TYPE", "dtype": "string", "stype": "categorical"},
                        {"name": "DESCRIPTION", "dtype": "string", "stype": "text"},
                        {"name": "COLOR", "dtype": "string", "stype": "categorical"},
                    ],
                    "primary_key": "ARTICLE_ID",
                },
                {
                    "name": "TRANSACTIONS",
                    "columns": [
                        {"name": "TRANSACTION_ID", "dtype": "int64", "stype": "key"},
                        {"name": "VALUE", "dtype": "float64", "stype": "numerical"},
                        {"name": "TIMESTAMP", "dtype": "timestamp", "stype": "temporal"},
                        {"name": "CUSTOMER_ID", "dtype": "int64", "stype": "key"},
                        {"name": "ARTICLE_ID", "dtype": "int64", "stype": "key"},
                    ],
                    "primary_key": "TRANSACTION_ID",
                    "time_column": "TIMESTAMP",
                    "foreign_keys": [
                        {"column": "CUSTOMER_ID", "references": "CUSTOMERS"},
                        {"column": "ARTICLE_ID", "references": "ARTICLES"},
                    ],
                },
                {
                    "name": "NOTIFICATIONS",
                    "columns": [
                        {"name": "NOTIFICATION_TYPE", "dtype": "string", "stype": "categorical"},
                        {"name": "NOTIFICATION_TEXT", "dtype": "string", "stype": "text"},
                        {"name": "TIME_SENT", "dtype": "timestamp", "stype": "temporal"},
                        {"name": "CUSTOMER_ID", "dtype": "int64", "stype": "key"},
                    ],
                    "time_column": "TIME_SENT",
                    "foreign_keys": [{"column": "CUSTOMER_ID", "references": "CUSTOMERS"}],
                },
            ]
        }
    )


def _zipf_pick(rng: np.random.Generator, n: int, size: int, a: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-a
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng.random(size)).astype(np.int64)


def _quarters(values: np.ndarray) -> np.ndarray:
    # Quantize to 0.25 steps; dyadic values sum exactly in any order.
    return np.round(values * 4.0) / 4.0


def _null_mask(rng: np.random.Generator, size: int, rate: float) -> np.ndarray:
    if rate <= 0:
        return np.zeros(size, dtype=np.bool_)
    return rng.random(size) < rate


def generate(spec: GenSpec) -> Database:
    """Build the template database in memory; same spec, same bytes."""
    if spec.customers < 1 or spec.articles < 1:
        raise DataError("template needs at least one customer and one article")
    if spec.transactions > 0 and (spec.customers == 0 or spec.articles == 0):
        raise DataError("transactions need customers and articles to reference")
    rng = np.random.default_rng(spec.seed)
    schema = template_schema(spec.validity)
    db = Database(schema)
    t0 = parse_timestamp(spec.span_start)
    t1 = parse_timestamp(spec.span_end)
    if t1 <= t0:
        raise DataError("span_end must be after span_start")
    rate = spec.null_rates

    n_c = spec.customers
    cust_cols = {
        "CUSTOMER_ID": Column(
            DataType.INT64, np.arange(n_c, dtype=np.int64), np.zeros(n_c, dtype=np.bool_)
        ),
        "LOCATION_ID": Column(
            DataType.STRING,
            np.array(LOCATIONS, dtype=object)[_zipf_pick(rng, len(LOCATIONS), n_c, 1.0)],
            _null_mask(rng, n_c, rate.get("location", 0.0)),
        ),
        "SIGNUP_DATE": Column(
            DataType.TIMESTAMP,
            rng.integers(t0 - 365 * MICROS_PER_DAY, t1, n_c, dtype=np.int64),
            _null_mask(rng, n_c, 0.02),
        ),
        "MEMBERSHIP_TYPE": Column(
            DataType.STRING,
            np.array(MEMBERSHIPS, dtype=object)[rng.integers(0, len(MEMBERSHIPS), n_c)],
            np.zeros(n_c, dtype=np.bool_),
        ),
        "AGE": Column(
            DataType.INT64, rng.integers(18, 99, n_c, dtype=np.int64), _null_mask(rng, n_c, 0.01)
        ),
    }
    if spec.validity:
        start = cust_cols["SIGNUP_DATE"].values.copy()
        churn_gap = rng.integers(30 * MICROS_PER_DAY, 720 * MICROS_PER_DAY, n_c, dtype=np.int64)
        cust_cols["VALID_FROM"] = Column(
            DataType.TIMESTAMP, start, cust_cols["SIGNUP_DATE"].null.copy()
        )
        cust_cols["VALID_TO"] = Column(
            DataType.TIMESTAMP, start + churn_gap, _null_mask(rng, n_c, 0.8)
        )

    n_a = spec.articles
    art_cols = {
        "ARTICLE_ID": Column(
            DataType.INT64, np.arange(n_a, dtype=np.int64), np.zeros(n_a, dtype=np.bool_)
        ),
        "ARTICLE_NAME": Column(
            DataType.STRING,
            np.array([f"Article {i}" for i in range(n_a)], dtype=object),
            np.zeros(n_a, dtype=np.bool_),
        ),
        "ARTICLE_TYPE": Column(
            DataType.STRING,
            np.array(ARTICLE_TYPES, dtype=object)[_zipf_pick(rng, len(ARTICLE_TYPES), n_a, 1.0)],
            _null_mask(rng, n_a, 0.02),
        ),
        "DESCRIPTION": Column(
            DataType.STRING,
            np.array([f"Description of article {i}" for i in range(n_a)], dtype=object),
            np.zeros(n_a, dtype=np.bool_),
        ),
        "COLOR": Column(
            DataType.STRING,
            np.array(COLORS, dtype=object)[_zipf_pick(rng, len(COLORS), n_a, 1.0)],
            _null_mask(rng, n_a, rate.get("color", 0.0)),
        ),
    }

    n_t = spec.transactions
    fk_null = rate.get("fk", 0.0)
    tx_cols = {
        "TRANSACTION_ID": Column(
            DataType.INT64, np.arange(n_t, dtype=np.int64), np.zeros(n_t, dtype=np.bool_)
        ),
        "VALUE": Column(
            DataType.FLOAT64,
            _quarters(rng.lognormal(3.0, 0.7, n_t)),
            _null_mask(rng, n_t, rate.get("value", 0.0)),
        ),
        "TIMESTAMP": Column(
            DataType.TIMESTAMP,
            rng.integers(t0, t1, n_t, dtype=np.int64),
            _null_mask(rng, n_t, rate.get("timestamp", 0.0)),
        ),
        "CUSTOMER_ID": Column(
            DataType.INT64, _zipf_pick(rng, n_c, n_t, spec.zipf_a), _null_mask(rng, n_t, fk_null)
        ),
        "ARTICLE_ID": Column(
            DataType.INT64, _zipf_pick(rng, n_a, n_t, spec.zipf_a), _null_mask(rng, n_t, fk_null)
        ),
    }

    n_n = spec.notifications
    notif_cols = {
        "NOTIFICATION_TYPE": Column(
            DataType.STRING,
            np.array(NOTIFICATION_TYPES, dtype=object)[
                rng.integers(0, len(NOTIFICATION_TYPES), n_n)
            ],
            np.zeros(n_n, dtype=np.bool_),
        ),
        "NOTIFICATION_TEXT": Column(
            DataType.STRING,
            np.array([f"message {i}" for i in range(n_n)], dtype=object),
            np.zeros(n_n, dtype=np.bool_),
        ),
        "TIME_SENT": Column(
            DataType.TIMESTAMP,
            rng.integers(t0, t1, n_n, dtype=np.int64),
            _null_mask(rng, n_n, rate.get("timestamp", 0.0)),
        ),
        "CUSTOMER_ID": Column(
            DataType.INT64, _zipf_pick(rng, n_c, n_n, spec.zipf_a), _null_mask(rng, n_n, fk_null)
        ),
    }

    if spec.upscale > 1:
        k = spec.upscale
        n_c_total = n_c * k
        for name, col in list(cust_cols.items()):
            tiled = np.tile(col.values, k)
            if name == "CUSTOMER_ID":
                tiled = tiled + np.repeat(np.arange(k, dtype=np.int64) * n_c, n_c)
            cust_cols[name] = Column(col.dtype, tiled, np.tile(col.null, k))
        n_t_total = n_t * k
        for name, col in list(tx_cols.items()):
            tiled = np.tile(col.values, k)
            if name == "TRANSACTION_ID":
                tiled = tiled + np.repeat(np.arange(k, dtype=np.int64) * n_t, n_t)
            if name == "CUSTOMER_ID":
                tiled = tiled + np.repeat(np.arange(k, dtype=np.int64) * n_c, n_t)
            tx_cols[name] = Column(col.dtype, tiled, np.tile(col.null, k))
        n_c, n_t = n_c_total, n_t_total

    def put(name: str, cols: Dict[str, Column], nrows: int):
        tdef = schema.table(name)
        db.tables[name] = TableData(tdef, cols, nrows)

    put("CUSTOMERS", cust_cols, n_c)
    put("ARTICLES", art_cols, n_a)
    put("TRANSACTIONS", tx_cols, n_t)
    put("NOTIFICATIONS", notif_cols, n_n)
    return db


# ---------------------------------------------------------------------------
# Random schemas and databases for differential testing


_STR_POOL = ["red", "blue", "green", "alpha", "beta", "gamma", "New York", "Berlin"]
_SPAN0 = parse_timestamp("2023-01-01")
_SPAN1 = parse_timestamp("2024-01-01")


def random_schema(seed: int) -> Schema:
    """A small tree-shaped schema: dimension roots, event children with time
    columns, sometimes a grandchild event table. Tree shape keeps every FK
    path unambiguous, so generated queries always bind."""
    rnd = random.Random(seed)
    tables = []
    n_dims = rnd.choice([1, 1, 2])
    dims = []
    for d in range(n_dims):
        name = f"DIM{d}"
        cols = [{"name": "ID", "dtype": "int64", "stype": "key"}]
        cols.append({"name": "LABEL", "dtype": "string", "stype": "categorical"})
        cols.append({"name": "SCORE", "dtype": "float64", "stype": "numerical"})
        if rnd.random() < 0.5:
            cols.append({"name": "FLAG", "dtype": "bool", "stype": "categorical"})
        entry = {"name": name, "columns": cols, "primary_key": "ID"}
        if rnd.random() < 0.3:
            cols.append({"name": "VALID_FROM", "dtype": "timestamp", "stype": "temporal"})
            cols.append({"name": "VALID_TO", "dtype": "timestamp", "stype": "temporal"})
            entry["validity"] = {"start": "VALID_FROM", "end": "VALID_TO"}
        tables.append(entry)
        dims.append(name)

    n_events = rnd.choice([1, 2, 2, 3])
    events = []
    for e in range(n_events):
        name = f"EVENT{e}"
        parent = dims[e % len(dims)]
        cols = [
            {"name": "ID", "dtype": "int64", "stype": "key"},
            {"name": f"{parent}_ID", "dtype": "int64", "stype": "key"},
            {"name": "AMOUNT", "dtype": "float64", "stype": "numerical"},
            {"name": "QTY", "dtype": "int64", "stype": "numerical"},
            {"name": "TAG", "dtype": "string", "stype": "categorical"},
            {"name": "AT", "dtype": "timestamp", "stype": "temporal"},
        ]
        fks = [{"column": f"{parent}_ID", "references": parent}]
        # A secondary dimension link makes link-prediction targets possible.
        if len(dims) > 1 and rnd.random() < 0.6 and parent != dims[-1]:
            cols.append({"name": f"{dims[-1]}_ID", "dtype": "int64", "stype": "key"})
            fks.append({"column": f"{dims[-1]}_ID", "references": dims[-1]})
        tables.append(
            {
                "name": name,
                "columns": cols,
                "primary_key": "ID",
                "time_column": "AT",
                "foreign_keys": fks,
            }
        )
        events.append(name)

    if rnd.random() < 0.35:
        parent = events[0]
        tables.append(
            {
                "name": "SUB0",
                "columns": [
                    {"name": "ID", "dtype": "int64", "stype": "key"},
                    {"name": f"{parent}_ID", "dtype": "int64", "stype": "key"},
                    {"name": "AMOUNT", "dtype": "float64", "stype": "numerical"},
                    {"name": "AT", "dtype": "timestamp", "stype": "temporal"},
                ],
                "primary_key": "ID",
                "time_column": "AT",
                "foreign_keys": [{"column": f"{parent}_ID", "references": parent}],
            }
        )
    return load_schema({"tables": tables})


_INT64_LO, _INT64_HI = -(2**63), 2**63 - 1


def _primary_keys(rng: np.random.Generator, n: int, shuffle: bool = True) -> np.ndarray:
    """`n` distinct int64 keys in one of four layouts, so that each of the
    store's key paths runs: dense from 0; dense from an offset, at times
    ending at int64's top or starting at its bottom; sparse ascending,
    with small gaps or spread over int64 from end to end; shuffled."""
    layout = int(rng.integers(0, 4 if shuffle else 3))
    if layout == 0:
        return np.arange(n, dtype=np.int64)
    if layout == 1:
        first = (int(rng.integers(-1000, 1000)), _INT64_HI - (n - 1), _INT64_LO)[int(rng.integers(0, 3))]
        return np.int64(first) + np.arange(n, dtype=np.int64)
    if layout == 2:
        if rng.random() < 0.5:
            gaps = rng.integers(1, 6, n, dtype=np.int64)
            gaps[-1] += 1  # never dense
            return int(rng.integers(-1000, 1000)) + np.cumsum(gaps)
        while True:
            inner = np.unique(rng.integers(_INT64_LO + 1, _INT64_HI, n - 2, dtype=np.int64))
            if len(inner) == n - 2:
                return np.concatenate([[_INT64_LO], inner, [_INT64_HI]])
    return rng.permutation(_primary_keys(rng, n, shuffle=False))


def random_database(seed: int, schema: Schema, scale: float = 1.0) -> Database:
    """Random data for `schema` with nulls, undated rows and dangling-free
    FKs; float columns are dyadic so sums are order-independent. Int64
    primary keys take a layout of `_primary_keys`, drawn from their own
    stream, and each FK holds keys of its parent's rows."""
    rng = np.random.default_rng(seed)
    key_rng = np.random.default_rng([seed, 1])
    db = Database(schema)
    sizes: Dict[str, int] = {}
    keys: Dict[str, np.ndarray] = {}
    for name, tdef in schema.tables.items():
        if tdef.time_column is None:
            sizes[name] = int(rng.integers(8, 50) * scale) + 2
        else:
            sizes[name] = int(rng.integers(40, 260) * scale) + 5
        pk = tdef.column(tdef.primary_key) if tdef.primary_key else None
        if pk is not None and pk.dtype is DataType.INT64:
            keys[name] = _primary_keys(key_rng, sizes[name])
        else:
            keys[name] = np.arange(sizes[name], dtype=np.int64)
    for name, tdef in schema.tables.items():
        n = sizes[name]
        cols: Dict[str, Column] = {}
        for cdef in tdef.columns:
            null_rate = 0.0 if cdef.name == tdef.primary_key else 0.07
            null = _null_mask(rng, n, null_rate)
            if cdef.name == tdef.primary_key:
                vals = keys[name]
            elif any(fk.column == cdef.name for fk in tdef.foreign_keys):
                target = next(fk.references for fk in tdef.foreign_keys if fk.column == cdef.name)
                vals = keys[target][rng.integers(0, sizes[target], n, dtype=np.int64)]
                null = _null_mask(rng, n, 0.05)
            elif cdef.dtype is DataType.INT64:
                vals = rng.integers(0, 12, n, dtype=np.int64)
            elif cdef.dtype is DataType.FLOAT64:
                vals = _quarters(rng.uniform(0, 50, n))
            elif cdef.dtype is DataType.BOOL:
                vals = rng.random(n) < 0.5
            elif cdef.dtype is DataType.TIMESTAMP:
                vals = rng.integers(_SPAN0, _SPAN1, n, dtype=np.int64)
                if cdef.name == tdef.time_column:
                    null = _null_mask(rng, n, 0.05)
                if tdef.validity and cdef.name == tdef.validity[1]:
                    null = _null_mask(rng, n, 0.6)
            else:
                vals = np.array(
                    [
                        _STR_POOL[i]
                        for i in rng.integers(0, len(_STR_POOL), n)
                    ],
                    dtype=object,
                )
            cols[cdef.name] = Column(cdef.dtype, vals, null)
        if tdef.validity and tdef.validity[0] and tdef.validity[1]:
            # Keep intervals well-formed: end after start.
            start = cols[tdef.validity[0]].values
            cols[tdef.validity[1]].values = start + rng.integers(
                5 * MICROS_PER_DAY, 400 * MICROS_PER_DAY, n, dtype=np.int64
            )
        db.tables[name] = TableData(tdef, cols, n)
    return db


# ---------------------------------------------------------------------------
# Random queries


class _QueryGen:
    def __init__(self, seed: int, schema: Schema):
        self.rnd = random.Random(seed)
        self.schema = schema

    def col(self, table: str, column: str) -> ast.ColumnRef:
        return ast.ColumnRef(table, column)

    def _columns(self, table: str, stypes=None, dtypes=None):
        tdef = self.schema.table(table)
        out = []
        for c in tdef.columns:
            if stypes and c.stype not in stypes:
                continue
            if dtypes and c.dtype not in dtypes:
                continue
            out.append(c)
        return out

    def _child_edges(self, table: str, timed: Optional[bool] = None):
        out = []
        for e in self.schema.edges_into(table):
            child = self.schema.table(e.child_table)
            if timed and child.time_column is None:
                continue
            out.append(e)
        return out

    def _window(self, forward: bool) -> ast.Window:
        rnd = self.rnd
        unit = TimeUnit.DAYS
        if forward:
            start = rnd.choice([0, 0, 0, 1, 5])
            end = start + rnd.choice([3, 7, 14, 30, 45])
            return ast.Window(start, end, unit)
        if rnd.random() < 0.12:
            return ast.Window(None, 0, unit)
        lookback = rnd.choice([7, 14, 30, 60, 90])
        return ast.Window(-lookback, rnd.choice([0, 0, 0, -1]), unit)

    def _constant_for(self, cdef, purpose: str) -> ast.Constant:
        rnd = self.rnd
        if cdef is None:  # COUNT-ish integer comparisons
            return ast.Constant(ConstKind.INT, rnd.choice([0, 0, 1, 2, 3, 5]))
        if cdef.dtype is DataType.INT64:
            return ast.Constant(ConstKind.INT, rnd.choice([0, 1, 2, 3, 5, 8, 10]))
        if cdef.dtype is DataType.FLOAT64:
            return ast.Constant(ConstKind.FLOAT, rnd.choice([1.0, 5.25, 10.0, 20.5, 40.0]))
        if cdef.dtype is DataType.BOOL:
            return ast.Constant(ConstKind.BOOL, rnd.random() < 0.5)
        if cdef.dtype is DataType.TIMESTAMP:
            day = rnd.randrange(0, 360)
            micros = _SPAN0 + day * MICROS_PER_DAY
            from .times import format_timestamp

            return ast.Constant(ConstKind.STRING, format_timestamp(micros))
        return ast.Constant(ConstKind.STRING, rnd.choice(_STR_POOL))

    def _comparison(self, table: str, *, windows: Optional[bool], allow_agg=True, depth=0):
        """One Compare leaf rooted at `table`. `windows`: None = static
        query (no windows anywhere), True = forward, False = backward."""
        rnd = self.rnd
        use_agg = allow_agg and rnd.random() < (0.65 if windows is not None else 0.3)
        if use_agg:
            edges = self._child_edges(table, timed=windows is not None)
            if edges:
                # Lists cannot be compared, so LIST_DISTINCT never appears here.
                comparable = [k for k in AggKind if k is not AggKind.LIST_DISTINCT]
                agg = self._aggregation(
                    table, windows=windows, depth=depth, edges=edges, kinds=comparable
                )
                if agg is not None:
                    tdefc = (
                        self.schema.table(agg.column.table).column(agg.column.column)
                        if not agg.column.is_wildcard
                        and agg.kind
                        in (AggKind.MIN, AggKind.MAX, AggKind.SUM, AggKind.AVG, AggKind.FIRST, AggKind.LAST)
                        else None
                    )
                    op = rnd.choice([RelOp.GT, RelOp.GE, RelOp.LT, RelOp.LE, RelOp.EQ, RelOp.NE])
                    if tdefc is not None:
                        if tdefc.dtype is DataType.STRING:
                            op = rnd.choice([RelOp.EQ, RelOp.NE, RelOp.LIKE, RelOp.CONTAINS])
                        elif tdefc.dtype is DataType.BOOL or tdefc.stype is SemanticType.KEY:
                            op = rnd.choice([RelOp.EQ, RelOp.NE])
                    if op in ast.STRING_OPS:
                        rhs = ast.Constant(ConstKind.STRING, rnd.choice(["b%", "%e%", "red", "a%"]))
                    else:
                        rhs = self._constant_for(tdefc, "agg")
                    return ast.Compare(agg, op, rhs)
        # Plain column comparison, possibly through parent hops (the schema
        # is tree-shaped, so grandparent chains stay unambiguous).
        choices = [table]
        for e in self.schema.edges_from(table):
            choices.append(e.parent_table)
            for e2 in self.schema.edges_from(e.parent_table):
                choices.append(e2.parent_table)
        src = rnd.choice(choices)
        cols = self._columns(src, stypes={SemanticType.NUMERICAL, SemanticType.CATEGORICAL})
        if not cols:
            cols = self._columns(src)
        cdef = rnd.choice(cols)
        if cdef.dtype is DataType.STRING:
            op = rnd.choice(
                [RelOp.EQ, RelOp.NE, RelOp.LIKE, RelOp.NOT_LIKE, RelOp.CONTAINS,
                 RelOp.STARTS_WITH, RelOp.ENDS_WITH, RelOp.IN, RelOp.IS, RelOp.IS_NOT]
            )
        elif cdef.dtype is DataType.BOOL:
            op = rnd.choice([RelOp.EQ, RelOp.NE, RelOp.IS, RelOp.IS_NOT])
        elif cdef.stype is SemanticType.KEY:
            op = rnd.choice([RelOp.EQ, RelOp.NE, RelOp.IN, RelOp.IS, RelOp.IS_NOT])
        elif cdef.dtype is DataType.TIMESTAMP:
            op = rnd.choice([RelOp.LT, RelOp.LE, RelOp.GT, RelOp.GE, RelOp.IS, RelOp.IS_NOT])
        else:
            op = rnd.choice([RelOp.GT, RelOp.GE, RelOp.LT, RelOp.LE, RelOp.EQ, RelOp.NE, RelOp.IN])
        if op in ast.NULL_OPS:
            rhs = ast.Constant(ConstKind.NULL, None)
        elif op in ast.MEMBER_OPS:
            elems = tuple(
                self._constant_for(cdef, "in") for _ in range(self.rnd.randrange(1, 4))
            )
            kinds = {e.kind for e in elems}
            if len(kinds) > 1:
                elems = (elems[0],)
            rhs = ast.Constant(ConstKind.ARRAY, elems)
        elif op in ast.STRING_OPS:
            rhs = ast.Constant(ConstKind.STRING, self.rnd.choice(["b%", "%e_", "red", "%a%", "New%"]))
        else:
            rhs = self._constant_for(cdef, "cmp")
        return ast.Compare(self.col(src, cdef.name), op, rhs)

    def _condition(self, table: str, *, windows: Optional[bool], depth=0, budget=2):
        rnd = self.rnd
        leaf = self._comparison(table, windows=windows, depth=depth)
        if budget <= 0 or rnd.random() < 0.55:
            return leaf
        other = self._condition(table, windows=windows, depth=depth, budget=budget - 1)
        node = (ast.And if rnd.random() < 0.6 else ast.Or)(leaf, other)
        if rnd.random() < 0.15:
            node = ast.Not(node)
        return node

    def _aggregation(self, context: str, *, windows, depth=0, edges=None, kinds=None, for_target=False):
        rnd = self.rnd
        edges = edges or self._child_edges(context, timed=windows is not None)
        if not edges:
            return None
        edge = rnd.choice(edges)
        child = self.schema.table(edge.child_table)
        kind = rnd.choice(kinds or list(AggKind))
        column = None
        if kind is AggKind.COUNT:
            column = ast.ColumnRef(child.name, "*")
        else:
            pool: Sequence = []
            if kind in (AggKind.SUM, AggKind.AVG):
                pool = self._columns(child.name, stypes={SemanticType.NUMERICAL})
            elif kind in (AggKind.MIN, AggKind.MAX):
                pool = self._columns(
                    child.name, stypes={SemanticType.NUMERICAL, SemanticType.TEMPORAL}
                )
            elif kind in (AggKind.FIRST, AggKind.LAST) and for_target:
                # Predicted values must be numerical, categorical or bool.
                pool = self._columns(
                    child.name, stypes={SemanticType.NUMERICAL, SemanticType.CATEGORICAL}
                )
            else:
                pool = [
                    c
                    for c in self._columns(child.name)
                    if c.stype is not SemanticType.TEXT
                ]
            if kind in (AggKind.FIRST, AggKind.LAST) and child.time_column is None:
                return None
            if not pool:
                return None
            column = ast.ColumnRef(child.name, rnd.choice(pool).name)
        where = None
        if rnd.random() < 0.35 and depth < 2:
            where = self._condition(
                child.name, windows=windows, depth=depth + 1, budget=1
            )
        window = None
        if windows is not None:
            window = self._window(forward=windows)
        return ast.Aggregation(kind, column, where, window)

    def query(self) -> ast.Query:
        rnd = self.rnd
        entity_tables = [t.name for t in self.schema.tables.values() if t.primary_key]
        rnd.shuffle(entity_tables)
        for etable in entity_tables:
            q = self._try_query(etable)
            if q is not None:
                return q
        raise DataError("schema offers no valid query shapes")

    def _try_query(self, etable: str) -> Optional[ast.Query]:
        rnd = self.rnd
        tdef = self.schema.table(etable)
        timed_children = self._child_edges(etable, timed=True)
        temporal = bool(timed_children) and rnd.random() < 0.8

        hint = None
        top_k = None
        target = None
        roll = rnd.random()
        if roll < 0.55 and timed_children:
            kinds = None
            if rnd.random() < 0.22:
                kinds = [AggKind.LIST_DISTINCT]
            target = self._aggregation(
                etable, windows=(True if temporal else None), kinds=kinds, for_target=True
            )
            if target is not None and target.kind is AggKind.LIST_DISTINCT:
                child = self.schema.table(target.column.table)
                is_link = any(fk.column == target.column.column for fk in child.foreign_keys)
                if is_link and rnd.random() < 0.5:
                    hint = Hint.RANK
                    top_k = rnd.choice([3, 5, 10])
        elif roll < 0.8:
            target = self._condition(etable, windows=(True if temporal else None), budget=1)
            if not self._has_comparable(target):
                target = None
        if target is None:
            cols = self._columns(
                etable, stypes={SemanticType.NUMERICAL, SemanticType.CATEGORICAL}
            )
            cols = [c for c in cols if c.name != tdef.primary_key]
            if not cols:
                return None
            cdef = rnd.choice(cols)
            target = self.col(etable, cdef.name)
            if cdef.stype is SemanticType.NUMERICAL and rnd.random() < 0.15:
                hint = Hint.CLASSIFY
            if not timed_children:
                temporal = False

        entity_where = None
        if rnd.random() < 0.6:
            entity_where = self._condition(
                etable, windows=(False if temporal else None), budget=2
            )
        assuming = None
        if temporal and rnd.random() < 0.22 and timed_children:
            assuming = self._condition(etable, windows=True, budget=1)
        # A query only carries ASSUMING when something gives it a future: a
        # column target with windowless filters would otherwise bind static.
        if assuming is not None:
            windowed = any(
                a.window is not None
                for part in (target, entity_where, assuming)
                for a in ast.iter_aggregations(part)
            )
            if not windowed:
                assuming = None

        try:
            return ast.Query(
                target=target,
                entity=self.col(etable, tdef.primary_key),
                entity_where=entity_where,
                assuming=assuming,
                hint=hint,
                top_k=top_k,
            )
        except Exception:
            return None

    @staticmethod
    def _has_comparable(node) -> bool:
        return isinstance(node, (ast.Compare, ast.Not, ast.And, ast.Or))


def random_query(seed: int, schema: Schema) -> ast.Query:
    """A well-formed query that binds against `schema`, drawn from a
    grammar-directed generator covering every aggregation kind, both window
    forms, -INF, filters at both levels, and ASSUMING."""
    return _QueryGen(seed, schema).query()
