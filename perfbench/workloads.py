"""The three workloads' inputs: scale, operation lists and sampler requests.

Every list here is fixed. The seed changes the data (`pql gen-data
--seed`) and, in the sampler requests, which entities and anchors are
drawn; it never changes how much work a workload asks for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

DAY_MICROS = 86_400_000_000

# hm_genspec(scale=0.005): 6.5k customers, 525 articles, 155k transactions,
# 10k notifications, spread over 2022-2023.
SCALE = 0.005

# A p95 needs ten samples beyond it.
MIN_TAIL_SAMPLES = 200


@dataclass(frozen=True)
class QuerySpec:
    """A query kept in parts, so the reference can reuse its entity filter."""

    target: str
    entity: str
    where: Optional[str] = None
    assuming: Optional[str] = None

    def text(self) -> str:
        out = f"PREDICT {self.target} FOR EACH {self.entity}"
        if self.where:
            out += f" WHERE {self.where}"
        if self.assuming:
            out += f" ASSUMING {self.assuming}"
        return out


@dataclass(frozen=True)
class Op:
    """One operation: a `pql` command, or the same work in-process.

    `candidates` names the link candidates' filter as (table, column,
    value), so the reference can recompute the candidate list from the CSV.
    """

    name: str
    command: str  # train-table | predict-table | sample
    query: QuerySpec
    anchors: int = 10
    stride_days: Optional[int] = None
    pairs: int = 100
    candidates: Optional[Tuple[str, str, str]] = None

    def cli_args(self, data_dir: str, out_dir: str) -> List[str]:
        args = [self.command, "--data-dir", data_dir, "--out-dir", out_dir,
                "--query", self.query.text(), "--workers", "1"]
        if self.command != "predict-table":
            args += ["--anchors", str(self.anchors)]
            if self.stride_days is not None:
                args += ["--stride", f"{self.stride_days}d"]
        if self.command == "sample":
            args += ["--pairs", str(self.pairs)]
        return args


CUSTOMER = "CUSTOMERS.CUSTOMER_ID"
COUNT_7D = "COUNT(TRANSACTIONS.*, 0, 7, days)"
BLUE_LINKS = QuerySpec(
    'LIST_DISTINCT(TRANSACTIONS.ARTICLE_ID WHERE TRANSACTIONS.VALUE > 50 '
    'AND ARTICLES.COLOR = "blue", 0, 30, days) RANK TOP 12',
    CUSTOMER,
)
ACTIVE_SPENDER = QuerySpec(
    "SUM(TRANSACTIONS.VALUE, 15, 45, days) > 100 OR COUNT(TRANSACTIONS.*, 15, 45, days) > 10",
    CUSTOMER,
    where="COUNT(TRANSACTIONS.*, -40, 0, days) > 0",
    assuming="COUNT(NOTIFICATIONS.*, 0, 15, days) > 0",
)

# Cold CLI: output writing is heavy in the first two commands (65k and
# 152k rows) and light in the rest.
CLI_OPS: Tuple[Op, ...] = (
    Op("train_unfiltered", "train-table", QuerySpec(COUNT_7D, CUSTOMER)),
    Op("train_static_value", "train-table",
       QuerySpec("TRANSACTIONS.VALUE", "TRANSACTIONS.TRANSACTION_ID")),
    Op("train_selective", "train-table",
       QuerySpec("SUM(TRANSACTIONS.VALUE, 0, 30, days)", CUSTOMER, where="CUSTOMERS.AGE > 97"),
       anchors=12, stride_days=30),
    Op("predict_links", "predict-table", BLUE_LINKS, candidates=("ARTICLES", "COLOR", "blue")),
    Op("sample_spend", "sample", QuerySpec("SUM(TRANSACTIONS.VALUE, 0, 30, days)", CUSTOMER),
       pairs=100),
)

# Warm batch: every plan stage, every operation a different query or
# anchor policy. Thirteen operations, so the median lands inside one.
BATCH_OPS: Tuple[Op, ...] = (
    Op("selective_static", "train-table",
       QuerySpec(COUNT_7D, CUSTOMER, where="CUSTOMERS.AGE > 97")),
    Op("selective_static_and", "train-table",
       QuerySpec("SUM(TRANSACTIONS.VALUE, 0, 30, days)", CUSTOMER,
                 where='CUSTOMERS.MEMBERSHIP_TYPE = "gold" AND CUSTOMERS.AGE < 30'),
       anchors=12, stride_days=30),
    Op("temporal_assuming", "train-table", ACTIVE_SPENDER),
    Op("temporal_assuming_push", "train-table",
       QuerySpec("COUNT(TRANSACTIONS.*, 0, 14, days) > 0", CUSTOMER,
                 where="COUNT(TRANSACTIONS.*, -30, 0, days) > 2",
                 assuming='COUNT(NOTIFICATIONS.* WHERE NOTIFICATIONS.NOTIFICATION_TYPE = "PUSH", '
                          "0, 7, days) > 0"),
       anchors=12, stride_days=14),
    Op("link_train", "train-table", BLUE_LINKS, anchors=6),
    Op("link_predict", "predict-table", BLUE_LINKS, candidates=("ARTICLES", "COLOR", "blue")),
    Op("unfiltered_count", "train-table", QuerySpec(COUNT_7D, CUSTOMER)),
    Op("unfiltered_avg", "train-table",
       QuerySpec("AVG(TRANSACTIONS.VALUE, 0, 30, days)", CUSTOMER), anchors=6),
    Op("static_value", "train-table",
       QuerySpec("TRANSACTIONS.VALUE", "TRANSACTIONS.TRANSACTION_ID")),
    # A filter through a customer attribute would keep a seed-dependent
    # share of the rows (a few customers hold most transactions), so the
    # parent-hop filter here keeps nearly everything and the entity's own
    # column does the selecting.
    Op("static_value_filtered", "train-table",
       QuerySpec("TRANSACTIONS.VALUE > 200", "TRANSACTIONS.TRANSACTION_ID",
                 where="CUSTOMERS.AGE > 20 AND TRANSACTIONS.VALUE > 150")),
    Op("unbounded_lookback", "train-table",
       QuerySpec("SUM(TRANSACTIONS.VALUE, 0, 30, days)", CUSTOMER,
                 where="COUNT(TRANSACTIONS.*, -INF, 0, days) > 20"),
       stride_days=30),
    Op("article_demand", "train-table",
       QuerySpec("COUNT(TRANSACTIONS.*, 0, 3, months)", "ARTICLES.ARTICLE_ID",
                 where='ARTICLES.ARTICLE_TYPE = "shirt"'),
       anchors=8),
    Op("predict_recent_buyers", "predict-table",
       QuerySpec(COUNT_7D, CUSTOMER, where="COUNT(TRANSACTIONS.*, -30, 0, days) > 5")),
)

# Sampler request templates: each request is one of these plus pairs.
SAMPLE_QUERIES: Tuple[QuerySpec, ...] = (
    QuerySpec(COUNT_7D, CUSTOMER),
    QuerySpec("SUM(TRANSACTIONS.VALUE, 0, 30, days)", CUSTOMER,
              where="COUNT(TRANSACTIONS.*, -30, 0, days) > 0"),
    QuerySpec('LIST_DISTINCT(TRANSACTIONS.ARTICLE_ID WHERE ARTICLES.COLOR = "blue", 0, 30, days) '
              "RANK TOP 12", CUSTOMER),
    ACTIVE_SPENDER,
)
SAMPLE_REQUESTS = 301
SAMPLE_MAX_PAIRS = 400
SAMPLE_ACTIVE_POOL = 300  # the most active customers, by transaction count
SAMPLE_ANCHOR_CHOICES = (1, 2, 3, 5, 10)


@dataclass(frozen=True)
class Request:
    """One sampler request: a query template and (entity key, anchor) pairs."""

    template: int
    pairs: Tuple[Tuple[int, int], ...]


def make_requests(seed: int, ranked_keys: Sequence[int], anchors: Sequence[Sequence[int]]) -> List[Request]:
    """The request list. `ranked_keys` lists every customer, most active
    first; `anchors[t]` is template t's anchor grid.

    The make-up is fixed, so that every seed asks for the same amount of
    work: request i has a size on a geometric scale from 1 to
    SAMPLE_MAX_PAIRS, templates take turns, and so do (in blocks) the entity
    pool (the SAMPLE_ACTIVE_POOL most active customers, or all of them) and
    the number of anchors (1 to 10 of the grid). Entities are a systematic
    sample over the pool's activity ranking, the middle of each stratum, so
    each request's mix of long and short histories is the same whatever the
    seed (a few customers hold most transactions: a seeded offset that
    sometimes picks the busiest one swings a request's cost tenfold). The
    seed picks the anchors, the pairs' anchors and the order of the
    requests."""
    rng = random.Random(f"sample_serve:{seed}")
    n_templates = len(SAMPLE_QUERIES)
    out: List[Request] = []
    for i in range(SAMPLE_REQUESTS):
        template = i % n_templates
        size = round(SAMPLE_MAX_PAIRS ** (i / (SAMPLE_REQUESTS - 1)))
        active = (i // n_templates) % 2 == 0
        pool = ranked_keys[:SAMPLE_ACTIVE_POOL] if active else ranked_keys
        size = min(size, len(pool))
        step = len(pool) / size
        keys = [pool[int((j + 0.5) * step)] for j in range(size)]
        n_anchors = SAMPLE_ANCHOR_CHOICES[(i // (2 * n_templates)) % len(SAMPLE_ANCHOR_CHOICES)]
        grid = list(anchors[template])
        chosen = rng.sample(grid, min(n_anchors, len(grid)))
        pairs = tuple((k, chosen[rng.randrange(len(chosen))]) for k in keys)
        out.append(Request(template, pairs))
    rng.shuffle(out)
    return out


def write_requests(data_dir: str, seed: int, path: str):
    """Write the sampler request list for a generated database as JSON.
    The activity ranking and the anchor grids come from the CSV text."""
    import json
    from pathlib import Path

    from reference import Reference

    ref = Reference(Path(data_dir), seed)
    activity = ref.raw.children_per_key("CUSTOMERS", "TRANSACTIONS")
    ranked = sorted((int(k) for k in ref.raw.keys("CUSTOMERS")),
                    key=lambda k: (-activity[str(k)], k))
    grids = [ref.anchors(ref.bound(q.text()), 10, None) for q in SAMPLE_QUERIES]
    doc = [{"template": r.template, "pairs": [list(p) for p in r.pairs],
            "anchors": grids[r.template]} for r in make_requests(seed, ranked, grids)]
    Path(path).write_text(json.dumps(doc))


if __name__ == "__main__":
    import sys

    write_requests(sys.argv[1], int(sys.argv[2]), sys.argv[3])
