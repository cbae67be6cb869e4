"""Shared fixtures: the retail schema and a small hand-checked database."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from corpus import SCHEMA_DOCS  # noqa: E402

from pql.store import build_row_graph, load_schema, load_table_data, new_database  # noqa: E402

CUSTOMERS_CSV = """CUSTOMER_ID,LOCATION_ID,SIGNUP_DATE,MEMBERSHIP_TYPE
1,New York,2023-11-01,gold
2,New York,2023-12-01,basic
3,Paris,2023-10-01,basic
"""

ARTICLES_CSV = """ARTICLE_ID,ARTICLE_NAME,ARTICLE_TYPE,DESCRIPTION,COLOR
1,Blue Shirt,shirt,plain blue shirt,blue
2,Red Shirt,shirt,vivid red shirt,red
3,Blue Dress,dress,summer dress,blue
"""

# Window arithmetic in the tests anchors at 2024-01-01.
TRANSACTIONS_CSV = """TRANSACTION_ID,VALUE,TIMESTAMP,CUSTOMER_ID,ARTICLE_ID
1,10.0,2024-01-05,1,1
2,20.0,2024-01-10,1,2
3,120.0,2024-02-10,1,1
4,60.0,2024-01-03,2,2
5,75.0,2024-01-20,2,3
6,,2024-01-07,2,1
7,40.0,2023-12-20,3,3
8,15.0,,1,3
"""

NOTIFICATIONS_CSV = """NOTIFICATION_TYPE,NOTIFICATION_TEXT,TIME_SENT,CUSTOMER_ID
push,hello,2024-01-05,1
email,hi,2024-02-01,2
"""


@pytest.fixture(scope="session")
def retail_schema():
    return load_schema(SCHEMA_DOCS["retail"])


def build_toy_db(schema):
    db = new_database(schema)
    load_table_data(db, "CUSTOMERS", CUSTOMERS_CSV)
    load_table_data(db, "ARTICLES", ARTICLES_CSV)
    load_table_data(db, "TRANSACTIONS", TRANSACTIONS_CSV)
    load_table_data(db, "NOTIFICATIONS", NOTIFICATIONS_CSV)
    return db


@pytest.fixture(scope="session")
def toy_db(retail_schema):
    return build_toy_db(retail_schema)


@pytest.fixture(scope="session")
def toy_graph(toy_db):
    """What the benchmark's warm set-up passes on as `g`: the database."""
    return build_row_graph(toy_db)
