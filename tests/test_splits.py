"""Static split assignment: the batched hash against the per-key definition."""

import math

import numpy as np
import pytest

from pql.errors import PlanError
from pql.splits import (
    _HASH_BLOCK,
    SPLITS,
    TEST,
    TRAIN,
    VAL,
    SplitPolicy,
    split_code_for_anchor_rank,
    split_counts,
    split_for_key,
    split_for_keys,
)

KEYS = (
    list(range(-500, 500))
    + [2**63 - 1, -(2**63 - 1), -(2**63), 2**62]
    + ["", "a", "A", "'", '"', "it's", 'say "hi"', "é", "é", "中文", "\U0001F600",
       "line\nbreak", "tab\t", "\\", "1", "-1", "\r\n", "\x00", "\x85", "\u2028", "\n"]
    + [f"customer-{i}" for i in range(500)]
)


@pytest.mark.parametrize(
    "policy",
    [
        SplitPolicy(),
        SplitPolicy(seed=1),
        SplitPolicy(seed=-7),
        SplitPolicy(seed=12345678901234567890),
        SplitPolicy(0.5, 0.25, 0.25, seed=3),
        SplitPolicy(0.9, 0.0, 0.1, seed=4),
        SplitPolicy(1.0, 0.0, 0.0, seed=5),
        SplitPolicy(0.0, 0.0, 1.0, seed=6),
    ],
)
def test_batched_split_matches_per_key(policy):
    codes = split_for_keys(np.array(KEYS, dtype=object), policy)
    assert codes.dtype == np.int8
    batched = SPLITS[codes].tolist()
    assert batched == [split_for_key(k, policy) for k in KEYS]
    assert set(batched) <= {TRAIN, VAL, TEST}
    # An int64 key column hashes its keys as Python ints, as the table's rows hold them.
    ints = [k for k in KEYS if isinstance(k, int) and -(2**63) <= k < 2**63]
    assert SPLITS[split_for_keys(np.array(ints, dtype=np.int64), policy)].tolist() == [
        split_for_key(k, policy) for k in ints
    ]


def test_keys_over_several_hash_blocks():
    ints = np.arange(-3, 2 * _HASH_BLOCK + 5, dtype=np.int64)[::-1]
    strings = np.array([f"k\n{i}" for i in ints.tolist()], dtype=object)
    policy = SplitPolicy(0.6, 0.2, 0.2, seed=9)
    for keys in (ints, strings):
        assert SPLITS[split_for_keys(keys, policy)].tolist() == [split_for_key(k, policy) for k in keys.tolist()]


def test_no_keys():
    assert len(split_for_keys(np.array([], dtype=np.int64), SplitPolicy())) == 0
    assert split_counts(np.array([], dtype=np.int8)) == {}


def test_codes_name_the_labels():
    assert SPLITS.tolist() == [TRAIN, VAL, TEST]
    assert SPLITS[[split_code_for_anchor_rank(r) for r in range(5)]].tolist() == [TEST, VAL, TRAIN, TRAIN, TRAIN]


def test_split_counts_follow_first_appearance():
    codes = np.array([2, 2, 0, 1, 0, 2], dtype=np.int8)
    counts = split_counts(codes)
    assert list(counts.items()) == [(TEST, 3), (TRAIN, 2), (VAL, 1)]
    assert list(split_counts(codes[2:]).items()) == [(TRAIN, 2), (VAL, 1), (TEST, 1)]


@pytest.mark.parametrize(
    "ratios",
    [(math.nan, 0, 0), (0.8, math.nan, 0.1), (0.8, 0.1, math.nan), (math.inf, 0, 0), (1, -math.inf, 0)],
    ids=str,
)
def test_non_finite_ratios_are_refused(ratios):
    with pytest.raises(PlanError, match="split ratios must sum to 1, got -?(nan|inf)"):
        SplitPolicy(*ratios)
