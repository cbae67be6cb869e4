"""Static split assignment: the batched hash against the per-key definition."""

import pytest

from pql.splits import TEST, TRAIN, VAL, SplitPolicy, split_for_key, split_for_keys

KEYS = (
    list(range(-500, 500))
    + [2**63 - 1, -(2**63 - 1), -(2**63), 2**62]
    + ["", "a", "A", "'", '"', "it's", 'say "hi"', "é", "é", "中文", "\U0001F600",
       "line\nbreak", "tab\t", "\\", "1", "-1"]
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
    batched = split_for_keys(KEYS, policy)
    assert batched == [split_for_key(k, policy) for k in KEYS]
    assert set(batched) <= {TRAIN, VAL, TEST}


def test_no_keys():
    assert split_for_keys([], SplitPolicy()) == []
