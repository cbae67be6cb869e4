"""Train/val/test split assignment.

Temporal tables split at the anchor level: the newest anchor is the test
set, the second newest validation, everything older trains. Static tables
split per entity by a seeded hash so reruns are byte-identical. Result
tables hold each split as an int8 code, its label's index in `SPLITS`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .errors import PlanError

TRAIN, VAL, TEST = "train", "val", "test"
SPLITS = np.array([TRAIN, VAL, TEST], dtype=object)  # `SPLITS[codes]` labels codes
# Keys hashed per block in `split_for_keys`; bounds the digests alive at once.
_HASH_BLOCK = 8192


@dataclass(frozen=True)
class SplitPolicy:
    train: float = 0.8
    val: float = 0.1
    test: float = 0.1
    seed: int = 0

    def __post_init__(self):
        total = self.train + self.val + self.test
        if not abs(total - 1.0) <= 1e-9:  # a NaN or infinite ratio fails too
            raise PlanError(f"split ratios must sum to 1, got {total}")
        if min(self.train, self.val, self.test) < 0:
            raise PlanError("split ratios must be non-negative")


def split_code_for_anchor_rank(rank: int) -> int:
    """`rank` counts anchors newest-first: 0 = test, 1 = val, rest = train."""
    return max(2 - rank, 0)


def split_for_key(key, policy: SplitPolicy) -> str:
    digest = hashlib.sha256(f"{policy.seed}|{key!r}".encode()).digest()
    u = int.from_bytes(digest[:8], "big") / 2**64
    if u < policy.train:
        return TRAIN
    if u < policy.train + policy.val:
        return VAL
    return TEST


def split_for_keys(keys: np.ndarray, policy: SplitPolicy) -> np.ndarray:
    """`split_for_key` for an array of keys, as split codes: the hashes of a
    block of keys are joined and read as big-endian uint64 by numpy. A
    uint64 converts to the nearest float64, and dividing by 2**64 is exact,
    so each fraction equals `int.from_bytes(...) / 2**64` bit for bit."""
    prefix = f"{policy.seed}|"
    u = np.empty(len(keys), dtype=np.float64)
    for lo in range(0, len(keys), _HASH_BLOCK):
        digests = b"".join(
            hashlib.sha256((prefix + repr(k)).encode()).digest()[:8]
            for k in keys[lo : lo + _HASH_BLOCK].tolist()
        )
        u[lo : lo + _HASH_BLOCK] = np.frombuffer(digests, dtype=">u8")
    u /= 2**64
    return (u >= policy.train).astype(np.int8) + (u >= policy.train + policy.val)


def split_counts(codes: np.ndarray) -> Dict[str, int]:
    """Rows per split label, keyed in the order the labels first appear."""
    counts = np.bincount(codes, minlength=len(SPLITS))
    first = sorted(np.flatnonzero(counts), key=lambda c: np.argmax(codes == c))
    return {SPLITS[c]: int(counts[c]) for c in first}
