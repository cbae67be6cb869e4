"""Timestamp handling.

All timestamps are integers: microseconds since the Unix epoch, UTC.
Input accepts ISO-8601 dates and datetimes (naive values are taken as UTC,
offsets are honored, a trailing ``Z`` is accepted on Python 3.10). The
canonical form, which `format_timestamp` writes, is
``YYYY-MM-DDTHH:MM:SS[.ffffff]Z``; `parse_canonical_timestamps` and
`format_timestamps` convert whole columns of it with numpy.
"""

from __future__ import annotations

import warnings
from datetime import datetime, timedelta, timezone
from typing import List, Sequence

import numpy as np

MICROS_PER_SECOND = 1_000_000
MICROS_PER_MINUTE = 60 * MICROS_PER_SECOND
MICROS_PER_HOUR = 60 * MICROS_PER_MINUTE
MICROS_PER_DAY = 24 * MICROS_PER_HOUR
MICROS_PER_WEEK = 7 * MICROS_PER_DAY
# Months are a fixed 30 days; see the language docs for rationale.
MICROS_PER_MONTH = 30 * MICROS_PER_DAY

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def parse_timestamp(text: str) -> int:
    """Parse an ISO-8601 date or datetime to epoch microseconds (UTC)."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    delta = dt - _EPOCH
    return (delta.days * MICROS_PER_DAY) + delta.seconds * MICROS_PER_SECOND + delta.microseconds


def format_timestamp(micros: int) -> str:
    """Render epoch microseconds as a canonical UTC ISO-8601 string.

    Sub-second digits are omitted when zero so common timestamps stay short.
    """
    dt = _EPOCH + timedelta(microseconds=int(micros))
    text = f"{dt.year:04d}-{dt.month:02d}-{dt.day:02d}T{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}"
    if dt.microsecond:
        return f"{text}.{dt.microsecond:06d}Z"
    return text + "Z"


_MIN_MICROS = -62135596800 * MICROS_PER_SECOND  # 0001-01-01T00:00:00Z
_MAX_MICROS = 253402300800 * MICROS_PER_SECOND - 1  # 9999-12-31T23:59:59.999999Z


def parse_canonical_timestamps(cells: Sequence[str]) -> np.ndarray:
    """Parse cells of the canonical form to epoch microseconds (int64).

    A column is canonical when `format_timestamps` writes every cell back
    unchanged; otherwise this raises ValueError, and callers parse cell by
    cell with `parse_timestamp`, whose results this function matches
    wherever it returns.
    """
    with warnings.catch_warnings():
        # numpy warns on a timezone offset and drops it; refuse the column.
        warnings.simplefilter("error")
        try:
            micros = np.array([c[:-1] for c in cells], dtype=str).astype("datetime64[us]").view(np.int64)
            canonical = format_timestamps(micros) == list(cells)
        except (Warning, OverflowError):  # an offset; a year outside 0001-9999
            canonical = False
    if not canonical:
        raise ValueError("not canonical timestamps")
    return micros


def format_timestamps(micros: np.ndarray) -> List[str]:
    """`format_timestamp` over an int64 array, in one numpy pass."""
    micros = np.asarray(micros, dtype=np.int64)
    # Outside years 0001-9999 numpy would still format; `format_timestamp` raises.
    if len(micros) and not (_MIN_MICROS <= micros.min() and micros.max() <= _MAX_MICROS):
        return [format_timestamp(m) for m in micros.tolist()]
    text = np.datetime_as_string(micros.view("datetime64[us]"), unit="us")
    whole = np.char.add(text.astype("<U19"), "Z")  # cut ".ffffff" off whole seconds
    return np.where(micros % MICROS_PER_SECOND == 0, whole, np.char.add(text, "Z")).tolist()


def format_duration(micros: int) -> str:
    """Humanize a duration for plan explanations and CLI summaries."""
    m = int(micros)
    if m == 0:
        return "0d"
    if m % MICROS_PER_DAY == 0:
        return f"{m // MICROS_PER_DAY}d"
    if m % MICROS_PER_HOUR == 0:
        return f"{m // MICROS_PER_HOUR}h"
    if m % MICROS_PER_MINUTE == 0:
        return f"{m // MICROS_PER_MINUTE}m"
    if m % MICROS_PER_SECOND == 0:
        return f"{m // MICROS_PER_SECOND}s"
    return f"{m}us"


def parse_duration(text: str) -> int:
    """Parse a duration like ``45d``, ``12h``, ``30m``, ``10s`` to microseconds."""
    raw = text.strip().lower()
    units = {
        "d": MICROS_PER_DAY,
        "h": MICROS_PER_HOUR,
        "m": MICROS_PER_MINUTE,
        "s": MICROS_PER_SECOND,
        "w": MICROS_PER_WEEK,
    }
    if raw and raw[-1] in units:
        return int(raw[:-1]) * units[raw[-1]]
    raise ValueError(f"cannot parse duration {text!r}; use e.g. 45d, 12h, 30m, 10s")
