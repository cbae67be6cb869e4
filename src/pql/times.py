"""Timestamp handling.

All timestamps are integers: microseconds since the Unix epoch, UTC.
Input accepts ISO-8601 dates and datetimes (naive values are taken as UTC,
offsets are honored, a trailing ``Z`` is accepted on Python 3.10). The
canonical form, which `format_timestamp` writes, is
``YYYY-MM-DDTHH:MM:SS[.ffffff]Z``. The CSV writer and loader in
`pql.store` handle a whole column of its bytes, one function each way,
both in integer arithmetic: `canonical_cells` writes the bytes (the civil
date from days) and `canonical_micros` reads them back (days from the
civil date). `parse_timestamp` defines the accepted text:
`canonical_micros` accepts only the canonical form, which it reads as
`parse_timestamp` does, and refuses every other cell (offsets, dates
without a time, spaces, ``.000000``), which the loader then hands to
`parse_timestamp` one cell at a time.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from typing import Tuple

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
    """Parse an ISO-8601 date or datetime to epoch microseconds (UTC). A
    time outside years 0001-9999 in UTC, which an offset can reach, is a
    `ValueError`: the CSV writer could not write it."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    delta = dt - _EPOCH
    micros = (delta.days * MICROS_PER_DAY) + delta.seconds * MICROS_PER_SECOND + delta.microseconds
    if not MIN_MICROS <= micros <= MAX_MICROS:
        raise ValueError(f"timestamp {text!r} is outside years 0001-9999 in UTC")
    return micros


def format_timestamp(micros: int) -> str:
    """Render epoch microseconds as a canonical UTC ISO-8601 string.

    Sub-second digits are omitted when zero so common timestamps stay short.
    """
    dt = _EPOCH + timedelta(microseconds=int(micros))
    text = f"{dt.year:04d}-{dt.month:02d}-{dt.day:02d}T{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}"
    if dt.microsecond:
        return f"{text}.{dt.microsecond:06d}Z"
    return text + "Z"


MIN_MICROS = -62135596800 * MICROS_PER_SECOND  # 0001-01-01T00:00:00Z
MAX_MICROS = 253402300800 * MICROS_PER_SECOND - 1  # 9999-12-31T23:59:59.999999Z


# The canonical form's bytes; "0" marks a digit. A cell without a
# fraction is the first 19 bytes and "Z".
_CANONICAL = np.frombuffer(b"0000-00-00T00:00:00.000000Z", dtype=np.uint8)
_ZERO = _CANONICAL[0]
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def canonical_micros(cells: np.ndarray, lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Epoch microseconds of canonical timestamp cells, and which cells are.

    `cells` is a (27, n) uint8 array whose row k holds byte k of each of n
    cells, 0 past a cell's end; `lengths` holds each cell's length in
    bytes. A cell is canonical when it is exactly ``YYYY-MM-DDTHH:MM:SSZ``
    or ``YYYY-MM-DDTHH:MM:SS.ffffffZ`` with ASCII digits, a year of
    0001-9999, a day that exists in its month and year, hours 00-23,
    minutes and seconds 00-59, and a nonzero fraction. Canonical cells
    read as `parse_timestamp` reads them; other cells read 0.
    """
    short, long = lengths == 20, lengths == 27
    digits = cells - np.uint8(48)  # any other byte wraps past 9
    ok = short | long
    for k, byte in enumerate(_CANONICAL[:19]):
        ok &= digits[k] <= 9 if byte == 48 else cells[k] == byte
    ok &= np.where(long, (cells[19] == 46) & (cells[26] == 90), cells[19] == 90)
    ok &= ~long | (digits[20:26] <= 9).all(axis=0)

    def number(lo: int, hi: int) -> np.ndarray:
        value = np.zeros(cells.shape[1], dtype=np.int64)
        for row in digits[lo:hi]:
            value = value * 10 + row
        return value

    year, month, day = number(0, 4), number(5, 7), number(8, 10)
    hour, minute, second = number(11, 13), number(14, 16), number(17, 19)
    fraction = np.where(long, number(20, 26), 0)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 0, 12)] + ((month == 2) & leap)
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    ok &= (hour < 24) & (minute < 60) & (second < 60) & (~long | (fraction > 0))
    # Days from the civil date (H. Hinnant), with years starting in March.
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468
    seconds = ((days * 24 + hour) * 60 + minute) * 60 + second
    return np.where(ok, seconds * MICROS_PER_SECOND + fraction, 0), ok


def canonical_cells(micros: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The canonical text of epoch microseconds, as `format_timestamp`
    writes it, laid out as `canonical_micros` reads it: a (27, n) uint8
    array whose row k holds byte k of each of n cells, and each cell's
    length in bytes, 20 for a whole second (``YYYY-MM-DDTHH:MM:SSZ``) and
    27 otherwise; the bytes past a cell's end are not part of it. Every
    value must lie in `MIN_MICROS..MAX_MICROS` (years 0001-9999); others
    give meaningless bytes.
    """
    seconds, fraction = np.divmod(np.asarray(micros, dtype=np.int64), MICROS_PER_SECOND)
    days, second = np.divmod(seconds, MICROS_PER_DAY // MICROS_PER_SECOND)
    # The civil date from days (H. Hinnant), with years starting in March.
    z = days + 719468
    era = z // 146097
    doe = z - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    day = doy - (153 * mp + 2) // 5 + 1
    month = np.where(mp < 10, mp + 3, mp - 9)
    year = era * 400 + yoe + (month <= 2)
    cells = np.empty((len(_CANONICAL), len(days)), dtype=np.uint8)
    cells[:] = _CANONICAL[:, None]
    for at, number in ((0, year // 100), (2, year % 100), (5, month), (8, day), (11, second // 3600),
                       (14, second // 60 % 60), (17, second % 60), (20, fraction // 10000),
                       (22, fraction // 100 % 100), (24, fraction % 100)):
        number = number.astype(np.uint8)  # two digits, 0-99
        tens = number // 10
        cells[at] = tens + _ZERO
        cells[at + 1] = number - tens * 10 + _ZERO
    whole = fraction == 0
    cells[19, whole] = _CANONICAL[-1]  # "Z" ends a whole second
    return cells, np.where(whole, 20, 27)


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
