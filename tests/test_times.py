"""Timestamp parsing, formatting and duration helpers."""

import numpy as np
import pytest

from pql.times import (
    MICROS_PER_DAY,
    MICROS_PER_HOUR,
    MICROS_PER_MINUTE,
    MAX_MICROS,
    MIN_MICROS,
    canonical_cells,
    canonical_micros,
    format_duration,
    format_timestamp,
    parse_duration,
    parse_timestamp,
)


def test_date_only_is_utc_midnight():
    assert parse_timestamp("1970-01-02") == MICROS_PER_DAY


def test_datetime_with_offset():
    utc = parse_timestamp("2024-01-01T05:00:00+00:00")
    assert parse_timestamp("2024-01-01T07:00:00+02:00") == utc
    assert parse_timestamp("2024-01-01T05:00:00Z") == utc


def test_microseconds_preserved():
    t = parse_timestamp("2024-06-01T12:34:56.789012Z")
    assert t % 1_000_000 == 789012
    assert format_timestamp(t) == "2024-06-01T12:34:56.789012Z"


def test_format_parse_round_trip():
    for text in ("2023-01-01T00:00:00Z", "1999-12-31T23:59:59Z", "2024-02-29T10:00:00Z"):
        assert format_timestamp(parse_timestamp(text)) == text


@pytest.mark.parametrize("year", [1, 5, 999, 1000, 9999])
def test_years_are_zero_padded(year):
    for rest in ("-01-01T00:00:00Z", "-12-31T23:59:59.999999Z"):
        text = f"{year:04d}{rest}"
        assert format_timestamp(parse_timestamp(text)) == text


def parse_canonical(cells):
    """`canonical_micros` over text cells; raises ValueError if any is refused."""
    raw = [c.encode() for c in cells]
    fixed = np.zeros((27, len(raw)), dtype=np.uint8)
    for i, r in enumerate(raw):
        fixed[: min(len(r), 27), i] = list(r[:27])
    micros, ok = canonical_micros(fixed, np.array([len(r) for r in raw], dtype=np.int64))
    if not ok.all():
        raise ValueError("not canonical timestamps")
    return micros


def format_canonical(micros):
    """`canonical_cells` as text, one string per value."""
    cells, lengths = canonical_cells(micros)
    assert cells.shape == (27, len(micros)) and set(lengths.tolist()) <= {20, 27}
    return [cells[:n, i].tobytes().decode() for i, n in enumerate(lengths.tolist())]


def test_columns_match_the_scalar_functions():
    rng = np.random.default_rng(0)
    lo, hi = parse_timestamp("0001-01-01T00:00:00Z"), parse_timestamp("9999-12-31T23:59:59.999999Z")
    assert (lo, hi) == (MIN_MICROS, MAX_MICROS)
    micros = np.concatenate(
        [
            rng.integers(lo, hi, 2000, endpoint=True),
            rng.integers(lo // 10**6, hi // 10**6, 2000) * 10**6,  # whole seconds
            np.array([lo, hi, 0, -1, 1, 10**6, -(10**6)]),
        ]
    )
    texts = format_canonical(micros)
    assert texts == [format_timestamp(m) for m in micros.tolist()]
    assert parse_canonical(texts).tolist() == micros.tolist()
    assert format_canonical(micros[:0]) == []
    assert parse_canonical([]).tolist() == []


@pytest.mark.parametrize(
    "text",
    [
        "0001-01-01T00:00:00Z",
        "9999-12-31T23:59:59.999999Z",
        "1969-12-31T23:59:59.999999Z",
        "1969-12-31T23:59:59Z",
        "1900-01-01T00:00:00.000001Z",
        "0400-03-01T12:00:00Z",
        "1600-02-29T23:59:59Z",
        "1900-02-28T00:00:00Z",
        "1900-03-01T00:00:00Z",
        "2000-02-29T00:00:00.000001Z",
        "2100-02-28T23:59:59.999999Z",
        "2100-03-01T00:00:00Z",
        "1970-01-01T00:00:00Z",
        "1970-01-01T00:00:00.000001Z",
        "2024-06-01T12:34:56Z",
    ],
)
def test_calendar_edges_match_the_scalar_formatter(text):
    micros = parse_timestamp(text)
    assert format_canonical(np.array([micros])) == [format_timestamp(micros)] == [text]
    cells, lengths = canonical_cells(np.array([micros]))
    assert canonical_micros(cells, lengths)[0].tolist() == [micros]


@pytest.mark.parametrize(
    "cells",
    [
        ["2022-03-04"],
        ["2022-03-04T05:06:07+00:00"],
        ["2022-03-04T05:06:07z"],
        ["2022-03-04T05:06:07Z", "2022-03-04T05:06:07.12345Z"],
        ["2022-03-04T05:06:07Z\x00"],
        ["0000-01-01T00:00:00Z"],
        ["2022-12-31T23:59:60Z"],
        ["2022-02-29T00:00:00Z"],
        ["\u0662022-03-04T05:06:07Z"],
        ["2022-03-04T05+01:00Z"],
        ["2022-03-04T05:06:07-01:00Z"],
        ["2022-03-04T05:06:07.000000Z"],
        [" 2022-03-04T05:06:07Z"],
        ["+2022-03-04T05:06:07Z"],
        ["2022-03-04 05:06:07Z"],
        ["NaTZ"],
        ["2022-03-04T24:00:00Z"],
        ["2022-03-04T05:60:00Z"],
        ["2022-13-04T05:06:07Z"],
        ["2022-04-31T05:06:07Z"],
        ["1900-02-29T05:06:07Z"],
    ],
)
def test_non_canonical_columns_are_refused(cells):
    with pytest.raises(ValueError):
        parse_canonical(cells)


def test_leap_days_and_calendar_edges_match_the_scalar_parser():
    texts = ["2000-02-29T00:00:00Z", "2024-02-29T23:59:59.999999Z", "1600-02-29T12:00:00Z",
             "0004-02-29T00:00:00Z", "1969-12-31T23:59:59.000001Z", "1970-01-01T00:00:00Z",
             "2023-03-01T00:00:00Z", "0001-01-01T00:00:00Z", "9999-12-31T23:59:59.999999Z"]
    assert parse_canonical(texts).tolist() == [parse_timestamp(t) for t in texts]


def test_bad_timestamp_raises():
    with pytest.raises(ValueError):
        parse_timestamp("yesterday")


@pytest.mark.parametrize("text", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00",
                                  "0001-01-01T00:59:59.999999+01:00", "9999-12-31T23:00:00-01:00"])
def test_a_time_outside_the_written_years_is_refused(text):
    """An offset can move a time in years 0001-9999 outside them in UTC,
    where the CSV writer could not write it back."""
    with pytest.raises(ValueError, match="outside years 0001-9999"):
        parse_timestamp(text)


def test_the_written_years_read_to_their_ends():
    assert parse_timestamp("0001-01-01T01:00:00+01:00") == MIN_MICROS
    assert parse_timestamp("9999-12-31T22:59:59.999999-01:00") == MAX_MICROS


def test_parse_duration():
    assert parse_duration("45d") == 45 * MICROS_PER_DAY
    assert parse_duration("12h") == 12 * MICROS_PER_HOUR
    assert parse_duration("30m") == 30 * MICROS_PER_MINUTE
    with pytest.raises(ValueError):
        parse_duration("45 fortnights")


def test_format_duration():
    assert format_duration(90 * MICROS_PER_DAY) == "90d"
    assert format_duration(MICROS_PER_HOUR * 5) == "5h"
    assert format_duration(0) == "0d"
