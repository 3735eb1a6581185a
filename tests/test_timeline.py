import calendar
import datetime as dt

import pytest

from helpers import end_of_month_instants, month_end_dates_by_enumeration
from smartbizsim.errors import ConfigError, parse_hhmm
from smartbizsim.timeline import SECONDS_PER_DAY, next_month_end_instant, seconds_at

NINE_AM = dt.time(9, 0)


def test_leap_year_first_quarter():
    epoch = dt.date(2024, 1, 1)
    instants = end_of_month_instants(dt.date(2024, 1, 1), dt.date(2024, 3, 31), NINE_AM, epoch)
    expected_dates = [dt.date(2024, 1, 31), dt.date(2024, 2, 29), dt.date(2024, 3, 31)]
    assert expected_dates == month_end_dates_by_enumeration(dt.date(2024, 1, 1), dt.date(2024, 3, 31))
    assert instants == [seconds_at(epoch, d, NINE_AM) for d in expected_dates]


def test_non_leap_february():
    epoch = dt.date(2023, 1, 1)
    instants = end_of_month_instants(dt.date(2023, 2, 1), dt.date(2023, 2, 28), NINE_AM, epoch)
    assert instants == [seconds_at(epoch, dt.date(2023, 2, 28), NINE_AM)]


def test_non_month_end_singleton_range_is_empty():
    epoch = dt.date(2024, 1, 1)
    assert end_of_month_instants(dt.date(2024, 5, 10), dt.date(2024, 5, 10), NINE_AM, epoch) == []


def test_three_year_window_matches_enumeration_oracle():
    # windows with a leap year (2024), a leap century (2000) and a century
    # that is not leap (1900); the second oracle is the stdlib's calendar
    for first_year in (2024, 1999, 1899):
        epoch = start = dt.date(first_year, 1, 1)
        end = dt.date(first_year + 2, 12, 31)
        instants = end_of_month_instants(start, end, NINE_AM, epoch)
        oracle = month_end_dates_by_enumeration(start, end)
        assert oracle == [
            dt.date(year, month, calendar.monthrange(year, month)[1])
            for year in range(first_year, first_year + 3)
            for month in range(1, 13)
        ]
        assert len(instants) == len(oracle) == 36
        assert instants == [seconds_at(epoch, d, NINE_AM) for d in oracle]


def test_reversed_range_rejected():
    with pytest.raises(ConfigError, match="^date range is reversed: 2024-02-01 > 2024-01-01$"):
        end_of_month_instants(dt.date(2024, 2, 1), dt.date(2024, 1, 1), NINE_AM, dt.date(2024, 1, 1))


def test_next_month_end_is_strictly_after():
    epoch = dt.date(2024, 1, 1)
    jan31_nine = seconds_at(epoch, dt.date(2024, 1, 31), NINE_AM)
    # exactly at the fire instant -> next month
    nxt = next_month_end_instant(jan31_nine, NINE_AM, epoch)
    assert nxt == seconds_at(epoch, dt.date(2024, 2, 29), NINE_AM)
    # one second earlier -> same day fires
    assert next_month_end_instant(jan31_nine - 1, NINE_AM, epoch) == jan31_nine


def test_seconds_at_counts_whole_days():
    epoch = dt.date(2024, 1, 1)
    assert seconds_at(epoch, dt.date(2024, 1, 2), dt.time(0, 0)) == SECONDS_PER_DAY


def test_parse_hhmm_validates():
    assert parse_hhmm("08:30") == dt.time(8, 30)
    with pytest.raises(ConfigError, match=r"^bad time of day '8h30' \(expected HH:MM\)$"):
        parse_hhmm("8h30")
