"""Simulated-time helpers.

The world clock counts whole seconds since the scenario epoch (midnight,
local time, single time zone). Calendars count whole minutes since the
same epoch.
"""

from __future__ import annotations

import datetime as dt

SECONDS_PER_DAY = 86_400
MINUTES_PER_DAY = 1_440


def seconds_at(epoch: dt.date, day: dt.date, time_of_day: dt.time) -> int:
    """Seconds since epoch midnight for a local date + time of day."""
    days = (day - epoch).days
    return (
        days * SECONDS_PER_DAY
        + time_of_day.hour * 3600
        + time_of_day.minute * 60
        + time_of_day.second
    )


def month_end(year: int, month: int) -> dt.date:
    """The last day of the month. December's is built without the next
    year's, so December 9999 ends on `dt.date.max`."""
    if month == 12:
        return dt.date(year, 12, 31)
    return dt.date(year, month + 1, 1) - dt.timedelta(days=1)


def next_month_end_instant(
    after_seconds: int, fire_time: dt.time, epoch: dt.date
) -> int:
    """First month-end fire instant strictly after the given clock value."""
    day = epoch + dt.timedelta(days=after_seconds // SECONDS_PER_DAY)
    year, month = day.year, day.month
    while True:
        instant = seconds_at(epoch, month_end(year, month), fire_time)
        if instant > after_seconds:
            return instant
        year, month = (year + 1, 1) if month == 12 else (year, month + 1)
