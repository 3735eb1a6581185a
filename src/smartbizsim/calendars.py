"""Attendee calendars and the earliest-common-free-slot search.

Times are whole minutes since the scenario epoch. Busy intervals are
half-open [start, end). A slot is only valid when it sits entirely
inside one working-hours window on a working day.

A calendar's busy list is always sorted and merged: it is normalized
once when the calendar is built, and a booking keeps it so with one
bisect and a merge of the neighbours it touches.
"""

from __future__ import annotations

import datetime as dt
import heapq
from bisect import bisect_left, bisect_right
from itertools import islice
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import NoSlotAvailable, Record
from .timeline import MINUTES_PER_DAY

Interval = tuple[int, int]
_START = itemgetter(0)
_END = itemgetter(1)


def normalize_intervals(intervals: Iterable[Interval]) -> list[Interval]:
    """Sort and merge overlapping/adjacent half-open intervals."""
    cleaned = sorted((s, e) for s, e in intervals if e > s)
    merged: list[Interval] = []
    for start, end in cleaned:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


class WorkWeek(Record):
    """The daily working window and the working weekdays (0 = Monday)."""

    start: dt.time = dt.time(8, 0)
    end: dt.time = dt.time(18, 0)
    days: tuple[int, ...] = (0, 1, 2, 3, 4)


class Calendar(Record, frozen=False):
    """One attendee's busy intervals, kept sorted and merged: no two
    intervals overlap or touch, so their ends are sorted too."""

    busy: list[Interval] = ()  # normalized into a new list

    def __post_init__(self) -> None:
        self.busy = normalize_intervals(self.busy)

    def add_busy(self, start: int, end: int) -> None:
        if end <= start:
            return
        busy = self.busy
        # busy[lo:hi] are the intervals that overlap or touch [start, end)
        lo = bisect_left(busy, start, key=_END)
        hi = bisect_right(busy, end, lo, key=_START)
        if lo < hi:
            start = min(start, busy[lo][0])
            end = max(end, busy[hi - 1][1])
        busy[lo:hi] = [(start, end)]


class Slot(NamedTuple):
    start: int
    duration: int

    @property
    def end(self) -> int:
        return self.start + self.duration


def find_common_slot(
    calendars: Sequence[Calendar],
    duration: int,
    search_from: int,
    horizon: int,
    week: WorkWeek,
    epoch_weekday: int,
) -> Slot:
    """Earliest slot of `duration` minutes free in every calendar.

    The whole slot must fit inside a single working window of `week` and
    end no later than `horizon`; day 0 falls on `epoch_weekday`. Raises
    NoSlotAvailable when nothing fits.
    """
    start_minute = week.start.hour * 60 + week.start.minute
    end_minute = week.end.hour * 60 + week.end.minute
    workdays = week.days
    # every calendar from its first interval that ends after search_from,
    # merged lazily by start; intervals of different calendars may overlap
    busy = heapq.merge(*(
        islice(cal.busy, bisect_right(cal.busy, search_from, key=_END), None)
        for cal in calendars
    ))
    pending = next(busy, None)
    # every start before `reached` is blocked; an interval the walk passes
    # is used up, even one that spans into later days
    reached = search_from

    day = max(search_from // MINUTES_PER_DAY, 0)
    last_day = (horizon - 1) // MINUTES_PER_DAY
    if duration > end_minute - start_minute:
        last_day = -1  # longer than the working window: no day can hold it
    while day <= last_day:
        if (epoch_weekday + day) % 7 in workdays:
            lo = max(day * MINUTES_PER_DAY + start_minute, search_from)
            hi = min(day * MINUTES_PER_DAY + end_minute, horizon)
            if lo + duration <= hi:
                # Push the candidate past each interval that blocks it;
                # intervals come sorted by start, so the first resting point
                # is the earliest start in this window.
                candidate = max(lo, reached)
                while pending is not None:
                    bs, be = pending
                    if candidate + duration <= bs:
                        break
                    candidate = max(candidate, be)
                    pending = next(busy, None)
                if candidate + duration <= hi:
                    return Slot(start=candidate, duration=duration)
                reached = candidate
        # every start on the days before the one `reached` falls on is
        # blocked, and each interval a walk of them would pass, the walk
        # of the next open day passes too
        day = max(day + 1, reached // MINUTES_PER_DAY)
    raise NoSlotAvailable(
        f"no {duration}-minute slot free for all calendars before minute {horizon}"
    )
