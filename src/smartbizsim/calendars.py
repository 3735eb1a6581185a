"""Attendee calendars and the earliest-common-free-slot search.

Times are whole minutes since the scenario epoch. Busy intervals are
half-open [start, end). A slot is only valid when it sits entirely
inside one working-hours window on a working day.

A calendar's busy list is always sorted and merged: it is normalized
once when the calendar is built, and a booking keeps it so with one
bisect and a merge of the neighbours it touches.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import NoSlotAvailable
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


@dataclass(frozen=True)
class WorkingHours:
    """Daily working window plus the weekday the epoch falls on."""

    start_minute: int = 8 * 60
    end_minute: int = 18 * 60
    workdays: frozenset[int] = frozenset({0, 1, 2, 3, 4})  # Mon..Fri
    epoch_weekday: int = 0

    def is_workday(self, day_index: int) -> bool:
        return (self.epoch_weekday + day_index) % 7 in self.workdays


@dataclass
class Calendar:
    """One attendee's busy intervals, kept sorted and merged: no two
    intervals overlap or touch, so their ends are sorted too."""

    owner: str
    busy: list[Interval] = field(default_factory=list)

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
    hours: WorkingHours,
) -> Slot:
    """Earliest slot of `duration` minutes free in every calendar.

    The whole slot must fit inside a single working window and end no
    later than `horizon`. Raises NoSlotAvailable when nothing fits.
    """
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

    first_day = max(search_from // MINUTES_PER_DAY, 0)
    last_day = (horizon - 1) // MINUTES_PER_DAY
    for day in range(first_day, last_day + 1):
        if not hours.is_workday(day):
            continue
        window_start = day * MINUTES_PER_DAY + hours.start_minute
        window_end = day * MINUTES_PER_DAY + hours.end_minute
        lo = max(window_start, search_from)
        hi = min(window_end, horizon)
        if lo + duration > hi:
            continue
        # Push the candidate past each interval that blocks it; intervals
        # come sorted by start, so the first resting point is the earliest
        # start in this window.
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
    raise NoSlotAvailable(
        f"no {duration}-minute slot free for all calendars before minute {horizon}"
    )
