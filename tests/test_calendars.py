import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import minute_scan_slot, overlaps_busy, random_slot_instance
from smartbizsim.calendars import (
    Calendar,
    WorkWeek,
    find_common_slot,
    normalize_intervals,
)
from smartbizsim.timeline import MINUTES_PER_DAY

WEEK = WorkWeek()  # 08:00-18:00, Monday to Friday; day 0 is a Monday below


def test_normalize_merges_and_sorts():
    assert normalize_intervals([(10, 20), (15, 30), (40, 50), (30, 40)]) == [(10, 50)]


def test_empty_calendars_take_first_working_minute():
    cals = [Calendar() for _ in range(3)]
    start = find_common_slot(cals, 60, 0, 7 * MINUTES_PER_DAY, WEEK, 0)
    assert start == 8 * 60
    assert type(start) is int  # the start minute alone: the caller knows the duration


def test_search_from_inside_working_day_is_respected():
    cals = [Calendar()]
    search_from = 2 * MINUTES_PER_DAY + 600  # Wednesday 10:00
    start = find_common_slot(cals, 30, search_from, search_from + MINUTES_PER_DAY, WEEK, 0)
    assert start == search_from


def test_weekend_is_skipped():
    cals = [Calendar()]
    saturday = 5 * MINUTES_PER_DAY
    start = find_common_slot(cals, 60, saturday, saturday + 7 * MINUTES_PER_DAY, WEEK, 0)
    assert start == 7 * MINUTES_PER_DAY + 8 * 60  # next Monday 08:00


def test_duration_longer_than_a_working_day_never_fits():
    cals = [Calendar()]
    assert find_common_slot(cals, 10 * 60 + 1, 0, 30 * MINUTES_PER_DAY, WEEK, 0) is None


class _CountedDays(tuple):
    """Working weekdays that count the membership tests made on them, and
    stop a search that walks more than a week of days."""

    tests = 0

    def __contains__(self, weekday):
        _CountedDays.tests += 1
        assert _CountedDays.tests <= 7, "the search walks the horizon day by day"
        return tuple.__contains__(self, weekday)


def test_a_meeting_longer_than_the_window_fails_without_walking_a_day():
    week = WorkWeek(days=_CountedDays((0, 1, 2, 3, 4)))
    _CountedDays.tests = 0
    assert find_common_slot([Calendar()], 10 * 60 + 1, 0, 10**12, week, 0) is None
    assert _CountedDays.tests == 0
    # the count works: a meeting that fits the window asks about day 0
    assert find_common_slot([Calendar()], 10 * 60, 0, 10**12, week, 0) == 8 * 60
    assert _CountedDays.tests == 1


def test_a_search_behind_a_long_busy_interval_skips_the_days_it_covers():
    week = WorkWeek(days=_CountedDays((0, 1, 2, 3, 4)))
    _CountedDays.tests = 0
    busy_until = 10**6 * MINUTES_PER_DAY  # day 10**6 is a Tuesday
    cals = [Calendar(busy=[(0, busy_until)]), Calendar()]
    start = find_common_slot(cals, 60, 0, 10**7 * MINUTES_PER_DAY, week, 0)
    assert start == busy_until + 8 * 60
    assert _CountedDays.tests < 10


def test_busy_blocks_push_the_slot_later():
    # Monday 08:00-09:00 and 09:30-10:00 busy; 60 minutes only fits at 10:00
    cals = [
        Calendar(busy=[(480, 540)]),
        Calendar(busy=[(570, 600)]),
    ]
    start = find_common_slot(cals, 60, 0, MINUTES_PER_DAY, WEEK, 0)
    assert start == 600
    # but 30 minutes fits into the 09:00-09:30 gap
    start = find_common_slot(cals, 30, 0, MINUTES_PER_DAY, WEEK, 0)
    assert start == 540


def test_slot_never_crosses_the_working_window_end():
    cals = [Calendar(busy=[(480, 1020)])]  # Monday busy until 17:00
    start = find_common_slot(cals, 60, 0, MINUTES_PER_DAY, WEEK, 0)
    assert start == 1020
    assert find_common_slot(cals, 61, 0, MINUTES_PER_DAY, WEEK, 0) is None


def test_matches_minute_scan_oracle_on_random_instances():
    rng = random.Random(1203)
    mismatches = []
    for i in range(200):
        inst = random_slot_instance(rng)
        expected = minute_scan_slot(
            inst["busy_lists"], inst["duration"], inst["search_from"],
            inst["horizon"], inst["week"], inst["epoch_weekday"],
        )
        cals = [Calendar(busy=list(b)) for b in inst["busy_lists"]]
        got = find_common_slot(
            cals, inst["duration"], inst["search_from"], inst["horizon"], inst["week"],
            inst["epoch_weekday"],
        )
        if got != expected:
            mismatches.append((i, expected, got))
    assert not mismatches, mismatches[:5]


def test_returned_slot_is_safe_independent_of_the_oracle():
    rng = random.Random(914)
    for _ in range(100):
        inst = random_slot_instance(rng)
        cals = [Calendar(busy=list(b)) for b in inst["busy_lists"]]
        start = find_common_slot(
            cals, inst["duration"], inst["search_from"], inst["horizon"], inst["week"],
            inst["epoch_weekday"],
        )
        if start is None:
            continue
        end = start + inst["duration"]
        assert start >= inst["search_from"]
        assert end <= inst["horizon"]
        for cal in cals:
            assert not overlaps_busy(cal.busy, start, end)


# -- the sorted-and-merged invariant under bookings ---------------------------

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)
DAYS = 10


def _interval(span: int, max_length: int):
    """A non-empty interval that starts in [0, span], as validation allows;
    half sit on a 30-minute grid so neighbours often touch."""
    on_grid = st.tuples(
        st.integers(0, span // 30).map(lambda k: 30 * k),
        st.integers(1, max_length // 30).map(lambda k: 30 * k),
    )
    anywhere = st.tuples(st.integers(0, span), st.integers(1, max_length))
    return st.one_of(on_grid, anywhere).map(lambda p: (p[0], p[0] + p[1]))


@SETTINGS
@given(
    initial=st.lists(_interval(20 * 60, 4 * 60), max_size=8),
    added=st.lists(_interval(20 * 60, 4 * 60), max_size=20),
)
def test_add_busy_keeps_busy_equal_to_the_normalized_history(initial, added):
    calendar = Calendar(busy=list(initial))
    history = list(initial)
    for start, end in added:
        calendar.add_busy(start, end)
        history.append((start, end))
        assert calendar.busy == normalize_intervals(history)


@st.composite
def _booking_runs(draw):
    """Calendars and a sequence of meeting requests against them.

    Busy blocks include ones that span several days (weekends too, since
    the epoch weekday varies), chains of blocks that touch end to start
    spread over the calendars, and ordinary short blocks. Each request's
    search_from moves forward, often into a busy block.
    """
    count = draw(st.integers(1, 3))
    short_blocks = st.lists(_interval(DAYS * MINUTES_PER_DAY, 12 * 60), max_size=12)
    busy_lists = [draw(short_blocks) for _ in range(count)]
    for start, days in draw(st.lists(
        st.tuples(st.integers(0, DAYS * MINUTES_PER_DAY), st.integers(1, 4)), max_size=3
    )):
        busy_lists[draw(st.integers(0, count - 1))].append(
            (start, start + days * MINUTES_PER_DAY + draw(st.integers(0, 600)))
        )
    for start, lengths in draw(st.lists(
        st.tuples(st.integers(0, DAYS * MINUTES_PER_DAY),
                  st.lists(st.integers(1, 240), min_size=2, max_size=5)),
        max_size=2,
    )):
        for length in lengths:
            busy_lists[draw(st.integers(0, count - 1))].append((start, start + length))
            start += length
    requests = []
    search_from = draw(st.integers(0, 2 * MINUTES_PER_DAY))
    for _ in range(draw(st.integers(1, 5))):
        blocks = [b for busy in busy_lists for b in busy if b[0] >= search_from]
        if blocks and draw(st.booleans()):
            start, end = draw(st.sampled_from(blocks))
            search_from = draw(st.integers(start, end - 1))  # inside a busy block
        else:
            search_from += draw(st.integers(0, MINUTES_PER_DAY))
        attendees = draw(st.sets(st.integers(0, count - 1), min_size=1))
        duration = draw(st.sampled_from((1, 15, 30, 60, 90, 240, 600)))
        requests.append((sorted(attendees), duration, search_from))
    return busy_lists, requests, draw(st.integers(0, 6))


@SETTINGS
@given(run=_booking_runs())
def test_booking_loop_matches_the_minute_scan_oracle_at_every_step(run):
    busy_lists, requests, epoch_weekday = run
    calendars = [Calendar(busy=list(b)) for b in busy_lists]
    for attendees, duration, search_from in requests:
        horizon = search_from + 7 * MINUTES_PER_DAY
        booked = [calendars[j] for j in attendees]
        expected = minute_scan_slot(
            [cal.busy for cal in booked], duration, search_from, horizon, WEEK, epoch_weekday
        )
        got = find_common_slot(booked, duration, search_from, horizon, WEEK, epoch_weekday)
        assert got == expected
        if got is not None:
            for cal in booked:
                cal.add_busy(got, got + duration)
