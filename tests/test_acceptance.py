"""Acceptance suite: one test per criterion, all at zero tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one line per
criterion; without -s the lines appear in pytest's captured output.
"""

import datetime as dt
import random
from fractions import Fraction

from helpers import (
    by_kind,
    document,
    message_records,
    minute_scan_slot,
    month_end_dates_by_enumeration,
    naive_total_cost,
    random_slot_instance,
    recorded_dmaic,
    run,
    tap,
    two_device_scenario,
)
from smartbizsim.calendars import Calendar, find_common_slot
from smartbizsim.controls import default_control_catalog, default_mapping
from smartbizsim.costs import (
    CostRates,
    load_dmaic_config,
    monetize,
    residual_assessment,
    run_dmaic,
)
from smartbizsim.errors import canonical_json, replace
from smartbizsim.middleware import ControlLayerConfig, S17Config
from smartbizsim.risk import default_risk_catalog, rank, top_k
from smartbizsim.scenario import ReminderSpec
from smartbizsim.timeline import SECONDS_PER_DAY


def _ok(number: int, name: str) -> None:
    print(f"[criterion {number}] PASS - {name}")


def test_criterion_1_default_ranking_matches_the_grid():
    assessment = rank(default_risk_catalog())
    assert list(assessment.ranking) == [
        "R6", "R9", "R4", "R10", "R3", "R7", "R8", "R1", "R5", "R2",
    ]
    assert top_k(assessment, 3) == ["R6", "R9", "R4"]
    _ok(1, "default assessment ranking and top-3")


def test_criterion_2_mapping_and_all_change_levels():
    mapping = default_mapping()
    assert document(mapping) == {"R4": ["S17"], "R6": ["S10"], "R9": ["S9"]}
    assert mapping == {"R4": ("S17",), "R6": ("S10",), "R9": ("S9",)}
    expected_levels = {
        "S5": "Moderate", "S6": "Moderate", "S7": "LowModerate",
        "S8": "LowModerate", "S9": "High", "S10": "Moderate",
        "S11": "LowModerate", "S12": "ModerateHigh", "S13": "ModerateHigh",
        "S14": "Moderate", "S15": "ModerateHigh", "S16": "Moderate",
        "S17": "Low", "S18": "ModerateHigh",
    }
    catalog = default_control_catalog()
    assert len(catalog.sections) == 14
    levels = {s.id: s.change_level.value for s in catalog.sections}
    assert levels == expected_levels
    _ok(2, "risk->control mapping and all 14 change levels")


def test_criterion_3_reminder_fires_36_times_over_three_years():
    # 2024 (leap) through 2026; created at the very start of the window
    horizon = (dt.date(2027, 1, 1) - dt.date(2024, 1, 1)).days * SECONDS_PER_DAY
    scenario = two_device_scenario(
        horizon_s=horizon,
        reminders=(
            ReminderSpec(id="eom", author="device-a", target="device-b",
                         payload="month end", at=0),
        ),
    )
    _, records = run(scenario, (), until=horizon)
    fired = [r for r in by_kind(records, "reminder") if r["event"] == "fired"]
    assert len(fired) == 36

    month_ends = {
        (d - scenario.epoch).days
        for d in month_end_dates_by_enumeration(dt.date(2024, 1, 1), dt.date(2026, 12, 31))
    }
    fire_second = 9 * 3600  # configured fire time, 09:00
    for record in fired:
        assert record["time"] % SECONDS_PER_DAY == fire_second
        assert record["time"] // SECONDS_PER_DAY in month_ends
    # and each firing delivered its message to the target
    assert len([d for d in by_kind(records, "delivered") if d["to"] == "device-b"]) == 36
    _ok(3, "36 month-end firings, every one at a verified month-end 09:00")


def test_criterion_4_scheduler_equals_the_minute_scan_oracle():
    rng = random.Random(20240131)
    mismatches = 0
    for i in range(1000):
        inst = random_slot_instance(rng)
        expected = minute_scan_slot(
            inst["busy_lists"], inst["duration"], inst["search_from"],
            inst["horizon"], inst["week"], inst["epoch_weekday"],
        )
        calendars = [Calendar(busy=list(b)) for b in inst["busy_lists"]]
        got = find_common_slot(
            calendars, inst["duration"], inst["search_from"],
            inst["horizon"], inst["week"], inst["epoch_weekday"],
        )
        if got != expected:
            mismatches += 1
    assert mismatches == 0
    _ok(4, "1000/1000 randomized instances equal the exhaustive scan")


def test_criterion_5_plaintext_exposure_is_all_or_nothing():
    config = load_dmaic_config(None)
    scenario = config.scenario

    def exposure(enabled: frozenset) -> tuple[int, int]:
        world, records = run(scenario, enabled)
        plaintext = observed = 0
        for link_id in sorted(world.links):
            for obs in tap(link_id, world.links, records):
                observed += 1
                plaintext += obs.visibility == "Plaintext"
        return plaintext, observed

    plain_off, seen_off = exposure(frozenset())
    plain_on, seen_on = exposure(frozenset(("S10",)))
    assert seen_off > 0 and seen_on > 0
    assert plain_off == seen_off   # 100% plaintext without encryption
    assert plain_on == 0           # 0% with it
    _ok(5, f"tap counts: {plain_off}/{seen_off} plaintext off, {plain_on}/{seen_on} on")


def test_criterion_6_failover_turns_exact_losses_into_delayed_deliveries():
    window = 60
    times = tuple(range(300, 86_400, 300))  # one message every 5 minutes
    fail_at, fail_len = 43_200, 3_600
    scenario = two_device_scenario(
        horizon_s=90_000,
        message_times=times,
        failures=(("device-b", fail_at, fail_len),),
    )
    # each send arrives one grid second later (100 ms rounded up)
    expected_lost = {t for t in times if fail_at <= t + 1 < fail_at + fail_len}

    _, baseline = run(scenario, ())
    by_msg = message_records(baseline)
    lost = {by_msg[r["msg_id"]]["sent"]["time"] for r in by_kind(baseline, "lost")}
    assert lost == expected_lost
    assert len(by_kind(baseline, "delivered")) == len(times) - len(expected_lost)

    _, secured = run(replace(
        scenario,
        controls=ControlLayerConfig(
            s17=S17Config(backups_per_site=1, detection_window_s=window)
        ),
    ), {"S17"})
    assert not by_kind(secured, "lost")
    delivered = by_kind(secured, "delivered")
    assert len(delivered) == len(times)
    assert max(d["s17_ms"] for d in delivered) <= window * 1000
    _ok(6, f"{len(expected_lost)} exact losses without S17; 100% delivery, "
           f"delays <= {window}s with it")


def test_criterion_7_cost_additivity_against_the_naive_oracle():
    import test_costs as tc

    rng = random.Random(90210)
    for _ in range(120):
        plan = tc._random_plan(rng)
        rates = tc._random_rates(rng)
        usage = tc._random_usage(rng, plan)
        breakdown = monetize(plan, rates, usage)
        total = sum(cost.total for cost in breakdown.values())
        assert total == naive_total_cost(plan, rates, usage)

    no_controls = replace(load_dmaic_config(None), mapping={})
    assert run_dmaic(no_controls).total_security_cost == 0
    _ok(7, "120/120 randomized combos match; zero-controls run costs 0")


def test_criterion_8_reruns_are_byte_identical():
    first, *first_traces = recorded_dmaic(load_dmaic_config(None))
    second, *second_traces = recorded_dmaic(load_dmaic_config(None))
    assert canonical_json(first) == canonical_json(second)
    for one, other in zip(first_traces, second_traces):
        assert one.to_ndjson() == other.to_ndjson()
    _ok(8, "report and both traces byte-identical across reruns")


def test_criterion_9_residual_ranking_after_elimination():
    # Hand computation: with the three controls enabled and factor 0 the
    # mitigated scores become R4=R6=R9=0; the survivors keep
    # R10=12 > R3=R7=R8=9 > R1=R5=4 > R2=1, ties by id suffix.
    assessment = rank(default_risk_catalog())
    residual = residual_assessment(
        assessment, {"S9", "S10", "S17"}, default_mapping(), Fraction(0)
    )
    assert list(residual.ranking[:3]) == ["R10", "R3", "R7"]
    report = run_dmaic(load_dmaic_config(None))
    assert list(report.residual_ranking.ranking[:3]) == ["R10", "R3", "R7"]
    _ok(9, "residual top-3 is [R10, R3, R7]")
