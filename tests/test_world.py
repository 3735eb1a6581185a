import datetime as dt
import gc
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    by_kind,
    message_records,
    multi_hop_scenario,
    overlaps_busy,
    two_device_scenario,
    worlds,
)
from smartbizsim.errors import (
    CloudUnavailable,
    InvalidScenario,
    NoRoute,
    NoSlotAvailable,
    UnknownAttendee,
    UnknownNode,
)
from smartbizsim.middleware import ControlLayerConfig, S17Config
from smartbizsim.metering import meter
from smartbizsim.scenario import (
    AttendeeSpec,
    CommandSpec,
    LinkSpec,
    NodeSpec,
    ReminderSpec,
    default_scenario,
)
from smartbizsim.timeline import SECONDS_PER_DAY, seconds_at
from smartbizsim.world import build_world

DAY = SECONDS_PER_DAY


def test_default_scenario_builds_three_devices_and_one_cloud():
    world = build_world(default_scenario())
    kinds = sorted((n.kind, n.site) for n in world.nodes.values())
    assert kinds == [
        ("CloudService", None),
        ("SmartDevice", "CityA"),
        ("SmartDevice", "CityB"),
        ("SmartDevice", "Truck"),
    ]
    assert world.clock == 0
    assert all(n.up for n in world.nodes.values())
    assert len(world.trace) == 0  # nothing observed until the world runs


def test_minimal_world_is_valid():
    scenario = replace(
        two_device_scenario(),
        nodes=(
            NodeSpec(id="device-a", kind="SmartDevice", site="CityA"),
            NodeSpec(id="cloud", kind="CloudService"),
        ),
        links=(LinkSpec(a="device-a", b="cloud", latency_ms=10),),
    )
    assert len(build_world(scenario).nodes) == 2


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: replace(s, links=s.links + (LinkSpec(a="device-a", b="ghost", latency_ms=5),)),
        lambda s: replace(s, links=(LinkSpec(a="device-a", b="cloud", latency_ms=-1),)),
        lambda s: replace(s, nodes=tuple(n for n in s.nodes if n.kind != "SmartDevice")),
        lambda s: replace(s, nodes=s.nodes + (NodeSpec(id="cloud2", kind="CloudService"),)),
        lambda s: replace(s, nodes=s.nodes + (NodeSpec(id="device-a", kind="SmartDevice", site="CityA"),)),
    ],
)
def test_invalid_scenarios_rejected(mutate):
    with pytest.raises(InvalidScenario):
        build_world(mutate(two_device_scenario()))


def test_run_until_with_empty_queue_only_moves_the_clock():
    world = build_world(two_device_scenario())
    before = len(world.trace)
    world.run_until(3600)
    assert world.clock == 3600
    assert len(world.trace) == before
    with pytest.raises(InvalidScenario):
        world.run_until(3599)


def test_equal_time_events_run_in_insertion_order():
    scenario = two_device_scenario(message_times=(500, 500, 500))
    world = build_world(scenario)
    world.run_until(600)
    sends = by_kind(world.trace, "sent")
    assert [s["msg_id"] for s in sends] == [1, 2, 3]
    assert [s["time"] for s in sends] == [500, 500, 500]
    # deliveries at the same instant also keep their scheduling order
    assert [d["msg_id"] for d in by_kind(world.trace, "delivered")] == [1, 2, 3]


def test_same_scenario_twice_gives_identical_traces():
    scenario = default_scenario()
    t1 = build_world(scenario).run_until(scenario.horizon_s).trace.to_ndjson()
    t2 = build_world(scenario).run_until(scenario.horizon_s).trace.to_ndjson()
    assert t1 == t2


def test_single_hop_latency_rounds_up_to_the_second_grid():
    world = build_world(two_device_scenario())
    msg_id = world.send_message("device-a", "cloud", b"hello")
    world.run_until(10)
    msg = message_records(world.trace)[msg_id]
    assert msg["sent"]["link_ms"] == 50
    assert msg["delivered"]["time"] == 1  # 0.05 s rounded up to the next grid slot
    assert msg["status"] == "Delivered"


def test_two_hop_path_sums_link_latencies():
    world = build_world(two_device_scenario())
    msg_id = world.send_message("device-a", "device-b", b"x")
    world.run_until(10)
    sent = message_records(world.trace)[msg_id]["sent"]
    assert sent["link_ms"] == 100
    assert tuple(sent["path"]) == ("device-a--cloud", "device-b--cloud")


def test_unknown_destination_and_no_route():
    world = build_world(two_device_scenario())
    with pytest.raises(UnknownNode):
        world.send_message("device-a", "ghost", b"x")
    with pytest.raises(NoRoute):
        world.send_message("device-a", "device-a", b"x")
    # a device without a link path would raise NoRoute mid-run, so the
    # scenario is rejected when it is built
    with pytest.raises(InvalidScenario, match="'island'"):
        replace(
            two_device_scenario(),
            nodes=two_device_scenario().nodes + (NodeSpec(id="island", kind="SmartDevice", site="Truck"),),
        )


def test_message_to_failed_node_without_backups_is_lost():
    scenario = two_device_scenario(
        message_times=(1000,),
        failures=(("device-b", 900, 3600),),
    )
    world = build_world(scenario)
    world.run_until(scenario.horizon_s)
    lost = by_kind(world.trace, "lost")
    assert len(lost) == 1
    assert lost[0]["reason"] == "node-failed"


def test_conservation_every_send_has_one_terminal_record():
    scenario = default_scenario()
    world = build_world(scenario)
    world.run_until(scenario.horizon_s)
    sent = {r["msg_id"] for r in by_kind(world.trace, "sent")}
    delivered = [r["msg_id"] for r in by_kind(world.trace, "delivered")]
    lost = [r["msg_id"] for r in by_kind(world.trace, "lost")]
    assert sorted(delivered + lost) == sorted(sent)
    assert len(delivered) + len(lost) == len(sent)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(worlds(), st.lists(st.integers(0, 1600), max_size=3))
def test_sent_is_delivered_plus_lost_plus_in_flight_at_every_stop(world, stops):
    # each send instant (its delivery is still queued) and a moment inside
    # the detection window after it, besides the drawn stop points
    for command in world.scenario.commands:
        stops += [command.at, command.at + 30]
    for t in sorted(stops) + [world.horizon_s]:
        world.run_until(t)
        messages = message_records(world.trace)
        in_flight = {m for m, msg in messages.items() if msg["status"] == "InFlight"}
        settled = len(by_kind(world.trace, "delivered")) + len(by_kind(world.trace, "lost"))
        assert len(messages) == settled + len(world.messages)
        assert set(world.messages) == in_flight
    assert world.messages == {}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(worlds(), st.integers(0, 1600))
def test_a_run_split_at_any_time_writes_the_same_trace(world, split):
    whole = build_world(world.scenario, world.config)
    whole.run_until(whole.horizon_s)
    world.run_until(split)
    world.run_until(world.horizon_s)
    assert world.trace.to_ndjson() == whole.trace.to_ndjson()


@pytest.mark.parametrize("layers", [(), ("S9", "S10", "S17")])
def test_a_finished_world_is_freed_by_reference_counting(layers):
    scenario = default_scenario()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        world = build_world(scenario, scenario.controls.with_enabled(layers))
        world.run_until(scenario.horizon_s)
        refs = (weakref.ref(world), weakref.ref(world.trace))
        del world
        assert [ref() for ref in refs] == [None, None]
    finally:
        if was_enabled:
            gc.enable()


# -- failure injection -------------------------------------------------------


def test_overlapping_failure_windows_merge_into_one_outage():
    scenario = two_device_scenario(
        message_times=(120, 250, 299, 350),
        failures=(("device-b", 100, 100), ("device-b", 150, 150)),
    )
    world = build_world(scenario)
    world.run_until(scenario.horizon_s)
    failures = by_kind(world.trace, "failure")
    assert [(f["phase"], f["time"]) for f in failures] == [("start", 100), ("end", 300)]
    # union window is [100, 300): eta 121 and 251 lost, 300 and 351 delivered
    outcomes = {m: msg["status"] for m, msg in message_records(world.trace).items()}
    assert list(outcomes.values()) == ["Lost", "Lost", "Delivered", "Delivered"]


def test_zero_duration_failure_has_no_observable_effect():
    scenario = two_device_scenario(message_times=(399,), failures=(("device-b", 400, 0),))
    world = build_world(scenario)
    world.run_until(scenario.horizon_s)
    assert len(by_kind(world.trace, "delivered")) == 1
    assert not by_kind(world.trace, "lost")


def test_inject_failure_validates_inputs():
    world = build_world(two_device_scenario())
    with pytest.raises(UnknownNode):
        world.inject_failure("ghost", 10, 10)
    world.run_until(100)
    with pytest.raises(InvalidScenario):
        world.inject_failure("device-b", 50, 10)


# -- reminders ---------------------------------------------------------------


def _reminder_scenario(created_at: int, horizon_days: int = 367):
    return two_device_scenario(
        horizon_s=horizon_days * DAY,
        reminders=(
            ReminderSpec(id="eom", author="device-a", target="device-b",
                         payload="release the recordings", at=created_at),
        ),
    )


def test_reminder_created_mid_january_fires_twelve_times_in_the_year():
    created = 14 * DAY  # Jan 15, 2024
    scenario = _reminder_scenario(created, horizon_days=366)
    world = build_world(scenario)
    world.run_until(scenario.horizon_s)
    fired = [r for r in by_kind(world.trace, "reminder") if r["event"] == "fired"]
    assert len(fired) == 12
    epoch = scenario.epoch
    expected_first = seconds_at(epoch, dt.date(2024, 1, 31), dt.time(9, 0))
    assert fired[0]["time"] == expected_first
    # every firing reaches the target device as a message
    deliveries = by_kind(world.trace, "delivered")
    fired_msgs = [d for d in deliveries if d["to"] == "device-b"]
    assert len(fired_msgs) == 12


def test_reminder_created_after_fire_time_on_month_end_waits_a_month():
    created = 30 * DAY + 10 * 3600  # Jan 31, 10:00 (fire time is 09:00)
    scenario = _reminder_scenario(created, horizon_days=70)
    world = build_world(scenario)
    world.run_until(scenario.horizon_s)
    fired = [r for r in by_kind(world.trace, "reminder") if r["event"] == "fired"]
    assert fired[0]["time"] == seconds_at(scenario.epoch, dt.date(2024, 2, 29), dt.time(9, 0))


def test_create_reminder_validates_nodes_and_cloud():
    world = build_world(two_device_scenario())
    with pytest.raises(UnknownNode):
        world.create_reminder("device-a", "ghost", b"x")
    with pytest.raises(UnknownNode):
        world.create_reminder("device-a", "cloud", b"x")  # target must be a device
    world.nodes["cloud"].fail_depth = 1
    with pytest.raises(CloudUnavailable):
        world.create_reminder("device-a", "device-b", b"x")


def test_generated_reminder_ids_skip_the_ids_the_scenario_declares():
    # both voice-created reminders register before the scenario's `rem-1`
    base = default_scenario()
    first = next(c for c in base.commands if c.intent == "create_reminder")
    second = replace(first, at=3 * DAY, target="dev-truck")
    declared = ReminderSpec(id="rem-1", author="dev-city-a", target="dev-city-a",
                            payload="p", at=4 * DAY)
    world = build_world(replace(
        base, commands=base.commands + (second,), reminders=(declared,)
    ))
    world.run_until(base.horizon_s)
    created = [
        (r["reminder"], r["target"]) for r in by_kind(world.trace, "reminder")
        if r["event"] == "created"
    ]
    assert created == [("rem-2", "dev-city-b"), ("rem-3", "dev-truck"), ("rem-1", "dev-city-a")]


def _request_failures(world) -> list[tuple[int, str, str]]:
    return [
        (r["time"], r["intent"], r["reason"]) for r in by_kind(world.trace, "request_failed")
    ]


def test_scenario_reminder_while_the_cloud_is_down_is_traced_and_the_run_goes_on():
    reminder = ReminderSpec(id="eom", author="device-a", target="device-b",
                            payload="p", at=100)
    world = build_world(two_device_scenario(
        message_times=(900,), failures=(("cloud", 50, 600),), reminders=(reminder,),
    ))
    world.run_until(world.horizon_s)
    assert _request_failures(world) == [(100, "create_reminder", "cloud-down")]
    assert world.reminders == {}
    assert by_kind(world.trace, "reminder") == []
    metrics = meter(world.trace)  # metering skips the new kind
    assert (metrics.messages_sent, metrics.messages_delivered) == (1, 1)


def test_reminder_request_failed_over_from_a_down_cloud_is_traced():
    # the cloud has a spare device: S17 hands the request to it after the
    # detection window, but only the cloud can register a reminder
    base = two_device_scenario(
        failures=(("cloud", 50, 3600),),
        controls=ControlLayerConfig(s17=S17Config(enabled=True)),
    )
    command = CommandSpec(at=100, device="device-a", user="operator",
                          credential="op-pass", intent="create_reminder",
                          target="device-b", payload="p")
    world = build_world(replace(
        base,
        nodes=tuple(
            replace(n, backup_pool=("device-b",)) if n.kind == "CloudService" else n
            for n in base.nodes
        ),
        commands=(command,),
    ))
    world.run_until(world.horizon_s)
    assert _request_failures(world) == [(110, "create_reminder", "cloud-down")]
    assert world.reminders == {}
    assert meter(world.trace).messages_delivered == 1


# -- meetings ------------------------------------------------------------------


def _meeting_scenario():
    base = two_device_scenario()
    return replace(
        base,
        nodes=base.nodes + (NodeSpec(id="device-t", kind="SmartDevice", site="Truck"),),
        links=base.links + (LinkSpec(a="device-t", b="cloud", latency_ms=80),),
        attendees=(
            AttendeeSpec(id="chief", device="device-b"),
            AttendeeSpec(id="finance", device="device-a"),
            AttendeeSpec(id="driver", device="device-t"),
        ),
    )


def test_meeting_books_everyone_and_sends_three_invitations():
    world = build_world(_meeting_scenario())
    slot = world.schedule_meeting("device-b", ["chief", "finance", "driver"], 60)
    assert slot.duration == 60
    invitations = by_kind(world.trace, "sent")
    assert len(invitations) == 3
    assert {i["src"] for i in invitations} == {"cloud"}
    for attendee in ("chief", "finance", "driver"):
        assert overlaps_busy(world.calendars[attendee].busy, slot.start, slot.end)


def test_rescheduling_with_same_inputs_lands_strictly_later():
    world = build_world(_meeting_scenario())
    first = world.schedule_meeting("device-b", ["chief", "finance"], 45)
    second = world.schedule_meeting("device-b", ["chief", "finance"], 45)
    assert second.start > first.start


def test_unknown_attendee_rejected():
    world = build_world(_meeting_scenario())
    with pytest.raises(UnknownAttendee):
        world.schedule_meeting("device-b", ["chief", "nobody"], 30)


def test_unplaceable_meeting_raises():
    world = build_world(_meeting_scenario())
    with pytest.raises(NoSlotAvailable):
        world.schedule_meeting("device-b", ["chief"], 10 * 60 + 1)


# -- continuity provisioning ---------------------------------------------------


def test_s17_provisions_one_spare_per_device():
    controls = ControlLayerConfig(s17=S17Config(enabled=True, backups_per_site=1))
    world = build_world(two_device_scenario(controls=controls))
    assert set(world.nodes) == {
        "device-a", "device-b", "cloud", "device-a-r1", "device-b-r1",
    }
    assert world.nodes["device-a"].backup_pool == ("device-a-r1",)
    spare_link = world.links["device-a-r1--cloud"]
    assert spare_link.latency_ms == 50  # mirrors the primary's cloud link
    world.run_until(0)  # provisioning records land at clock 0
    capital = by_kind(world.trace, "capital")
    assert [(c["section"], c["count"]) for c in capital] == [("S17", 2)]


def test_a_spare_copies_the_first_link_of_its_primarys_route_to_the_cloud():
    # dev-a, dev-d and dev-f reach the cloud only through other devices;
    # the route tie-break sends them through dev-b, dev-b and dev-e
    scenario = multi_hop_scenario()
    world = build_world(scenario, scenario.controls.with_enabled({"S9", "S10", "S17"}))
    assert {spare: world._adjacency[spare] for spare in ("dev-a-r1", "dev-d-r1", "dev-f-r1")} == {
        "dev-a-r1": {"dev-b": "dev-a-r1--dev-b"},
        "dev-d-r1": {"dev-b": "dev-d-r1--dev-b"},
        "dev-f-r1": {"dev-e": "dev-f-r1--dev-e"},
    }
    assert world.links["dev-f-r1--dev-e"].latency_ms == 30
    world.send_message("dev-a-r1", "dev-c", b"from the spare")
    (sent,) = by_kind(world.trace, "sent")
    assert sent["path"] == ("dev-a-r1--dev-b", "dev-b--cloud", "cloud--dev-c")
