import datetime as dt
import gc
import hashlib
import re
import tracemalloc
import weakref
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    by_kind,
    generated_reminder_id,
    message_records,
    multi_hop_scenario,
    ndjson,
    overlaps_busy,
    run,
    two_device_scenario,
    worlds,
)
from smartbizsim.errors import ConfigError, NoSlotAvailable, replace
from smartbizsim.middleware import ControlLayerConfig, S9Config, S17Config
from smartbizsim.metering import meter
from smartbizsim.scenario import (
    AttendeeSpec,
    CommandSpec,
    FailureSpec,
    LinkSpec,
    NodeSpec,
    ReminderSpec,
    TheftSpec,
    default_scenario,
)
from smartbizsim.timeline import SECONDS_PER_DAY, seconds_at
from smartbizsim.world import World

DAY = SECONDS_PER_DAY


def test_default_scenario_builds_three_devices_and_one_cloud():
    records = []
    world = World(default_scenario(), (), records.extend)
    assert world.cloud_id == "cloud"
    assert world.clock == 0
    # every node is up: none has an open outage
    assert world._outages == {"dev-city-a": 0, "dev-city-b": 0, "dev-truck": 0, "cloud": 0}
    assert world.trace.count == 0 and records == []  # nothing observed until the world runs


def test_minimal_world_is_valid():
    scenario = replace(
        two_device_scenario(),
        nodes=(
            NodeSpec(id="device-a", kind="SmartDevice", site="CityA"),
            NodeSpec(id="cloud", kind="CloudService"),
        ),
        links=(LinkSpec(a="device-a", b="cloud", latency_ms=10),),
    )
    records = []
    world = World(scenario, (), records.extend)
    assert world.cloud_id == "cloud"
    assert world._outages == {"device-a": 0, "cloud": 0}
    assert world.trace.count == 0 and records == []


@pytest.mark.parametrize(
    "mutate, problem",
    [
        (lambda s: replace(s, links=s.links + (LinkSpec(a="device-a", b="ghost", latency_ms=5),)),
         "link endpoint 'ghost' is unknown"),
        (lambda s: replace(s, links=(LinkSpec(a="device-a", b="cloud", latency_ms=-1),)),
         "link 'device-a--cloud' has negative latency"),
        (lambda s: replace(s, nodes=tuple(n for n in s.nodes if n.kind != "SmartDevice")),
         "scenario needs at least one smart device"),
        (lambda s: replace(s, nodes=s.nodes + (NodeSpec(id="cloud2", kind="CloudService"),)),
         "scenario needs exactly one cloud service node"),
        (lambda s: replace(
            s, nodes=s.nodes + (NodeSpec(id="device-a", kind="SmartDevice", site="CityA"),)),
         "duplicate node ids"),
    ],
    ids=[f"<lambda>{i}" for i in range(5)],  # the ids these cases had as bare lambdas
)
def test_invalid_scenarios_rejected(mutate, problem):
    with pytest.raises(ConfigError, match=f"^{re.escape(problem)}$"):
        run(mutate(two_device_scenario()), ())


def test_run_until_with_empty_queue_only_moves_the_clock():
    world, records = run(two_device_scenario(), (), until=0)
    before = world.trace.count
    world.run_until(3600)
    assert world.clock == 3600
    assert world.trace.count == len(records) == before
    with pytest.raises(ConfigError, match="^cannot run backwards: t_end 3599 < clock 3600$"):
        world.run_until(3599)


def test_equal_time_events_run_in_insertion_order():
    scenario = two_device_scenario(message_times=(500, 500, 500))
    _, records = run(scenario, (), until=600)
    sends = by_kind(records, "sent")
    assert [s["msg_id"] for s in sends] == [1, 2, 3]
    assert [s["time"] for s in sends] == [500, 500, 500]
    # deliveries at the same instant also keep their scheduling order
    assert [d["msg_id"] for d in by_kind(records, "delivered")] == [1, 2, 3]


def _interleaved_scenario():
    """Commands out of time order, two in one second, and commands in the
    second of a failure start, a reminder, a theft and an S9 review."""
    def voice(at, src, dst):
        return CommandSpec(at=at, device=src, user="operator", credential="op-pass",
                           intent="voice_message", to=dst, payload=f"{src} at {at}")

    return replace(
        two_device_scenario(
            failures=(("device-b", 200, 30),),
            reminders=(ReminderSpec(id="r1", author="device-a", target="device-b", at=150),),
            controls=ControlLayerConfig(s9=S9Config(
                credential_store={"operator": "op-pass"}, review_period_days=1,
            )),
        ),
        commands=(
            voice(300, "device-a", "device-b"),
            voice(100, "device-a", "device-b"),
            voice(100, "device-b", "device-a"),
            voice(200, "device-a", "device-b"),
            voice(DAY, "device-b", "device-a"),
            voice(250, "device-a", "device-b"),
            voice(150, "device-b", "device-a"),
        ),
        thefts=(TheftSpec(node="device-a", at=250),),
    )


# SHA-256 of the all-layers trace of `_interleaved_scenario`
INTERLEAVED_SECURED_SHA256 = (
    "76f9e1d23c6eb1c7f8a5d9dce28109a26f12b308963abecd9c55d552084255b1"
)


def test_commands_run_in_time_order_and_in_the_queue_order_of_their_second():
    scenario = _interleaved_scenario()
    _, records = run(scenario, ("S9", "S10", "S17"))
    sends = [(r["time"], r["src"]) for r in by_kind(records, "sent")
             if r["src"] != "cloud"]
    assert sends == [(100, "device-a"), (100, "device-b"), (150, "device-b"),
                     (200, "device-a"), (250, "device-a"), (300, "device-a"),
                     (DAY, "device-b")]
    # in one second, the failure start (queued before the commands) runs
    # first, and the reminder, the theft and the review (queued after) last
    kinds = {t: [r["kind"] for r in records if r["time"] == t]
             for t in (150, 200, 250, DAY)}
    assert kinds == {
        150: ["audit", "sent", "reminder"],
        200: ["failure", "audit", "sent"],
        250: ["audit", "sent", "theft"],
        DAY: ["audit", "sent", "ops"],
    }
    text = ndjson(records)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == INTERLEAVED_SECURED_SHA256


def test_a_built_world_has_queued_nothing_on_its_heap():
    # outage, declared reminder, theft, out-of-order commands and a daily
    # review: every one is declared, none is pushed onto the heap
    world = World(_interleaved_scenario(), ("S9", "S10", "S17"), [].extend)
    assert world._queue == []
    handlers = {entry[2] for entry in world._declared[1:]}
    assert handlers == {"_record", "_fail_start", "_fail_end", "_handle_command",
                        "_request", "_review"}


def test_same_scenario_twice_gives_identical_traces():
    scenario = default_scenario()
    t1 = ndjson(run(scenario, ())[1])
    t2 = ndjson(run(scenario, ())[1])
    assert t1 == t2


def test_single_hop_latency_rounds_up_to_the_second_grid():
    world, records = run(two_device_scenario(), (), until=0)
    msg_id = world.send_message("device-a", "cloud", b"hello")
    world.run_until(10)
    msg = message_records(records)[msg_id]
    assert msg["sent"]["link_ms"] == 50
    assert msg["delivered"]["time"] == 1  # 0.05 s rounded up to the next grid slot
    assert msg["status"] == "Delivered"


def test_two_hop_path_sums_link_latencies():
    world, records = run(two_device_scenario(), (), until=0)
    msg_id = world.send_message("device-a", "device-b", b"x")
    world.run_until(10)
    sent = message_records(records)[msg_id]["sent"]
    assert sent["link_ms"] == 100
    assert tuple(sent["path"]) == ("device-a--cloud", "device-b--cloud")


def test_unknown_destination_and_no_route():
    # a device without a link path could not be routed to mid-run, so the
    # scenario is rejected when it is built
    with pytest.raises(ConfigError, match="^device 'island' has no link path to the cloud$"):
        replace(
            two_device_scenario(),
            nodes=two_device_scenario().nodes + (NodeSpec(id="island", kind="SmartDevice", site="Truck"),),
        )


def test_message_to_failed_node_without_backups_is_lost():
    scenario = two_device_scenario(
        message_times=(1000,),
        failures=(("device-b", 900, 3600),),
    )
    _, records = run(scenario, ())
    lost = by_kind(records, "lost")
    assert len(lost) == 1
    assert lost[0]["reason"] == "node-failed"


def test_a_message_through_a_failed_cloud_is_lost_in_transit():
    # every device-to-device message crosses the cloud, so an outage of
    # the cloud for the whole run lets nothing through
    scenario = default_scenario()
    scenario = replace(scenario, failures=scenario.failures + (
        FailureSpec(node="cloud", at=0, duration_s=scenario.horizon_s),
    ))
    _, records = run(scenario, ())
    lost = by_kind(records, "lost")
    assert (len(by_kind(records, "sent")), len(lost)) == (58, 58)
    assert by_kind(records, "delivered") == []
    assert Counter((r["reason"], r.get("node")) for r in lost) == {
        ("transit-failed", "cloud"): 56,
        ("node-failed", None): 2,  # the two requests addressed to the cloud
    }


def test_a_message_through_a_failed_device_is_lost_even_with_s17():
    # message 14 (dev-f to dev-c) is due at t=7501 and crosses dev-d, which
    # is down from 7450 to 7650; S17 stands in for receivers only
    _, records = run(multi_hop_scenario(), {"S9", "S10", "S17"})
    msg = message_records(records)[14]
    assert (msg["sent"]["src"], msg["sent"]["dst"]) == ("dev-f", "dev-c")
    assert msg["status"] == "Lost"
    assert {k: msg["lost"][k] for k in ("time", "reason", "node")} == {
        "time": 7501, "reason": "transit-failed", "node": "dev-d",
    }


def _eta(sent: dict) -> int:
    """When a message is due, from its `sent` record alone."""
    return sent["time"] + -(-(sent["link_ms"] + sent["s10_ms"] + sent["s9_ms"]) // 1000)


def _transit(world, sent: dict) -> list[str]:
    """The nodes strictly between a `sent` record's sender and receiver."""
    here, nodes = sent["src"], []
    for link_id in sent["path"][:-1]:
        link = world.links[link_id]
        here = link.b if link.a == here else link.a
        nodes.append(here)
    return nodes


def _down(scenario, node: str, t: int) -> bool:
    """Whether one of the scenario's outages holds `node` down at `t`.

    An outage starting at `t` has begun and one ending at `t` is over when
    a delivery due at `t` runs: failure events are queued first.
    """
    return any(f.node == node and f.at <= t < f.at + f.duration_s for f in scenario.failures)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(worlds(all_layers=True))
def test_no_message_crosses_a_node_that_is_down_at_its_eta(drawn):
    world, records = run(*drawn)
    for msg in message_records(records).values():
        sent = msg["sent"]
        eta = _eta(sent)
        down = [n for n in _transit(world, sent) if _down(world.scenario, n, eta)]
        if down:
            assert msg["status"] == "Lost"
            assert (msg["lost"]["time"], msg["lost"]["reason"], msg["lost"]["node"]) == (
                eta, "transit-failed", down[0]
            )
        else:
            assert msg["status"] == "Delivered" or msg["lost"]["reason"] != "transit-failed"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(worlds(with_s17=True))
def test_no_s17_delivery_waits_longer_than_the_detection_window(drawn):
    world, records = run(*drawn)
    window_ms = world.config.s17.detection_window_s * 1000
    for delivered in by_kind(records, "delivered"):
        assert 0 <= delivered["s17_ms"] <= window_ms


def test_conservation_every_send_has_one_terminal_record():
    _, records = run(default_scenario(), ())
    sent = {r["msg_id"] for r in by_kind(records, "sent")}
    delivered = [r["msg_id"] for r in by_kind(records, "delivered")]
    lost = [r["msg_id"] for r in by_kind(records, "lost")]
    assert sorted(delivered + lost) == sorted(sent)
    assert len(delivered) + len(lost) == len(sent)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(worlds(), st.lists(st.integers(0, 1600), max_size=3))
def test_sent_is_delivered_plus_lost_plus_in_flight_at_every_stop(drawn, stops):
    world, records = run(*drawn, until=0)
    # each send instant (its delivery is still queued) and a moment inside
    # the detection window after it, besides the drawn stop points
    for command in world.scenario.commands:
        stops += [command.at, command.at + 30]
    for t in sorted(stops) + [world.scenario.horizon_s]:
        world.run_until(t)
        messages = message_records(records)
        in_flight = {m for m, msg in messages.items() if msg["status"] == "InFlight"}
        settled = len(by_kind(records, "delivered")) + len(by_kind(records, "lost"))
        assert len(messages) == settled + len(world.messages)
        assert set(world.messages) == in_flight
    assert world.messages == {}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(worlds(), st.integers(0, 1600))
def test_a_run_split_at_any_time_writes_the_same_trace(drawn, split):
    _, whole = run(*drawn)
    world, records = run(*drawn, until=split)
    world.run_until(world.scenario.horizon_s)
    assert ndjson(records) == ndjson(whole)


@pytest.mark.parametrize("layers", [(), ("S9", "S10", "S17")])
def test_a_finished_world_is_freed_by_reference_counting(layers):
    scenario = default_scenario()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        world, _ = run(scenario, layers)
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
    _, records = run(scenario, ())
    failures = by_kind(records, "failure")
    assert [(f["phase"], f["time"]) for f in failures] == [("start", 100), ("end", 300)]
    # union window is [100, 300): eta 121 and 251 lost, 300 and 351 delivered
    outcomes = {m: msg["status"] for m, msg in message_records(records).items()}
    assert list(outcomes.values()) == ["Lost", "Lost", "Delivered", "Delivered"]


def test_zero_duration_failure_has_no_observable_effect():
    scenario = two_device_scenario(message_times=(399,), failures=(("device-b", 400, 0),))
    _, records = run(scenario, ())
    assert len(by_kind(records, "delivered")) == 1
    assert not by_kind(records, "lost")


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
    _, records = run(scenario, ())
    fired = [r for r in by_kind(records, "reminder") if r["event"] == "fired"]
    assert len(fired) == 12
    epoch = scenario.epoch
    expected_first = seconds_at(epoch, dt.date(2024, 1, 31), dt.time(9, 0))
    assert fired[0]["time"] == expected_first
    # every firing reaches the target device as a message
    deliveries = by_kind(records, "delivered")
    fired_msgs = [d for d in deliveries if d["to"] == "device-b"]
    assert len(fired_msgs) == 12


def test_reminder_created_after_fire_time_on_month_end_waits_a_month():
    created = 30 * DAY + 10 * 3600  # Jan 31, 10:00 (fire time is 09:00)
    scenario = _reminder_scenario(created, horizon_days=70)
    _, records = run(scenario, ())
    fired = [r for r in by_kind(records, "reminder") if r["event"] == "fired"]
    assert fired[0]["time"] == seconds_at(scenario.epoch, dt.date(2024, 2, 29), dt.time(9, 0))


def test_generated_reminder_ids_skip_the_ids_the_scenario_declares():
    # both voice-created reminders register before the scenario's `rem-1`
    base = default_scenario()
    first = next(c for c in base.commands if c.intent == "create_reminder")
    second = replace(first, at=3 * DAY, target="dev-truck")
    declared = ReminderSpec(id="rem-1", author="dev-city-a", target="dev-city-a",
                            payload="p", at=4 * DAY)
    _, records = run(replace(
        base, commands=base.commands + (second,), reminders=(declared,)
    ), ())
    created = [
        (r["reminder"], r["target"]) for r in by_kind(records, "reminder")
        if r["event"] == "created"
    ]
    assert created == [("rem-2", "dev-city-b"), ("rem-3", "dev-truck"), ("rem-1", "dev-city-a")]


@st.composite
def _registrations(draw):
    """Declared reminder ids, some of them `rem-<k>`, and an order of
    registration: each declared id once, None for a generated id."""
    ids = st.one_of(st.integers(1, 12).map(lambda k: f"rem-{k}"),
                    st.sampled_from(["a", "b", "c", "rem-x", "rem-0"]))
    declared = draw(st.lists(ids, unique=True, max_size=8))
    generated = draw(st.integers(0, 10))
    return declared, draw(st.permutations(declared + [None] * generated))


# three declared ids between two generated ones: the count starts afresh
@example((["a", "b", "c"], [None, "a", "b", "c", None]))
@given(_registrations())
def test_generated_reminder_ids_follow_the_rule_written_out(registrations):
    declared, order = registrations
    # not run, so the declared reminders (due at 0) have not registered yet
    world = World(two_device_scenario(reminders=tuple(
        ReminderSpec(id=rid, author="device-a", target="device-b") for rid in declared
    )), (), [].extend)
    registered = []
    for rid in order:
        expected = rid or generated_reminder_id(registered, set(declared))
        assert world.create_reminder("device-a", "device-b", b"x", rid) == expected
        registered.append(expected)
    assert list(world.reminders) == registered


def _request_failures(records) -> list[tuple[int, str, str]]:
    return [
        (r["time"], r["intent"], r["reason"]) for r in by_kind(records, "request_failed")
    ]


def test_scenario_reminder_while_the_cloud_is_down_is_traced_and_the_run_goes_on():
    reminder = ReminderSpec(id="eom", author="device-a", target="device-b",
                            payload="p", at=100)
    world, records = run(two_device_scenario(
        message_times=(900,), failures=(("cloud", 50, 600),), reminders=(reminder,),
    ), ())
    assert _request_failures(records) == [(100, "create_reminder", "cloud-down")]
    assert world.reminders == {}
    assert by_kind(records, "reminder") == []
    metrics = meter(records)  # metering skips the new kind
    assert (metrics.messages_sent, metrics.messages_delivered) == (1, 1)


def _failed_over_request(**command):
    """A run in which device-a's one request at t=100 reaches a cloud that
    is down from 50 to 3650. The cloud's backup pool is device-b, so S17
    hands the request to it after the detection window, at t=110."""
    base = two_device_scenario(failures=(("cloud", 50, 3600),))
    return run(replace(
        base,
        nodes=tuple(
            replace(n, backup_pool=("device-b",)) if n.kind == "CloudService" else n
            for n in base.nodes
        ),
        attendees=(AttendeeSpec(id="chief", device="device-b"),),
        commands=(CommandSpec(at=100, device="device-a", user="operator",
                              credential="op-pass", **command),),
    ), {"S17"})


def test_reminder_request_failed_over_from_a_down_cloud_is_traced():
    # only the cloud can register a reminder
    world, records = _failed_over_request(intent="create_reminder", target="device-b",
                                          payload="p")
    assert _request_failures(records) == [(110, "create_reminder", "cloud-down")]
    assert world.reminders == {}
    assert meter(records).messages_delivered == 1


def test_meeting_request_failed_over_from_a_down_cloud_books_nothing():
    # only the cloud can book a meeting and send its invitations
    world, records = _failed_over_request(intent="schedule_meeting", attendees=("chief",),
                                          duration_min=30)
    assert _request_failures(records) == [(110, "schedule_meeting", "cloud-down")]
    assert by_kind(records, "meeting") == []
    assert world.calendars["chief"].busy == []
    assert [s["src"] for s in by_kind(records, "sent")] == ["device-a"]


def test_a_reminder_due_while_the_cloud_is_down_fails_and_is_due_next_month():
    base = two_device_scenario(horizon_s=60 * DAY)
    due = seconds_at(base.epoch, dt.date(2024, 1, 31), dt.time(9, 0))
    _, records = run(replace(
        base,
        failures=(FailureSpec(node="cloud", at=due - 60, duration_s=600),),
        reminders=(ReminderSpec(id="eom", author="device-a", target="device-b",
                                payload="p", at=0),),
    ), ())
    assert _request_failures(records) == [(due, "fire_reminder", "cloud-down")]
    fired = [r["time"] for r in by_kind(records, "reminder") if r["event"] == "fired"]
    assert fired == [seconds_at(base.epoch, dt.date(2024, 2, 29), dt.time(9, 0))]
    assert [s["time"] for s in by_kind(records, "sent")] == fired


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
    world, records = run(_meeting_scenario(), (), until=0)
    start = world.schedule_meeting("device-b", ["chief", "finance", "driver"], 60)
    world.trace.flush()
    (meeting,) = by_kind(records, "meeting")
    assert (meeting["start_min"], meeting["duration_min"]) == (start, 60)
    invitations = by_kind(records, "sent")
    assert len(invitations) == 3
    assert {i["src"] for i in invitations} == {"cloud"}
    for attendee in ("chief", "finance", "driver"):
        assert overlaps_busy(world.calendars[attendee].busy, start, start + 60)


def test_rescheduling_with_same_inputs_lands_strictly_later():
    world, _ = run(_meeting_scenario(), (), until=0)
    first = world.schedule_meeting("device-b", ["chief", "finance"], 45)
    second = world.schedule_meeting("device-b", ["chief", "finance"], 45)
    assert second > first


def test_unplaceable_meeting_raises():
    world, _ = run(_meeting_scenario(), (), until=0)
    with pytest.raises(NoSlotAvailable):
        world.schedule_meeting("device-b", ["chief"], 10 * 60 + 1)


# -- continuity provisioning ---------------------------------------------------


def _capital(scenario, enabled) -> list[tuple[str, int]]:
    _, records = run(scenario, enabled, until=0)  # provisioning records land at clock 0
    return [(c["section"], c["count"]) for c in by_kind(records, "capital")]


def test_access_reviews_are_queued_one_at_a_time():
    # a review a day for about 6,000 years: queued at once, over 2 million
    controls = ControlLayerConfig(s9=S9Config(review_period_days=1))
    scenario = replace(two_device_scenario(controls=controls), horizon_s=2 * 10**11)
    world, records = run(scenario, ("S9",), until=0)

    def queued_reviews():
        # a review is declared at build and queued on the heap once running
        return [entry[2] for entry in world._queue + world._declared].count("_review")

    assert queued_reviews() == 1
    world.run_until(10 * DAY)
    reviews = [r["time"] for r in by_kind(records, "ops")
               if r["action"] == "access-review"]
    assert reviews == [k * DAY for k in range(1, 11)]
    assert queued_reviews() == 1


def test_s17_provisions_one_spare_per_device():
    controls = ControlLayerConfig(s17=S17Config(backups_per_site=1))
    assert _capital(two_device_scenario(controls=controls), {"S17"}) == [("S17", 2)]


def test_capital_counts_each_pool_member_once_and_every_spare():
    # c and d have no pool, so each has 3 spares; a and b share c
    base = two_device_scenario(controls=ControlLayerConfig(s17=S17Config(backups_per_site=3)))
    devices = ("device-a", "device-b", "device-c", "device-d")
    pools = {"device-a": ("device-c",), "device-b": ("device-c", "device-d")}
    scenario = replace(
        base,
        nodes=tuple(
            NodeSpec(id=d, kind="SmartDevice", site="CityA", backup_pool=pools.get(d, ()))
            for d in devices
        ) + (NodeSpec(id="cloud", kind="CloudService"),),
        links=tuple(LinkSpec(a=d, b="cloud", latency_ms=50) for d in devices),
    )
    assert _capital(scenario, {"S9", "S17"}) == [("S9", 4 + 6), ("S17", 2 + 6)]


def test_a_world_builds_nothing_per_spare():
    controls = ControlLayerConfig(s17=S17Config(backups_per_site=10_000))
    scenario = two_device_scenario(controls=controls)
    tracemalloc.start()
    try:
        World(scenario, {"S9", "S17"}, [].extend)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert _capital(scenario, {"S9", "S17"}) == [("S9", 20_002), ("S17", 20_000)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(worlds(all_layers=True, with_s17=True))
def test_a_spare_is_a_stand_in_and_no_network_node(drawn):
    world, records = run(*drawn)
    declared = {n.id for n in world.scenario.nodes}
    poolless = {n.id for n in world.scenario.nodes
                if n.kind == "SmartDevice" and not n.backup_pool}
    dst = {}
    for sent in by_kind(records, "sent"):
        ends = {end for link_id in sent["path"]
                for end in (world.links[link_id].a, world.links[link_id].b)}
        assert {sent["src"], sent["dst"], *ends} <= declared
        dst[sent["msg_id"]] = sent["dst"]
    # only spare 1 of a device without a pool ever stands in
    stand_ins = [(dst[d["msg_id"]], d["to"]) for d in by_kind(records, "delivered")]
    stand_ins += [(f["failed"], f["substitute"]) for f in by_kind(records, "failover")]
    for primary, node in stand_ins:
        if node is not None:  # a failover may find no one
            assert node in declared or (primary in poolless and node == f"{primary}-r1")

