import datetime as dt
import json
import re
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import document, scenarios
from smartbizsim import scenario as scenario_module
from smartbizsim import world as world_module
from smartbizsim.controls import (
    ControlCatalog,
    MitigationAction,
    default_action_library,
    default_control_catalog,
)
from smartbizsim.costs import CostRates, load_dmaic_config
from smartbizsim.errors import ConfigError, parse_iso_date, read, replace
from smartbizsim.middleware import ControlLayerConfig, S9Config, S10Config, S17Config
from smartbizsim.risk import RiskCatalog, default_risk_catalog
from smartbizsim.scenario import (
    SITES,
    AttendeeSpec,
    CommandSpec,
    LinkSpec,
    NodeSpec,
    ReminderSpec,
    ScenarioConfig,
    TheftSpec,
    WorkWeek,
    default_scenario,
    parse_scenario,
)
from smartbizsim.timeline import seconds_at
from smartbizsim.trace import canonical_json
from smartbizsim.world import build_world


def test_default_scenario_round_trips_through_json():
    scenario = default_scenario()
    reparsed = parse_scenario(canonical_json(scenario))
    assert reparsed == scenario


def test_scenario_defaults_fill_in():
    scenario = parse_scenario(json.dumps({
        "nodes": [
            {"id": "d", "kind": "SmartDevice", "site": "CityA"},
            {"id": "c", "kind": "CloudService"},
        ],
        "links": [{"a": "d", "b": "c", "latency_ms": 10}],
    }))
    assert scenario.seed == 42
    assert scenario.working_hours.start.hour == 8
    assert scenario.reminder_fire_time.hour == 9
    assert scenario.controls == ControlLayerConfig()


def test_not_json_is_a_parse_error():
    with pytest.raises(ConfigError, match="^scenario is not valid JSON: Expecting property name"):
        parse_scenario("{nope")


@pytest.mark.parametrize(
    "patch,fragment",
    [
        ({"nodes": []}, "smart device"),
        ({"links": [{"a": "d", "b": "ghost", "latency_ms": 1}]}, "unknown"),
        ({"links": [{"a": "d", "b": "c", "latency_ms": -5}]}, "negative"),
        ({"failures": [{"node": "d", "at": -1, "duration_s": 10}]}, ">= 0"),
        ({"commands": [{"at": 0, "device": "c", "intent": "voice_message", "to": "d"}]},
         "smart device"),
        ({"horizon_s": 0}, "horizon"),
        # a second link between two nodes would replace or shadow the first
        ({"links": [{"a": "d", "b": "c", "latency_ms": 10},
                    {"a": "d", "b": "c", "latency_ms": 999}]},
         "links 'd--c' and 'd--c' join the same two nodes"),
        ({"links": [{"a": "d", "b": "c", "latency_ms": 10},
                    {"a": "c", "b": "d", "latency_ms": 5}]},
         "links 'd--c' and 'c--d' join the same two nodes"),
        # the inputs below would otherwise stop the run with NoRoute
        ({"nodes": [{"id": "d", "kind": "SmartDevice", "site": "CityA"},
                    {"id": "x", "kind": "SmartDevice", "site": "Truck"},
                    {"id": "c", "kind": "CloudService"}]},
         "device 'x' has no link path to the cloud"),
        ({"commands": [{"at": 0, "device": "d", "intent": "voice_message", "to": "d"}]},
         "'d' is addressed to itself"),
        ({"attendees": [{"id": "ops", "device": "c"}]},
         "attendee 'ops' device 'c' must be a smart device"),
        ({"commands": [{"at": -5, "device": "d", "intent": "voice_message", "to": "c"}]},
         "command time must be >= 0"),
        ({"reminders": [{"id": "r", "author": "d", "target": "d", "at": -5}]},
         "reminder 'r' time must be >= 0"),
        ({"thefts": [{"node": "d", "at": -5}]}, "theft time must be >= 0"),
        # the second registration would stop the run midway
        ({"reminders": [{"id": "r", "author": "d", "target": "d"},
                        {"id": "r", "author": "d", "target": "d", "at": 9}]},
         "reminders[1].id 'r' is a duplicate reminder id"),
        # the pipeline switches layers on after validation, so each rule
        # below holds whether or not its layer is on
        ({"attendees": [{"id": "p", "device": "d"}],
          "commands": [{"at": 0, "device": "d", "intent": "schedule_meeting",
                        "duration_min": 30}]},
         "meeting (device 'd', at=0) has no attendees"),
        ({"meeting_horizon_days": 0}, "meeting_horizon_days must be >= 1, got 0"),
        ({"controls": {"s10": {"key_ids": {"d": "kd"}}}},
         "controls.s10.key_ids gives node 'c' no key id"),
        ({"controls": {"s10": {"key_ids": {"d": "", "c": "kc"}}}},
         "controls.s10.key_ids gives node 'd' no key id"),
        ({"nodes": [{"id": "d", "kind": "SmartDevice", "site": "CityA"},
                    {"id": "c", "kind": "CloudService"},
                    {"id": "d-r1", "kind": "SmartDevice", "site": "CityA"}],
          "links": [{"a": "d", "b": "c", "latency_ms": 10},
                    {"a": "d-r1", "b": "c", "latency_ms": 10}]},
         "nodes[2].id 'd-r1' is the id of S17 spare 1 of 'd'"),
        # the engine runs these without a check of its own
        ({"failures": [{"node": "ghost", "at": 0, "duration_s": 1}]},
         "failure node 'ghost' unknown"),
        ({"commands": [{"at": 0, "device": "d", "intent": "schedule_meeting",
                        "attendees": ["nobody"], "duration_min": 30}]},
         "meeting attendee 'nobody' has no calendar"),
        ({"reminders": [{"id": "r", "author": "d", "target": "c"}]},
         "reminder target 'c' must be a smart device"),
        ({"attendees": [{"id": "p", "device": "d"}],
          "commands": [{"at": 0, "device": "d", "intent": "schedule_meeting",
                        "attendees": ["p"], "duration_min": 0}]},
         "meeting duration must be >= 1 minute"),
        # a misspelt node id beside the real one would be ignored
        ({"controls": {"s10": {"key_ids": {"d": "kd", "c": "kc", "D": "kD"}}}},
         "controls.s10.key_ids.D names no declared node"),
        ({"controls": {"s10": {"key_ids": {"d": "kd", "c": "kc", "d-r2": "k2"}}}},
         "controls.s10.key_ids.d-r2 names no declared node"),
        # an S17 spare never sends, so a key for it would change nothing
        ({"controls": {"s10": {"key_ids": {"d": "kd", "c": "kc", "d-r1": "spare"}}}},
         "controls.s10.key_ids.d-r1 names no declared node"),
        # the cloud would book the calendar and invite the device twice
        ({"attendees": [{"id": "p", "device": "d"}],
          "commands": [{"at": 7, "device": "d", "intent": "schedule_meeting",
                        "attendees": ["p", "p"], "duration_min": 30}]},
         "meeting (device 'd', at=7) names attendee 'p' twice"),
        # a reminder due by the horizon is due again at the next month end,
        # which must be a date: the run stopped in the year 10000
        ({"epoch": "9999-12-01", "horizon_s": 3024000},
         "horizon_s 3024000 reaches 9999-12-31 09:00, the last month end a reminder"),
        ({"horizon_s": 10**12},
         "horizon_s 1000000000000 reaches 9999-12-31 09:00, the last month end a reminder"),
        # the engine keeps links by id: the second would replace the first
        ({"nodes": [{"id": "c", "kind": "CloudService"},
                    {"id": "d--e", "kind": "SmartDevice", "site": "CityA"},
                    {"id": "d", "kind": "SmartDevice", "site": "CityB"},
                    {"id": "e--c", "kind": "SmartDevice", "site": "Truck"}],
          "links": [{"a": "d--e", "b": "c", "latency_ms": 10},
                    {"a": "d", "b": "e--c", "latency_ms": 5000},
                    {"a": "e--c", "b": "c", "latency_ms": 20}]},
         "links[0] ('d--e' to 'c') and links[1] ('d' to 'e--c') share the id 'd--e--c'"),
        # the world keeps one calendar per id: the second would replace the first
        ({"attendees": [{"id": "p", "device": "d"},
                        {"id": "p", "device": "d", "busy": [[0, 60]]}]},
         "attendees[1].id 'p' is a duplicate attendee id"),
    ],
)
def test_structural_problems_are_invalid_scenarios(patch, fragment):
    doc = {
        "nodes": [
            {"id": "d", "kind": "SmartDevice", "site": "CityA"},
            {"id": "c", "kind": "CloudService"},
        ],
        "links": [{"a": "d", "b": "c", "latency_ms": 10}],
    }
    doc.update(patch)
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        parse_scenario(json.dumps(doc))


@pytest.mark.parametrize(
    "node_id, pool, spares",
    [
        ("d-r2", (), 1),  # past the last spare
        ("d-r1", ("x",), 1),  # d has a pool, so S17 gives it no spares
        ("d-r01", (), 1),  # S17 writes no leading zero
        ("d-r1", (), 0),
        ("d-r" + "9" * 5000, (), 10**9),  # compared without reading the digits
    ],
    ids=["past-last", "pooled", "leading-zero", "no-spares", "long-suffix"],
)
def test_ids_that_no_spare_takes_are_valid(node_id, pool, spares):
    ScenarioConfig(
        nodes=(
            NodeSpec(id="d", kind="SmartDevice", site="CityA", backup_pool=pool),
            NodeSpec(id="x", kind="SmartDevice", site="CityA"),
            NodeSpec(id=node_id, kind="SmartDevice", site="CityA"),
            NodeSpec(id="c", kind="CloudService"),
        ),
        links=(
            LinkSpec(a="d", b="c", latency_ms=1),
            LinkSpec(a="x", b="c", latency_ms=1),
            LinkSpec(a=node_id, b="c", latency_ms=1),
        ),
        controls=ControlLayerConfig(s17=S17Config(backups_per_site=spares)),
    )


def test_unknown_intent_rejected():
    doc = {
        "nodes": [
            {"id": "d", "kind": "SmartDevice", "site": "CityA"},
            {"id": "c", "kind": "CloudService"},
        ],
        "links": [{"a": "d", "b": "c", "latency_ms": 10}],
        "commands": [{"at": 0, "device": "d", "intent": "teleport"}],
    }
    with pytest.raises(ConfigError, match="^unknown intent kind 'teleport'$"):
        parse_scenario(json.dumps(doc))


def test_sites_are_a_closed_set():
    doc = {
        "nodes": [
            {"id": "d", "kind": "SmartDevice", "site": "Mars"},
            {"id": "c", "kind": "CloudService"},
        ],
        "links": [],
    }
    with pytest.raises(ConfigError, match="^device 'd' has invalid site 'Mars'$"):
        parse_scenario(json.dumps(doc))


def test_a_scenario_is_validated_once_however_many_worlds_use_it(monkeypatch):
    document = canonical_json(default_scenario())
    calls = []
    validate = scenario_module.validate_scenario

    def counted(scenario):
        calls.append(scenario)
        validate(scenario)

    # also patch any binding the engine might import
    for module in (scenario_module, world_module):
        monkeypatch.setattr(module, "validate_scenario", counted, raising=False)
    scenario = parse_scenario(document)
    build_world(scenario, ())
    build_world(scenario, {"S9", "S10", "S17"})
    assert len(calls) == 1


@pytest.mark.parametrize("scenario_ref", [None, "scenario.json"], ids=["default", "file"])
@pytest.mark.parametrize("controls", [None, {"s10": {"overhead_bytes": 500}}],
                         ids=["no-controls", "controls"])
def test_a_config_scenario_is_validated_once_with_or_without_controls(
    monkeypatch, tmp_path, scenario_ref, controls
):
    (tmp_path / "scenario.json").write_text(canonical_json(default_scenario()))
    config = {} if scenario_ref is None else {"scenario": scenario_ref}
    if controls is not None:
        config["controls"] = controls
    (tmp_path / "config.json").write_text(json.dumps(config))
    calls = []
    validate = scenario_module.validate_scenario

    def counted(scenario):
        calls.append(scenario)
        validate(scenario)

    monkeypatch.setattr(scenario_module, "validate_scenario", counted)
    loaded = load_dmaic_config(tmp_path / "config.json").scenario
    assert len(calls) == 1
    assert calls[0] is loaded
    assert loaded.controls.s10.overhead_bytes == (500 if controls else 64)
    assert loaded.controls.s9.credential_store == default_scenario().controls.s9.credential_store


def test_constructing_an_invalid_scenario_raises_without_a_world():
    with pytest.raises(ConfigError, match="^link endpoint 'ghost' is unknown$"):
        ScenarioConfig(
            epoch=parse_iso_date("2024-01-01"),
            horizon_s=3600,
            seed=1,
            nodes=(
                NodeSpec(id="d", kind="SmartDevice", site="CityA"),
                NodeSpec(id="c", kind="CloudService"),
            ),
            links=(LinkSpec(a="d", b="ghost", latency_ms=1),),
        )


def test_the_longest_horizon_runs_and_one_second_more_is_rejected():
    epoch = dt.date(9999, 12, 1)
    last_due = seconds_at(epoch, dt.date.max, dt.time(9, 0))
    scenario = replace(default_scenario(), epoch=epoch, horizon_s=last_due - 1)
    world = build_world(scenario, {"S9", "S10", "S17"}).run_until(scenario.horizon_s)
    # the reminder registered on day 2 is next due on 9999-12-31
    assert [r["event"] for r in world.trace if r["kind"] == "reminder"] == ["created"]
    with pytest.raises(ConfigError, match=f"^horizon_s {last_due} reaches"):
        replace(scenario, horizon_s=last_due)



_TEXT = st.text(max_size=6)
_COUNT = st.integers(0, 10_000)


@st.composite
def spec_scenarios(draw):
    """`helpers.scenarios()` with every spec field drawn: sites, spares,
    bandwidths, calendars, all three intents, reminders, thefts, the
    working week and the control layers. Only valid input is drawn: a
    meeting names at least one attendee and each only once, the meeting
    horizon is a day or more, and the key map is empty or names every
    node."""
    scenario = draw(scenarios(max_devices=6))
    devices = [n.id for n in scenario.nodes if n.kind == "SmartDevice"]
    node_ids = [n.id for n in scenario.nodes]
    nodes = tuple(
        replace(n, site=draw(st.sampled_from(SITES)),
                backup_pool=tuple(draw(st.lists(st.sampled_from(devices), max_size=2))))
        if n.kind == "SmartDevice" else n
        for n in scenario.nodes
    )
    links = tuple(
        replace(l, bandwidth_bps=draw(st.none() | st.integers(1, 10**9)))
        for l in scenario.links
    )
    attendees = tuple(
        AttendeeSpec(id=f"p{k}", device=device, busy=tuple(sorted(draw(st.lists(
            st.tuples(_COUNT, _COUNT), max_size=3)))))
        for k, device in enumerate(draw(st.lists(st.sampled_from(devices), max_size=3)))
    )
    extra = []
    for k in range(draw(st.integers(0, 3))):
        at, device = draw(_COUNT), draw(st.sampled_from(devices))
        intents = ["voice_message", "create_reminder"]
        if attendees:  # a meeting names at least one of them
            intents.append("schedule_meeting")
        intent = draw(st.sampled_from(intents))
        user, credential = draw(_TEXT), draw(_TEXT)
        if intent == "voice_message":
            to = draw(st.sampled_from([n for n in node_ids if n != device]))
            command = CommandSpec(at=at, device=device, user=user, credential=credential,
                                  intent=intent, to=to, payload=draw(_TEXT))
        elif intent == "create_reminder":
            command = CommandSpec(at=at, device=device, user=user, credential=credential,
                                  intent=intent, target=draw(st.sampled_from(devices)),
                                  payload=draw(_TEXT))
        else:
            names = draw(st.lists(st.sampled_from([a.id for a in attendees]),
                                  min_size=1, max_size=3, unique=True))
            command = CommandSpec(at=at, device=device, user=user, credential=credential,
                                  intent=intent, attendees=tuple(names),
                                  duration_min=draw(st.integers(1, 600)))
        extra.append(command)
    reminders = scenario.reminders + tuple(
        ReminderSpec(id=f"x{k}", author=draw(st.sampled_from(devices)),
                     target=draw(st.sampled_from(devices)), payload=draw(_TEXT),
                     at=draw(_COUNT))
        for k in range(draw(st.integers(0, 2)))
    )
    thefts = tuple(
        TheftSpec(node=node, at=draw(_COUNT))
        for node in draw(st.lists(st.sampled_from(node_ids), max_size=2))
    )
    start = draw(st.integers(0, 22))
    working_hours = WorkWeek(
        start=dt.time(start, draw(st.integers(0, 59))),
        end=dt.time(draw(st.integers(start + 1, 23)), draw(st.integers(0, 59))),
        days=tuple(draw(st.lists(st.integers(0, 6), min_size=1, max_size=7, unique=True))),
    )
    controls = ControlLayerConfig(
        s9=S9Config(per_session_latency_ms=draw(_COUNT),
                    credential_store=draw(st.dictionaries(_TEXT, _TEXT, max_size=3)),
                    review_period_days=draw(_COUNT)),
        s10=S10Config(per_message_latency_ms=draw(_COUNT),
                      overhead_bytes=draw(_COUNT),
                      key_ids=draw(st.just({}) | st.fixed_dictionaries(
                          {n: st.text(min_size=1, max_size=6) for n in node_ids}))),
        s17=S17Config(backups_per_site=draw(_COUNT),
                      detection_window_s=draw(_COUNT)),
    )
    return replace(
        scenario,
        epoch=draw(st.dates(dt.date(2000, 1, 1), dt.date(2099, 12, 31))),
        horizon_s=draw(st.integers(1, 10**8)),
        seed=draw(st.integers(-(2**63), 2**63)),
        nodes=nodes,
        links=links,
        attendees=attendees,
        commands=scenario.commands + tuple(extra),
        reminders=reminders,
        thefts=thefts,
        working_hours=working_hours,
        reminder_fire_time=dt.time(draw(st.integers(0, 23)), draw(st.integers(0, 59))),
        meeting_horizon_days=draw(st.integers(1, 400)),
        controls=controls,
    )


@pytest.mark.parametrize(
    "kind, values",
    [
        (ScenarioConfig, spec_scenarios()),
        (RiskCatalog, st.just(default_risk_catalog())),
        (ControlCatalog, st.just(default_control_catalog())),
        (Mapping[str, tuple[MitigationAction, ...]],
         st.just({"actions": default_action_library()})),
        (CostRates, st.just(CostRates(capital_item=1, operational_event=2, latency_ms=3,
                                      wire_byte=4, session=5))),
        (ControlLayerConfig, st.just(ControlLayerConfig(
            s9=S9Config(per_session_latency_ms=7,
                        credential_store={"alice": "sesame"}, review_period_days=9),
            s10=S10Config(per_message_latency_ms=11, overhead_bytes=3,
                          key_ids={"device-a": "ka"}),
            s17=S17Config(backups_per_site=2, detection_window_s=13),
        ))),
    ],
    ids=["scenario", "risk-catalog", "control-catalog", "action-library", "rates",
         "controls"],
)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_document_survives_writing_and_reading(kind, values, data):
    value = data.draw(values)
    assert read(kind, document(value)) == value
