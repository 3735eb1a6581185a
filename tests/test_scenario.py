import ast
import datetime as dt
import inspect
import json
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from documents import ROWS
from helpers import by_kind, document, rejected, run, scenarios
from smartbizsim import scenario as scenario_module
from smartbizsim import world as world_module
from smartbizsim.controls import (
    ControlCatalog,
    MitigationAction,
    default_action_library,
    default_control_catalog,
)
from smartbizsim.costs import CostRates, load_dmaic_config
from smartbizsim.errors import ConfigError, canonical_json, parse_iso_date, read, replace
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
    with pytest.raises(ConfigError, match="^not valid JSON: Expecting property name"):
        parse_scenario("{nope")
    with pytest.raises(ConfigError, match="^scenario: not valid JSON: Expecting property name"):
        parse_scenario("{nope", at="scenario")


# Each id keeps the text its case matched when the messages did not yet
# start with a path: the ids outlive a rewording of the rows' lines.
test_structural_problems_are_invalid_scenarios = rejected({
    "patch0-smart device": "small-no-nodes",
    "patch1-unknown": "small-link-to-ghost",
    "patch2-negative": "small-negative-latency",
    "patch3->= 0": "small-failure-before-0",
    "patch4-smart device": "small-command-from-cloud",
    "patch5-horizon": "small-horizon-0",
    "patch6-links 'd--c' and 'd--c' join the same two nodes": "small-repeated-link",
    "patch7-links 'd--c' and 'c--d' join the same two nodes": "small-reversed-link",
    "patch8-device 'x' has no link path to the cloud": "small-unreachable-device",
    "patch9-'d' is addressed to itself": "small-voice-to-itself",
    "patch10-attendee 'ops' device 'c' must be a smart device": "small-attendee-on-cloud",
    "patch11-command time must be >= 0": "small-command-before-0",
    "patch12-reminder 'r' time must be >= 0": "small-reminder-before-0",
    "patch13-theft time must be >= 0": "small-theft-before-0",
    "patch14-reminders[1].id 'r' is a duplicate reminder id": "small-repeated-reminder-id",
    "patch15-meeting (device 'd', at=0) has no attendees": "small-meeting-without-attendees",
    "patch16-meeting_horizon_days must be >= 1, got 0": "small-meeting-horizon-0",
    "patch17-controls.s10.key_ids gives node 'c' no key id": "small-key-ids-partial",
    "patch18-controls.s10.key_ids gives node 'd' no key id": "small-key-id-empty",
    "patch19-nodes[2].id 'd-r1' is the id of S17 spare 1 of 'd'": "small-spare-id",
    "patch20-failure node 'ghost' unknown": "small-failure-on-ghost",
    "patch21-meeting attendee 'nobody' has no calendar": "small-meeting-attendee-unknown",
    "patch22-reminder target 'c' must be a smart device": "small-reminder-target-cloud",
    "patch23-meeting duration must be >= 1 minute": "small-meeting-duration-0",
    "patch24-controls.s10.key_ids.D names no declared node": "small-key-id-misspelt",
    "patch25-controls.s10.key_ids.d-r2 names no declared node": "small-key-id-past-the-spares",
    "patch26-controls.s10.key_ids.d-r1 names no declared node": "small-key-id-of-a-spare",
    "patch27-meeting (device 'd', at=7) names attendee 'p' twice":
        "small-meeting-attendee-twice",
    "patch28-horizon_s 3024000 reaches 9999-12-31 09:00, the last month end a reminder":
        "small-horizon-past-9999",
    "patch29-horizon_s 1000000000000 reaches 9999-12-31 09:00, the last month end a reminder":
        "small-horizon-10**12",
    "patch30-links[0] ('d--e' to 'c') and links[1] ('d' to 'e--c') share the id 'd--e--c'":
        "small-shared-link-id",
    "patch31-attendees[1].id 'p' is a duplicate attendee id": "small-repeated-attendee-id",
})


def test_every_fault_of_validate_scenario_is_built_by_its_one_builder():
    # each raise builds `<path>: <problem>` from a path literal; none
    # formats its own message or raises through a condition helper
    tree = ast.parse(inspect.getsource(scenario_module))
    validate = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "validate_scenario")
    raises = [node.exc for node in ast.walk(validate) if isinstance(node, ast.Raise)]
    assert len(raises) >= 40
    for call in raises:
        assert isinstance(call, ast.Call) and ast.unparse(call.func) == "_fault", ast.unparse(call)
        assert isinstance(call.args[0], (ast.Constant, ast.JoinedStr)), ast.unparse(call)
    calls = {ast.unparse(node.func) for node in ast.walk(validate) if isinstance(node, ast.Call)}
    assert "ConfigError" not in calls and not hasattr(scenario_module, "_require")


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
    with pytest.raises(ConfigError, match=(
        r"^commands\[0\]\.intent: 'teleport' is not an intent "
        r"\('voice_message', 'create_reminder', 'schedule_meeting'\)$"
    )):
        parse_scenario(json.dumps(doc))


def test_sites_are_a_closed_set():
    doc = {
        "nodes": [
            {"id": "d", "kind": "SmartDevice", "site": "Mars"},
            {"id": "c", "kind": "CloudService"},
        ],
        "links": [],
    }
    with pytest.raises(ConfigError, match=(
        r"^nodes\[0\]\.site: 'Mars' is not a site \('CityA', 'CityB', 'Truck'\)$"
    )):
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
    run(scenario, (), until=0)
    run(scenario, {"S9", "S10", "S17"}, until=0)
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
    with pytest.raises(ConfigError, match=r"^links\[0\]\.b: 'ghost' is not a declared node$"):
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
    _, records = run(scenario, {"S9", "S10", "S17"})
    # the reminder registered on day 2 is next due on 9999-12-31
    assert [r["event"] for r in by_kind(records, "reminder")] == ["created"]
    with pytest.raises(ConfigError, match=f"^horizon_s: {last_due} reaches"):
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
            st.tuples(_COUNT, _COUNT).map(lambda pair: (pair[0], sum(pair) + 1)),
            max_size=3)))))
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
