import json

import pytest

from smartbizsim import scenario as scenario_module
from smartbizsim import world as world_module
from smartbizsim.errors import InvalidScenario, ParseError
from smartbizsim.scenario import (
    LinkSpec,
    NodeSpec,
    ScenarioConfig,
    default_scenario,
    parse_scenario,
)
from smartbizsim.timeline import parse_iso_date
from smartbizsim.world import build_world


def test_default_scenario_round_trips_through_json():
    scenario = default_scenario()
    reparsed = parse_scenario(json.dumps(scenario.to_dict()))
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
    assert scenario.work_start.hour == 8
    assert scenario.reminder_fire_time.hour == 9
    assert not scenario.controls.s9.enabled


def test_not_json_is_a_parse_error():
    with pytest.raises(ParseError):
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
    with pytest.raises(InvalidScenario) as err:
        parse_scenario(json.dumps(doc))
    assert fragment in str(err.value)


def test_unknown_intent_rejected():
    doc = {
        "nodes": [
            {"id": "d", "kind": "SmartDevice", "site": "CityA"},
            {"id": "c", "kind": "CloudService"},
        ],
        "links": [{"a": "d", "b": "c", "latency_ms": 10}],
        "commands": [{"at": 0, "device": "d", "intent": "teleport"}],
    }
    with pytest.raises(InvalidScenario):
        parse_scenario(json.dumps(doc))


def test_sites_are_a_closed_set():
    doc = {
        "nodes": [
            {"id": "d", "kind": "SmartDevice", "site": "Mars"},
            {"id": "c", "kind": "CloudService"},
        ],
        "links": [],
    }
    with pytest.raises(InvalidScenario):
        parse_scenario(json.dumps(doc))


def test_a_scenario_is_validated_once_however_many_worlds_use_it(monkeypatch):
    document = json.dumps(default_scenario().to_dict())
    calls = []
    validate = scenario_module.validate_scenario

    def counted(scenario):
        calls.append(scenario)
        validate(scenario)

    # also patch any binding the engine might import
    for module in (scenario_module, world_module):
        monkeypatch.setattr(module, "validate_scenario", counted, raising=False)
    scenario = parse_scenario(document)
    build_world(scenario, scenario.controls.all_disabled())
    build_world(scenario, scenario.controls.with_enabled({"S9", "S10", "S17"}))
    assert len(calls) == 1


def test_constructing_an_invalid_scenario_raises_without_a_world():
    with pytest.raises(InvalidScenario) as err:
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
    assert "'ghost' is unknown" in str(err.value)

