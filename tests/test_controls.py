import json
import random

import pytest

from helpers import document
from smartbizsim.controls import (
    ChangeLevel,
    build_plan,
    change_level,
    controls_for,
    default_action_library,
    default_control_catalog,
    default_mapping,
    parse_action_library,
    parse_mapping,
)
from smartbizsim.errors import (
    MissingActionsForControl,
    ParseError,
    UnknownRiskId,
    UnknownSectionId,
)
from smartbizsim.trace import canonical_json

ALL_LEVELS = {
    "S5": ChangeLevel.MODERATE,
    "S6": ChangeLevel.MODERATE,
    "S7": ChangeLevel.LOW_MODERATE,
    "S8": ChangeLevel.LOW_MODERATE,
    "S9": ChangeLevel.HIGH,
    "S10": ChangeLevel.MODERATE,
    "S11": ChangeLevel.LOW_MODERATE,
    "S12": ChangeLevel.MODERATE_HIGH,
    "S13": ChangeLevel.MODERATE_HIGH,
    "S14": ChangeLevel.MODERATE,
    "S15": ChangeLevel.MODERATE_HIGH,
    "S16": ChangeLevel.MODERATE,
    "S17": ChangeLevel.LOW,
    "S18": ChangeLevel.MODERATE_HIGH,
}


def test_catalog_covers_exactly_s5_to_s18():
    catalog = default_control_catalog()
    assert [s.id for s in catalog.sections] == [f"S{i}" for i in range(5, 19)]


def test_all_fourteen_change_levels():
    for section_id, level in ALL_LEVELS.items():
        assert change_level(section_id) == level, section_id


def test_unknown_section_rejected():
    with pytest.raises(UnknownSectionId):
        change_level("S4")


def test_default_mapping_is_exactly_the_three_pairs():
    mapping = default_mapping()
    assert document(mapping.entries) == {"R4": ["S17"], "R6": ["S10"], "R9": ["S9"]}


@pytest.mark.parametrize("risk_id,sections", [("R6", ["S10"]), ("R9", ["S9"]), ("R4", ["S17"])])
def test_controls_for_mapped_risks(risk_id, sections):
    assert [s.id for s in controls_for(risk_id)] == sections


def test_controls_for_known_unmapped_risk_is_empty():
    assert controls_for("R2") == []


def test_controls_for_unknown_risk_rejected():
    with pytest.raises(UnknownRiskId):
        controls_for("R99")


def test_build_plan_top_three_enables_the_three_sections():
    plan = build_plan(["R6", "R9", "R4"])
    assert plan.enabled_controls == {"S9", "S10", "S17"}
    # deterministic ordering: numeric section order, then action id
    assert [a.control for a in plan.actions] == ["S9", "S9", "S9", "S10", "S10", "S17", "S17"]
    ids = [a.id for a in plan.actions]
    assert ids == sorted(ids[:3]) + sorted(ids[3:5]) + sorted(ids[5:])


def test_build_plan_empty_selection_is_empty():
    plan = build_plan([])
    assert plan.actions == ()
    assert plan.enabled_controls == frozenset()


def test_build_plan_missing_actions_rejected():
    no_s17 = [a for a in default_action_library() if a.control != "S17"]
    with pytest.raises(MissingActionsForControl):
        build_plan(["R4"], action_library=no_s17)


def test_build_plan_monotone_under_growing_selection():
    rng = random.Random(2024)
    risks = ["R4", "R6", "R9", "R2", "R5"]
    for _ in range(25):
        selection = rng.sample(risks, rng.randint(0, len(risks)))
        plan = build_plan(selection)
        extra = rng.choice(risks)
        bigger = build_plan(selection + [extra])
        assert plan.enabled_controls <= bigger.enabled_controls
        assert set(a.id for a in plan.actions) <= set(a.id for a in bigger.actions)


def test_default_library_names_actions_for_the_three_layers():
    library = default_action_library()
    assert library == default_action_library()
    assert {a.control for a in library} == {"S9", "S10", "S17"}
    assert all(set(document(a)) == {"id", "control", "description"} for a in library)


def test_mapping_round_trip():
    mapping = default_mapping()
    assert parse_mapping(canonical_json(mapping.entries)) == mapping


def test_custom_mapping_and_known_risks():
    mapping = parse_mapping(json.dumps({"R1": ["S13", "S12"]}))
    sections = controls_for("R1", mapping=mapping)
    assert [s.id for s in sections] == ["S13", "S12"]


def test_enum_labels_round_trip_and_unknown_labels_are_parse_errors():
    for member in ChangeLevel:
        assert ChangeLevel.from_label(member.value) is member
    with pytest.raises(ParseError, match="change level 'Huge'"):
        ChangeLevel.from_label("Huge")


def test_library_entry_with_cost_components_is_rejected():
    document = json.dumps({"actions": [
        {"id": "auth-gate", "control": "S9", "description": "gate"},
        {"id": "device-locks", "control": "S9",
         "cost_components": [{"kind": "capital", "magnitude": 999}]},
    ]})
    with pytest.raises(ParseError, match=r"actions\[1\] \('device-locks'\).*cost_components.*rates"):
        parse_action_library(document)


def test_library_entry_without_a_control_is_rejected():
    with pytest.raises(ParseError, match="missing field 'control'"):
        parse_action_library(json.dumps({"actions": [{"id": "x"}]}))
