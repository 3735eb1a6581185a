import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import document
from smartbizsim.controls import (
    ChangeLevel,
    ControlCatalog,
    build_plan,
    default_action_library,
    default_control_catalog,
    default_mapping,
    parse_action_library,
    parse_control_catalog,
    parse_mapping,
)
from smartbizsim.costs import DmaicConfig, load_dmaic_config
from smartbizsim.errors import ConfigError, replace
from smartbizsim.risk import RiskCatalog, default_risk_catalog, rank, top_k
from smartbizsim.scenario import default_scenario
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
    levels = {s.id: s.change_level for s in default_control_catalog().sections}
    assert levels == ALL_LEVELS


def test_unknown_section_rejected():
    config = load_dmaic_config(None)
    with pytest.raises(ConfigError, match=r"^mapping\.R2\[0\]: unknown control section 'S4'$"):
        replace(config, mapping={"R2": ("S4",)})


def test_default_mapping_is_exactly_the_three_pairs():
    mapping = default_mapping()
    assert document(mapping) == {"R4": ["S17"], "R6": ["S10"], "R9": ["S9"]}


@pytest.mark.parametrize("risk_id,sections", [("R6", ["S10"]), ("R9", ["S9"]), ("R4", ["S17"])])
def test_controls_for_mapped_risks(risk_id, sections):
    assert list(default_mapping().get(risk_id, ())) == sections


def test_controls_for_known_unmapped_risk_is_empty():
    assert default_mapping().get("R2", ()) == ()


def _plan(selected):
    return build_plan(selected, default_mapping())


def test_build_plan_top_three_enables_the_three_sections():
    assert _plan(["R6", "R9", "R4"]) == {"S9", "S10", "S17"}


def test_build_plan_empty_selection_is_empty():
    assert _plan([]) == frozenset()


def test_build_plan_missing_actions_rejected():
    # rejected when the config is built, before any plan: every mapped
    # section needs an action, whichever risks top_k selects
    no_s17 = tuple(a for a in default_action_library() if a.control != "S17")
    with pytest.raises(ConfigError, match=r"^mapping\.R4\[0\]: no action covers section 'S17'$"):
        replace(load_dmaic_config(None), action_library=no_s17)


def test_build_plan_monotone_under_growing_selection():
    rng = random.Random(2024)
    risks = ["R4", "R6", "R9", "R2", "R5"]
    for _ in range(25):
        selection = rng.sample(risks, rng.randint(0, len(risks)))
        plan = _plan(selection)
        extra = rng.choice(risks)
        bigger = _plan(selection + [extra])
        assert plan <= bigger


def test_default_library_names_actions_for_the_three_layers():
    library = default_action_library()
    assert library == default_action_library()
    assert {a.control for a in library} == {"S9", "S10", "S17"}
    assert all(set(document(a)) == {"id", "control", "description"} for a in library)


def test_mapping_round_trip():
    mapping = default_mapping()
    assert parse_mapping(canonical_json(mapping)) == mapping


def test_custom_mapping_and_known_risks():
    mapping = parse_mapping(json.dumps({"R1": ["S13", "S12"]}))
    assert mapping == {"R1": ("S13", "S12")}


def test_enum_labels_round_trip_and_unknown_labels_are_parse_errors():
    for member in ChangeLevel:
        assert ChangeLevel.from_label(member.value) is member
    with pytest.raises(ConfigError, match="^unknown label 'Huge'$"):
        ChangeLevel.from_label("Huge")
    catalog = {"sections": [{"id": "S5", "name": "Policy", "change_level": "Huge"}]}
    with pytest.raises(ConfigError, match=r"^sections\[0\]\.change_level: unknown label 'Huge'$"):
        parse_control_catalog(json.dumps(catalog))


def test_library_entry_with_cost_components_is_rejected():
    document = json.dumps({"actions": [
        {"id": "auth-gate", "control": "S9", "description": "gate"},
        {"id": "device-locks", "control": "S9",
         "cost_components": [{"kind": "capital", "magnitude": 999}]},
    ]})
    with pytest.raises(ConfigError, match=r"^actions\[1\] \('device-locks'\).*cost_components.*rates"):
        parse_action_library(document)


def test_library_entry_without_a_control_is_rejected():
    with pytest.raises(ConfigError, match=r"^actions\[0\] \('x'\): missing field 'control'$"):
        parse_action_library(json.dumps({"actions": [{"id": "x"}]}))


_SCENARIO = default_scenario()


def _runnable(risks, sections, library, entries, k) -> bool:
    """Rules 1-5 of a pipeline config, restated over its parts."""
    section_ids = {s.id for s in sections}
    covered = {a.control for a in library}
    return (
        all(a.control in section_ids for a in library)
        and all(entries.values())  # no entry names no section
        and all(s in section_ids and s in covered for mapped in entries.values() for s in mapped)
        and 1 <= k <= len(risks)
        and len(risks) >= 1
    )


def _subsets(items):
    """Sub-lists of `items`, the whole of it about half the time."""
    return st.just(list(items)) | st.lists(st.sampled_from(items), unique=True)


# the sections the default library covers, and S1..S20, some of them unknown
_SECTION_IDS = st.sampled_from(["S9", "S10", "S17"]) | st.sampled_from(
    [f"S{i}" for i in range(1, 21)]
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    risks=_subsets(default_risk_catalog().risks),
    sections=_subsets(default_control_catalog().sections),
    library=_subsets(default_action_library()),
    entries=st.dictionaries(
        st.sampled_from([f"R{i}" for i in range(1, 13)]),
        st.lists(_SECTION_IDS, max_size=2).map(tuple),
        max_size=3,
    ),
    k=st.integers(1, 3) | st.integers(-1, 12),
)
def test_a_config_exists_exactly_when_every_later_step_can_run(
    risks, sections, library, entries, k
):
    runnable = _runnable(risks, sections, library, entries, k)
    try:
        config = DmaicConfig(
            risk_catalog=RiskCatalog(risks=tuple(risks)),
            control_catalog=ControlCatalog(sections=tuple(sections)),
            mapping=entries,
            action_library=tuple(library),
            scenario=_SCENARIO,
            top_k=k,
        )
    except ConfigError:
        assert not runnable
        return
    assert runnable
    # Measure, Analyze and Improve
    selected = top_k(rank(config.risk_catalog), config.top_k)
    plan = build_plan(selected, config.mapping)
    assert plan == {s for r in selected for s in entries.get(r, ())}
    assert plan <= {a.control for a in config.action_library}
