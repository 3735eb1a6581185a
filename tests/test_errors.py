"""The compiled reader of flat records agrees with the generic reader,
and a reader is built only for what a document holds."""

import json
from typing import get_type_hints
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import document
from smartbizsim import errors
from smartbizsim.controls import MitigationAction
from smartbizsim.costs import load_dmaic_config
from smartbizsim.errors import ConfigError, read
from smartbizsim.middleware import S17Config
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

LEAF_RECORDS = [CommandSpec, NodeSpec, LinkSpec, FailureSpec, TheftSpec, ReminderSpec]
_TEXT = st.text(max_size=4)


def _values(kind):
    """Valid JSON values of a leaf field type."""
    if kind is int:
        return st.integers(-(2**70), 2**70)
    if kind is str:
        return _TEXT
    if kind == tuple[str, ...]:
        return st.lists(_TEXT, max_size=3)
    inner = next(arg for arg in kind.__args__ if arg is not type(None))  # X | None
    return st.none() | _values(inner)


@st.composite
def documents(draw, cls):
    """A valid document of `cls`, its keys in a drawn order and each
    optional one present or not."""
    hints = get_type_hints(cls)
    items = [(name, draw(_values(hints[name]))) for name in cls._fields
             if name not in vars(cls) or draw(st.booleans())]
    return dict(draw(st.permutations(items)))


def _names(cls, fault: str) -> list[str]:
    """The fields of `cls` that `fault` can break: every field for an
    unknown key or no object."""
    hints = get_type_hints(cls)
    test = {
        "drop": lambda name: name not in vars(cls),  # no class default: required
        "int": lambda name: hints[name] in (int, int | None),
        "null": lambda name: hints[name] is str,
        "item": lambda name: hints[name] == tuple[str, ...],
    }.get(fault, lambda name: True)
    return [name for name in cls._fields if test(name)]


FAULTS = ["drop", "unknown", "int", "null", "item", "object"]
# every record with each fault it can have
CASES = [(cls, fault) for cls in LEAF_RECORDS for fault in FAULTS if _names(cls, fault)]


@st.composite
def mutated(draw, cls, fault: str):
    """A document of `cls` with the fault, and perhaps a second drawn one.
    Faults: a required key dropped, an unknown key, a bool, float or
    string for an int, null for a string, a non-string in a string array,
    no object."""
    document = draw(documents(cls))
    for fault in [fault] + draw(st.lists(st.sampled_from(FAULTS), max_size=1)):
        names = _names(cls, fault)
        if not names:
            continue
        name = draw(st.sampled_from(names))
        if fault == "drop":
            document.pop(name, None)
        elif fault == "unknown":
            document[draw(st.sampled_from(["colour", "At", ""]))] = 1
        elif fault == "int":
            document[name] = draw(st.sampled_from([True, 2.7, "3"]))
        elif fault == "null":
            document[name] = None
        elif fault == "item":
            items = list(document.get(name, []))
            items.insert(draw(st.integers(0, len(items))), draw(st.sampled_from([3, None])))
            document[name] = items
        else:
            return draw(st.sampled_from([[], "x", 3, None, [document]]))
    return document


def _outcome(cls, document, generic: bool):
    """What `read` gives for the document at a path, through the compiled
    reader or, with `generic`, through the generic one."""
    readers = {cls: errors._object(cls)} if generic else {}
    with mock.patch.dict(errors._READERS, readers):
        try:
            value = read(cls, document, at="records[3]")
        except ConfigError as exc:
            return "error", str(exc)
    return "read", value, list(vars(value))  # the fields, in order


@pytest.mark.parametrize("cls", LEAF_RECORDS, ids=lambda cls: cls.__name__)
def test_each_flat_record_has_a_compiled_reader(cls):
    assert errors._reader(cls).__name__ == "read_leaf_record"


def test_a_record_with_a_nested_array_has_none():
    assert errors._reader(AttendeeSpec).__name__ == "read_object"


@pytest.mark.parametrize("cls", LEAF_RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_the_compiled_reader_reads_what_the_generic_one_reads(cls, data):
    document = data.draw(documents(cls))
    outcome = _outcome(cls, document, generic=False)
    assert outcome[0] == "read"
    assert outcome == _outcome(cls, document, generic=True)


@pytest.mark.parametrize("cls, fault", CASES,
                         ids=[f"{cls.__name__}-{fault}" for cls, fault in CASES])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_the_compiled_reader_fails_as_the_generic_one_fails(cls, fault, data):
    document = data.draw(mutated(cls, fault))
    assert _outcome(cls, document, generic=False) == _outcome(cls, document, generic=True)


def test_a_reader_is_built_when_a_document_first_holds_its_field(tmp_path):
    scenario = document(default_scenario())
    del scenario["controls"]
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    (tmp_path / "pipeline.json").write_text(json.dumps({"scenario": "scenario.json"}))
    with mock.patch.dict(errors._READERS, clear=True):
        load_dmaic_config(tmp_path / "pipeline.json")
        built = set(errors._READERS)
    assert CommandSpec in built  # the scenario holds commands
    # no document holds an action library or an S17 block
    assert MitigationAction not in built
    assert S17Config not in built
