"""One reader reads every record: a valid document gives the record its
fields build, a faulty one an error at its path, and a reader is built
only for what a document holds."""

import ast
import json
import re
from pathlib import Path
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
    parse_scenario,
)

LEAF_RECORDS = [CommandSpec, NodeSpec, LinkSpec, FailureSpec, TheftSpec, ReminderSpec]
RECORDS = LEAF_RECORDS + [AttendeeSpec]  # and one with a nested array
_TEXT = st.text(max_size=4)


def _values(kind):
    """Valid JSON values of a field type."""
    if kind is int:
        return st.integers(-(2**70), 2**70)
    if kind is str:
        return _TEXT
    if kind == tuple[str, ...]:
        return st.lists(_TEXT, max_size=3)
    if kind == tuple[tuple[int, int], ...]:
        return st.lists(st.lists(_values(int), min_size=2, max_size=2), max_size=3)
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
CASES = [(cls, fault) for cls in RECORDS for fault in FAULTS if _names(cls, fault)]


@st.composite
def mutated(draw, cls, fault: str):
    """A document of `cls` with the fault, and perhaps a second drawn one,
    and the fields the faults broke (none when the document is no object).
    Faults: a required key dropped, an unknown key, a bool, float or
    string for an int, null for a string, a non-string in a string array,
    no object."""
    document, broken = draw(documents(cls)), []
    for fault in [fault] + draw(st.lists(st.sampled_from(FAULTS), max_size=1)):
        names = _names(cls, fault)
        if not names:
            continue
        name = draw(st.sampled_from(names))
        if fault == "drop":
            document.pop(name, None)
        elif fault == "unknown":
            name = draw(st.sampled_from(["colour", "At", ""]))
            document[name] = 1
        elif fault == "int":
            document[name] = draw(st.sampled_from([True, 2.7, "3"]))
        elif fault == "null":
            document[name] = None
        elif fault == "item":
            items = list(document.get(name, []))
            items.insert(draw(st.integers(0, len(items))), draw(st.sampled_from([3, None])))
            document[name] = items
        else:
            return draw(st.sampled_from([[], "x", 3, None, [document]])), []
        broken.append(name)
    return document, broken


def _tuples(value):
    """A decoded JSON value with its arrays as tuples, as a record holds them."""
    return tuple(map(_tuples, value)) if type(value) is list else value


def _names_field(text: str, name: str) -> bool:
    """Whether an error text names the field: in its path, or as missing."""
    return (f"missing field {name!r}" in text
            or re.search(rf"\.{re.escape(name)}[:\[]", text) is not None)


@pytest.mark.parametrize("cls", LEAF_RECORDS, ids=lambda cls: cls.__name__)
def test_every_record_is_read_by_the_one_reader(cls):
    assert errors._reader(cls).__name__ == "read_object"


def test_a_record_with_a_nested_array_has_none():
    assert errors._reader(AttendeeSpec).__name__ == "read_object"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_document_reads_as_the_record_its_fields_build(cls, data):
    document = data.draw(documents(cls))
    record = read(cls, document, at="records[3]")
    assert record == cls(**{name: _tuples(value) for name, value in document.items()})
    assert list(vars(record)) == list(cls._fields)


@pytest.mark.parametrize("cls, fault", CASES,
                         ids=[f"{cls.__name__}-{fault}" for cls, fault in CASES])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_faulty_document_fails_at_its_path(cls, fault, data):
    document, broken = data.draw(mutated(cls, fault))
    with pytest.raises(ConfigError) as failed:
        read(cls, document, at="records[3]")
    text = str(failed.value)
    assert text.startswith("records[3]")
    if broken:
        assert any(_names_field(text, name) for name in broken), text


@pytest.mark.parametrize("cls, document, message", [
    (ReminderSpec, {"id": "r1", "author": "a", "target": "b", "colour": 1},
     "records[3] ('r1').colour: unknown field"),
    (ReminderSpec, {"id": "r1", "at": 5}, "records[3] ('r1'): missing field 'author'"),
    (ReminderSpec, {"at": True, "id": 7, "colour": 1}, "records[3].colour: unknown field"),
    (FailureSpec, {"at": 1.5, "node": 3}, "records[3].at: expected an integer, got 1.5"),
    (FailureSpec, {"node": 3, "at": 1.5}, "records[3].node: expected a string, got 3"),
    (CommandSpec, {"at": 0, "device": "d", "intent": "x", "attendees": ["a", None]},
     "records[3].attendees[1]: expected a string, got None"),
], ids=["unknown", "missing", "unknown-first", "first-in-document", "other-order", "item"])
def test_an_error_names_its_entry_and_its_first_fault(cls, document, message):
    with pytest.raises(ConfigError) as failed:
        read(cls, document, at="records[3]")
    assert str(failed.value) == message


@pytest.mark.parametrize("key, message", [
    (" horizon_s", " horizon_s: unknown field"),
    (". x", ". x: unknown field"),
    ("", ".: unknown field"),  # the key "" at the top, as `links[0].` names it in an entry
    ("horizon", "horizon: unknown field"),
], ids=["leading-space", "leading-dot", "empty", "plain"])
def test_an_unknown_top_level_key_is_named_as_written(key, message):
    # only the separator the reader puts before the first name is dropped
    with pytest.raises(ConfigError) as failed:
        parse_scenario(json.dumps({**document(default_scenario()), key: 1}))
    assert str(failed.value) == message


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


def test_the_reader_imports_nothing_of_the_package():
    # every module imports `errors`, so an import back would be a cycle
    tree = ast.parse(Path(errors.__file__).read_text(encoding="utf-8"))
    relative = [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level]
    assert relative == []
