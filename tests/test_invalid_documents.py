"""An invalid document exits 2, on one `error:` line and with nothing
written: every row of the documents table, and a small valid scenario and
pipeline config each made invalid by one mutation, are run through
`cli.main` in process."""

import copy
import json
import re
import types
from collections import abc
from fractions import Fraction
from functools import reduce
from operator import getitem
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from documents import ROWS
from helpers import ABSENT, rejected, resolve_error, run_main
from helpers import REFERENCES as REFERENCE_KEYS
from smartbizsim.costs import CostRates, load_dmaic_config
from smartbizsim.errors import Record
from smartbizsim.scenario import ScenarioConfig, parse_scenario

# a small scenario that holds every kind of entry, every intent and every layer
SCENARIO = {
    "epoch": "2024-01-01",
    "horizon_s": 7 * 86400,
    "seed": 7,
    "nodes": [
        {"id": "d", "kind": "SmartDevice", "site": "CityA", "backup_pool": ["e"]},
        {"id": "e", "kind": "SmartDevice", "site": "Truck"},
        {"id": "c", "kind": "CloudService"},
    ],
    "links": [
        {"a": "d", "b": "c", "latency_ms": 10, "bandwidth_bps": 1000},
        {"a": "e", "b": "c", "latency_ms": 20},
    ],
    "attendees": [
        {"id": "p", "device": "d", "busy": [[0, 60]]},
        {"id": "q", "device": "e"},
    ],
    "reminders": [{"id": "r", "author": "d", "target": "e", "payload": "rent", "at": 0}],
    "failures": [{"node": "e", "at": 3600, "duration_s": 600}],
    "thefts": [{"node": "d", "at": 7200}],
    "commands": [
        {"at": 60, "device": "d", "user": "u", "credential": "pw",
         "intent": "voice_message", "to": "e", "payload": "hi"},
        {"at": 120, "device": "e", "intent": "create_reminder", "target": "d"},
        {"at": 180, "device": "d", "intent": "schedule_meeting",
         "attendees": ["p", "q"], "duration_min": 30},
    ],
    "working_hours": {"start": "08:00", "end": "17:00", "days": [0, 1, 2, 3, 4]},
    "reminder_fire_time": "09:00",
    "meeting_horizon_days": 14,
    "controls": {
        "s9": {"per_session_latency_ms": 20, "credential_store": {"u": "pw"},
               "review_period_days": 3},
        "s10": {"per_message_latency_ms": 5, "overhead_bytes": 64,
                "key_ids": {"d": "kd", "e": "ke", "c": "kc"}},
        "s17": {"backups_per_site": 1, "detection_window_s": 60},
    },
}

# a pipeline config that names the scenario above, which lies beside it
CONFIG = {
    "scenario": "scenario.json",
    "top_k": 2,
    "residual_factor": "1/2",
    "rates": {"capital_item": 100, "operational_event": 10, "latency_ms": 1,
              "wire_byte": 1, "session": 5},
}


class ConfigDocument(Record):
    """The keys of a pipeline config document, as `load_dmaic_config` reads
    them: five references and the knobs."""

    risk_catalog: str | None = None
    control_catalog: str | None = None
    mapping: str | None = None
    action_library: str | None = None
    scenario: str | None = None
    rates: CostRates = CostRates()
    top_k: int = 3
    residual_factor: Fraction = Fraction(0)


# The integers a rule bounds below, by path; "*" is any key or index.
NON_NEGATIVE = {
    "scenario": [
        ("horizon_s",), ("meeting_horizon_days",), ("links", "*", "latency_ms"),
        ("links", "*", "bandwidth_bps"), ("reminders", "*", "at"), ("failures", "*", "at"),
        ("failures", "*", "duration_s"), ("thefts", "*", "at"), ("commands", "*", "at"),
        ("commands", "*", "duration_min"), ("working_hours", "days", "*"),
        ("controls", "*", "*"),
    ],
    "config": [("top_k",), ("rates", "*")],
}
# the lists whose entries an id or a link pair must tell apart
REPEATABLE = ("nodes", "reminders", "attendees", "links")
# the strings that name a declared node, device or attendee, by path
REFERENCES = [
    ("nodes", "*", "backup_pool", "*"), ("links", "*", "a"), ("links", "*", "b"),
    ("attendees", "*", "device"), ("reminders", "*", "author"), ("reminders", "*", "target"),
    ("failures", "*", "node"), ("thefts", "*", "node"), ("commands", "*", "device"),
    ("commands", "*", "to"), ("commands", "*", "target"), ("commands", "*", "attendees", "*"),
]
# ids that no entry of the scenario declares; e-r1 is the id of an S17 spare
UNDECLARED = ("ghost", "D", "e-r1", "")
# one value of each JSON type
JSON_VALUES = {int: 7, float: 2.5, bool: True, str: "x", list: [], dict: {}, type(None): None}
HUGE = "\x00huge\x00"  # stands for an integer JSON cannot hold, spliced into the text


def _is_record(kind) -> bool:
    return isinstance(kind, type) and issubclass(kind, Record)


def _accepted(kind) -> set:
    """The JSON types the reader takes for `kind`, written out."""
    if get_origin(kind) is types.UnionType:
        return set().union(*map(_accepted, get_args(kind)))
    if kind in (int, str, bool, type(None)):
        return {kind}
    if kind is Fraction:
        return {int, str}
    if get_origin(kind) is tuple:
        return {list}
    if _is_record(kind) or get_origin(kind) is abc.Mapping:
        return {dict}
    return {str}  # a date, a time of day or a label


def _sites(value, kind, path=()):
    """(path, type, value) of the document `value` and everything in it."""
    yield path, kind, value
    if type(value) is dict:
        hints = get_type_hints(kind) if _is_record(kind) else None
        for key, item in value.items():
            yield from _sites(item, hints[key] if hints else get_args(kind)[1], path + (key,))
    elif type(value) is list:
        args = get_args(kind)
        for i, item in enumerate(value):
            yield from _sites(item, args[0] if args[-1] is Ellipsis else args[i], path + (i,))


def _matches(path, patterns) -> bool:
    return any(
        len(path) == len(pattern) and all(p in ("*", part) for part, p in zip(path, pattern))
        for pattern in patterns
    )


def mutations(name: str, document: dict, kind) -> list[tuple]:
    """Every (family, path, type) that makes `document` invalid."""
    out = []
    for path, at, value in _sites(document, kind):
        out += [("swap", path, at), ("huge", path, at)]
        if _is_record(at):
            out.append(("unknown", path, at))
            out += [("drop", path + (key,), at) for key in at._fields
                    if key in value and key not in vars(at)]  # no default: required
        if type(value) is int and _matches(path, NON_NEGATIVE[name]):
            out.append(("negative", path, at))
        if name == "scenario" and _matches(path, REFERENCES):
            out.append(("dangling", path, at))
    if name == "scenario":
        out += [("repeat", (key, i), None) for key in REPEATABLE
                for i in range(len(document[key]))]
    return out


def mutate(document: dict, family: str, path: tuple, at, draw) -> tuple[str, tuple]:
    """The text of `document` with one mutation applied at `path`, and the
    path its error names: the value's, an unknown key's, or for a dropped
    field the object that lacks it."""
    holder = [copy.deepcopy(document)]  # so that the document, too, has a parent
    *parents, last = (0, *path)
    parent = reduce(getitem, parents, holder)
    if family == "swap":
        rejected = [v for t, v in JSON_VALUES.items() if t not in _accepted(at)]
        parent[last] = draw(st.sampled_from(rejected))
    elif family == "negative":
        parent[last] = draw(st.integers(max_value=-1))
    elif family == "huge":
        parent[last] = HUGE
    elif family == "dangling":
        parent[last] = draw(st.sampled_from(UNDECLARED))
    elif family == "drop":
        del parent[last]
        path = path[:-1]
    elif family == "unknown":
        key = draw(st.sampled_from([k for k in ("note", "Id", "latency") if k not in at._fields]))
        parent[last][key] = draw(st.sampled_from(list(JSON_VALUES.values())))
        path += (key,)
    else:  # repeat: a copy of the entry, a link perhaps the other way round
        entry = dict(parent[last])
        if parents[-1] == "links" and draw(st.booleans()):
            entry["a"], entry["b"] = entry["b"], entry["a"]
        parent.insert(draw(st.integers(0, len(parent))), entry)
    digits = draw(st.integers(4301, 4400)) if family == "huge" else 0
    return json.dumps(holder[0]).replace(json.dumps(HUGE), "9" * digits), path


SITES = {
    "scenario": mutations("scenario", SCENARIO, ScenarioConfig),
    "config": mutations("config", CONFIG, ConfigDocument),
}
# the sites whose error starts with a path: the mutated value's, an unknown
# key's or that of the object a dropped field leaves
NAMED = {name: [site for site in SITES[name]
                if site[0] in ("swap", "negative", "dangling", "unknown", "drop")]
         for name in SITES}
# the command lines that read a document, with the path each puts before its errors
COMMANDS = {
    "scenario": [(["simulate", "--scenario", "scenario.json", "--out", "trace.ndjson"], ()),
                 (["dmaic", "--scenario", "scenario.json", "--out", "out"], ("scenario",))],
    "config": [(["dmaic", "--config", "config.json", "--out", "out"], ())],
}


def _spelled(path: tuple) -> str:
    """A path as an error spells it, `links[0].latency_ms`, then `: `; at the
    top of a document, nothing."""
    spelled = "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)
    return f"{spelled.lstrip('.')}: " if path else ""


def _files(name: str, text: str) -> dict:
    """The input files of a run on `text`; a config names the scenario beside it."""
    if name == "scenario":
        return {"scenario.json": text}
    return {"config.json": text, "scenario.json": json.dumps(SCENARIO)}


def test_the_documents_are_valid_and_each_family_has_a_site(tmp_path):
    (tmp_path / "scenario.json").write_text(json.dumps(SCENARIO))
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    config = load_dmaic_config(tmp_path / "config.json")
    assert config.scenario == parse_scenario(json.dumps(SCENARIO))
    families = {name: {family for family, _, _ in sites} for name, sites in SITES.items()}
    assert families["scenario"] == {"swap", "huge", "unknown", "drop", "negative", "repeat",
                                    "dangling"}
    # the document holds every kind of reference
    dangling = [path for family, path, _ in SITES["scenario"] if family == "dangling"]
    assert all(any(_matches(path, [pattern]) for path in dangling) for pattern in REFERENCES)
    # every key of a config has a default, and it holds no list of ids
    assert families["config"] == {"swap", "huge", "unknown", "negative"}


@pytest.mark.parametrize("name", ["scenario", "config"])
@settings(max_examples=500, deadline=None, derandomize=True)
@given(data=st.data())
def test_an_invalid_document_exits_2_on_one_error_line(name, data):
    family, path, at = data.draw(st.sampled_from(SITES[name]))
    text, _ = mutate(SCENARIO if name == "scenario" else CONFIG, family, path, at, data.draw)
    argv, _ = COMMANDS[name][0]
    code, out, err, files = run_main(argv, _files(name, text))
    assert code == 2, (family, path, err)
    assert err.startswith("error: " if name == "scenario" else "error: [Define] ")
    assert err.count("\n") == 1, err
    assert out == ""
    # nothing written: neither the output nor anything else
    assert files == sorted({"scenario.json", f"{name}.json"})


@pytest.mark.parametrize("name", ["scenario", "config"])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_an_error_names_the_path_of_the_bad_value(name, data):
    family, path, at = data.draw(st.sampled_from(NAMED[name]))
    text, named = mutate(SCENARIO if name == "scenario" else CONFIG, family, path, at, data.draw)
    files = _files(name, text)
    for argv, key in COMMANDS[name]:
        code, _, err, _ = run_main(argv, files)
        assert code == 2, (family, path, err)
        step = "[Define] " if argv[0] == "dmaic" else ""
        assert err.startswith(f"error: {step}{_spelled(key + named)}"), err
        _, problem = resolve_error(argv, files, err.rstrip("\n"))
        if family == "swap":  # the reader's words for a value of the wrong type
            assert problem.startswith("expected ") and ", got " in problem, err
        if family == "unknown":
            assert problem.startswith("unknown field"), err


test_a_rejected_document_exits_2_on_its_own_error_line = rejected({name: name for name in ROWS})

# a referenced file that is missing, not UTF-8 or empty, and how its error starts
FILE_FAULTS = {"missing": ({}, "cannot read ref.json: [Errno 2] "),
               "not-utf8": ({"ref.json": b"\xff"}, "cannot read ref.json: 'utf-8' codec "),
               "empty": ({"ref.json": ""}, "not valid JSON: ")}


@pytest.mark.parametrize("fault", list(FILE_FAULTS))
@pytest.mark.parametrize("key", REFERENCE_KEYS)
def test_a_fault_of_a_referenced_file_is_named_at_its_key(key, fault):
    ref, problem = FILE_FAULTS[fault]
    files = {"config.json": json.dumps({key: "ref.json"}), **ref}
    argv = ["dmaic", "--config", "config.json", "--out", "out"]
    code, out, err, left = run_main(argv, files)
    assert (code, out, left) == (2, "", sorted(files)), err
    assert err.startswith(f"error: [Define] {key}: {problem}"), err
    # the value at the key is the file's name, which the resolver does not decode
    assert resolve_error(argv, files, err.rstrip("\n"))[0] == "ref.json"


def _not_at_a_path(row) -> str | None:
    """What a row's fault is, when it lies at no path of an input document:
    a fault of a file that a flag names at the top is one."""
    text = row.line.removeprefix("error: ").removeprefix("[Define] ")
    if text.startswith("cannot read ") and "codec can't decode" in text:
        return "not UTF-8"
    if text.startswith("not valid JSON: "):
        return "not JSON"
    if text.startswith("cannot read "):
        return "a missing file"
    if text.startswith("[Errno "):
        return "an unwritable output"
    if "--top-k" in row.argv or "--controls" in row.argv:
        return "a command-line flag"
    return None


def test_every_row_names_a_real_path_or_is_a_named_exception():
    kinds, failures = {}, []
    for name, row in ROWS.items():
        kinds[name] = _not_at_a_path(row)
        if kinds[name] is None:
            try:
                found, _ = resolve_error(row.argv, row.files, row.line)
            except (AssertionError, LookupError, ValueError) as exc:
                failures.append((name, row.line, exc))
            else:
                kinds[name] = "absent" if found is ABSENT else None
    assert failures == []
    assert set(kinds.values()) == {None, "absent", "not UTF-8", "not JSON", "a missing file",
                                   "an unwritable output", "a command-line flag"}
    # the paths to a value not there: a key map that leaves a node out, and
    # a meeting's attendees left to their default
    assert sorted(name for name, kind in kinds.items() if kind == "absent") == [
        "define-key-ids-partial", "small-key-ids-partial", "small-meeting-without-attendees"]
    assert list(kinds.values()).count(None) >= 110  # the resolver still reads most rows


# how an input error that README quotes starts: a step, or a path and a colon
_ERROR = re.compile(r"\[Define\] |[\w.\[\] -]+: ")


def test_every_error_readme_quotes_is_written_by_a_row():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    prose = re.sub(r"```.*?```", "", readme, flags=re.S)
    quotes = [" ".join(quote.split()) for quote in re.findall(r"`([^`]+)`", prose)]
    errors = [quote for quote in quotes if _ERROR.match(quote)]
    lines = [row.line for row in ROWS.values()]
    for quote in errors:  # one that ends in "..." is the start of a message
        head = quote.removesuffix("...")
        ends = head == quote
        assert any(line.endswith(quote) if ends else head in line for line in lines), quote
    assert len(errors) >= 14  # the pattern still finds them
