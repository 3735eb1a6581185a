"""`errors.canonical_json`, the encoder of every document, writes what
`json.dumps` writes with sorted keys and no whitespace; the values JSON
has no type for are spelled by `errors.json_default`. A trace's records
are the variants `trace.SCHEMA` declares: the engine writes no other key
set and no value of another type (generated worlds and the benchmark's
workloads included), each variant is written by some run, and
`trace.ndjson`, the one trace-line writer, writes each record of a
variant as `json.dumps` would, refuses a record of none and a text field
holding anything but text. Where a trace's batches end changes neither
the bytes written nor what is metered. `Trace.append` keeps the dict it
is given as the record, so no two records of a run are one dict, and
every call in the package passes that dict positionally."""

import ast
import datetime as dt
import json
import math
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import multi_hop_scenario, run, worlds
from smartbizsim import trace as trace_module
from smartbizsim.cli import _trace_files
from smartbizsim.controls import ChangeLevel
from smartbizsim.costs import SectionCost
from smartbizsim.errors import canonical_json, replace
from smartbizsim.metering import meter, meter_sections
from smartbizsim.risk import OrdinalLevel
from smartbizsim.scenario import FailureSpec, TheftSpec, default_scenario, parse_scenario
from smartbizsim.timeline import SECONDS_PER_DAY
from smartbizsim.trace import BOOL, INT, NULLABLE_STR, SCHEMA, STR, STRS, ndjson
from smartbizsim.world import World

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


_PLAIN = {"msg_id": 1, "src": "dev-a", "dst": "dev-b", "size_bytes": 2, "wire_bytes": 2,
          "wrapped": False, "path": ("dev-a--cloud",), "link_ms": 50, "s10_ms": 0,
          "s9_ms": 0, "payload_b64": "aGk="}


def _sent(**fields) -> dict:
    """A plain `sent` record as `Trace.append` builds it, `fields` replaced."""
    return {**_PLAIN, **fields, "seq": 0, "time": 0, "kind": "sent"}


_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()  # non-ASCII and control characters included
    | st.sampled_from(["\x00\x1f\x7f", " é\U0001f600", '"\\/', ""])
)
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_VALUES)
def test_canonical_json_is_json_dumps_sorted_and_compact(value):
    assert canonical_json(value) == dumps(value)


_TEXT = st.text() | st.sampled_from(["\x00\x1f\x7f", " é\U0001f600", '"\\/', "%s%d%%", ""])
_DRAWN = {
    INT: st.integers(-(2**70), 2**70),
    STR: _TEXT,
    BOOL: st.booleans(),
    NULLABLE_STR: st.none() | _TEXT,
    STRS: st.lists(_TEXT, max_size=4) | st.lists(_TEXT, max_size=4).map(tuple),
}
_VARIANTS = [(kind, variant) for kind, variants in SCHEMA.items() for variant in variants]


@st.composite
def _records(draw) -> dict:
    """A record of a declared variant, its values drawn from their types."""
    kind, variant = draw(st.sampled_from(_VARIANTS))
    record = {field: draw(_DRAWN[type_]) for field, type_ in variant.items()}
    return {**record, "seq": draw(_DRAWN[INT]), "time": draw(_DRAWN[INT]), "kind": kind}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_records(), max_size=8))
def test_every_line_of_a_declared_record_is_its_json_dumps_line(records):
    assert ndjson(records) == "".join(dumps(record) + "\n" for record in records)


def test_special_floats_keep_the_json_dumps_spelling():
    value = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "tiny": 5e-324}
    assert canonical_json(value) == dumps(value)
    assert canonical_json(value) == '{"-inf":-Infinity,"inf":Infinity,"nan":NaN,"tiny":5e-324}'


def test_an_empty_trace_is_an_empty_document():
    assert ndjson([]) == ""


@pytest.mark.parametrize(
    "bad", [{1, 2}, frozenset({1}), b"bytes", object()],
    ids=["set", "frozenset", "bytes", "object"],
)
def test_an_unserializable_value_raises_the_json_dumps_type_error(bad):
    value = {"ok": [1, {"nested": bad}]}
    with pytest.raises(TypeError) as expected:
        dumps(value)
    with pytest.raises(TypeError) as got:
        canonical_json(value)
    assert str(got.value) == str(expected.value)
    for field in _PLAIN:  # whatever its declared type, a field refuses it
        with pytest.raises(TypeError):
            ndjson([_sent(**{field: bad})])


_SPELLINGS = [
    (Fraction(3), 3),
    (Fraction(-1, 2), "-1/2"),
    (dt.date(2024, 2, 29), "2024-02-29"),
    (dt.time(8, 5), "08:05"),
    (OrdinalLevel.VERY_HIGH, "VeryHigh"),
    (ChangeLevel.LOW_MODERATE, "LowModerate"),
    (MappingProxyType({"b": 1, "a": 2}), {"a": 2, "b": 1}),
    (SectionCost(capital=1, operational=2, performance=3),
     {"capital": 1, "operational": 2, "performance": 3}),
]


@pytest.mark.parametrize(
    "value, spelled", _SPELLINGS, ids=[type(v).__name__ for v, _ in _SPELLINGS]
)
def test_a_document_spells_each_value_json_has_no_type_for(value, spelled):
    assert canonical_json({"v": [value]}) == dumps({"v": [spelled]})
    with pytest.raises(TypeError, match="must be a string"):
        ndjson([_sent(src=value)])  # a record's text fields hold text only
    with pytest.raises(TypeError, match="must be a string"):
        ndjson([_sent(path=("dev-a--cloud", value))])


def test_a_cyclic_value_raises_value_error():
    cyclic: dict = {"a": []}
    cyclic["a"].append(cyclic)
    with pytest.raises(ValueError, match="Circular reference detected"):
        canonical_json(cyclic)
    loop: list = []
    loop.append(loop)
    with pytest.raises(TypeError, match="must be a string"):
        ndjson([_sent(path=loop)])  # a list of text nests nothing, so it cannot cycle


def test_an_encode_after_a_failed_one_carries_no_stale_markers():
    # a failed encode leaves its open containers in the encoder's markers;
    # encoding the same containers again must not see them as a cycle
    inner = {"x": object()}
    value = {"a": [inner], "b": inner}
    with pytest.raises(TypeError):
        canonical_json(value)
    inner["x"] = 1
    assert canonical_json(value) == dumps(value) == '{"a":[{"x":1}],"b":{"x":1}}'

    # the NDJSON writer keeps nothing between batches: a batch it refuses
    # raises, so it returns no text, and the next batch is written whole
    with pytest.raises(TypeError):
        ndjson([_sent(), _sent(dst=object())])
    first, second = _sent(), _sent(msg_id=2)
    assert ndjson([first, second]) == dumps(first) + "\n" + dumps(second) + "\n"


_UNDECLARED = {
    "unknown-kind": {"node": "dev-a", "seq": 0, "time": 0, "kind": "outage"},
    "no-kind": {"seq": 0, "time": 0},
    "extra-field": {**_sent(), "note": "x"},
    "missing-field": {k: v for k, v in _sent().items() if k != "payload_b64"},
    "renamed-field": {("payload" if k == "payload_b64" else k): v for k, v in _sent().items()},
    "fields-of-another-kind": {"node": "dev-a", "phase": "start", "seq": 0, "time": 0,
                               "kind": "lost"},
}


@pytest.mark.parametrize("record", _UNDECLARED.values(), ids=_UNDECLARED)
def test_a_record_of_no_declared_variant_raises_naming_its_kind_and_fields(record):
    with pytest.raises(TypeError) as got:
        ndjson([_sent(), record])
    assert str(got.value) == (
        f"trace record of kind {record.get('kind')!r} matches no variant of"
        f" trace.SCHEMA: fields {sorted(record)}"
    )


_TYPES = {INT: (int,), STR: (str,), BOOL: (bool,), NULLABLE_STR: (str, type(None)),
          STRS: (list, tuple)}


def _variant(record: dict) -> tuple[str, int]:
    """The record's variant as (kind, field count), after checking that
    its key set is exactly one variant of its kind and that each value
    has its declared type: `type(v) is int`, so a bool or float fails."""
    fields = record.keys() - {"seq", "time", "kind"}
    matches = [v for v in SCHEMA[record["kind"]] if v.keys() == fields]
    assert len(matches) == 1, record
    types = {**matches[0], "seq": INT, "time": INT}
    wrong = [
        field for field, type_ in types.items()
        if type(record[field]) not in _TYPES[type_]
        or type_ == STRS and any(type(item) is not str for item in record[field])
    ]
    assert not wrong, (record, wrong)
    return record["kind"], len(fields)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(worlds(), worlds(all_layers=True)))
def test_every_record_a_generated_world_writes_is_one_declared_variant(drawn):
    for record in run(*drawn)[1]:
        _variant(record)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_record_a_benchmark_workload_writes_is_one_declared_variant(workload):
    scenario = parse_scenario(workloads.generate(workload, 21)[0])
    for enabled in ((), ("S9", "S10", "S17")):
        for record in run(scenario, enabled)[1]:
            _variant(record)


def test_every_declared_variant_is_written_and_no_other():
    for kind, variants in SCHEMA.items():  # so a field count picks one variant
        assert len({len(variant) for variant in variants}) == len(variants), kind
    day = SECONDS_PER_DAY
    scenario = default_scenario()
    runs = {
        "default": scenario,
        "theft-and-bandwidth": replace(
            scenario, thefts=(TheftSpec(node="dev-truck", at=2 * day),),
            links=(replace(scenario.links[0], bandwidth_bps=1000), *scenario.links[1:])),
        # the cloud has no backup pool, and the month-end reminder falls due
        "cloud-down-at-month-end": replace(scenario, failures=(
            *scenario.failures, FailureSpec(node="cloud", at=30 * day, duration_s=day))),
        "multi-hop": multi_hop_scenario(),
    }
    written, substitutes = set(), set()
    for name, scenario in runs.items():
        for enabled in ((), ("S9", "S10", "S17")):
            for record in run(scenario, enabled)[1]:
                written.add(_variant(record))
                if record["kind"] == "failover":
                    substitutes.add(type(record["substitute"]))
    assert written == {(kind, len(variant)) for kind, variant in _VARIANTS}
    assert substitutes == {str, type(None)}  # why `substitute` is nullable


def test_readme_lists_every_declared_variant_with_its_fields():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Trace records\n", 1)[1].split("\n#", 1)[0]
    listed = sorted(
        (kind, sorted(re.findall(r"`(\w+)` ([^,]+?)(?:,|$)", fields.strip())))
        for kind, fields in re.findall(r"^\| `(\w+)` \| ([^|]*) \|", table, re.M)
    )
    declared = sorted((kind, sorted(variant.items())) for kind, variant in _VARIANTS)
    assert listed == declared


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(worlds(), worlds(all_layers=True)))
def test_where_the_batches_end_changes_no_byte_and_no_metric(drawn):
    scenario, enabled = drawn
    _, records = run(scenario, enabled)
    # batches of 1, 2 and 7 put a message's sent and delivered records in
    # different batches; 256 is the size the program streams in
    for batch in (1, 2, 7, 256):
        with mock.patch.object(trace_module, "BATCH_RECORDS", batch), \
                tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.ndjson"
            sizes = []
            with _trace_files(path) as (trace_file,):

                def sink(batch_records):
                    sizes.append(len(batch_records))
                    trace_file.feed(batch_records)

                streamed = World(scenario, enabled, sink)  # as the CLI builds its runs
                streamed.run_until(scenario.horizon_s)
            assert path.read_text(encoding="utf-8") == ndjson(records)
            assert streamed.trace.records == []
            assert streamed.trace.count == len(records) == sum(sizes)
            assert all(size == batch for size in sizes[:-1])
            assert 0 < sizes[-1] <= batch if records else sizes == []
            assert trace_file.metrics() == meter(records)
            assert trace_file.sections() == meter_sections(records)


def test_append_keeps_the_dict_it_is_given_adding_only_seq_time_and_kind():
    batches: list[list[dict]] = []
    trace = trace_module.Trace(batches.append)
    start, end = {"node": "d00", "phase": "start"}, {"node": "d00", "phase": "end"}
    trace.append("failure", 5, start)
    trace.append("failure", 9, end)
    trace.flush()
    assert batches[0][0] is start and batches[0][1] is end
    assert start == {"node": "d00", "phase": "start", "seq": 0, "time": 5, "kind": "failure"}
    assert end == {"node": "d00", "phase": "end", "seq": 1, "time": 9, "kind": "failure"}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(worlds(all_layers=True))
def test_no_two_records_of_a_run_are_one_dict(drawn):
    # a dict appended twice, such as a declared event's fields run again,
    # would hold only the seq, time and kind of its last append
    records = run(*drawn)[1]
    assert len({id(record) for record in records}) == len(records)


def test_every_trace_append_in_the_package_passes_three_positional_arguments():
    # a keyword form, `append(kind, time, **fields)`, builds each record
    # key by key, where a dict literal is one presized dict
    calls = [
        (path.name, node.lineno, node)
        for path in sorted((ROOT / "src" / "smartbizsim").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "append" and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "trace"
    ]
    assert calls
    wrong = [
        (name, line) for name, line, call in calls
        if len(call.args) != 3 or call.keywords
        or any(isinstance(arg, ast.Starred) for arg in call.args)
    ]
    assert not wrong
