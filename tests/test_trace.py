"""The canonical serializer writes exactly what `json.dumps` writes with
sorted keys and no whitespace, for one value and for a whole trace; a
document's other values are spelled by `errors.json_default`, a trace
record's are refused. Where a trace's batches end changes neither the
bytes written nor what is metered."""

import datetime as dt
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ndjson, run, worlds
from smartbizsim import trace as trace_module
from smartbizsim.cli import _trace_files
from smartbizsim.controls import ChangeLevel
from smartbizsim.costs import SectionCost
from smartbizsim.metering import meter, meter_sections
from smartbizsim.risk import OrdinalLevel
from smartbizsim.trace import canonical_json
from smartbizsim.world import World


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _record(**fields) -> dict:
    """A record as `Trace.append` builds it."""
    return {**fields, "seq": 0, "time": 0, "kind": "sent"}


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.dictionaries(st.text(max_size=6), _VALUES, max_size=5), max_size=8))
def test_every_ndjson_line_is_the_json_dumps_line_of_its_record(records):
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
    with pytest.raises(TypeError, match="is not JSON serializable"):
        ndjson([_record(payload=bad)])


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
    with pytest.raises(TypeError, match="is not JSON serializable"):
        ndjson([_record(value=value)])  # a record holds JSON values only


def test_a_cyclic_value_raises_value_error():
    cyclic: dict = {"a": []}
    cyclic["a"].append(cyclic)
    with pytest.raises(ValueError, match="Circular reference detected"):
        canonical_json(cyclic)
    with pytest.raises(ValueError, match="Circular reference detected"):
        ndjson([_record(loop=cyclic)])


def test_an_encode_after_a_failed_one_carries_no_stale_markers():
    # a failed encode leaves its open containers in the encoder's markers;
    # encoding the same containers again must not see them as a cycle
    inner = {"x": object()}
    value = {"a": [inner], "b": inner}
    with pytest.raises(TypeError):
        canonical_json(value)
    inner["x"] = 1
    assert canonical_json(value) == dumps(value) == '{"a":[{"x":1}],"b":{"x":1}}'

    record = _record(inner=inner, value=value)
    inner["x"] = object()
    with pytest.raises(TypeError):
        ndjson([record])
    inner["x"] = 2
    assert ndjson([record]) == dumps(record) + "\n"


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
