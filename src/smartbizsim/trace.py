"""Append-only simulation trace.

The trace is the single source of truth for metering: every observable
event lands here as one record {seq, time, kind, ...}. Serialization is
canonical (sorted keys, no whitespace), so equal runs produce byte-equal
NDJSON. A trace streams its records, one batch at a time, to a sink such
as `ndjson_writer`; where the batches end changes no byte written.
"""

from __future__ import annotations

from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from typing import Callable, TextIO

from .errors import json_default


def _canonical_encoder(default):
    """The C encoder that `json.dumps(v, sort_keys=True, separators=(",", ":"),
    default=default)` builds for each call, with the same arguments, so it
    writes the same bytes. Its fresh markers dict holds the containers
    being encoded, for the circular-reference check; a failed encode can
    leave entries behind, so an encoder is not reused after an error.
    """
    return c_make_encoder(
        {}, default, encode_basestring_ascii, None,
        ":", ",", True, False, True,  # sort_keys, skipkeys, allow_nan
    )


def canonical_json(value) -> str:
    """Sorted keys, no whitespace: equal values give equal bytes. Values
    JSON has no type for are spelled by `errors.json_default`."""
    return "".join(_canonical_encoder(json_default)(value, 0))


# Records a trace holds before it hands them to its sink, and
# commands the config digest encodes at a time: large enough that a
# batch costs little per record, small enough that its dicts are still
# in the CPU cache when they are encoded. At 100k commands the digest
# hashed 1.5x faster in batches of 256 than of 4096, and a `dmaic` of a
# perfbench workload peaked 2-4 MB lower (Python 3.11, 2-vCPU x86-64 VM).
BATCH_RECORDS = 256

Sink = Callable[[list[dict]], None]  # takes each batch of a trace's records, in order


def _record_encoder():
    """One per document: an error ends the document. Records hold JSON
    values only, so any other value is refused, not spelled."""
    return _canonical_encoder(JSONEncoder().default)


def _ndjson(encode, records: list[dict]) -> str:
    """One canonical JSON line per record, each ended by a newline."""
    join = "".join
    lines = [join(encode(record, 0)) for record in records]
    lines.append("")  # the last newline, without copying the text again
    return "\n".join(lines)


def ndjson_writer(file: TextIO) -> Sink:
    """A sink that writes each batch of records to `file` as NDJSON, in
    one call, with one encoder for the whole file."""
    encode = _record_encoder()

    def write(records: list[dict]) -> None:
        file.write(_ndjson(encode, records))

    return write


class Trace:
    """The records of one run, in order, streamed to `sink`: `records` holds
    one batch at most, which goes to the sink, and a new list starts, when
    it reaches BATCH_RECORDS and on `flush`."""

    def __init__(self, sink: Sink) -> None:
        self.records: list[dict] = []
        self.count = 0  # records appended, the next record's seq
        self._sink = sink

    def append(self, kind: str, time: int, **record) -> None:
        """Store the keyword arguments, plus seq, time and kind, as the record."""
        record["seq"] = self.count
        self.count += 1
        record["time"] = time
        record["kind"] = kind
        records = self.records
        records.append(record)
        if len(records) == BATCH_RECORDS:  # read at call time, so a test may patch it
            self.flush()

    def flush(self) -> None:
        """Hand the records held to the sink."""
        if self.records:
            self._sink(self.records)
            self.records = []

    # Kept only because perfbench's tracer patches it by name; ROADMAP
    # item 4's benchmark step deletes it.
    def to_ndjson(self) -> str:
        """The records held, one batch at most, one canonical JSON line each."""
        return _ndjson(_record_encoder(), self.records)
