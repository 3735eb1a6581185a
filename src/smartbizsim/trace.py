"""Append-only simulation trace.

The trace is the single source of truth for metering: every observable
event lands here as one record {seq, time, kind, ...}. Serialization is
canonical (sorted keys, no whitespace), so equal runs produce byte-equal
NDJSON.
"""

from __future__ import annotations

from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from typing import Iterator

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


class Trace:
    def __init__(self) -> None:
        self.records: list[dict] = []

    def append(self, kind: str, time: int, **record) -> None:
        """Store the keyword arguments, plus seq, time and kind, as the record."""
        record["seq"] = len(self.records)
        record["time"] = time
        record["kind"] = kind
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.records)

    def by_kind(self, kind: str) -> list[dict]:
        return [r for r in self.records if r["kind"] == kind]

    def to_ndjson(self) -> str:
        """One canonical JSON line per record, each ended by a newline."""
        # one per document: an error ends the document. Records hold JSON
        # values only, so any other value is refused, not spelled.
        encode = _canonical_encoder(JSONEncoder().default)
        join = "".join
        lines = [join(encode(record, 0)) for record in self.records]
        lines.append("")  # the last newline, without copying the text again
        return "\n".join(lines)
