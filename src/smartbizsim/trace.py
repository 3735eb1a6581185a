"""Append-only simulation trace.

The trace is the single source of truth for metering: every observable
event lands here as one record {seq, time, kind, ...}. Serialization is
canonical (sorted keys, no whitespace), so equal runs produce byte-equal
NDJSON.
"""

from __future__ import annotations

import json
from typing import Iterator


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(value) -> str:
    """Sorted keys, no whitespace: equal values give equal bytes."""
    return _CANONICAL.encode(value)


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
        lines = [canonical_json(record) for record in self.records]
        return "\n".join(lines) + ("\n" if lines else "")
