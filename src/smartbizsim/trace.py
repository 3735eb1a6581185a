"""Append-only simulation trace.

The trace is the single source of truth for metering: every observable
event lands here as one record {seq, time, kind, ...}, of a variant that
`SCHEMA` declares. The dict a caller appends becomes that record, with
seq, time and kind added and no copy made, so each call passes a new
dict. `ndjson` writes each record canonically (sorted keys, no
whitespace) from the line template of its variant, so equal runs
produce byte-equal NDJSON. A trace streams its records, one batch at a
time, to a sink, such as a CLI trace file that writes each batch with
`ndjson`; where the batches end changes no byte written. The module
imports nothing of the package.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable


# Records a trace holds before it hands them to its sink, and
# commands the config digest encodes at a time: large enough that a
# batch costs little per record, small enough that its dicts are still
# in the CPU cache when they are encoded. At 100k commands the digest
# hashed 1.5x faster in batches of 256 than of 4096, and a `dmaic` of a
# perfbench workload peaked 2-4 MB lower (Python 3.11, 2-vCPU x86-64 VM).
BATCH_RECORDS = 256

Sink = Callable[[list[dict]], None]  # takes each batch of a trace's records, in order


# Every record a trace holds, by kind: each variant's fields besides seq,
# time and kind, with their JSON types. A record's key set is exactly one
# variant of its kind, and no two variants of a kind have as many fields,
# so its kind and field count find the template that writes it.
INT, STR, BOOL, NULLABLE_STR, STRS = "int", "str", "bool", "str or null", "[str]"
_SENT = {"msg_id": INT, "src": STR, "dst": STR, "size_bytes": INT, "wire_bytes": INT,
         "wrapped": BOOL, "path": STRS, "link_ms": INT, "s10_ms": INT, "s9_ms": INT}
_AUDIT = {"user": STR, "device": STR, "authenticated": BOOL}
_FIRED = {"event": STR, "reminder": STR, "target": STR}
SCHEMA: dict[str, tuple[dict[str, str], ...]] = {
    "capital": ({"section": STR, "item": STR, "count": INT},),
    "ops": ({"section": STR, "action": STR, "events": INT},),
    "theft": ({"node": STR, "guarded": BOOL},),
    "sent": (_SENT | {"payload_b64": STR},
             _SENT | {"key_id": STR, "marker": STR, "inner_size": INT}),
    "delivered": ({"msg_id": INT, "to": STR, "latency_ms": INT, "s17_ms": INT},),
    "lost": ({"msg_id": INT, "reason": STR}, {"msg_id": INT, "reason": STR, "node": STR}),
    "failure": ({"node": STR, "phase": STR},),
    "failover": ({"failed": STR, "substitute": NULLABLE_STR},),
    "audit": (_AUDIT, _AUDIT | {"reason": STR}),
    "request_failed": ({"intent": STR, "reason": STR},),
    "reminder": (_FIRED | {"author": STR}, _FIRED),
    "meeting": ({"organizer": STR, "attendees": STRS, "start_min": INT,
                 "duration_min": INT},),
}

# How a value of each type other than INT is written; an INT is `%d`.
_ENCODE = {
    STR: encode_basestring_ascii,
    BOOL: ("false", "true").__getitem__,
    NULLABLE_STR: lambda v: "null" if v is None else encode_basestring_ascii(v),
    STRS: lambda v: "[%s]" % ",".join(map(encode_basestring_ascii, v)),
}


def _writer(kind: str, variant: dict[str, str]) -> tuple:
    """The line template of one variant, the getter of its values other
    than the kind, in key order, and the (index, encode) of each non-INT."""
    types = {**variant, "seq": INT, "time": INT}
    keys = sorted(types)
    items = {key: "%d" if types[key] == INT else "%s" for key in keys}
    items["kind"] = encode_basestring_ascii(kind)
    line = ",".join(f"{encode_basestring_ascii(key)}:{items[key]}" for key in sorted(items))
    encodes = tuple((i, _ENCODE[types[key]]) for i, key in enumerate(keys) if types[key] != INT)
    return "{%s}\n" % line, itemgetter(*keys), encodes


_WRITERS = {
    (kind, len(variant) + 3): _writer(kind, variant)
    for kind, variants in SCHEMA.items() for variant in variants
}


def ndjson(records: list[dict]) -> str:
    """One canonical JSON line per record, each ended by a newline, from
    the template of its variant. With values of the declared types, it is
    the line `json.dumps(record, sort_keys=True, separators=(",", ":"))`
    writes; the types are not checked (`%d` writes True as 1)."""
    lines = []
    for record in records:
        try:
            template, get, encodes = _WRITERS[record["kind"], len(record)]
            values = get(record)
        except KeyError:  # equal counts and every key found: equal key sets
            raise TypeError(f"trace record of kind {record.get('kind')!r} matches no"
                            f" variant of trace.SCHEMA: fields {sorted(record)}") from None
        values = list(values)
        for i, encode in encodes:
            values[i] = encode(values[i])
        lines.append(template % tuple(values))
    return "".join(lines)


class Trace:
    """The records of one run, in order, streamed to `sink`: `records` holds
    one batch at most, which goes to the sink, and a new list starts, when
    it reaches BATCH_RECORDS and on `flush`."""

    def __init__(self, sink: Sink) -> None:
        self.records: list[dict] = []
        self.count = 0  # records appended, the next record's seq
        self._sink = sink

    def append(self, kind: str, time: int, record: dict) -> None:
        """Keep `record` itself, with seq, time and kind added, as the next
        record: the dict is not copied, so each call passes a new one."""
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
        return ndjson(self.records)
