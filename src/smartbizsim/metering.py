"""Trace metering: counts and totals derived solely from trace records.

Metering is pure. The same trace always yields the same MetricSet, and
nothing outside the trace is consulted. Per-section usage splits the
security overhead by the layer that caused it, using the attribution
fields the engine writes into each record (s9_ms/s10_ms on sends,
s17_ms on deliveries, section tags on ops/capital records).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import IncompleteTrace
from .trace import Trace


@dataclass(frozen=True)
class MetricSet:
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_lost: int = 0
    total_wire_bytes: int = 0
    total_latency_ms: int = 0
    sessions: int = 0
    plaintext_exposures: int = 0
    operational_events: int = 0
    capital_items: int = 0

    def __post_init__(self) -> None:
        if self.messages_delivered + self.messages_lost != self.messages_sent:
            raise IncompleteTrace(
                f"delivered ({self.messages_delivered}) + lost "
                f"({self.messages_lost}) != sent ({self.messages_sent})"
            )


@dataclass
class SectionUsage:
    """Metered quantities attributable to one control section's layer."""

    extra_latency_ms: int = 0
    extra_bytes: int = 0
    sessions: int = 0
    operational_events: int = 0
    capital_items: int = 0


def meter(trace: Trace | Iterable[dict]) -> MetricSet:
    """Reduce a completed trace to its metric set.

    Raises IncompleteTrace when any sent message lacks a terminal
    delivered/lost record (the run stopped mid-flight).
    """
    sent_ids = set()
    done_ids = set()
    sent = delivered = lost = wire = latency = 0
    sessions = plaintext = ops = capital = 0
    for record in trace:
        kind = record["kind"]
        if kind == "sent":
            sent += 1
            sent_ids.add(record["msg_id"])
            wire += record["wire_bytes"]
            if not record["wrapped"]:
                plaintext += 1
        elif kind == "delivered":
            delivered += 1
            done_ids.add(record["msg_id"])
            latency += record["latency_ms"]
        elif kind == "lost":
            lost += 1
            done_ids.add(record["msg_id"])
        elif kind == "audit":
            if record["authenticated"]:
                sessions += 1
        elif kind == "ops":
            ops += record["events"]
        elif kind == "capital":
            capital += record["count"]
    if sent_ids != done_ids:
        in_flight = sorted(sent_ids - done_ids)
        raise IncompleteTrace(
            f"{len(in_flight)} message(s) without a terminal record: "
            f"{in_flight[:5]}..."
        )
    return MetricSet(
        messages_sent=sent,
        messages_delivered=delivered,
        messages_lost=lost,
        total_wire_bytes=wire,
        total_latency_ms=latency,
        sessions=sessions,
        plaintext_exposures=plaintext,
        operational_events=ops,
        capital_items=capital,
    )


def meter_sections(trace: Trace | Iterable[dict]) -> dict[str, SectionUsage]:
    """Split metered security overhead by originating control section.

    One pass in trace order: a message's `sent` record comes before its
    `delivered` record.
    """
    usage: dict[str, SectionUsage] = {}

    def bucket(section: str) -> SectionUsage:
        found = usage.get(section)
        if found is None:
            found = usage[section] = SectionUsage()
        return found

    sends = {}
    for record in trace:
        kind = record["kind"]
        if kind == "delivered":
            sent = sends[record["msg_id"]]
            if sent["s10_ms"]:
                bucket("S10").extra_latency_ms += sent["s10_ms"]
            if sent["s9_ms"]:
                bucket("S9").extra_latency_ms += sent["s9_ms"]
            if record["s17_ms"]:
                bucket("S17").extra_latency_ms += record["s17_ms"]
        elif kind == "sent":
            sends[record["msg_id"]] = record
            overhead = record["wire_bytes"] - record["size_bytes"]
            if overhead:
                bucket("S10").extra_bytes += overhead
        elif kind == "audit":
            if record["authenticated"]:
                bucket("S9").sessions += 1
        elif kind == "ops":
            bucket(record["section"]).operational_events += record["events"]
        elif kind == "capital":
            bucket(record["section"]).capital_items += record["count"]
    return usage
