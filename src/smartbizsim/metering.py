"""Trace metering: counts and totals derived solely from trace records.

Metering is pure. The same trace always yields the same MetricSet, and
nothing outside the trace is consulted. Per-section usage splits the
security overhead by the layer that caused it, using the attribution
fields the engine writes into each record (s9_ms/s10_ms on sends,
s17_ms on deliveries, section tags on ops/capital records).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterable

from .errors import Record, SimulationError


class MetricSet(Record):
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_lost: int = 0
    total_wire_bytes: int = 0
    total_latency_ms: int = 0
    sessions: int = 0
    plaintext_exposures: int = 0
    operational_events: int = 0
    capital_items: int = 0


class SectionUsage(Record):
    """Metered quantities attributable to one control section's layer."""

    extra_latency_ms: int = 0
    extra_bytes: int = 0
    sessions: int = 0
    operational_events: int = 0
    capital_items: int = 0


class Meter:
    """The one pass behind `meter` and `meter_sections`, fed a trace in
    batches in trace order: a message's `sent` record comes before its
    `delivered` or `lost` record, possibly in an earlier batch. It keeps
    its totals, the section usage (a counter of `SectionUsage` fields per
    section) and the `sent` records of the messages still in flight, and
    nothing else of the records. A message is in flight at most once, so
    delivered + lost = sent whenever none is: the one conservation check.
    """

    def __init__(self) -> None:
        # sent, delivered, lost, wire bytes, latency, sessions, plaintext,
        # operational events, capital items: MetricSet's field order
        self._totals = (0,) * 9
        self._in_flight: dict[int, dict] = {}
        self._usage: dict[str, Counter] = defaultdict(Counter)

    def feed(self, records: Iterable[dict]) -> None:
        """Fold a batch of records into the totals and the section usage."""
        in_flight, usage = self._in_flight, self._usage
        sent, delivered, lost, wire, latency, sessions, plaintext, ops, capital = (
            self._totals
        )
        sessions_before = sessions
        s9_ms = s10_ms = s17_ms = s10_bytes = 0
        for record in records:
            kind = record["kind"]
            if kind == "sent":
                sent += 1
                if record["msg_id"] in in_flight:
                    raise SimulationError(f"message {record['msg_id']} sent again while in flight")
                in_flight[record["msg_id"]] = record
                wire_bytes = record["wire_bytes"]
                wire += wire_bytes
                s10_bytes += wire_bytes - record["size_bytes"]
                if not record["wrapped"]:
                    plaintext += 1
            elif kind == "delivered":
                delivered += 1
                latency += record["latency_ms"]
                send = in_flight.pop(record["msg_id"], None)
                if send is None:
                    raise SimulationError(
                        f"message {record['msg_id']} delivered but not in flight"
                    )
                s9_ms += send["s9_ms"]
                s10_ms += send["s10_ms"]
                s17_ms += record["s17_ms"]
            elif kind == "lost":
                lost += 1
                if in_flight.pop(record["msg_id"], None) is None:
                    raise SimulationError(
                        f"message {record['msg_id']} lost but not in flight"
                    )
            elif kind == "audit":
                if record["authenticated"]:
                    sessions += 1
            elif kind == "ops":
                ops += record["events"]
                usage[record["section"]]["operational_events"] += record["events"]
            elif kind == "capital":
                capital += record["count"]
                usage[record["section"]]["capital_items"] += record["count"]
        self._totals = (
            sent, delivered, lost, wire, latency, sessions, plaintext, ops, capital
        )
        # a section gets a bucket once something is metered for it
        if s10_bytes:
            usage["S10"]["extra_bytes"] += s10_bytes
        if s10_ms:
            usage["S10"]["extra_latency_ms"] += s10_ms
        if s9_ms:
            usage["S9"]["extra_latency_ms"] += s9_ms
        if s17_ms:
            usage["S17"]["extra_latency_ms"] += s17_ms
        if sessions > sessions_before:
            usage["S9"]["sessions"] += sessions - sessions_before

    def metrics(self) -> MetricSet:
        """The metric set of the records fed so far.

        Raises SimulationError when any sent message lacks a terminal
        delivered/lost record (the run stopped mid-flight).
        """
        if self._in_flight:
            in_flight = sorted(self._in_flight)
            raise SimulationError(
                f"{len(in_flight)} message(s) without a terminal record: "
                f"{in_flight[:5]}..."
            )
        return MetricSet(*self._totals)

    def sections(self) -> dict[str, SectionUsage]:
        """Metered security overhead of the records fed so far, by the
        control section that caused it."""
        return {section: SectionUsage(**used) for section, used in self._usage.items()}


def meter(trace: Iterable[dict]) -> MetricSet:
    """Reduce a completed trace to its metric set.

    Raises SimulationError when any sent message lacks a terminal
    delivered/lost record (the run stopped mid-flight).
    """
    fold = Meter()
    fold.feed(trace)
    return fold.metrics()


def meter_sections(trace: Iterable[dict]) -> dict[str, SectionUsage]:
    """Split metered security overhead by originating control section."""
    fold = Meter()
    fold.feed(trace)
    return fold.sections()
