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

from .errors import NonNegative, SimulationError


class MetricSet(NonNegative):
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_lost: int = 0
    total_wire_bytes: int = 0
    total_latency_ms: int = 0
    sessions: int = 0
    plaintext_exposures: int = 0
    operational_events: int = 0
    capital_items: int = 0


class SectionUsage(NonNegative):
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
    the message totals, the usage per section (a counter of `SectionUsage`
    fields, whose sums are the run's sessions, operational events and
    capital items) and the `sent` records of the messages in flight, and
    nothing else. A message is in flight at most once, so delivered +
    lost = sent whenever none is: the one conservation check.
    """

    def __init__(self) -> None:
        # sent, delivered, lost, wire bytes, latency, plaintext
        self._totals = (0,) * 6
        self._in_flight: dict[int, dict] = {}
        self._usage: dict[str, Counter] = defaultdict(Counter)

    def feed(self, records: Iterable[dict]) -> None:
        """Fold a batch of records into the totals and the section usage."""
        in_flight, usage = self._in_flight, self._usage
        sent, delivered, lost, wire, latency, plaintext = self._totals
        s9_ms = s10_ms = s17_ms = s10_bytes = sessions = 0
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
                usage[record["section"]]["operational_events"] += record["events"]
            elif kind == "capital":
                usage[record["section"]]["capital_items"] += record["count"]
        self._totals = (sent, delivered, lost, wire, latency, plaintext)
        # a section gets a bucket once something is metered for it
        if s10_bytes:
            usage["S10"]["extra_bytes"] += s10_bytes
        if s10_ms:
            usage["S10"]["extra_latency_ms"] += s10_ms
        if s9_ms:
            usage["S9"]["extra_latency_ms"] += s9_ms
        if s17_ms:
            usage["S17"]["extra_latency_ms"] += s17_ms
        if sessions:
            usage["S9"]["sessions"] += sessions

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
        sent, delivered, lost, wire, latency, plaintext = self._totals
        used = sum(self._usage.values(), Counter())
        return MetricSet(
            messages_sent=sent, messages_delivered=delivered, messages_lost=lost,
            total_wire_bytes=wire, total_latency_ms=latency, plaintext_exposures=plaintext,
            sessions=used["sessions"], operational_events=used["operational_events"],
            capital_items=used["capital_items"],
        )

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
