import json
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings

from helpers import by_kind, document, naive_total_cost, ndjson, run, two_device_scenario, worlds
from smartbizsim.costs import CostRates, monetize
from smartbizsim.errors import SimulationError
from smartbizsim.metering import Meter, MetricSet, SectionUsage, meter, meter_sections
from smartbizsim.middleware import ControlLayerConfig, S10Config
from smartbizsim.scenario import default_scenario


def _sent(msg_id, wrapped=False, wire=10, size=10):
    return {
        "kind": "sent", "time": 0, "msg_id": msg_id, "wire_bytes": wire,
        "size_bytes": size, "wrapped": wrapped, "s10_ms": 0, "s9_ms": 0,
    }


def _delivered(msg_id, latency=100):
    return {"kind": "delivered", "time": 1, "msg_id": msg_id,
            "latency_ms": latency, "s17_ms": 0}


def _lost(msg_id):
    return {"kind": "lost", "time": 1, "msg_id": msg_id, "reason": "node-failed"}


def test_basic_counting():
    records = [_sent(i) for i in range(1, 8)]
    records += [_delivered(i) for i in range(1, 6)]
    records += [_lost(6), _lost(7)]
    metrics = meter(records)
    assert metrics.messages_sent == 7
    assert metrics.messages_delivered == 5
    assert metrics.messages_lost == 2
    assert metrics.total_wire_bytes == 70
    assert metrics.total_latency_ms == 500
    assert metrics.plaintext_exposures == 7


def test_meter_is_pure():
    records = [_sent(1), _delivered(1)]
    assert meter(records) == meter(records)


def test_incomplete_trace_rejected():
    with pytest.raises(SimulationError, match=r"^1 message\(s\) without a terminal record: \[1\]"):
        meter([_sent(1)])


def test_a_second_send_of_a_message_in_flight_is_rejected():
    # without the check the second send would overwrite the first, and
    # delivered + lost would fall short of sent
    with pytest.raises(SimulationError, match=r"^message 1 sent again while in flight$"):
        Meter().feed([_sent(1), _sent(1), _delivered(1)])


def test_secured_run_adds_exactly_overhead_times_wrapped_count():
    scenario = default_scenario()
    _, baseline = run(scenario, ())
    secured_world, secured = run(scenario, {"S10"})

    m_base = meter(baseline)
    m_sec = meter(secured)
    wrapped = sum(1 for r in by_kind(secured, "sent") if r["wrapped"])
    overhead = secured_world.config.s10.overhead_bytes
    assert m_sec.total_wire_bytes - m_base.total_wire_bytes == overhead * wrapped
    assert wrapped == m_sec.messages_sent


def test_section_usage_attributes_overhead_to_the_right_layer():
    scenario = two_device_scenario(
        message_times=(100, 200, 300),
        controls=ControlLayerConfig(
            s10=S10Config(per_message_latency_ms=5, overhead_bytes=64)
        ),
    )
    _, records = run(scenario, {"S10"})
    usage = meter_sections(records)
    assert usage["S10"].extra_bytes == 64 * 3
    assert usage["S10"].extra_latency_ms == 5 * 3
    assert usage["S10"].operational_events == 1  # key provisioning
    assert "S9" not in usage or usage["S9"].sessions == 0


def test_metric_set_serialization_is_plain_ints():
    _, records = run(default_scenario(), ())
    as_dict = document(meter(records))
    assert all(isinstance(v, int) for v in as_dict.values())


def _as_json(value):
    """`value` as JSON decodes it: tuples (such as a path) become lists."""
    if isinstance(value, dict):
        return {key: _as_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_json(item) for item in value]
    return value


def _recount(records: list[dict]) -> tuple[MetricSet, dict[str, SectionUsage]]:
    """The metric set and section usage, counted per kind from parsed lines."""
    of = defaultdict(list)
    for record in records:
        of[record["kind"]].append(record)
    sent, delivered = of["sent"], of["delivered"]
    sessions = sum(1 for r in of["audit"] if r["authenticated"])
    metrics = MetricSet(
        messages_sent=len(sent),
        messages_delivered=len(delivered),
        messages_lost=len(of["lost"]),
        total_wire_bytes=sum(r["wire_bytes"] for r in sent),
        total_latency_ms=sum(r["latency_ms"] for r in delivered),
        sessions=sessions,
        plaintext_exposures=sum(1 for r in sent if not r["wrapped"]),
        operational_events=sum(r["events"] for r in of["ops"]),
        capital_items=sum(r["count"] for r in of["capital"]),
    )
    by_id = {r["msg_id"]: r for r in sent}
    ops, capital = Counter(), Counter()
    for r in of["ops"]:
        ops[r["section"]] += r["events"]
    for r in of["capital"]:
        capital[r["section"]] += r["count"]
    extra = {section: {} for section in {*ops, *capital, "S9", "S10", "S17"}}
    extra["S9"]["sessions"] = sessions
    extra["S9"]["extra_latency_ms"] = sum(by_id[r["msg_id"]]["s9_ms"] for r in delivered)
    extra["S10"]["extra_latency_ms"] = sum(by_id[r["msg_id"]]["s10_ms"] for r in delivered)
    extra["S10"]["extra_bytes"] = sum(r["wire_bytes"] - r["size_bytes"] for r in sent)
    extra["S17"]["extra_latency_ms"] = sum(r["s17_ms"] for r in delivered)
    usage = {
        section: SectionUsage(
            operational_events=ops[section], capital_items=capital[section], **amounts
        )
        for section, amounts in extra.items()
    }
    return metrics, usage


@settings(max_examples=60, deadline=None, derandomize=True)
@given(worlds(all_layers=True))
def test_ndjson_lines_meter_and_price_like_the_records_they_encode(drawn):
    _, records = run(*drawn)
    lines = ndjson(records).splitlines()
    assert len(lines) == len(records)
    for line, record in zip(lines, records):
        assert line == json.dumps(record, sort_keys=True, separators=(",", ":"))
        assert json.loads(line) == _as_json(record)
    parsed = [json.loads(line) for line in lines]

    metrics, usage = _recount(parsed)
    assert meter(records) == meter(parsed) == metrics
    metered = meter_sections(records)
    assert metered == meter_sections(parsed)
    assert {s: metered.get(s, SectionUsage()) for s in usage} == usage
    assert set(metered) <= set(usage)

    plan = frozenset(usage)
    rates = CostRates()
    breakdown = monetize(plan, rates, metered)
    total = sum(cost.total for cost in breakdown.values())
    assert total == naive_total_cost(plan, rates, usage)
