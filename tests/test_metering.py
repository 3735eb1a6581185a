import pytest

from helpers import two_device_scenario
from smartbizsim.errors import IncompleteTrace
from smartbizsim.metering import MetricSet, meter, meter_sections
from smartbizsim.middleware import ControlLayerConfig, S10Config
from smartbizsim.scenario import default_scenario
from smartbizsim.world import build_world


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
    with pytest.raises(IncompleteTrace):
        meter([_sent(1)])
    with pytest.raises(IncompleteTrace):
        MetricSet(messages_sent=3, messages_delivered=1, messages_lost=1)


def test_secured_run_adds_exactly_overhead_times_wrapped_count():
    scenario = default_scenario()
    baseline = build_world(scenario, scenario.controls.with_enabled(()))
    baseline.run_until(scenario.horizon_s)
    secured_controls = scenario.controls.with_enabled(frozenset(("S10",)))
    secured = build_world(scenario, secured_controls)
    secured.run_until(scenario.horizon_s)

    m_base = meter(baseline.trace)
    m_sec = meter(secured.trace)
    wrapped = sum(1 for r in secured.trace.by_kind("sent") if r["wrapped"])
    overhead = secured_controls.s10.overhead_bytes
    assert m_sec.total_wire_bytes - m_base.total_wire_bytes == overhead * wrapped
    assert wrapped == m_sec.messages_sent


def test_section_usage_attributes_overhead_to_the_right_layer():
    scenario = two_device_scenario(
        message_times=(100, 200, 300),
        controls=ControlLayerConfig(
            s10=S10Config(enabled=True, per_message_latency_ms=5, overhead_bytes=64)
        ),
    )
    world = build_world(scenario)
    world.run_until(scenario.horizon_s)
    usage = meter_sections(world.trace)
    assert usage["S10"].extra_bytes == 64 * 3
    assert usage["S10"].extra_latency_ms == 5 * 3
    assert usage["S10"].operational_events == 1  # key provisioning
    assert "S9" not in usage or usage["S9"].sessions == 0


def test_metric_set_serialization_is_plain_ints():
    scenario = default_scenario()
    world = build_world(scenario)
    world.run_until(scenario.horizon_s)
    as_dict = meter(world.trace).to_dict()
    assert all(isinstance(v, int) for v in as_dict.values())
