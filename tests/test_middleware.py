import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import by_kind, message_records, run, tap, two_device_scenario, worlds
from smartbizsim.errors import AuthDenied, ConfigError, UnknownUser, read, replace
from smartbizsim.middleware import (
    ControlLayerConfig,
    S9Config,
    S10Config,
    S17Config,
    authenticate,
    wrap,
)
from smartbizsim.metering import meter
from smartbizsim.scenario import CommandSpec, FailureSpec, LinkSpec, NodeSpec, default_scenario
from smartbizsim.trace import ndjson

# controls of scenarios whose runs switch on S9, or S10
S9_ON = ControlLayerConfig(s9=S9Config(credential_store={"alice": "sesame"}))
S10_ON = ControlLayerConfig(s10=S10Config(overhead_bytes=64))


# -- authentication -------------------------------------------------------------


def test_correct_credential_authenticates():
    assert authenticate("alice", "sesame", "device-a", S9_ON.with_enabled({"S9"})) is None
    # the session lands in the audit trail: who, where and when
    command = CommandSpec(
        at=5, device="device-a", user="alice", credential="sesame",
        intent="voice_message", to="device-b", payload="hi",
    )
    scenario = replace(two_device_scenario(controls=S9_ON), commands=(command,))
    _, records = run(scenario, {"S9"})
    audit = by_kind(records, "audit")
    assert [(a["user"], a["device"], a["time"], a["authenticated"]) for a in audit] == [
        ("alice", "device-a", 5, True)
    ]


def test_wrong_credential_denied():
    with pytest.raises(AuthDenied):
        authenticate("alice", "wrong", "device-a", S9_ON.with_enabled({"S9"}))


def test_unknown_user_rejected():
    with pytest.raises(UnknownUser):
        authenticate("mallory", "sesame", "device-a", S9_ON.with_enabled({"S9"}))


def test_denied_command_executes_nothing_in_a_run():
    scenario = two_device_scenario(controls=ControlLayerConfig(
        s9=S9Config(credential_store={"operator": "op-pass"})
    ))
    bad = CommandSpec(
        at=100, device="device-a", user="operator", credential="nope",
        intent="voice_message", to="device-b", payload="stolen words",
    )
    _, records = run(replace(scenario, commands=(bad,)), {"S9"})
    audits = by_kind(records, "audit")
    assert [a["authenticated"] for a in audits] == [False]
    assert audits[0]["reason"] == "bad-credential"
    assert not by_kind(records, "sent")


def test_s9_disabled_runs_every_command_without_sessions():
    _, records = run(two_device_scenario(message_times=(100, 200, 300)), ())
    assert not by_kind(records, "audit")
    assert len(by_kind(records, "sent")) == 3


def test_authenticated_command_charges_session_latency_to_next_send():
    scenario = two_device_scenario(
        message_times=(100,),
        controls=ControlLayerConfig(
            s9=S9Config(per_session_latency_ms=20, credential_store={"operator": "op-pass"})
        ),
    )
    _, records = run(scenario, {"S9"})
    sent = by_kind(records, "sent")[0]
    assert sent["s9_ms"] == 20
    audits = by_kind(records, "audit")
    assert [a["authenticated"] for a in audits] == [True]


# -- envelopes ------------------------------------------------------------------


def test_wire_size_is_payload_plus_overhead():
    world, records = run(two_device_scenario(controls=S10_ON), {"S10"}, until=0)
    world.send_message("device-a", "device-b", b"x" * 100)
    world.trace.flush()
    sent = by_kind(records, "sent")[0]
    assert sent["size_bytes"] == 100
    assert sent["wire_bytes"] == 164
    assert sent["wrapped"] is True
    assert "payload_b64" not in sent
    assert sent["inner_size"] == 100


def test_sealed_send_names_the_sender_key_and_carries_no_payload():
    assert wrap(b"secret payload", "k-device-a", msg_id=9) == {
        "key_id": "k-device-a", "marker": "ct:k-device-a:9", "inner_size": 14,
    }
    world, records = run(two_device_scenario(controls=S10_ON), {"S10"}, until=0)
    msg_id = world.send_message("device-a", "device-b", b"secret payload")
    world.trace.flush()
    sent = by_kind(records, "sent")[0]
    # only the sender's key opens it: the receiver's key is not named
    assert sent["key_id"] == "k-device-a"
    assert sent["marker"] == f"ct:k-device-a:{msg_id}"
    assert sent["inner_size"] == 14
    assert "payload_b64" not in sent
    assert b"secret" not in ndjson(records).encode()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(worlds(), st.integers(0, 512))
def test_s10_seals_every_send_of_generated_worlds(drawn, overhead):
    scenario, enabled = drawn
    controls = replace(scenario.controls, s10=S10Config(overhead_bytes=overhead))
    _, records = run(replace(scenario, controls=controls), enabled | {"S10"})
    assert meter(records).plaintext_exposures == 0
    for sent in by_kind(records, "sent"):
        assert sent["key_id"] == f"k-{sent['src']}"  # generated worlds have no key map
        assert sent["marker"] == f"ct:{sent['key_id']}:{sent['msg_id']}"
        assert sent["inner_size"] == sent["size_bytes"]
        assert "payload_b64" not in sent
        assert sent["wire_bytes"] == sent["size_bytes"] + overhead


def test_partial_key_map_rejected_at_build():
    controls = ControlLayerConfig(
        s10=S10Config(key_ids={"device-a": "k1"})
    )
    with pytest.raises(ConfigError,
                       match=r"^controls\.s10\.key_ids\.device-b: no key id for node 'device-b'$"):
        two_device_scenario(controls=controls)


def test_envelope_marker_is_payload_independent():
    traces = []
    for payload in (b"aaaa", b"bbbb"):
        world, records = run(two_device_scenario(controls=S10_ON), {"S10"}, until=0)
        world.send_message("device-a", "device-b", payload)
        world.run_until(1000)
        traces.append(ndjson(records))
    assert traces[0] == traces[1]
    assert '"marker":"ct:k-device-a:1"' in traces[0]


# -- wiretaps --------------------------------------------------------------------


def test_baseline_tap_sees_plaintext():
    scenario = two_device_scenario(message_times=tuple(range(100, 1100, 100)))
    world, records = run(scenario, ())
    observations = tap("device-a--cloud", world.links, records)
    assert len(observations) == 10
    assert all(o.visibility == "Plaintext" for o in observations)


def test_secured_tap_sees_only_opaque():
    scenario = two_device_scenario(
        message_times=tuple(range(100, 1100, 100)), controls=S10_ON
    )
    world, records = run(scenario, {"S10"})
    for link_id in world.links:
        for obs in tap(link_id, world.links, records):
            assert obs.visibility == "Opaque"
            assert obs.observed_bytes > 0
    assert len(tap("device-b--cloud", world.links, records)) == 10  # second hop is visible too


def test_quiet_link_taps_empty_and_unknown_link_rejected():
    world, records = run(two_device_scenario(), (), until=0)
    world.send_message("device-a", "cloud", b"one hop only")
    world.run_until(1000)
    assert len(tap("device-a--cloud", world.links, records)) == 1
    assert tap("device-b--cloud", world.links, records) == []
    with pytest.raises(KeyError):
        tap("ghost-link", world.links, records)


# -- failover --------------------------------------------------------------------


def _failover_scenario(backups: int = 1, window: int = 60, **kwargs):
    controls = ControlLayerConfig(
        s17=S17Config(backups_per_site=backups, detection_window_s=window)
    )
    return two_device_scenario(controls=controls, **kwargs)


def test_single_backup_catches_everything_with_bounded_delay():
    times = tuple(range(900, 5000, 100))
    scenario = _failover_scenario(
        message_times=times, failures=(("device-b", 1000, 3600),)
    )
    _, records = run(scenario, {"S17"})
    assert not by_kind(records, "lost")
    delivered = by_kind(records, "delivered")
    assert len(delivered) == len(times)
    delays = [d["s17_ms"] for d in delivered]
    assert max(delays) <= 60_000
    switches = by_kind(records, "failover")
    assert [(s["failed"], s["substitute"], s["time"]) for s in switches] == [
        ("device-b", "device-b-r1", 1060)
    ]
    # in-window attempts rode out the detection window on the spare
    waited = [d for d in delivered if d["s17_ms"] > 0]
    assert all(d["to"] == "device-b-r1" for d in waited)


def test_empty_pool_loses_outage_traffic():
    scenario = _failover_scenario(
        backups=0, message_times=(1200,), failures=(("device-b", 1000, 3600),)
    )
    _, records = run(scenario, {"S17"})
    lost = by_kind(records, "lost")
    assert [l["reason"] for l in lost] == ["pool-exhausted"]
    assert by_kind(records, "failover")[0]["substitute"] is None
    assert not by_kind(records, "ops")  # no replacement for a node S17 cannot substitute


def test_failed_backup_serves_again_after_it_recovers():
    times = (1200, 2000, 4000)
    base = _failover_scenario(message_times=times, failures=(("device-b", 1000, 7200),))
    nodes = tuple(
        replace(n, backup_pool=("device-c",)) if n.id == "device-b" else n for n in base.nodes
    )
    scenario = replace(
        base,
        nodes=nodes + (NodeSpec(id="device-c", kind="SmartDevice", site="CityB"),),
        links=base.links + (LinkSpec(a="device-c", b="cloud", latency_ms=50),),
        # device-b's backup is down until 3400
        failures=base.failures + (FailureSpec(node="device-c", at=900, duration_s=2500),),
    )
    _, records = run(scenario, {"S17"})
    by_msg = message_records(records)
    statuses = [by_msg[i]["status"] for i in sorted(by_msg)]
    assert statuses == ["Lost", "Lost", "Delivered"]
    assert by_msg[3]["delivered"]["to"] == "device-c"


@pytest.mark.parametrize("first_down, to", [(False, "device-c"), (True, "device-d")],
                         ids=["both-up", "first-down"])
def test_a_pool_serves_from_its_first_member_that_is_up(first_down, to):
    # a message sent in the detection window waits, then goes to the
    # substitute: the first member of the pool, in declared order, that is up
    pool = ("device-c", "device-d")
    base = _failover_scenario(message_times=(1010,), failures=(("device-b", 1000, 3600),))
    nodes = tuple(replace(n, backup_pool=pool) if n.id == "device-b" else n for n in base.nodes)
    down = (FailureSpec(node="device-c", at=900, duration_s=3600),) if first_down else ()
    scenario = replace(
        base,
        nodes=nodes + tuple(NodeSpec(id=m, kind="SmartDevice", site="CityB") for m in pool),
        links=base.links + tuple(LinkSpec(a=m, b="cloud", latency_ms=50) for m in pool),
        failures=base.failures + down,
    )
    _, records = run(scenario, {"S17"})
    switches = [s for s in by_kind(records, "failover") if s["failed"] == "device-b"]
    assert [(s["time"], s["substitute"]) for s in switches] == [(1060, to)]
    assert [(d["time"], d["to"]) for d in by_kind(records, "delivered")] == [(1060, to)]


def test_recovery_before_detection_window_flushes_to_the_primary():
    scenario = _failover_scenario(
        window=300, message_times=(1050,), failures=(("device-b", 1000, 100),)
    )
    _, records = run(scenario, {"S17"})
    delivered = by_kind(records, "delivered")
    assert [(d["to"], d["time"]) for d in delivered] == [("device-b", 1100)]
    assert not by_kind(records, "failover")


def test_manual_failover_call_switches_immediately():
    # the switch comes the second the detection window closes, and what
    # waited for it lands on the spare in that same second
    scenario = _failover_scenario(
        message_times=(1010,), failures=(("device-b", 1000, 3600),)
    )
    world, records = run(scenario, {"S17"}, until=1059)
    assert not by_kind(records, "failover")
    assert not by_kind(records, "delivered")
    world.run_until(1060)
    assert [(s["time"], s["substitute"]) for s in by_kind(records, "failover")] == [
        (1060, "device-b-r1")
    ]
    assert [(d["time"], d["to"]) for d in by_kind(records, "delivered")] == [
        (1060, "device-b-r1")
    ]


def test_a_timer_left_by_an_ended_outage_does_not_switch_the_next_one():
    # dev-city-b is down for 10 s, then again from 40 s later: the first
    # outage's timer expires 20 s into the second, whose own window runs
    # 60 s from its start
    scenario = default_scenario()
    start = scenario.failures[0].at
    probe = CommandSpec(
        at=start + 45, device="dev-city-a", user="finance-manager",
        credential="fm-pass-7391", intent="voice_message", to="dev-city-b",
        payload="probe",
    )
    scenario = replace(
        scenario,
        failures=(
            FailureSpec(node="dev-city-b", at=start, duration_s=10),
            FailureSpec(node="dev-city-b", at=start + 40, duration_s=3600),
        ),
        commands=scenario.commands + (probe,),
    )
    _, records = run(scenario, {"S17"})
    assert [s["time"] for s in by_kind(records, "failover")] == [start + 100]
    sent = next(r for r in by_kind(records, "sent") if r["time"] == start + 45)
    (delivered,) = [r for r in by_kind(records, "delivered") if r["msg_id"] == sent["msg_id"]]
    assert (delivered["time"], delivered["to"]) == (start + 100, "dev-city-b-r1")
    assert delivered["s17_ms"] == 54_000  # waited from its eta, start + 46


def test_layer_flags_compose_independent_of_construction_order():
    base = two_device_scenario(
        message_times=(100, 200, 300),
        controls=ControlLayerConfig(s9=S9Config(credential_store={"operator": "op-pass"})),
    )
    t1 = ndjson(run(base, ("S9", "S10", "S17"))[1])
    t2 = ndjson(run(base, ("S17", "S10", "S9"))[1])
    assert t1 == t2


def test_control_defaults_have_one_source():
    assert read(ControlLayerConfig, {}) == ControlLayerConfig()
    assert read(ControlLayerConfig, {"s10": {"overhead_bytes": 32}}) == ControlLayerConfig(
        s10=S10Config(overhead_bytes=32)
    )



@pytest.mark.parametrize("value", [-1, True, 1.5])
def test_a_layer_value_built_in_code_is_a_non_negative_integer(value):
    # the path names the field, so a document's error names it in full
    with pytest.raises(ConfigError, match="must be a non-negative integer") as caught:
        S17Config(detection_window_s=value)
    assert caught.value.path == ".detection_window_s"
