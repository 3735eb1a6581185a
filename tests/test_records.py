"""Every record class keeps the contract its callers rely on: its fields
in order, frozen unless declared otherwise, equality and hash by its
fields, and a validated copy from `errors.replace`. None of it is
generated, so the program starts without `dataclasses` or `inspect`."""

import subprocess
import sys
from pathlib import Path

import pytest

from smartbizsim.calendars import Calendar, WorkWeek
from smartbizsim.controls import (
    ChangeLevel,
    ControlCatalog,
    ControlSection,
    MitigationAction,
    _ActionLibrary,
)
from smartbizsim.costs import (
    CostRates,
    CostReport,
    DmaicConfig,
    SectionCost,
    load_dmaic_config,
)
from smartbizsim.errors import ConfigError, Record, replace
from smartbizsim.metering import MetricSet, SectionUsage
from smartbizsim.middleware import ControlLayerConfig, S9Config, S10Config, S17Config
from smartbizsim.risk import (
    OrdinalLevel,
    Risk,
    RiskAssessment,
    RiskCatalog,
    default_risk_catalog,
)
from smartbizsim.scenario import (
    AttendeeSpec,
    CommandSpec,
    FailureSpec,
    LinkSpec,
    NodeSpec,
    ReminderSpec,
    ScenarioConfig,
    TheftSpec,
    default_scenario,
)

ROOT = Path(__file__).resolve().parent.parent

# The field names, in order: every JSON spelling, digest and reader
# error follows this order, so no field may move.
FIELDS = {
    WorkWeek: ("start", "end", "days"),
    Calendar: ("busy",),
    ControlSection: ("id", "name", "change_level"),
    ControlCatalog: ("sections",),
    MitigationAction: ("id", "control", "description"),
    _ActionLibrary: ("actions",),
    CostRates: ("capital_item", "operational_event", "latency_ms", "wire_byte", "session"),
    SectionCost: ("capital", "operational", "performance"),
    DmaicConfig: ("risk_catalog", "control_catalog", "mapping", "action_library",
                  "scenario", "rates", "top_k", "residual_factor"),
    CostReport: ("baseline", "secured", "cost_breakdown", "total_security_cost",
                 "residual_ranking", "provenance"),
    MetricSet: ("messages_sent", "messages_delivered", "messages_lost", "total_wire_bytes",
                "total_latency_ms", "sessions", "plaintext_exposures",
                "operational_events", "capital_items"),
    SectionUsage: ("extra_latency_ms", "extra_bytes", "sessions", "operational_events",
                   "capital_items"),
    S9Config: ("per_session_latency_ms", "credential_store", "review_period_days"),
    S10Config: ("per_message_latency_ms", "overhead_bytes", "key_ids"),
    S17Config: ("backups_per_site", "detection_window_s"),
    ControlLayerConfig: ("s9", "s10", "s17"),
    Risk: ("id", "name", "relevance", "severity", "rationale"),
    RiskCatalog: ("risks",),
    RiskAssessment: ("risks", "scores", "ranking"),
    NodeSpec: ("id", "kind", "site", "backup_pool"),
    LinkSpec: ("a", "b", "latency_ms", "bandwidth_bps"),
    AttendeeSpec: ("id", "device", "busy"),
    ReminderSpec: ("id", "author", "target", "payload", "at"),
    FailureSpec: ("node", "at", "duration_s"),
    TheftSpec: ("node", "at"),
    CommandSpec: ("at", "device", "user", "credential", "intent", "to", "payload",
                  "target", "attendees", "duration_min"),
    ScenarioConfig: ("epoch", "horizon_s", "seed", "nodes", "links", "attendees",
                     "reminders", "failures", "commands", "thefts", "working_hours",
                     "reminder_fire_time", "meeting_horizon_days", "controls"),
}

# the records the program changes in place
MUTABLE = {Calendar, SectionUsage}

SAMPLES = {
    WorkWeek: WorkWeek,
    Calendar: lambda: Calendar(busy=[(5, 9), (0, 5)]),
    ControlSection: lambda: ControlSection(id="S9", name="Access", change_level=ChangeLevel.LOW),
    ControlCatalog: lambda: ControlCatalog(sections=()),
    MitigationAction: lambda: MitigationAction(id="A1", control="S9"),
    _ActionLibrary: lambda: _ActionLibrary(actions=()),
    CostRates: CostRates,
    SectionCost: lambda: SectionCost(capital=1, operational=2, performance=3),
    DmaicConfig: lambda: load_dmaic_config(None),
    CostReport: lambda: CostReport(
        baseline=MetricSet(), secured=MetricSet(), cost_breakdown={},
        total_security_cost=0,
        residual_ranking=RiskAssessment(risks=(), scores={}, ranking=()), provenance={},
    ),
    MetricSet: lambda: MetricSet(messages_sent=2, messages_delivered=1, messages_lost=1),
    SectionUsage: lambda: SectionUsage(sessions=4),
    S9Config: S9Config,
    S10Config: S10Config,
    S17Config: S17Config,
    ControlLayerConfig: ControlLayerConfig,
    Risk: lambda: Risk(id="R1", name="Theft", relevance=OrdinalLevel.HIGH,
                       severity=OrdinalLevel.LOW),
    RiskCatalog: default_risk_catalog,
    RiskAssessment: lambda: RiskAssessment(risks=(), scores={}, ranking=()),
    NodeSpec: lambda: NodeSpec(id="d", kind="SmartDevice", site="CityA"),
    LinkSpec: lambda: LinkSpec(a="d", b="c", latency_ms=10),
    AttendeeSpec: lambda: AttendeeSpec(id="a", device="d", busy=((0, 60),)),
    ReminderSpec: lambda: ReminderSpec(id="r", author="a", target="d"),
    FailureSpec: lambda: FailureSpec(node="d", at=5, duration_s=60),
    TheftSpec: lambda: TheftSpec(node="d", at=5),
    CommandSpec: lambda: CommandSpec(at=0, device="d", intent="voice_message", to="c"),
    ScenarioConfig: default_scenario,
}


def test_every_record_class_is_in_the_table():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    program = {cls for cls in subclasses(Record) if cls.__module__.startswith("smartbizsim.")}
    assert program == set(FIELDS) == set(SAMPLES)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_a_record_keeps_its_fields_equality_hash_and_freezing(cls):
    assert cls._fields == FIELDS[cls]
    record = SAMPLES[cls]()
    values = {name: getattr(record, name) for name in cls._fields}
    assert list(vars(record)) == list(cls._fields)
    assert repr(record).startswith(f"{cls.__qualname__}({cls._fields[0]}=")

    copy = cls(**values)
    assert copy == record and copy is not record
    twin = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(values, "object")})
    assert record != twin(**values) and twin(**values) != record
    assert record != tuple(values.values())

    if cls in MUTABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        setattr(record, cls._fields[0], getattr(record, cls._fields[0]))
        return
    try:
        hash(tuple(values.values()))
    except TypeError:  # a field holds a mapping, which has no hash
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(copy) == hash(record)
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert {name: getattr(record, name) for name in cls._fields} == values


@pytest.mark.parametrize("record, changes, message", [
    (default_scenario(), {"horizon_s": -1}, r"^horizon must be positive$"),
    (load_dmaic_config(None), {"top_k": 11}, r"^top_k: 11 is outside 1\.\.10"),
], ids=["scenario-horizon", "config-top-k"])
def test_a_replaced_copy_is_validated(record, changes, message):
    with pytest.raises(ConfigError, match=message):
        replace(record, **changes)


def test_a_record_is_built_from_its_fields_only():
    assert LinkSpec("d", "c", 10) == LinkSpec(a="d", b="c", latency_ms=10)
    with pytest.raises(TypeError, match="missing field 'latency_ms'"):
        LinkSpec(a="d", b="c")
    with pytest.raises(TypeError, match="no field 'speed'"):
        LinkSpec(a="d", b="c", latency_ms=10, speed=1)
    with pytest.raises(TypeError, match="two values for field 'a'"):
        LinkSpec("d", a="d", b="c", latency_ms=10)
    with pytest.raises(TypeError, match="has 4 fields, got 5 values"):
        LinkSpec("d", "c", 10, None, 1)


def test_the_program_starts_without_generating_code():
    # a dataclass compiles each of its methods with `exec`, and
    # `dataclasses` imports `inspect`: both cost start-up time
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, smartbizsim.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env={"PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
