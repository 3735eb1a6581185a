"""Every record class keeps the contract its callers rely on: its fields
in order, frozen, equality and hash by its fields, and a validated copy
from `errors.replace`. None of it is generated, so the program starts
without `dataclasses` or `inspect` and reads its documents without
`exec`. However a record is built, by its class, by `replace` or by the
reader, its fields are set the same way, so it costs the same memory."""

import json
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from helpers import document
from smartbizsim import errors

from smartbizsim.calendars import WorkWeek
from smartbizsim.controls import (
    ChangeLevel,
    ControlCatalog,
    ControlSection,
    ActionLibrary,
    MitigationAction,
)
from smartbizsim.costs import (
    CostRates,
    CostReport,
    DmaicConfig,
    Provenance,
    SectionCost,
    load_dmaic_config,
)
from smartbizsim.errors import ConfigError, NonNegative, Record, replace
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
    ControlSection: ("id", "name", "change_level"),
    ControlCatalog: ("sections",),
    MitigationAction: ("id", "control", "description"),
    ActionLibrary: ("actions",),
    CostRates: ("capital_item", "operational_event", "latency_ms", "wire_byte", "session"),
    SectionCost: ("capital", "operational", "performance"),
    DmaicConfig: ("risk_catalog", "control_catalog", "mapping", "action_library",
                  "scenario", "rates", "top_k", "residual_factor"),
    CostReport: ("baseline", "secured", "cost_breakdown", "total_security_cost",
                 "residual_ranking", "provenance"),
    Provenance: ("seed", "config_digest"),
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

SAMPLES = {
    WorkWeek: WorkWeek,
    ControlSection: lambda: ControlSection(id="S9", name="Access", change_level=ChangeLevel.LOW),
    ControlCatalog: lambda: ControlCatalog(sections=()),
    MitigationAction: lambda: MitigationAction(id="A1", control="S9"),
    ActionLibrary: lambda: ActionLibrary(actions=()),
    CostRates: CostRates,
    SectionCost: lambda: SectionCost(capital=1, operational=2, performance=3),
    DmaicConfig: lambda: load_dmaic_config(None),
    CostReport: lambda: CostReport(
        baseline=MetricSet(), secured=MetricSet(), cost_breakdown={},
        total_security_cost=0,
        residual_ranking=RiskAssessment(risks=(), scores={}, ranking=()),
        provenance=Provenance(seed=42, config_digest="0" * 64),
    ),
    Provenance: lambda: Provenance(seed=42, config_digest="0" * 64),
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
    assert NonNegative._fields == ()  # the one base without fields: it has no sample
    assert program - {NonNegative} == set(FIELDS) == set(SAMPLES)


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
    (default_scenario(), {"horizon_s": -1}, r"^horizon_s: must be a positive integer, got -1$"),
    (load_dmaic_config(None), {"top_k": 11}, r"^top_k: 11 is outside 1\.\.10"),
], ids=["scenario-horizon", "config-top-k"])
def test_a_replaced_copy_is_validated(record, changes, message):
    with pytest.raises(ConfigError, match=message):
        replace(record, **changes)


def test_a_record_is_built_from_its_fields_only():
    assert LinkSpec(a="d", b="c", latency_ms=10).latency_ms == 10
    with pytest.raises(TypeError):  # by keyword only
        LinkSpec("d", "c", 10)
    with pytest.raises(TypeError, match="missing field 'latency_ms'"):
        LinkSpec(a="d", b="c")
    with pytest.raises(TypeError, match="no field 'speed'"):
        LinkSpec(a="d", b="c", latency_ms=10, speed=1)
    # a copy is built field by field, in order, like the rest
    link = LinkSpec(a="d", b="c", latency_ms=10)
    copied = replace(link, latency_ms=20)
    for record in (link, copied):
        assert list(vars(record)) == list(LinkSpec._fields)
    assert (copied.latency_ms, copied.a) == (20, "d")


# Bytes per record of three batches of commands: read from a document,
# built by the class, then read again, in one fresh interpreter.
_BYTES_PER_RECORD = """
import tracemalloc
from smartbizsim.errors import read
from smartbizsim.scenario import CommandSpec

COUNT = 2000
docs = [{"at": 10**6 + i, "device": "d", "intent": "voice_message", "to": "c",
         "payload": "p"} for i in range(3 * COUNT)]
batches = docs[:COUNT], docs[COUNT:2 * COUNT], docs[2 * COUNT:]
read(CommandSpec, docs[0]), CommandSpec(**docs[0])  # build the reader first
kept = []
tracemalloc.start()
for build, batch in zip(
    (lambda doc: read(CommandSpec, doc), lambda doc: CommandSpec(**doc),
     lambda doc: read(CommandSpec, doc)),
    batches,
):
    before = tracemalloc.get_traced_memory()[0]
    kept.append([build(doc) for doc in batch])
    print((tracemalloc.get_traced_memory()[0] - before) / COUNT)
"""


def test_a_record_costs_the_same_memory_however_it_is_built():
    done = subprocess.run(
        [sys.executable, "-c", _BYTES_PER_RECORD],
        env={"PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    read_first, built, read_after = map(float, done.stdout.split())
    for size in (built, read_after):
        assert abs(size - read_first) <= 0.1 * read_first, (read_first, built, read_after)


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


def test_reading_documents_generates_no_code(tmp_path):
    scenario = document(default_scenario())
    scenario["nodes"][0]["backup_pool"] = ["dev-truck"]
    scenario["links"][0]["bandwidth_bps"] = 1000
    scenario["attendees"][0]["busy"] = [[0, 3600], [7200, 9000]]
    scenario["reminders"] = [{"id": "r1", "author": "dev-city-a", "target": "dev-city-b",
                              "payload": "call back", "at": 100}]
    scenario["thefts"] = [{"node": "dev-truck", "at": 500}]
    assert scenario["failures"] and scenario["controls"]
    assert {c["intent"] for c in scenario["commands"]} == {
        "voice_message", "create_reminder", "schedule_meeting"}
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    (tmp_path / "pipeline.json").write_text(json.dumps({"scenario": "scenario.json"}))
    # patched only here: importing a module runs its code with `exec`
    with mock.patch.dict(errors._READERS, clear=True), \
            mock.patch("builtins.exec", side_effect=AssertionError("exec called")) as exec_:
        config = load_dmaic_config(tmp_path / "pipeline.json")
        built = set(errors._READERS)
    assert not exec_.called
    assert config.scenario.thefts == (TheftSpec(node="dev-truck", at=500),)
    assert {NodeSpec, LinkSpec, AttendeeSpec, ReminderSpec, FailureSpec, TheftSpec,
            CommandSpec, ControlLayerConfig} <= built
