"""Scenario configuration: the declarative input to a simulation run.

A scenario is a JSON document describing the fixed world (nodes, links),
the people (attendees with calendars, credentials), the workload
(pre-parsed voice commands), disruptions (failure injections, theft
events) and the run horizon. The security layer parameters live in the
same file under "controls"; which layers are switched on is decided by
the caller (baseline vs secured runs reuse one scenario).
"""

from __future__ import annotations

import datetime as dt
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .calendars import WorkingHours
from .errors import InvalidScenario, ParseError, parse_json, read_document
from .middleware import ControlLayerConfig, S9Config
from .timeline import SECONDS_PER_DAY, parse_hhmm, parse_iso_date

SITES = ("CityA", "CityB", "Truck")
INTENT_KINDS = ("voice_message", "create_reminder", "schedule_meeting")


@dataclass(frozen=True)
class NodeSpec:
    id: str
    kind: str  # SmartDevice | CloudService
    site: str | None = None
    backup_pool: tuple[str, ...] = ()


@dataclass(frozen=True)
class LinkSpec:
    a: str
    b: str
    latency_ms: int
    bandwidth_bps: int | None = None  # bytes per second; None = unconstrained

    @property
    def id(self) -> str:
        return f"{self.a}--{self.b}"


@dataclass(frozen=True)
class AttendeeSpec:
    id: str
    device: str
    busy: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class ReminderSpec:
    id: str
    author: str
    target: str
    payload: str
    at: int = 0


@dataclass(frozen=True)
class FailureSpec:
    node: str
    at: int
    duration_s: int


@dataclass(frozen=True)
class TheftSpec:
    node: str
    at: int


@dataclass(frozen=True)
class CommandSpec:
    at: int
    device: str
    user: str
    credential: str
    intent: str
    # intent parameters; meaning depends on the intent kind
    to: str | None = None
    payload: str = ""
    target: str | None = None
    attendees: tuple[str, ...] = ()
    duration_min: int = 0


@dataclass(frozen=True)
class ScenarioConfig:
    epoch: dt.date
    horizon_s: int
    seed: int
    nodes: tuple[NodeSpec, ...]
    links: tuple[LinkSpec, ...]
    attendees: tuple[AttendeeSpec, ...] = ()
    reminders: tuple[ReminderSpec, ...] = ()
    failures: tuple[FailureSpec, ...] = ()
    commands: tuple[CommandSpec, ...] = ()
    thefts: tuple[TheftSpec, ...] = ()
    work_start: dt.time = dt.time(8, 0)
    work_end: dt.time = dt.time(18, 0)
    workdays: tuple[int, ...] = (0, 1, 2, 3, 4)
    reminder_fire_time: dt.time = dt.time(9, 0)
    meeting_horizon_days: int = 30
    controls: ControlLayerConfig = field(default_factory=ControlLayerConfig)

    def __post_init__(self) -> None:
        # Every instance is valid: parsed, built in code or a replace() copy.
        validate_scenario(self)

    def working_hours(self) -> WorkingHours:
        return WorkingHours(
            start_minute=self.work_start.hour * 60 + self.work_start.minute,
            end_minute=self.work_end.hour * 60 + self.work_end.minute,
            workdays=frozenset(self.workdays),
            epoch_weekday=self.epoch.weekday(),
        )

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch.isoformat(),
            "horizon_s": self.horizon_s,
            "seed": self.seed,
            "nodes": [asdict(n) for n in self.nodes],
            "links": [asdict(l) for l in self.links],
            # not asdict: it would copy each of thousands of busy intervals
            "attendees": [
                {"id": a.id, "device": a.device, "busy": a.busy} for a in self.attendees
            ],
            "reminders": [asdict(r) for r in self.reminders],
            "failures": [asdict(f) for f in self.failures],
            "commands": [_command_dict(c) for c in self.commands],
            "thefts": [asdict(t) for t in self.thefts],
            "working_hours": {
                "start": self.work_start.strftime("%H:%M"),
                "end": self.work_end.strftime("%H:%M"),
                "days": list(self.workdays),
            },
            "reminder_fire_time": self.reminder_fire_time.strftime("%H:%M"),
            "meeting_horizon_days": self.meeting_horizon_days,
            "controls": self.controls.to_dict(),
        }


def _command_dict(c: CommandSpec) -> dict:
    out = {
        "at": c.at,
        "device": c.device,
        "user": c.user,
        "credential": c.credential,
        "intent": c.intent,
    }
    if c.intent == "voice_message":
        out.update({"to": c.to, "payload": c.payload})
    elif c.intent == "create_reminder":
        out.update({"target": c.target, "payload": c.payload})
    elif c.intent == "schedule_meeting":
        out.update({"attendees": list(c.attendees), "duration_min": c.duration_min})
    return out


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidScenario(message)


def parse_scenario(document: str) -> ScenarioConfig:
    data = parse_json(document, "scenario")
    if not isinstance(data, dict):
        raise ParseError("scenario must be a JSON object")
    try:
        return _scenario_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidScenario(f"malformed scenario: {exc!r}") from exc


def _scenario_from_dict(data: dict) -> ScenarioConfig:
    nodes = tuple(
        NodeSpec(
            id=str(n["id"]),
            kind=str(n["kind"]),
            site=n.get("site"),
            backup_pool=tuple(n.get("backup_pool", ())),
        )
        for n in data.get("nodes", ())
    )
    links = tuple(
        LinkSpec(
            a=str(l["a"]),
            b=str(l["b"]),
            latency_ms=int(l["latency_ms"]),
            bandwidth_bps=(None if l.get("bandwidth_bps") is None else int(l["bandwidth_bps"])),
        )
        for l in data.get("links", ())
    )
    attendees = tuple(
        AttendeeSpec(
            id=str(a["id"]),
            device=str(a["device"]),
            busy=tuple((int(s), int(e)) for s, e in a.get("busy", ())),
        )
        for a in data.get("attendees", ())
    )
    reminders = tuple(
        ReminderSpec(
            id=str(r["id"]),
            author=str(r["author"]),
            target=str(r["target"]),
            payload=str(r.get("payload", "")),
            at=int(r.get("at", 0)),
        )
        for r in data.get("reminders", ())
    )
    failures = tuple(
        FailureSpec(node=str(f["node"]), at=int(f["at"]), duration_s=int(f["duration_s"]))
        for f in data.get("failures", ())
    )
    commands = tuple(
        CommandSpec(
            at=int(c["at"]),
            device=str(c["device"]),
            user=str(c.get("user", "")),
            credential=str(c.get("credential", "")),
            intent=str(c["intent"]),
            to=c.get("to"),
            payload=str(c.get("payload", "")),
            target=c.get("target"),
            attendees=tuple(c.get("attendees", ())),
            duration_min=int(c.get("duration_min", 0)),
        )
        for c in data.get("commands", ())
    )
    thefts = tuple(
        TheftSpec(node=str(t["node"]), at=int(t["at"]))
        for t in data.get("thefts", ())
    )
    wh = data.get("working_hours", {})
    return ScenarioConfig(
        epoch=parse_iso_date(str(data.get("epoch", "2024-01-01"))),
        horizon_s=int(data.get("horizon_s", 35 * SECONDS_PER_DAY)),
        seed=int(data.get("seed", 42)),
        nodes=nodes,
        links=links,
        attendees=attendees,
        reminders=reminders,
        failures=failures,
        commands=commands,
        thefts=thefts,
        work_start=parse_hhmm(str(wh.get("start", "08:00"))),
        work_end=parse_hhmm(str(wh.get("end", "18:00"))),
        workdays=tuple(int(d) for d in wh.get("days", (0, 1, 2, 3, 4))),
        reminder_fire_time=parse_hhmm(str(data.get("reminder_fire_time", "09:00"))),
        meeting_horizon_days=int(data.get("meeting_horizon_days", 30)),
        controls=ControlLayerConfig.from_dict(data.get("controls", {})),
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    return parse_scenario(read_document(path, "scenario"))


def validate_scenario(scenario: ScenarioConfig) -> None:
    """Structural checks, run by ScenarioConfig on construction."""
    node_ids = [n.id for n in scenario.nodes]
    _require(len(node_ids) == len(set(node_ids)), "duplicate node ids")
    devices = [n for n in scenario.nodes if n.kind == "SmartDevice"]
    clouds = [n for n in scenario.nodes if n.kind == "CloudService"]
    _require(
        len(devices) + len(clouds) == len(scenario.nodes),
        "node kind must be SmartDevice or CloudService",
    )
    _require(len(devices) >= 1, "scenario needs at least one smart device")
    _require(len(clouds) == 1, "scenario needs exactly one cloud service node")
    for device in devices:
        _require(
            device.site in SITES,
            f"device {device.id!r} has invalid site {device.site!r}",
        )
    known = set(node_ids)
    device_ids = {d.id for d in devices}
    for node in scenario.nodes:
        for backup in node.backup_pool:
            _require(backup in known, f"backup {backup!r} of {node.id!r} is unknown")
            _require(
                backup in device_ids,
                f"backup {backup!r} of {node.id!r} is not a smart device",
            )
    neighbors: dict[str, dict[str, str]] = {node_id: {} for node_id in node_ids}
    for link in scenario.links:
        _require(link.a in known, f"link endpoint {link.a!r} is unknown")
        _require(link.b in known, f"link endpoint {link.b!r} is unknown")
        _require(link.a != link.b, f"link {link.id!r} is a self-loop")
        _require(link.latency_ms >= 0, f"link {link.id!r} has negative latency")
        _require(
            link.bandwidth_bps is None or link.bandwidth_bps > 0,
            f"link {link.id!r} has non-positive bandwidth",
        )
        earlier = neighbors[link.a].get(link.b)
        if earlier is not None:
            raise InvalidScenario(
                f"links {earlier!r} and {link.id!r} join the same two nodes"
            )
        neighbors[link.a][link.b] = neighbors[link.b][link.a] = link.id
    # every device must reach the cloud: one walk from the cloud
    reached = {clouds[0].id}
    stack = [clouds[0].id]
    while stack:
        for neighbor in neighbors[stack.pop()]:
            if neighbor not in reached:
                reached.add(neighbor)
                stack.append(neighbor)
    unreached = [d.id for d in devices if d.id not in reached]
    if unreached:
        raise InvalidScenario(f"device {unreached[0]!r} has no link path to the cloud")
    for attendee in scenario.attendees:
        # not the cloud: it sends the invitations and cannot message itself
        _require(
            attendee.device in device_ids,
            f"attendee {attendee.id!r} device {attendee.device!r} must be a smart device",
        )
    reminder_ids: set[str] = set()
    for i, reminder in enumerate(scenario.reminders):
        _require(
            reminder.id not in reminder_ids,
            f"reminders[{i}].id {reminder.id!r} is a duplicate reminder id",
        )
        reminder_ids.add(reminder.id)
        _require(reminder.at >= 0, f"reminder {reminder.id!r} time must be >= 0")
        _require(
            reminder.author in device_ids,
            f"reminder author {reminder.author!r} must be a smart device",
        )
        _require(
            reminder.target in device_ids,
            f"reminder target {reminder.target!r} must be a smart device",
        )
    attendee_ids = {a.id for a in scenario.attendees}
    for command in scenario.commands:
        _require(
            command.intent in INTENT_KINDS, f"unknown intent kind {command.intent!r}"
        )
        _require(
            command.device in device_ids,
            f"command device {command.device!r} must be a smart device",
        )
        # plain ifs: these run per command and format only on failure
        if command.at < 0:
            raise InvalidScenario(
                f"command time must be >= 0 (device {command.device!r}, at={command.at})"
            )
        if command.intent == "voice_message":
            _require(command.to in known, f"voice message target {command.to!r} unknown")
            if command.to == command.device:
                raise InvalidScenario(
                    f"voice message from {command.device!r} is addressed to itself"
                )
        elif command.intent == "create_reminder":
            _require(
                command.target in device_ids,
                f"reminder target {command.target!r} must be a smart device",
            )
        elif command.intent == "schedule_meeting":
            for attendee in command.attendees:
                _require(
                    attendee in attendee_ids,
                    f"meeting attendee {attendee!r} has no calendar",
                )
            _require(command.duration_min >= 1, "meeting duration must be >= 1 minute")
    for failure in scenario.failures:
        _require(failure.node in known, f"failure node {failure.node!r} unknown")
        _require(failure.at >= 0, "failure injection time must be >= 0")
        _require(failure.duration_s >= 0, "failure duration must be >= 0")
    for theft in scenario.thefts:
        _require(theft.node in known, f"theft node {theft.node!r} unknown")
        _require(theft.at >= 0, "theft time must be >= 0")
    _require(scenario.horizon_s > 0, "horizon must be positive")


def default_scenario() -> ScenarioConfig:
    """The two-branch delivery business: three devices, one cloud.

    Spare devices are not part of the base world; the continuity layer
    provisions them when it is enabled.
    """
    day = SECONDS_PER_DAY
    credentials = {
        "finance-manager": "fm-pass-7391",
        "chief-of-department": "chief-pass-4502",
        "truck-driver": "driver-pass-8816",
    }
    commands: list[CommandSpec] = [
        # Day 2, 09:30 -- the finance manager sets up the month-end reminder.
        CommandSpec(
            at=1 * day + 9 * 3600 + 1800,
            device="dev-city-a",
            user="finance-manager",
            credential=credentials["finance-manager"],
            intent="create_reminder",
            target="dev-city-b",
            payload="release the time recordings before month end",
        ),
        # Day 3, 10:00 -- the chief calls a meeting about a customer complaint.
        CommandSpec(
            at=2 * day + 10 * 3600,
            device="dev-city-b",
            user="chief-of-department",
            credential=credentials["chief-of-department"],
            intent="schedule_meeting",
            attendees=("chief-of-department", "finance-manager", "truck-driver"),
            duration_min=60,
        ),
    ]
    # Daily dispatch traffic: the morning loading list and the afternoon
    # delivery confirmation both land on the City B device.
    for d in range(28):
        commands.append(
            CommandSpec(
                at=d * day + 8 * 3600 + 300,
                device="dev-city-a",
                user="finance-manager",
                credential=credentials["finance-manager"],
                intent="voice_message",
                to="dev-city-b",
                payload=f"loading list day {d + 1}",
            )
        )
        commands.append(
            CommandSpec(
                at=d * day + 13 * 3600 + 1800,
                device="dev-truck",
                user="truck-driver",
                credential=credentials["truck-driver"],
                intent="voice_message",
                to="dev-city-b",
                payload=f"delivery confirmation day {d + 1}",
            )
        )
    commands.sort(key=lambda c: c.at)
    return ScenarioConfig(
        epoch=parse_iso_date("2024-01-01"),
        horizon_s=35 * day,
        seed=42,
        nodes=(
            NodeSpec(id="dev-city-a", kind="SmartDevice", site="CityA"),
            NodeSpec(id="dev-city-b", kind="SmartDevice", site="CityB"),
            NodeSpec(id="dev-truck", kind="SmartDevice", site="Truck"),
            NodeSpec(id="cloud", kind="CloudService"),
        ),
        links=(
            LinkSpec(a="dev-city-a", b="cloud", latency_ms=50),
            LinkSpec(a="dev-city-b", b="cloud", latency_ms=50),
            LinkSpec(a="dev-truck", b="cloud", latency_ms=80),
        ),
        attendees=(
            AttendeeSpec(id="finance-manager", device="dev-city-a"),
            AttendeeSpec(id="chief-of-department", device="dev-city-b"),
            AttendeeSpec(id="truck-driver", device="dev-truck"),
        ),
        # Day 10, 13:00-14:00: the City B device drops out, swallowing the
        # 13:30 delivery confirmation unless the continuity layer is on.
        failures=(FailureSpec(node="dev-city-b", at=9 * day + 13 * 3600, duration_s=3600),),
        commands=tuple(commands),
        controls=ControlLayerConfig(
            s9=S9Config(enabled=False, credential_store=credentials),
        ),
    )
