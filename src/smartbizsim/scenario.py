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
from pathlib import Path

from .calendars import WorkWeek
from .errors import ConfigError, Record, parse_json, read, read_document
from .middleware import ControlLayerConfig, S9Config
from .timeline import SECONDS_PER_DAY, seconds_at

SITES = ("CityA", "CityB", "Truck")
INTENT_KINDS = ("voice_message", "create_reminder", "schedule_meeting")


class NodeSpec(Record):
    id: str
    kind: str  # SmartDevice | CloudService
    site: str | None = None
    backup_pool: tuple[str, ...] = ()


class LinkSpec(Record):
    a: str
    b: str
    latency_ms: int
    bandwidth_bps: int | None = None  # bytes per second; None = unconstrained

    @property
    def id(self) -> str:
        return f"{self.a}--{self.b}"


class AttendeeSpec(Record):
    id: str
    device: str
    busy: tuple[tuple[int, int], ...] = ()


class ReminderSpec(Record):
    id: str
    author: str
    target: str
    payload: str = ""
    at: int = 0


class FailureSpec(Record):
    node: str
    at: int
    duration_s: int


class TheftSpec(Record):
    node: str
    at: int


class CommandSpec(Record):
    at: int
    device: str
    user: str = ""
    credential: str = ""
    intent: str
    # intent parameters; meaning depends on the intent kind
    to: str | None = None
    payload: str = ""
    target: str | None = None
    attendees: tuple[str, ...] = ()
    duration_min: int = 0


class ScenarioConfig(Record):
    epoch: dt.date = dt.date(2024, 1, 1)
    horizon_s: int = 35 * SECONDS_PER_DAY
    seed: int = 42  # a provenance label: the engine never reads it
    nodes: tuple[NodeSpec, ...]
    links: tuple[LinkSpec, ...]
    attendees: tuple[AttendeeSpec, ...] = ()
    reminders: tuple[ReminderSpec, ...] = ()
    failures: tuple[FailureSpec, ...] = ()
    commands: tuple[CommandSpec, ...] = ()
    thefts: tuple[TheftSpec, ...] = ()
    working_hours: WorkWeek = WorkWeek()
    reminder_fire_time: dt.time = dt.time(9, 0)
    meeting_horizon_days: int = 30
    controls: ControlLayerConfig = ControlLayerConfig()

    def __post_init__(self) -> None:
        # Every instance is valid: parsed, built in code or a replace() copy.
        validate_scenario(self)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def parse_scenario(document: str, controls: object = {}) -> ScenarioConfig:
    """The scenario of a JSON document, with `controls`, a decoded JSON
    block such as a pipeline config's (only read), read over its own
    before it is built, so it is built and validated once."""
    data = parse_json(document, "scenario")
    block = data.pop("controls", {}) if type(data) is dict else {}  # no object: read rejects it
    own = read(ControlLayerConfig, block, at="controls")
    controls = read(ControlLayerConfig, controls, base=own, at="controls")
    return read(ScenarioConfig, data, given={"controls": controls})


def load_scenario(path: str | Path, controls: object = {}) -> ScenarioConfig:
    return parse_scenario(read_document(path, "scenario"), controls)


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
    # A declared node may not take the id `<device>-r<k>` that S17 gives
    # spare k = 1..backups_per_site of a device without a backup pool: spare
    # ids appear in deliveries and failovers. Digits are counted before they
    # are read, so no suffix is too long.
    spares = scenario.controls.s17.backups_per_site
    poolless = {d.id for d in devices if not d.backup_pool}
    for i, node_id in enumerate(node_ids):
        primary, _, k = node_id.rpartition("-r")
        if (
            primary in poolless and k.isascii() and k.isdigit() and k[0] != "0"
            and len(k) <= len(str(spares)) and int(k) <= spares
        ):
            raise ConfigError(
                f"nodes[{i}].id {node_id!r} is the id of S17 spare {k} of {primary!r}"
            )
    known = set(node_ids)
    key_ids = scenario.controls.s10.key_ids
    if key_ids:  # empty: every node gets a derived key
        for node_id in node_ids:
            _require(
                key_ids.get(node_id), f"controls.s10.key_ids gives node {node_id!r} no key id"
            )
        for key in key_ids:  # a misspelt node id would be ignored
            _require(key in known, f"controls.s10.key_ids.{key} names no declared node")
    device_ids = {d.id for d in devices}
    for node in scenario.nodes:
        for backup in node.backup_pool:
            _require(backup in known, f"backup {backup!r} of {node.id!r} is unknown")
            _require(
                backup in device_ids,
                f"backup {backup!r} of {node.id!r} is not a smart device",
            )
    # plain ifs in the loops over links, reminders and commands: they run
    # per entry and format a message only on failure
    neighbors: dict[str, dict[str, str]] = {node_id: {} for node_id in node_ids}
    # the engine keeps links by id, so a link whose id an earlier link
    # derives (`x--y` to `z` and `x` to `y--z`) would take its place
    link_index: dict[str, int] = {}
    for i, link in enumerate(scenario.links):
        if link.a not in known:
            raise ConfigError(f"link endpoint {link.a!r} is unknown")
        if link.b not in known:
            raise ConfigError(f"link endpoint {link.b!r} is unknown")
        if link.a == link.b:
            raise ConfigError(f"link {link.id!r} is a self-loop")
        if link.latency_ms < 0:
            raise ConfigError(f"link {link.id!r} has negative latency")
        if link.bandwidth_bps is not None and link.bandwidth_bps <= 0:
            raise ConfigError(f"link {link.id!r} has non-positive bandwidth")
        earlier = neighbors[link.a].get(link.b)
        if earlier is not None:
            raise ConfigError(
                f"links {earlier!r} and {link.id!r} join the same two nodes"
            )
        link_id = link.id
        j = link_index.setdefault(link_id, i)
        if j != i:
            first = scenario.links[j]
            raise ConfigError(
                f"links[{j}] ({first.a!r} to {first.b!r}) and links[{i}] "
                f"({link.a!r} to {link.b!r}) share the id {link_id!r}"
            )
        neighbors[link.a][link.b] = neighbors[link.b][link.a] = link_id
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
        raise ConfigError(f"device {unreached[0]!r} has no link path to the cloud")
    for attendee in scenario.attendees:
        # not the cloud: it sends the invitations and cannot message itself
        _require(
            attendee.device in device_ids,
            f"attendee {attendee.id!r} device {attendee.device!r} must be a smart device",
        )
    reminder_ids: set[str] = set()
    for i, reminder in enumerate(scenario.reminders):
        if reminder.id in reminder_ids:
            raise ConfigError(f"reminders[{i}].id {reminder.id!r} is a duplicate reminder id")
        reminder_ids.add(reminder.id)
        if reminder.at < 0:
            raise ConfigError(f"reminder {reminder.id!r} time must be >= 0")
        if reminder.author not in device_ids:
            raise ConfigError(f"reminder author {reminder.author!r} must be a smart device")
        if reminder.target not in device_ids:
            raise ConfigError(f"reminder target {reminder.target!r} must be a smart device")
    attendee_ids = {a.id for a in scenario.attendees}
    for command in scenario.commands:
        if command.intent not in INTENT_KINDS:
            raise ConfigError(f"unknown intent kind {command.intent!r}")
        if command.device not in device_ids:
            raise ConfigError(f"command device {command.device!r} must be a smart device")
        if command.at < 0:
            raise ConfigError(
                f"command time must be >= 0 (device {command.device!r}, at={command.at})"
            )
        if command.intent == "voice_message":
            if command.to not in known:
                raise ConfigError(f"voice message target {command.to!r} unknown")
            if command.to == command.device:
                raise ConfigError(
                    f"voice message from {command.device!r} is addressed to itself"
                )
        elif command.intent == "create_reminder":
            if command.target not in device_ids:
                raise ConfigError(
                    f"reminder target {command.target!r} must be a smart device"
                )
        elif command.intent == "schedule_meeting":
            if not command.attendees:
                raise ConfigError(
                    f"meeting (device {command.device!r}, at={command.at}) has no attendees"
                )
            for i, attendee in enumerate(command.attendees):
                if attendee not in attendee_ids:
                    raise ConfigError(f"meeting attendee {attendee!r} has no calendar")
                if attendee in command.attendees[:i]:
                    raise ConfigError(
                        f"meeting (device {command.device!r}, at={command.at}) "
                        f"names attendee {attendee!r} twice"
                    )
            if command.duration_min < 1:
                raise ConfigError("meeting duration must be >= 1 minute")
    for failure in scenario.failures:
        _require(failure.node in known, f"failure node {failure.node!r} unknown")
        _require(failure.at >= 0, "failure injection time must be >= 0")
        _require(failure.duration_s >= 0, "failure duration must be >= 0")
    for theft in scenario.thefts:
        _require(theft.node in known, f"theft node {theft.node!r} unknown")
        _require(theft.at >= 0, "theft time must be >= 0")
    _require(scenario.horizon_s > 0, "horizon must be positive")
    # A reminder due by the horizon is due again at the next month end,
    # which must be a date. Counted in whole days, so no date is built.
    last_due = seconds_at(scenario.epoch, dt.date.max, scenario.reminder_fire_time)
    if scenario.horizon_s >= last_due:
        raise ConfigError(
            f"horizon_s {scenario.horizon_s} reaches {dt.date.max} "
            f"{scenario.reminder_fire_time:%H:%M}, the last month end a reminder can fall due"
        )
    _require(
        scenario.meeting_horizon_days >= 1,
        f"meeting_horizon_days must be >= 1, got {scenario.meeting_horizon_days}",
    )
    hours = scenario.working_hours
    if hours.start >= hours.end:
        raise ConfigError(
            f"working_hours.start {hours.start:%H:%M} is not before "
            f"working_hours.end {hours.end:%H:%M}"
        )
    _require(len(hours.days) > 0, "working_hours.days names no day")
    for i, day in enumerate(hours.days):
        _require(0 <= day <= 6, f"working_hours.days[{i}] {day} is not a weekday 0..6")
        _require(
            day not in hours.days[:i], f"working_hours.days[{i}] {day} is a repeated day"
        )


def default_scenario(controls: object = {}) -> ScenarioConfig:
    """The two-branch delivery business: three devices, one cloud.

    `controls` is read over the built-in controls, as in `parse_scenario`.
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
    own = ControlLayerConfig(s9=S9Config(credential_store=credentials))
    return ScenarioConfig(
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
        controls=read(ControlLayerConfig, controls, base=own, at="controls"),
    )
