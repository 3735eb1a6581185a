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
import reprlib
from pathlib import Path

from .calendars import WorkWeek
from .errors import NON_NEGATIVE, ConfigError, Record, _at, decode, read, read_text
from .middleware import ControlLayerConfig, S9Config
from .timeline import SECONDS_PER_DAY, seconds_at

SITES = ("CityA", "CityB", "Truck")
# the `CommandSpec` fields each intent reads beside the five every command has
INTENT_PARAMS = {
    "voice_message": ("to", "payload"),
    "create_reminder": ("target", "payload"),
    "schedule_meeting": ("attendees", "duration_min"),
}


class NodeSpec(Record):
    id: str
    kind: str  # "SmartDevice" or "CloudService"
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


# per intent, the parameters it does not read, each of which must keep its default
_UNREAD = {intent: {name: vars(CommandSpec)[name] for name in CommandSpec._fields[5:]
                    if name not in params} for intent, params in INTENT_PARAMS.items()}


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


def parse_scenario(document: str, controls: object = {}, at: str = "") -> ScenarioConfig:
    """The scenario of a JSON document, with `controls`, a decoded JSON
    block such as a pipeline config's (only read), read over its own
    before it is built, so it is built and validated once. An error's path
    starts with `at`, or with `controls` where `controls` gave the value."""
    data = decode(document, at)
    block = data.pop("controls", {}) if type(data) is dict else {}  # no object: read rejects it
    own = read(ControlLayerConfig, block, at=f"{at}.controls")
    merged = read(ControlLayerConfig, controls, base=own, at="controls")
    try:
        return read(ScenarioConfig, data, given={"controls": merged})
    except ConfigError as exc:  # a key map `controls` gave is named in `controls`
        if merged.s10.key_ids is own.s10.key_ids or not exc.path.startswith(".controls"):
            _at(exc, at)
        raise


def load_scenario(path: str | Path, controls: object = {}, at: str = "") -> ScenarioConfig:
    return parse_scenario(read_text(path, at), controls, at)


# one wording per kind of rule, filled in by `_fault`
NOT_NODE = "{} is not a declared node"
NOT_DEVICE = "{} is not a smart device"
NOT_ATTENDEE = "{} is not an attendee"
NOT_READ = "is not read by a {} command"
POSITIVE = "must be a positive integer, got {}"


def _fault(path: str, problem: str, *values) -> ConfigError:
    """The error at `.<path>`: an id in full, a number as `read` spells one."""
    spelt = (reprlib.repr(v) if type(v) is int else repr(v) for v in values)
    return ConfigError(problem.format(*spelt), f".{path}")


def validate_scenario(scenario: ScenarioConfig) -> None:
    """Run by ScenarioConfig on construction: a plain if formats a fault only on failure."""
    nodes = scenario.nodes
    known, device_ids, clouds = set(), set(), []
    for i, node in enumerate(nodes):
        if node.id in known:
            raise _fault(f"nodes[{i}].id", "{} is a duplicate node id", node.id)
        known.add(node.id)
        if node.kind == "SmartDevice":
            if node.site not in SITES:
                raise _fault(f"nodes[{i}].site", "{} is not a site {}", node.site, SITES)
            device_ids.add(node.id)
        elif node.kind == "CloudService":
            clouds.append(node.id)
        else:
            raise _fault(f"nodes[{i}].kind", "{} is not a node kind {}", node.kind,
                         ("SmartDevice", "CloudService"))
    if not device_ids:
        raise _fault("nodes", "must declare at least one smart device, got 0")
    if len(clouds) != 1:
        raise _fault("nodes", "must declare exactly one cloud service, got {}", len(clouds))
    # A declared node may not take the id `<device>-r<k>` that S17 gives spare k =
    # 1..backups_per_site of a device without a backup pool (spare ids appear in deliveries
    # and failovers). Digits are counted before they are read, so no suffix is too long.
    spares = scenario.controls.s17.backups_per_site
    poolless = {n.id for n in nodes if n.id in device_ids and not n.backup_pool}
    for i, node in enumerate(nodes):
        primary, _, k = node.id.rpartition("-r")
        if (primary in poolless and k.isascii() and k.isdigit() and k[0] != "0"
                and len(k) <= len(str(spares)) and int(k) <= spares):
            raise _fault(f"nodes[{i}].id", "{} is the id of S17 spare {} of {}",
                         node.id, int(k), primary)
        for j, backup in enumerate(node.backup_pool):
            if backup not in device_ids:
                raise _fault(f"nodes[{i}].backup_pool[{j}]", NOT_DEVICE, backup)
    key_ids = scenario.controls.s10.key_ids
    if key_ids:  # empty: every node gets a derived key
        for node in nodes:
            if not key_ids.get(node.id):
                raise _fault(f"controls.s10.key_ids.{node.id}", "no key id for node {}", node.id)
        for key in key_ids:  # a misspelt node id would be ignored
            if key not in known:
                raise _fault(f"controls.s10.key_ids.{key}", NOT_NODE, key)
    # a link's index under each of its ends; the engine keeps links by id, so a
    # link whose id an earlier link derives (`x--y` to `z` and `x` to `y--z`) would take its place
    neighbors: dict[str, dict[str, int]] = {node_id: {} for node_id in known}
    link_index: dict[str, int] = {}
    for i, link in enumerate(scenario.links):
        if link.a not in known:
            raise _fault(f"links[{i}].a", NOT_NODE, link.a)
        if link.b not in known:
            raise _fault(f"links[{i}].b", NOT_NODE, link.b)
        if link.a == link.b:
            raise _fault(f"links[{i}]", "{} is a self-loop", link.id)
        if link.latency_ms < 0:
            raise _fault(f"links[{i}].latency_ms", NON_NEGATIVE, link.latency_ms)
        if link.bandwidth_bps is not None and link.bandwidth_bps < 1:
            raise _fault(f"links[{i}].bandwidth_bps", POSITIVE, link.bandwidth_bps)
        j = neighbors[link.a].get(link.b)
        if j is not None:
            raise _fault(f"links[{i}]", "{} joins the same two nodes as links[{}]", link.id, j)
        j = link_index.setdefault(link.id, i)
        if j != i:
            raise _fault(f"links[{i}]", "{} is also the id of links[{}]", link.id, j)
        neighbors[link.a][link.b] = neighbors[link.b][link.a] = i
    # every device must reach the cloud: one walk from it
    reached, stack = set(clouds), list(clouds)
    while stack:
        for neighbor in neighbors[stack.pop()]:
            if neighbor not in reached:
                reached.add(neighbor)
                stack.append(neighbor)
    for i, node in enumerate(nodes):
        if node.id not in reached:
            raise _fault(f"nodes[{i}]", "{} has no link path to the cloud", node.id)
    attendee_ids, reminder_ids = set(), set()
    for i, attendee in enumerate(scenario.attendees):
        # the world keeps one calendar per id: a second would replace the first
        if attendee.id in attendee_ids:
            raise _fault(f"attendees[{i}].id", "{} is a duplicate attendee id", attendee.id)
        attendee_ids.add(attendee.id)
        # not the cloud: it sends the invitations and cannot message itself
        if attendee.device not in device_ids:
            raise _fault(f"attendees[{i}].device", NOT_DEVICE, attendee.device)
        for j, (start, end) in enumerate(attendee.busy):
            if start >= end:
                raise _fault(f"attendees[{i}].busy[{j}]", "{} is not before {}", start, end)
    for i, reminder in enumerate(scenario.reminders):
        if reminder.id in reminder_ids:
            raise _fault(f"reminders[{i}].id", "{} is a duplicate reminder id", reminder.id)
        reminder_ids.add(reminder.id)
        if reminder.at < 0:
            raise _fault(f"reminders[{i}].at", NON_NEGATIVE, reminder.at)
        if reminder.author not in device_ids:
            raise _fault(f"reminders[{i}].author", NOT_DEVICE, reminder.author)
        if reminder.target not in device_ids:
            raise _fault(f"reminders[{i}].target", NOT_DEVICE, reminder.target)
    for i, command in enumerate(scenario.commands):
        if command.intent not in INTENT_PARAMS:
            raise _fault(f"commands[{i}].intent", "{} is not an intent {}", command.intent,
                         tuple(INTENT_PARAMS))
        if command.device not in device_ids:
            raise _fault(f"commands[{i}].device", NOT_DEVICE, command.device)
        if command.at < 0:
            raise _fault(f"commands[{i}].at", NON_NEGATIVE, command.at)
        if command.intent == "voice_message":
            if command.to not in known:
                raise _fault(f"commands[{i}].to", NOT_NODE, command.to)
            if command.to == command.device:
                raise _fault(f"commands[{i}].to", "{} is the command's own device", command.to)
        elif command.intent == "create_reminder":
            if command.target not in device_ids:
                raise _fault(f"commands[{i}].target", NOT_DEVICE, command.target)
        else:  # schedule_meeting
            if not command.attendees:
                raise _fault(f"commands[{i}].attendees", "names no attendee")
            for j, attendee in enumerate(command.attendees):
                if attendee not in attendee_ids:
                    raise _fault(f"commands[{i}].attendees[{j}]", NOT_ATTENDEE, attendee)
                if attendee in command.attendees[:j]:
                    raise _fault(f"commands[{i}].attendees[{j}]", "{} is a duplicate attendee",
                                 attendee)
            if command.duration_min < 1:
                raise _fault(f"commands[{i}].duration_min", POSITIVE, command.duration_min)
        for name, default in _UNREAD[command.intent].items():
            if getattr(command, name) != default:
                raise _fault(f"commands[{i}].{name}", NOT_READ, command.intent)
    for i, failure in enumerate(scenario.failures):
        if failure.node not in known:
            raise _fault(f"failures[{i}].node", NOT_NODE, failure.node)
        if failure.at < 0:
            raise _fault(f"failures[{i}].at", NON_NEGATIVE, failure.at)
        if failure.duration_s < 0:
            raise _fault(f"failures[{i}].duration_s", NON_NEGATIVE, failure.duration_s)
    for i, theft in enumerate(scenario.thefts):
        if theft.node not in known:
            raise _fault(f"thefts[{i}].node", NOT_NODE, theft.node)
        if theft.at < 0:
            raise _fault(f"thefts[{i}].at", NON_NEGATIVE, theft.at)
    if scenario.horizon_s < 1:
        raise _fault("horizon_s", POSITIVE, scenario.horizon_s)
    # A reminder due by the horizon is due again at the next month end,
    # which must be a date. Counted in whole days, so no date is built.
    fire = scenario.reminder_fire_time
    if scenario.horizon_s >= seconds_at(scenario.epoch, dt.date.max, fire):
        raise _fault("horizon_s", f"{{}} reaches {dt.date.max} {fire:%H:%M}, the last month end "
                     "a reminder can fall due", scenario.horizon_s)
    if scenario.meeting_horizon_days < 1:
        raise _fault("meeting_horizon_days", POSITIVE, scenario.meeting_horizon_days)
    hours = scenario.working_hours
    if hours.start >= hours.end:
        raise _fault("working_hours.start", f"{hours.start:%H:%M} is not before "
                     f"working_hours.end {hours.end:%H:%M}")
    if not hours.days:
        raise _fault("working_hours.days", "names no day")
    for i, day in enumerate(hours.days):
        if not 0 <= day <= 6:
            raise _fault(f"working_hours.days[{i}]", "{} is not a weekday 0..6", day)
        if day in hours.days[:i]:
            raise _fault(f"working_hours.days[{i}]", "{} is a duplicate weekday", day)


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
