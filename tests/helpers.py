"""Shared test fixtures: independent oracles and scenario builders.

The oracles deliberately use different mechanics than the code under
test (minute grids instead of interval walks, day-by-day enumeration
instead of month arithmetic, flat product lists instead of structured
breakdowns) so agreement actually means something.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import importlib.util
import io
import itertools
import json
import os
import random
import re
import reprlib
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from documents import EXIT, ROWS
from smartbizsim.calendars import WorkWeek
from smartbizsim.cli import main
from smartbizsim.costs import CostRates, CostReport, DmaicConfig, run_dmaic
from smartbizsim.errors import ConfigError, canonical_json, parse_iso_date, replace
from smartbizsim.metering import Meter, SectionUsage
from smartbizsim.middleware import ControlLayerConfig, S9Config, S10Config, S17Config
from smartbizsim.scenario import (
    CommandSpec,
    FailureSpec,
    LinkSpec,
    NodeSpec,
    ReminderSpec,
    ScenarioConfig,
)
from smartbizsim.timeline import MINUTES_PER_DAY, month_end, seconds_at
from smartbizsim.trace import ndjson
from smartbizsim.world import World


# -- runs and their records -------------------------------------------------------


def run(scenario: ScenarioConfig, enabled=(), until: int | None = None
        ) -> tuple[World, list[dict]]:
    """A world built on `scenario` with `enabled` on, run to `until` (the
    horizon when None), and the list its trace streams every record to, as
    the CLI's runs stream theirs. Running the world further adds to it."""
    records: list[dict] = []
    world = World(scenario, enabled, records.extend)
    world.run_until(scenario.horizon_s if until is None else until)
    return world, records


def by_kind(records, kind: str) -> list[dict]:
    """The records of one kind, in trace order."""
    return [r for r in records if r["kind"] == kind]


def message_records(records) -> dict[int, dict]:
    """msg_id -> its records, read from the trace alone.

    Each entry holds the `sent` record and, once the message is settled,
    its `delivered` or `lost` record, plus `status`: "InFlight",
    "Delivered" or "Lost". Entries are in send order.
    """
    messages = {}
    for record in records:
        kind = record["kind"]
        if kind == "sent":
            messages[record["msg_id"]] = {"sent": record, "status": "InFlight"}
        elif kind in ("delivered", "lost"):
            entry = messages[record["msg_id"]]
            entry[kind] = record
            entry["status"] = kind.capitalize()
    return messages


class TapObservation(NamedTuple):
    msg_id: int
    time: int
    visibility: str  # "Plaintext" or "Opaque"
    observed_bytes: int


def tap(link_id: str, links, records) -> list[TapObservation]:
    """What a wiretap on one of `links` sees: every message whose `sent`
    record's path crosses it. Unwrapped traffic is Plaintext (payload
    readable); enveloped traffic is Opaque (marker and sizes only)."""
    if link_id not in links:
        raise KeyError(f"unknown link {link_id!r}")
    return [
        TapObservation(
            record["msg_id"],
            record["time"],
            "Opaque" if record["wrapped"] else "Plaintext",
            record["wire_bytes"],
        )
        for record in by_kind(records, "sent")
        if link_id in record["path"]
    ]


class RecordingMeter(Meter):
    """A Meter that also keeps every record it is fed, in trace order."""

    def __init__(self) -> None:
        super().__init__()
        self.records: list[dict] = []

    def feed(self, records: list[dict]) -> None:
        self.records.extend(records)
        super().feed(records)

    def __iter__(self):
        return iter(self.records)

    def to_ndjson(self) -> str:
        """The records as the CLI writes them to a trace file."""
        return ndjson(self.records)


def recorded_dmaic(config: DmaicConfig) -> tuple[CostReport, RecordingMeter, RecordingMeter]:
    """`run_dmaic` with the baseline and secured traces kept."""
    sinks = {"baseline": RecordingMeter(), "secured": RecordingMeter()}
    return run_dmaic(config, sinks), sinks["baseline"], sinks["secured"]


# -- earliest-slot oracle -----------------------------------------------------


def minute_scan_slot(
    busy_lists: list[list[tuple[int, int]]],
    duration: int,
    search_from: int,
    horizon: int,
    week: WorkWeek,
    epoch_weekday: int,
) -> int | None:
    """Exhaustive scan over every candidate start minute.

    Returns the earliest valid start, or None when nothing fits. A start
    is valid when every minute of the slot is a working minute and busy
    in no calendar.
    """
    ok = bytearray(horizon)  # one byte a minute: 1 free to meet, 0 not

    def mark(start: int, end: int, byte: bytes) -> None:
        start, end = max(start, 0), min(end, horizon)
        if start < end:
            ok[start:end] = byte * (end - start)

    for day in range(horizon // MINUTES_PER_DAY + 1):
        if (epoch_weekday + day) % 7 in week.days:
            midnight = day * MINUTES_PER_DAY
            mark(midnight + week.start.hour * 60 + week.start.minute,
                 midnight + week.end.hour * 60 + week.end.minute, b"\x01")
    for busy in busy_lists:
        for start, end in busy:
            mark(start, end, b"\x00")
    cumulative = list(itertools.accumulate(ok, initial=0))
    for start in range(max(search_from, 0), horizon - duration + 1):
        if cumulative[start + duration] - cumulative[start] == duration:
            return start
    return None


def overlaps_busy(busy: list[tuple[int, int]], start: int, end: int) -> bool:
    """Whether [start, end) shares a minute with any busy interval."""
    return any(bs < end and be > start for bs, be in busy)


def random_slot_instance(rng: random.Random) -> dict:
    """One randomized scheduling problem: 3 calendars, <=20 busy blocks
    each, 30-day horizon."""
    horizon = 30 * MINUTES_PER_DAY
    busy_lists = []
    for _ in range(3):
        blocks = []
        for _ in range(rng.randint(0, 20)):
            start = rng.randrange(0, horizon)
            length = rng.randint(15, 480)
            blocks.append((start, min(start + length, horizon)))
        busy_lists.append(blocks)
    return {
        "busy_lists": busy_lists,
        "duration": rng.choice((15, 30, 45, 60, 90, 120, 240, 480)),
        "search_from": rng.randrange(0, horizon - 600),
        "horizon": horizon,
        "week": WorkWeek(),
        "epoch_weekday": rng.randrange(7),
    }


# -- month-end oracle ---------------------------------------------------------


def month_end_dates_by_enumeration(start: dt.date, end: dt.date) -> list[dt.date]:
    """Walk every single day; a month-end is a day whose successor starts
    a new month."""
    out = []
    day = start
    while day <= end:
        if (day + dt.timedelta(days=1)).month != day.month:
            out.append(day)
        day += dt.timedelta(days=1)
    return out


def end_of_month_instants(
    start: dt.date,
    end: dt.date,
    fire_time: dt.time,
    epoch: dt.date,
) -> list[int]:
    """One instant per calendar month-end date inside [start, end].

    Instants are seconds since the epoch at the month-end's fire time;
    month lengths and leap years are respected.
    """
    if start > end:
        raise ConfigError(f"date range is reversed: {start} > {end}")
    instants = []
    year, month = start.year, start.month
    while (year, month) <= (end.year, end.month):
        eom = month_end(year, month)
        if start <= eom <= end:
            instants.append(seconds_at(epoch, eom, fire_time))
        year, month = (year + 1, 1) if month == 12 else (year, month + 1)
    return instants


def generated_reminder_id(registered: list[str], declared: set[str]) -> str:
    """The id a world gives a reminder registered without one, by the rule
    written out: count up from one past the number of reminders registered
    so far to the first `rem-<n>` that is neither registered nor declared
    by the scenario. Not a counter: the count starts afresh each time."""
    taken = set(registered) | declared
    return next(
        f"rem-{n}" for n in itertools.count(len(registered) + 1) if f"rem-{n}" not in taken
    )


# -- documents -------------------------------------------------------------------


def document(value):
    """`value` as the program writes it, decoded: plain dicts and lists."""
    return json.loads(canonical_json(value))


def run_main(argv, files: dict) -> tuple[int, str, str, list[str]]:
    """`cli.main(argv)` in a fresh working directory that holds `files`
    (relative path -> text or bytes): its exit code, stdout, stderr and
    the relative path of everything the directory holds after it."""
    with tempfile.TemporaryDirectory() as tmp:
        for rel, text in files.items():
            Path(tmp, rel).write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        stdout, stderr, cwd = io.StringIO(), io.StringIO(), os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(list(argv))
        finally:
            os.chdir(cwd)
        left = sorted(path.relative_to(tmp).as_posix() for path in Path(tmp).rglob("*"))
    return code, stdout.getvalue(), stderr.getvalue(), left


def rejected(rows):
    """A test that each row of `documents.ROWS` named by `rows` (a row name, or
    test id -> its row or rows) exits 2 with its one stderr line, an empty
    stdout and nothing written beside its input files."""
    def test(names):
        for name in names:
            row = ROWS[name]
            assert run_main(row.argv, row.files) == (EXIT, "", row.line + "\n", sorted(row.files))
    if isinstance(rows, str):
        return lambda: test([rows])
    return pytest.mark.parametrize(
        "names", [[v] if isinstance(v, str) else v for v in rows.values()], ids=list(rows))(test)


# -- error paths -------------------------------------------------------------------

# the keys of a pipeline config that name a document, and the `dmaic` flags that set them
REFERENCES = ("risk_catalog", "control_catalog", "mapping", "action_library", "scenario")
_DMAIC_FLAGS = {"--catalog": "risk_catalog", "--scenario": "scenario"}
_ROOT_FLAGS = {"simulate": "--scenario", "assess": "--catalog", "report": "--in"}
# a fault of the file itself: it names the key that names the file
_FILE_FAULT = re.compile(r"cannot read |not valid JSON: ")
_SEGMENT = re.compile(r"\[(\d+)\]|\.?([^.\[]+)")
ABSENT = object()  # the value at a path whose last key the object lacks


def _flag(argv, name: str) -> str | None:
    argv = list(argv)
    return argv[argv.index(name) + 1] if name in argv else None


def _decoded(files: dict, rel: str):
    text = files[rel]
    return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)


def resolve_error(argv, files: dict, line: str):
    """The value an input error's line names, and the problem it states.

    `line` is `error: `, perhaps a `[Step] ` label, then `<path>: <problem>`
    or, at the top of a document, the problem alone, which only the reader
    states there. The path is looked up in the input `files` of the
    command line `argv`: from the top of the `simulate --scenario` or
    `assess --catalog` document, or, for `dmaic`, from its config with the
    `--catalog` and `--scenario` flags set, each reference key followed
    into the document it names, unless the line is a fault of the file
    itself (`cannot read <file>: ...`, `not valid JSON: ...`): that
    names the reference key, whose value is the file's name. It asserts
    that the path is real:
    - a path to an absent key is real only for a problem that says
      nothing is there (`no ...`, `names no ...`), such as a field left
      to its empty default;
    - `missing field 'k'` names an object that lacks `k`;
    - a problem that ends in `got X` spells the value found as X (a count
      of a list's entries for `must declare`);
    - one that opens with a quoted id opens with the string found or the
      path's last key.
    """
    text = re.sub(r"^\[\w+\] ", "", line.removeprefix("error: "))
    head, sep, problem = text.partition(": ")
    if not sep or re.search(r"\s", head):
        head, problem = "", text
        # at the top only the reader finds a fault: no object, or a field left out
        assert problem.startswith(("expected ", "missing field ")), line
    if argv[0] == "dmaic":
        config = _flag(argv, "--config")
        value = {} if config is None else _decoded(files, config)
        if type(value) is dict:
            value.update({key: _flag(argv, flag) for flag, key in _DMAIC_FLAGS.items()
                          if flag in argv})
    else:
        value = _decoded(files, _flag(argv, _ROOT_FLAGS[argv[0]]))
    segments = [int(index) if index else key for index, key in _SEGMENT.findall(head)]
    references = REFERENCES if argv[0] == "dmaic" else ()
    for depth, segment in enumerate(segments):
        if type(value) is list and type(segment) is int and segment < len(value):
            value = value[segment]
        elif type(value) is dict and segment in value:
            value = value[segment]
            if (depth == 0 and segment in references and type(value) is str
                    and not _FILE_FAULT.match(problem)):
                value = _decoded(files, value)  # the document it names, beside the config
        else:
            assert type(value) is dict and depth == len(segments) - 1, (head, line)
            assert re.match("(names )?no ", problem), line
            return ABSENT, problem
    if _FILE_FAULT.match(problem):  # at the key that names the file, which holds its name
        assert len(segments) == 1 and segments[0] in references, line
        if problem.startswith("cannot read "):
            assert problem.startswith(f"cannot read {value}: "), line
    missing = re.fullmatch(r"missing field '(.+)'", problem)
    if missing:
        assert type(value) is dict and missing[1] not in value, line
    got = re.search(r", got (.+)$", problem)
    if got and problem.startswith("must declare "):
        assert type(value) is list and int(got[1]) <= len(value), line
    elif got:
        assert got[1] == reprlib.repr(value), (got[1], value, line)
    if type(value) is str and problem.startswith("'"):
        assert problem.startswith((f"{value!r} ", f"{segments[-1]!r} ")), (value, line)
    return value, problem


# -- tools -----------------------------------------------------------------------

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name: str):
    """`tools/<name>.py` as a fresh module. Its directory is on `sys.path`
    while it loads, since `identity` and `scale` import `bench_pairs` from
    beside them."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(TOOLS))
        spec.loader.exec_module(module)
    return module


# -- cost oracle ---------------------------------------------------------------


def naive_total_cost(enabled, rates: CostRates, usage: dict[str, SectionUsage]) -> int:
    """Spreadsheet-style recomputation: one flat list of quantity*rate
    products, summed."""
    products = []
    for section in enabled:
        used = usage.get(section, SectionUsage())
        products.append(used.capital_items * rates.capital_item)
        products.append(used.operational_events * rates.operational_event)
        products.append(used.extra_latency_ms * rates.latency_ms)
        products.append(used.extra_bytes * rates.wire_byte)
        products.append(used.sessions * rates.session)
    return sum(products)


# -- scenario builders ----------------------------------------------------------


def two_device_scenario(
    horizon_s: int = 90_000,
    message_times: tuple[int, ...] = (),
    failures: tuple[tuple[str, int, int], ...] = (),
    reminders: tuple[ReminderSpec, ...] = (),
    controls=None,
    epoch: str = "2024-01-01",
) -> ScenarioConfig:
    """Minimal world: device-a and device-b behind one cloud, 50 ms links.

    `message_times` sends device-a -> device-b at each instant;
    `failures` is (node, at, duration_s) triples.
    """
    commands = tuple(
        CommandSpec(
            at=t,
            device="device-a",
            user="operator",
            credential="op-pass",
            intent="voice_message",
            to="device-b",
            payload=f"ping {t}",
        )
        for t in message_times
    )
    return ScenarioConfig(
        epoch=parse_iso_date(epoch),
        horizon_s=horizon_s,
        seed=7,
        nodes=(
            NodeSpec(id="device-a", kind="SmartDevice", site="CityA"),
            NodeSpec(id="device-b", kind="SmartDevice", site="CityB"),
            NodeSpec(id="cloud", kind="CloudService"),
        ),
        links=(
            LinkSpec(a="device-a", b="cloud", latency_ms=50),
            LinkSpec(a="device-b", b="cloud", latency_ms=50),
        ),
        reminders=reminders,
        failures=tuple(FailureSpec(node=n, at=a, duration_s=d) for n, a, d in failures),
        commands=commands,
        controls=controls if controls is not None else ControlLayerConfig(),
    )


@st.composite
def scenarios(draw, max_devices: int = 29):
    """A random scenario in which every device reaches the cloud, some
    only through other devices. Send destinations, devices on the way and
    the cloud may fail around the time of the sends; every outage ends
    long before the horizon."""
    count = draw(st.integers(1, max_devices))
    devices = draw(st.permutations([f"d{k:02d}" for k in range(count)]))
    cloud = draw(st.sampled_from(["aa-cloud", "d05-cloud", "zz-cloud"]))
    nodes = [cloud] + devices
    links, joined = [], set()

    def join(a, b):
        joined.add(frozenset((a, b)))
        a, b = (a, b) if draw(st.booleans()) else (b, a)
        links.append(LinkSpec(a=a, b=b, latency_ms=draw(st.integers(0, 120))))

    for k, device in enumerate(devices):  # a random tree rooted at the cloud
        join(device, draw(st.sampled_from(nodes[: k + 1])))
    for a, b in draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
                              max_size=2 * count)):
        if a != b and frozenset((a, b)) not in joined:
            join(a, b)

    sends = draw(st.lists(
        st.tuples(st.sampled_from(devices), st.sampled_from(nodes)).filter(
            lambda pair: pair[0] != pair[1]
        ),
        max_size=12,
    ))
    commands = tuple(
        CommandSpec(at=60 * (k + 1), device=src, user="u", credential="c",
                    intent="voice_message", to=dst)
        for k, (src, dst) in enumerate(sends)
    )
    reminders = tuple(
        ReminderSpec(id=f"r{k}", author=devices[0], target=target, payload="p")
        for k, target in enumerate(draw(st.lists(st.sampled_from(devices), max_size=2)))
    )
    # each outage starts up to a minute before one send, so its delivery
    # falls inside it. It hits that send's destination (None), which with
    # S17 waits out the detection window, or any node, the cloud included,
    # which may lie on the way.
    failures = tuple(
        FailureSpec(node=sends[k][1] if node is None else node,
                    at=max(1, 60 * (k + 1) - lead), duration_s=duration)
        for k, node, lead, duration in draw(st.lists(
            st.tuples(st.integers(0, len(sends) - 1), st.none() | st.sampled_from(nodes),
                      st.integers(0, 59), st.integers(0, 600)),
            max_size=4,
        ))
    ) if sends else ()
    return ScenarioConfig(
        epoch=dt.date(2024, 1, 30),
        horizon_s=3 * 86_400,
        seed=1,
        nodes=tuple(NodeSpec(id=d, kind="SmartDevice", site="CityA") for d in devices)
        + (NodeSpec(id=cloud, kind="CloudService"),),
        links=tuple(links),
        commands=commands,
        reminders=reminders,
        failures=failures,
    )


@st.composite
def worlds(draw, max_devices: int = 29, all_layers: bool = False,
           with_s17: bool | None = None):
    """A world to build over `scenarios()`: the scenario and the sections
    it enables, the arguments of `run`. S17 is on as `with_s17` says, or
    as drawn when it is None; then each device, having no pool, has
    spares, which are names only: spare 1 may stand in for a receiver,
    and no message is sent to or from a spare. With `all_layers`, S9
    and S10 are drawn on or off too, and S9's credential store may
    accept, refuse or not know the scenario's user."""
    scenario = draw(scenarios(max_devices))
    if with_s17 is None:
        with_s17 = draw(st.booleans())
    enabled = {"S17"} if with_s17 else set()
    s17 = S17Config(backups_per_site=draw(st.integers(1, 2)),
                    detection_window_s=draw(st.integers(0, 600)))
    controls = ControlLayerConfig(s17=s17)
    if all_layers:
        if draw(st.booleans()):
            enabled.add("S9")
        s9 = S9Config(
            per_session_latency_ms=draw(st.integers(0, 50)),
            credential_store=draw(st.sampled_from([{"u": "c"}, {"u": "wrong"}, {}])),
        )
        if draw(st.booleans()):
            enabled.add("S10")
        s10 = S10Config(
            per_message_latency_ms=draw(st.integers(0, 20)),
            overhead_bytes=draw(st.integers(0, 128)),
        )
        controls = ControlLayerConfig(s9=s9, s10=s10, s17=s17)
    return replace(scenario, controls=controls), frozenset(enabled)


def multi_hop_scenario() -> ScenarioConfig:
    """Six devices where most routes have several hops and equal-length
    alternatives, so tie-breaks decide the path.

    dev-a reaches the cloud via dev-b or dev-c (two hops each), dev-d via
    dev-b or dev-c as well, and dev-f via dev-e (two hops) or via dev-d
    (three). The cheaper link often lies on the path the tie-break does
    not take. The cloud--dev-c link is declared cloud-first. A transit
    device (dev-d) and a leaf (dev-f) fail, so S17 fails the leaf over.
    """
    from smartbizsim.scenario import AttendeeSpec

    users = {
        "alice": ("dev-a", "alice-pass"),
        "bob": ("dev-b", "bob-pass"),
        "dora": ("dev-d", "dora-pass"),
        "finn": ("dev-f", "finn-pass"),
    }
    sends = [
        (3600, "alice", "dev-f"),
        (3700, "alice", "dev-d"),
        (3800, "finn", "dev-a"),
        (3900, "dora", "dev-e"),
        (4000, "bob", "dev-c"),
        (4100, "finn", "cloud"),
        (7300, "alice", "dev-f"),  # dev-f is down: S17 hands it to dev-f-r1
        (7400, "dora", "dev-b"),
        (7500, "finn", "dev-c"),  # crosses dev-d while it is down
        (9000, "bob", "dev-f"),
    ]
    commands = [
        CommandSpec(at=at, device=users[user][0], user=user,
                    credential=users[user][1], intent="voice_message",
                    to=to, payload=f"{user} to {to} at {at}")
        for at, user, to in sends
    ]
    commands.append(CommandSpec(
        at=5000, device="dev-d", user="dora", credential="wrong-pass",
        intent="voice_message", to="dev-a", payload="denied",
    ))
    commands.append(CommandSpec(
        at=5400, device="dev-a", user="alice", credential="alice-pass",
        intent="create_reminder", target="dev-f", payload="month end",
    ))
    commands.append(CommandSpec(
        at=6000, device="dev-f", user="finn", credential="finn-pass",
        intent="schedule_meeting", attendees=("alice", "dora", "finn"),
        duration_min=30,
    ))
    commands.sort(key=lambda c: c.at)
    return ScenarioConfig(
        epoch=parse_iso_date("2024-01-29"),
        horizon_s=4 * 86_400,
        seed=3,
        nodes=(
            NodeSpec(id="dev-a", kind="SmartDevice", site="CityA"),
            NodeSpec(id="dev-b", kind="SmartDevice", site="CityA"),
            NodeSpec(id="dev-c", kind="SmartDevice", site="CityB"),
            NodeSpec(id="dev-d", kind="SmartDevice", site="CityB"),
            NodeSpec(id="dev-e", kind="SmartDevice", site="Truck"),
            NodeSpec(id="dev-f", kind="SmartDevice", site="Truck"),
            NodeSpec(id="cloud", kind="CloudService"),
        ),
        links=(
            LinkSpec(a="dev-b", b="cloud", latency_ms=40),
            LinkSpec(a="cloud", b="dev-c", latency_ms=60),
            LinkSpec(a="dev-e", b="cloud", latency_ms=80),
            LinkSpec(a="dev-a", b="dev-c", latency_ms=5),
            LinkSpec(a="dev-a", b="dev-b", latency_ms=10),
            LinkSpec(a="dev-d", b="dev-c", latency_ms=15),
            LinkSpec(a="dev-d", b="dev-b", latency_ms=20),
            LinkSpec(a="dev-f", b="dev-e", latency_ms=30),
            LinkSpec(a="dev-f", b="dev-d", latency_ms=25, bandwidth_bps=2000),
        ),
        attendees=tuple(
            AttendeeSpec(id=user, device=device) for user, (device, _) in users.items()
        ),
        failures=(
            FailureSpec(node="dev-f", at=7200, duration_s=600),
            FailureSpec(node="dev-d", at=7450, duration_s=200),
        ),
        commands=tuple(commands),
        controls=ControlLayerConfig(
            s9=S9Config(credential_store={u: p for u, (_, p) in users.items()}),
        ),
    )
