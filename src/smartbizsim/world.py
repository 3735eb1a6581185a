"""Deterministic discrete-event simulation of the two-branch business.

The world advances on an integer-second event grid. Events at equal
times run in insertion order, all state changes land in the trace, and
nothing depends on wall-clock time or hash ordering, so a (scenario,
seed) pair always reproduces the same trace byte for byte.

The trace is the record of every message: its path, sizes, envelope,
delivery and latency split live in its `sent`, `delivered` and `lost`
records. `World.messages` holds only the messages still in flight.

Failure semantics: a Failed node cannot receive. Messages whose delivery
falls inside an outage are lost, unless the continuity layer (S17) is
enabled, in which case they wait for the failover switch and land on a
spare device. Sending from a failed node is not restricted; the model
cares about delivery exposure only.
"""

from __future__ import annotations

import base64
import heapq
from dataclasses import dataclass, replace
from typing import Callable

from . import middleware
from .calendars import Calendar, Slot, find_common_slot
from .errors import (
    AuthDenied,
    CloudUnavailable,
    InvalidScenario,
    MissingKey,
    NoRoute,
    NoSlotAvailable,
    UnknownAttendee,
    UnknownNode,
    UnknownUser,
)
from .middleware import ControlLayerConfig
from .scenario import CommandSpec, LinkSpec, ScenarioConfig
from .timeline import SECONDS_PER_DAY, next_month_end_instant
from .trace import Trace


@dataclass
class Node:
    id: str
    kind: str
    site: str | None
    backup_pool: tuple[str, ...] = ()
    fail_depth: int = 0
    key_id: str | None = None

    @property
    def up(self) -> bool:
        return self.fail_depth == 0


@dataclass
class Message:
    """A message in flight; its `sent` trace record holds everything else."""

    msg_id: int
    dst: str
    eta: int
    latency_ms: int  # link + S10 + S9; S17 adds the wait past `eta`
    on_delivered: tuple | None = None  # (intent, *args) for `World._request`


@dataclass
class Reminder:
    target: str
    payload: bytes


def shortest_path(
    neighbors: dict[str, dict[str, str]], src: str, dst: str
) -> tuple[str, ...] | None:
    """Link ids of the fewest-hop path from src to dst, or None.

    `neighbors` maps each node to {neighbor: link id} in sorted neighbor
    order. Ties go to the smallest sequence of node ids. The search is
    breadth-first, and each frontier node is asked for a link to dst
    before it is expanded: the first that has one is dst's parent, so a
    star's hub is never scanned.
    """
    if src == dst:
        return None
    frontier = [src]
    came_from: dict[str, tuple[str, str]] = {}
    seen = {src}
    while frontier:
        nxt = []
        for here in frontier:
            adjacent = neighbors[here]
            link_id = adjacent.get(dst)
            if link_id is not None:
                path = [link_id]
                while here != src:
                    here, link_id = came_from[here]
                    path.append(link_id)
                return tuple(reversed(path))
            for neighbor, link_id in adjacent.items():
                if neighbor not in seen:
                    seen.add(neighbor)
                    came_from[neighbor] = (here, link_id)
                    nxt.append(neighbor)
        frontier = nxt
    return None


class World:
    def __init__(
        self,
        scenario: ScenarioConfig,
        controls: ControlLayerConfig,
        sink: Callable[[list[dict]], None] | None = None,
    ):
        self.scenario = scenario
        self.config = controls
        self.epoch = scenario.epoch
        self.horizon_s = scenario.horizon_s
        self.clock = 0
        self.trace = Trace(sink)

        self.nodes: dict[str, Node] = {}
        for spec in scenario.nodes:
            self.nodes[spec.id] = Node(
                id=spec.id, kind=spec.kind, site=spec.site, backup_pool=spec.backup_pool
            )
        self.cloud_id = next(n.id for n in self.nodes.values() if n.kind == "CloudService")

        self.links: dict[str, LinkSpec] = {}
        # node -> {neighbor: link id}; validation allows one link per pair
        self._adjacency: dict[str, dict[str, str]] = {n: {} for n in self.nodes}
        for spec in scenario.links:
            self._add_link(spec)

        self._provision_backups()
        self._assign_keys()
        # sorted neighbors make route tie-breaks independent of link order
        self._adjacency = {
            node: dict(sorted(neighbors.items()))
            for node, neighbors in self._adjacency.items()
        }
        # (src, dst) -> shortest_path; links are only added above
        self._routes: dict[tuple[str, str], tuple[str, ...]] = {}

        self.calendars: dict[str, Calendar] = {}
        self.attendee_device: dict[str, str] = {}
        for att in scenario.attendees:
            self.calendars[att.id] = Calendar(owner=att.id, busy=list(att.busy))
            self.attendee_device[att.id] = att.device

        self.messages: dict[int, Message] = {}
        self.reminders: dict[str, Reminder] = {}
        self._next_msg_id = 1
        # (time, seq, handler method name, args): equal times run in
        # insertion order; names, not bound methods, so the world holds no
        # reference to itself
        self._queue: list[tuple[int, int, str, tuple]] = []
        self._event_seq = 0
        self._pending: dict[str, list[Message]] = {}
        # per-node failover bookkeeping: episode counter + activation state
        self._failover: dict[str, dict] = {}

        self._record_provisioning()
        for failure in scenario.failures:
            self.inject_failure(failure.node, failure.at, failure.duration_s)
        for command in scenario.commands:
            self._schedule(command.at, "_handle_command", command)
        for reminder in scenario.reminders:
            self._schedule(
                reminder.at, "_request", "create_reminder", reminder.author,
                reminder.target, reminder.payload.encode("utf-8"), reminder.id,
            )
        for theft in scenario.thefts:
            self._schedule(
                theft.at, "_record", "theft",
                dict(node=theft.node, guarded=self.config.s9.enabled),
            )
        if self.config.s9.enabled and self.config.s9.review_period_days > 0:
            period = self.config.s9.review_period_days * SECONDS_PER_DAY
            review = dict(section="S9", action="access-review", events=1)
            for t in range(period, self.horizon_s + 1, period):
                self._schedule(t, "_record", "ops", review)

    # -- construction helpers ------------------------------------------

    def _provision_backups(self) -> None:
        """S17 adds one spare per site for every device without a pool.

        Each spare gets a copy of the first link on its primary's route
        to the cloud, with the tie-break sends use. A spare is a leaf, so
        adding one changes no route between other nodes.
        """
        if not self.config.s17.enabled:
            return
        primaries = [
            n for n in list(self.nodes.values())
            if n.kind == "SmartDevice" and not n.backup_pool
        ]
        neighbors = {
            node: dict(sorted(adjacent.items()))
            for node, adjacent in self._adjacency.items()
        }
        for primary in sorted(primaries, key=lambda n: n.id):
            # validation guarantees every device a route to the cloud
            uplink = self.links[shortest_path(neighbors, primary.id, self.cloud_id)[0]]
            via = uplink.b if uplink.a == primary.id else uplink.a
            spares = []
            for k in range(1, self.config.s17.backups_per_site + 1):
                spare_id = f"{primary.id}-r{k}"
                if spare_id in self.nodes:
                    raise InvalidScenario(
                        f"cannot provision spare {spare_id!r}: id already taken"
                    )
                self.nodes[spare_id] = Node(
                    id=spare_id, kind="SmartDevice", site=primary.site
                )
                self._adjacency[spare_id] = {}
                self._add_link(replace(uplink, a=spare_id, b=via))
                spares.append(spare_id)
            primary.backup_pool = tuple(spares)

    def _add_link(self, link: LinkSpec) -> None:
        self.links[link.id] = link
        self._adjacency[link.a][link.b] = link.id
        self._adjacency[link.b][link.a] = link.id

    def _assign_keys(self) -> None:
        if not self.config.s10.enabled:
            return
        holders = [
            n for n in self.nodes.values()
            if n.kind in ("SmartDevice", "CloudService")
        ]
        given = dict(self.config.s10.key_ids)
        declared_ids = {n.id for n in self.scenario.nodes}
        for node in holders:
            if node.id in given:
                node.key_id = given[node.id]
            elif not given or node.id not in declared_ids:
                # empty map: derive everything; partial map: spares created
                # by this build still get derived keys
                node.key_id = f"k-{node.id}"
            else:
                raise InvalidScenario(
                    f"encryption enabled but node {node.id!r} has no key id"
                )

    def _record_provisioning(self) -> None:
        """Queue the capital and setup records for clock 0, by section.

        These are events rather than direct appends so a freshly built
        world always starts with an empty trace.
        """
        if self.config.s9.enabled:
            locks = sum(1 for n in self.nodes.values() if n.kind == "SmartDevice")
            self._schedule(
                0, "_record", "capital",
                dict(section="S9", item="device-lock", count=locks),
            )
        if self.config.s10.enabled:
            self._schedule(
                0, "_record", "ops",
                dict(section="S10", action="key-provisioning", events=1),
            )
        if self.config.s17.enabled:
            backups = len({m for n in self.nodes.values() for m in n.backup_pool})
            if backups:
                self._schedule(
                    0, "_record", "capital",
                    dict(section="S17", item="backup-device", count=backups),
                )

    # -- event machinery -----------------------------------------------

    def _schedule(self, time: int, handler: str, *args) -> None:
        heapq.heappush(self._queue, (time, self._event_seq, handler, args))
        self._event_seq += 1

    def _record(self, kind: str, fields: dict) -> None:
        self.trace.append(kind, self.clock, **fields)

    def run_until(self, t_end: int) -> "World":
        if t_end < self.clock:
            raise InvalidScenario(
                f"cannot run backwards: t_end {t_end} < clock {self.clock}"
            )
        while self._queue and self._queue[0][0] <= t_end:
            time, _, handler, args = heapq.heappop(self._queue)
            self.clock = time
            getattr(self, handler)(*args)
        self.clock = t_end
        self.trace.flush()
        return self

    # -- messaging -------------------------------------------------------

    def send_message(
        self,
        src: str,
        dst: str,
        payload: bytes,
        s9_ms: int = 0,
        on_delivered: tuple | None = None,
    ) -> int:
        """Send a message and queue its delivery; returns its msg_id.

        `on_delivered` is an (intent, *args) request that `_request`
        carries out when the message is delivered.
        """
        path = self._routes.get((src, dst))
        if path is None:
            if src not in self.nodes:
                raise UnknownNode(f"unknown sender {src!r}")
            if dst not in self.nodes:
                raise UnknownNode(f"unknown destination {dst!r}")
            path = shortest_path(self._adjacency, src, dst)
            if path is None:
                raise NoRoute(f"no link path from {src!r} to {dst!r}")
            self._routes[src, dst] = path

        msg_id = self._next_msg_id
        self._next_msg_id += 1

        wrapped = self.config.s10.enabled
        if wrapped:
            key = self.nodes[src].key_id
            if not key:
                raise MissingKey(f"node {src!r} holds no key id")
            content = middleware.wrap(payload, key, self.config, msg_id=msg_id)
        else:
            content = {"payload_b64": base64.b64encode(payload).decode("ascii")}

        size = len(payload)
        wire = size + (self.config.s10.overhead_bytes if wrapped else 0)
        link_ms = 0
        for link_id in path:
            link = self.links[link_id]
            link_ms += link.latency_ms
            if link.bandwidth_bps:
                link_ms += -(-wire * 1000 // link.bandwidth_bps)
        s10_ms = self.config.s10.per_message_latency_ms if wrapped else 0
        total_ms = link_ms + s10_ms + s9_ms
        eta = self.clock + -(-total_ms // 1000)  # round up to the second grid
        msg = Message(msg_id, dst, eta, total_ms, on_delivered)
        self.messages[msg_id] = msg

        self.trace.append(
            "sent",
            self.clock,
            msg_id=msg_id,
            src=src,
            dst=dst,
            size_bytes=size,
            wire_bytes=wire,
            wrapped=wrapped,
            path=path,  # the route table's tuple, shared by every send on it
            link_ms=link_ms,
            s10_ms=s10_ms,
            s9_ms=s9_ms,
            **content,
        )
        self._schedule(eta, "_handle_delivery", msg)
        return msg_id

    def _handle_delivery(self, msg: Message) -> None:
        node = self.nodes[msg.dst]
        if node.up:
            self._deliver(msg, msg.dst)
            return
        if self.config.s17.enabled:
            state = self._failover.get(msg.dst)
            if state is not None and not state["active"]:
                self._pending.setdefault(msg.dst, []).append(msg)
                return
            substitute = self._first_up_backup(msg.dst)
            if substitute is not None:
                self._deliver(msg, substitute)
            else:
                self._lose(msg, "pool-exhausted")
            return
        self._lose(msg, "node-failed")

    def _deliver(self, msg: Message, to: str) -> None:
        del self.messages[msg.msg_id]
        s17_ms = (self.clock - msg.eta) * 1000
        self.trace.append(
            "delivered",
            self.clock,
            msg_id=msg.msg_id,
            to=to,
            latency_ms=msg.latency_ms + s17_ms,
            s17_ms=s17_ms,
        )
        if msg.on_delivered is not None:
            self._request(*msg.on_delivered)

    def _lose(self, msg: Message, reason: str) -> None:
        del self.messages[msg.msg_id]
        self.trace.append("lost", self.clock, msg_id=msg.msg_id, reason=reason)

    # -- failures and failover -------------------------------------------

    def inject_failure(self, node_id: str, at: int, duration_s: int) -> None:
        if node_id not in self.nodes:
            raise UnknownNode(f"unknown node {node_id!r}")
        if at < self.clock:
            raise InvalidScenario(f"cannot inject a failure in the past (at={at})")
        self._schedule(at, "_fail_start", node_id)
        self._schedule(at + duration_s, "_fail_end", node_id)

    def _fail_start(self, node_id: str) -> None:
        node = self.nodes[node_id]
        node.fail_depth += 1
        if node.fail_depth > 1:
            return  # overlapping windows merge into one episode
        self.trace.append("failure", self.clock, node=node_id, phase="start")
        if self.config.s17.enabled:
            episode = self._failover.get(node_id, {}).get("episode", 0) + 1
            self._failover[node_id] = {"episode": episode, "active": False}
            self._schedule(
                self.clock + self.config.s17.detection_window_s,
                "_failover_activate", node_id, episode,
            )

    def _fail_end(self, node_id: str) -> None:
        node = self.nodes[node_id]
        node.fail_depth -= 1
        if node.fail_depth > 0:
            return
        self.trace.append("failure", self.clock, node=node_id, phase="end")
        # recovery beats a pending detection window: queued messages go
        # straight back to the recovered node
        for msg in self._pending.pop(node_id, []):
            self._deliver(msg, node_id)
        self._failover.pop(node_id, None)

    def _failover_activate(self, node_id: str, episode: int) -> str | None:
        state = self._failover.get(node_id)
        if state is None or state["episode"] != episode or state["active"]:
            return None  # stale timer: the node recovered or was handled
        if self.nodes[node_id].up:
            return None
        state["active"] = True
        substitute = self._first_up_backup(node_id)
        self.trace.append(
            "failover", self.clock, failed=node_id, substitute=substitute
        )
        self.trace.append(
            "ops", self.clock, section="S17", action="replacement-order", events=1
        )
        for msg in self._pending.pop(node_id, []):
            if substitute is not None:
                self._deliver(msg, substitute)
            else:
                self._lose(msg, "pool-exhausted")
        return substitute

    def activate_failover(self, node_id: str) -> str | None:
        """Switch delivery for a failed node to its first healthy spare now.

        Returns the substitute's node id, or None when the pool is
        exhausted (pending messages are then recorded as Lost). Inside a
        run the engine does this one detection window after a failure.
        """
        if not self.config.s17.enabled:
            raise InvalidScenario(
                "activate_failover() requires the S17 layer to be enabled"
            )
        if node_id not in self.nodes:
            raise UnknownNode(f"unknown node {node_id!r}")
        state = self._failover.get(node_id)
        if state is None:
            episode = 1
            self._failover[node_id] = {"episode": episode, "active": False}
        elif state["active"]:
            return self._first_up_backup(node_id)
        else:
            episode = state["episode"]
        return self._failover_activate(node_id, episode)

    def _first_up_backup(self, node_id: str) -> str | None:
        for backup in self.nodes[node_id].backup_pool:
            if self.nodes[backup].up:
                return backup
        return None

    # -- commands ----------------------------------------------------------

    def _handle_command(self, command: CommandSpec) -> None:
        s9_ms = 0
        if self.config.s9.enabled:
            try:
                middleware.authenticate(
                    command.user, command.credential, command.device, self.config
                )
            except UnknownUser:
                self.trace.append(
                    "audit", self.clock, user=command.user, device=command.device,
                    authenticated=False, reason="unknown-user",
                )
                return
            except AuthDenied:
                self.trace.append(
                    "audit", self.clock, user=command.user, device=command.device,
                    authenticated=False, reason="bad-credential",
                )
                return
            self.trace.append(
                "audit", self.clock, user=command.user, device=command.device,
                authenticated=True,
            )
            s9_ms = self.config.s9.per_session_latency_ms

        if command.intent == "voice_message":
            self.send_message(
                command.device, command.to, command.payload.encode("utf-8"), s9_ms
            )
        elif command.intent == "create_reminder":
            payload = command.payload.encode("utf-8")
            self.send_message(
                command.device, self.cloud_id, payload, s9_ms,
                on_delivered=("create_reminder", command.device, command.target, payload),
            )
        elif command.intent == "schedule_meeting":
            self.send_message(
                command.device, self.cloud_id, b"meeting-request", s9_ms,
                on_delivered=(
                    "schedule_meeting", command.device, list(command.attendees),
                    command.duration_min,
                ),
            )

    def _request(self, intent: str, *args) -> None:
        """Carry out a request at the cloud by calling the method named
        `intent`. One it cannot serve is traced as `request_failed`, and the
        run goes on."""
        try:
            getattr(self, intent)(*args)
        except NoSlotAvailable:
            self._record("request_failed", dict(intent=intent, reason="no-slot"))
        except CloudUnavailable:
            self._record("request_failed", dict(intent=intent, reason="cloud-down"))

    # -- reminders ---------------------------------------------------------

    def create_reminder(
        self, author: str, target: str, payload: bytes, reminder_id: str | None = None
    ) -> str:
        for node_id in (author, target):
            if node_id not in self.nodes:
                raise UnknownNode(f"unknown node {node_id!r}")
            if self.nodes[node_id].kind != "SmartDevice":
                raise UnknownNode(f"{node_id!r} is not a smart device")
        if not self.nodes[self.cloud_id].up:
            raise CloudUnavailable("cloud service is down; cannot register reminder")
        rid = reminder_id
        if not rid:
            # a generated id skips the ids the scenario declares
            declared = {r.id for r in self.scenario.reminders}
            n = len(self.reminders) + 1
            while f"rem-{n}" in self.reminders or f"rem-{n}" in declared:
                n += 1
            rid = f"rem-{n}"
        if rid in self.reminders:
            raise InvalidScenario(f"duplicate reminder id {rid!r}")
        self.reminders[rid] = Reminder(target=target, payload=bytes(payload))
        self.trace.append(
            "reminder", self.clock, event="created", reminder=rid,
            author=author, target=target,
        )
        self._schedule_reminder(rid)
        return rid

    def _schedule_reminder(self, rid: str) -> None:
        """Queue the reminder's next firing, at the next month end."""
        self._schedule(
            next_month_end_instant(
                self.clock, self.scenario.reminder_fire_time, self.epoch
            ),
            "_fire_reminder",
            rid,
        )

    def _fire_reminder(self, rid: str) -> None:
        reminder = self.reminders[rid]
        self.trace.append(
            "reminder", self.clock, event="fired", reminder=rid,
            target=reminder.target,
        )
        self.send_message(self.cloud_id, reminder.target, reminder.payload)
        self._schedule_reminder(rid)

    # -- meetings ------------------------------------------------------------

    def schedule_meeting(
        self, organizer: str, attendees: list[str], duration_min: int
    ) -> Slot:
        if organizer not in self.nodes:
            raise UnknownNode(f"unknown organizer {organizer!r}")
        for attendee in attendees:
            if attendee not in self.calendars:
                raise UnknownAttendee(f"attendee {attendee!r} has no calendar")
        search_from = -(-self.clock // 60)
        horizon = search_from + self.scenario.meeting_horizon_days * 1440
        slot = find_common_slot(
            [self.calendars[a] for a in attendees],
            duration_min,
            search_from,
            horizon,
            self.scenario.calendar_hours(),
        )
        for attendee in attendees:
            self.calendars[attendee].add_busy(slot.start, slot.end)
        self.trace.append(
            "meeting", self.clock, organizer=organizer, attendees=list(attendees),
            start_min=slot.start, duration_min=duration_min,
        )
        invitation = f"invitation:{slot.start}:{duration_min}".encode("ascii")
        for attendee in attendees:
            self.send_message(self.cloud_id, self.attendee_device[attendee], invitation)
        return slot


def build_world(
    scenario: ScenarioConfig,
    controls: ControlLayerConfig | None = None,
    sink: Callable[[list[dict]], None] | None = None,
) -> World:
    """Construct a world at clock 0 with every node Up and an empty queue run.

    When `controls` is omitted the scenario's own control block applies.
    With a `sink` the world's trace streams its records to it in batches
    (see `Trace`), the last batch when `run_until` returns.
    """
    controls = controls if controls is not None else scenario.controls
    return World(scenario, controls, sink)
