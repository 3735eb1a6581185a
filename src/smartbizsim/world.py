"""Deterministic discrete-event simulation of the two-branch business.

The world advances on an integer-second event grid. Events at equal
times run in insertion order, all state changes land in the trace, and
nothing depends on wall-clock time or hash ordering, so a scenario
always reproduces the same trace byte for byte.

The trace is the record of every message: its path, sizes, envelope,
delivery and latency split live in its `sent`, `delivered` and `lost`
records. `World.messages` holds only the messages still in flight.

Failure semantics: a Failed node can neither receive nor forward. A
message is lost when a node strictly between its sender and receiver is
down at its delivery time (`transit-failed`, naming that node). One whose
receiver is down then is lost too, unless the continuity layer (S17) is
enabled, in which case it waits for the failover switch and lands on a
spare device; S17 stands in for receivers only, and orders a replacement
only for a node with a backup pool. Sending from a failed device is not
restricted; the model cares about delivery exposure only.
A down cloud serves nothing: a reminder to register, a meeting to book
or a reminder that falls due while it is down becomes `request_failed`
with `cloud-down`, and a due reminder waits for the next month end.
A meeting with no common free slot is `request_failed` with `no-slot`.
"""

from __future__ import annotations

import base64
import heapq
import math
from typing import Collection, NamedTuple

from . import middleware
from .calendars import Calendar, find_common_slot
from .errors import AuthDenied, ConfigError, SmartBizError, UnknownUser
from .scenario import CommandSpec, LinkSpec, ScenarioConfig
from .timeline import MINUTES_PER_DAY, SECONDS_PER_DAY, next_month_end_instant
from .trace import Sink, Trace


class Message(NamedTuple):
    """A message in flight; its `sent` trace record holds everything else."""

    msg_id: int
    dst: str
    via: tuple[str, ...]  # the nodes strictly between sender and receiver
    eta: int
    latency_ms: int  # link + S10 + S9; S17 adds the wait past `eta`
    on_delivered: tuple | None = None  # (intent, *args) for `World._request`


def shortest_path(
    neighbors: dict[str, dict[str, str]], src: str, dst: str
) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """The fewest-hop path from src to dst as (link ids, relays), the
    relays being the nodes strictly between, or None if there is none.

    `neighbors` maps each node to {neighbor: link id} in sorted neighbor
    order. Ties go to the smallest sequence of node ids. The search is
    breadth-first, and each frontier node is asked for a link to dst
    before it is expanded: the first that has one is dst's parent, so a
    star's hub is never scanned, and the walk back from it gives both.
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
                links, relays = [link_id], []
                while here != src:
                    relays.append(here)
                    here, link_id = came_from[here]
                    links.append(link_id)
                return tuple(reversed(links)), tuple(reversed(relays))
            for neighbor, link_id in adjacent.items():
                if neighbor not in seen:
                    seen.add(neighbor)
                    came_from[neighbor] = (here, link_id)
                    nxt.append(neighbor)
        frontier = nxt
    return None


class World:
    """A world at clock 0 with every node Up and no event run yet.

    `enabled` names the control sections the run switches on; the
    scenario's controls give only their parameters. The world's trace
    streams its records to `sink` in batches (see `Trace`), the last
    batch when `run_until` returns. A run ends at `scenario.horizon_s`,
    so an event declared after it never runs and leaves no record.
    """

    def __init__(self, scenario: ScenarioConfig, enabled: Collection[str], sink: Sink):
        self.scenario = scenario
        self.config = scenario.controls.with_enabled(enabled)
        self.clock = 0
        self.trace = Trace(sink)

        self.cloud_id = next(n.id for n in scenario.nodes if n.kind == "CloudService")
        # declared node -> how many of its outages are open; 0 means up
        self._outages = {n.id: 0 for n in scenario.nodes}
        # S17 stands a spare in for a device without a pool. Only spare 1
        # can ever be picked, since no spare is ever down, so the pool
        # names only it; `backups_per_site` sets just the capital counts.
        devices = [n.id for n in scenario.nodes if n.kind == "SmartDevice"]
        self._pools = {n.id: n.backup_pool for n in scenario.nodes}
        poolless = [d for d in devices if not self._pools[d]]
        if self.config.s17 is not None and self.config.s17.backups_per_site > 0:
            self._pools.update((d, (f"{d}-r1",)) for d in poolless)

        self.links: dict[str, LinkSpec] = {}
        # node -> {neighbor: link id}; validation allows one link per pair
        adjacency: dict[str, dict[str, str]] = {n: {} for n in self._outages}
        for link in scenario.links:
            self.links[link.id] = link
            adjacency[link.a][link.b] = adjacency[link.b][link.a] = link.id
        # sorted neighbors make route tie-breaks independent of link order
        self._adjacency = {
            node: dict(sorted(neighbors.items())) for node, neighbors in adjacency.items()
        }
        # (src, dst) -> shortest_path's (links, relays)
        self._routes: dict[tuple[str, str], tuple[tuple[str, ...], tuple[str, ...]]] = {}

        self.calendars: dict[str, Calendar] = {}
        self.attendee_device: dict[str, str] = {}
        for att in scenario.attendees:
            self.calendars[att.id] = Calendar(att.busy)
            self.attendee_device[att.id] = att.device

        self.messages: dict[int, Message] = {}
        self.reminders: dict[str, tuple[str, bytes]] = {}  # id -> (target, payload)
        self._declared_reminders = frozenset(r.id for r in scenario.reminders)
        self._next_msg_id = 1
        # Events are (time, seq, handler method name, args); equal times run
        # in seq order. Names, not bound methods, so the world holds no
        # reference to itself. The events the scenario declares are in
        # `_declared`, latest first, each popped off the end and freed once
        # run; the heap holds only the events the run creates.
        self._declared: list[tuple] = []
        self._queue: list[tuple[int, int, str, tuple]] = []
        self._event_seq = 0
        # S17: failed node -> (start of its outage, the messages waiting for
        # it) while the detection window is open; a down node not in it has
        # been switched over
        self._detecting: dict[str, tuple[int, list[Message]]] = {}

        self._record_provisioning(len(devices), len(poolless))
        for failure in scenario.failures:
            self._declare(failure.at, "_fail_start", failure.node)
            self._declare(failure.at + failure.duration_s, "_fail_end", failure.node)
        for command in scenario.commands:
            self._declare(command.at, "_handle_command", command)
        for reminder in scenario.reminders:
            self._declare(
                reminder.at, "_request", "create_reminder", reminder.author,
                reminder.target, reminder.payload.encode("utf-8"), reminder.id,
            )
        for theft in scenario.thefts:
            self._declare(theft.at, "_record", "theft",
                          {"node": theft.node, "guarded": self.config.s9 is not None})
        if self.config.s9 is not None and self.config.s9.review_period_days > 0:
            # one review per period, each queuing the next under this seq (see `_review`)
            period = self.config.s9.review_period_days * SECONDS_PER_DAY
            self._declare(period, "_review", self._event_seq)
        self._declared.append((math.inf, 0, None, ()))  # at the bottom, never due
        self._declared.sort(reverse=True)

    # -- construction helpers ------------------------------------------

    def _record_provisioning(self, devices: int, poolless: int) -> None:
        """Declare the capital and setup records for clock 0, by section, of
        `devices` smart devices, `poolless` of them without a backup pool.

        They are declared events, not direct appends, so a new world's trace
        is empty. With S17 on, each poolless device has `backups_per_site`
        spares: deployed devices, so each takes an S9 lock, but never built,
        since a spare is only a name (validation keeps the names free).
        """
        spares = self.config.s17.backups_per_site * poolless if self.config.s17 is not None else 0
        if self.config.s9 is not None:
            self._declare(0, "_record", "capital",
                          {"section": "S9", "item": "device-lock", "count": devices + spares})
        if self.config.s10 is not None:
            self._declare(0, "_record", "ops",
                          {"section": "S10", "action": "key-provisioning", "events": 1})
        if self.config.s17 is not None:
            backups = len({m for n in self.scenario.nodes for m in n.backup_pool}) + spares
            if backups:
                self._declare(0, "_record", "capital",
                              {"section": "S17", "item": "backup-device", "count": backups})

    # -- event machinery -----------------------------------------------

    def _declare(self, time: int, handler: str, *args) -> None:
        self._declared.append((time, self._event_seq, handler, args))
        self._event_seq += 1

    def _schedule(self, time: int, handler: str, *args) -> None:
        heapq.heappush(self._queue, (time, self._event_seq, handler, args))
        self._event_seq += 1

    def _record(self, kind: str, fields: dict) -> None:
        self.trace.append(kind, self.clock, fields)

    def _review(self, seq: int) -> None:
        """An S9 access review; queues the next under the same `seq`. Two
        reviews never share a second, and `seq` is above every declared
        event's and below every one the run creates, so one is enough."""
        self.trace.append("ops", self.clock,
                          {"section": "S9", "action": "access-review", "events": 1})
        period = self.config.s9.review_period_days * SECONDS_PER_DAY
        heapq.heappush(self._queue, (self.clock + period, seq, "_review", (seq,)))

    def run_until(self, t_end: int) -> "World":
        """Run every event due by `t_end` in (time, seq) order, the declared
        and the queued alike, each by its handler name."""
        if t_end < self.clock:
            raise ConfigError(
                f"cannot run backwards: t_end {t_end} < clock {self.clock}"
            )
        queue, declared = self._queue, self._declared
        try:
            while True:
                event = declared[-1]
                if queue and queue[0] < event:  # seqs differ: decided by (time, seq)
                    event = queue[0]
                    if event[0] > t_end:
                        break
                    heapq.heappop(queue)
                elif event[0] <= t_end:
                    declared.pop()
                else:
                    break
                self.clock, _, handler, args = event
                getattr(self, handler)(*args)
        except SmartBizError as exc:
            # the same class, so the exit code stays; other errors pass as they are
            raise type(exc)(f"t={self.clock}s handler={handler}: {exc}") from exc
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
        route = self._routes.get((src, dst))
        if route is None:
            # validation: both nodes exist and every device reaches the cloud
            route = self._routes[src, dst] = shortest_path(self._adjacency, src, dst)
        path, via = route

        msg_id = self._next_msg_id
        self._next_msg_id += 1

        size = len(payload)
        s10 = self.config.s10
        if s10 is not None:
            # validation: the key map is empty or names every declared node
            content = middleware.wrap(payload, s10.key_ids.get(src) or f"k-{src}", msg_id=msg_id)
            wrapped, wire, s10_ms = True, size + s10.overhead_bytes, s10.per_message_latency_ms
        else:
            content = {"payload_b64": base64.b64encode(payload).decode("ascii")}
            wrapped, wire, s10_ms = False, size, 0
        link_ms = 0
        for link_id in path:
            link = self.links[link_id]
            link_ms += link.latency_ms
            if link.bandwidth_bps:
                link_ms += -(-wire * 1000 // link.bandwidth_bps)
        total_ms = link_ms + s10_ms + s9_ms
        eta = self.clock + -(-total_ms // 1000)  # round up to the second grid
        msg = Message(msg_id, dst, via, eta, total_ms, on_delivered)
        self.messages[msg_id] = msg

        self.trace.append("sent", self.clock, {
            "msg_id": msg_id, "src": src, "dst": dst, "size_bytes": size, "wire_bytes": wire,
            "wrapped": wrapped,
            "path": path,  # the route table's tuple, shared by every send on it
            "link_ms": link_ms, "s10_ms": s10_ms, "s9_ms": s9_ms, **content,
        })
        self._schedule(eta, "_handle_delivery", msg)
        return msg_id

    def _handle_delivery(self, msg: Message) -> None:
        for hop in msg.via:
            if self._outages[hop]:
                self._lose(msg, "transit-failed", node=hop)
                return
        if not self._outages[msg.dst]:
            self._deliver(msg, msg.dst)
            return
        if self.config.s17 is not None:
            window = self._detecting.get(msg.dst)
            if window is not None:
                window[1].append(msg)
                return
            self._stand_in(msg, self._first_up_backup(msg.dst))
            return
        self._lose(msg, "node-failed")

    def _deliver(self, msg: Message, to: str) -> None:
        del self.messages[msg.msg_id]
        s17_ms = (self.clock - msg.eta) * 1000
        self.trace.append("delivered", self.clock, {
            "msg_id": msg.msg_id, "to": to, "latency_ms": msg.latency_ms + s17_ms,
            "s17_ms": s17_ms,
        })
        if msg.on_delivered is not None:
            self._request(*msg.on_delivered)

    def _lose(self, msg: Message, reason: str, **fields) -> None:
        del self.messages[msg.msg_id]
        self.trace.append("lost", self.clock, {"msg_id": msg.msg_id, "reason": reason, **fields})

    # -- failures and failover -------------------------------------------

    def _fail_start(self, node_id: str) -> None:
        self._outages[node_id] += 1
        if self._outages[node_id] > 1:
            return  # overlapping windows merge into one outage
        self.trace.append("failure", self.clock, {"node": node_id, "phase": "start"})
        if self.config.s17 is not None:
            self._detecting[node_id] = (self.clock, [])
            self._schedule(
                self.clock + self.config.s17.detection_window_s,
                "_failover_activate", node_id, self.clock,
            )

    def _fail_end(self, node_id: str) -> None:
        self._outages[node_id] -= 1
        if self._outages[node_id]:
            return
        self.trace.append("failure", self.clock, {"node": node_id, "phase": "end"})
        # recovery beats an open detection window: waiting messages go
        # straight back to the recovered node
        for msg in self._detecting.pop(node_id, (0, ()))[1]:
            self._deliver(msg, node_id)

    def _failover_activate(self, node_id: str, started: int) -> None:
        start, waiting = self._detecting.get(node_id, (None, ()))
        if start != started:
            return  # stale timer: the outage it timed has ended
        del self._detecting[node_id]
        substitute = self._first_up_backup(node_id)
        self.trace.append("failover", self.clock, {"failed": node_id, "substitute": substitute})
        if self._pools[node_id]:  # a node S17 cannot substitute gets no replacement
            self.trace.append("ops", self.clock,
                              {"section": "S17", "action": "replacement-order", "events": 1})
        for msg in waiting:
            self._stand_in(msg, substitute)

    def _stand_in(self, msg: Message, substitute: str | None) -> None:
        """S17: deliver to the substitute, or lose when the pool has none up."""
        if substitute is not None:
            self._deliver(msg, substitute)
        else:
            self._lose(msg, "pool-exhausted")

    def _first_up_backup(self, node_id: str) -> str | None:
        for backup in self._pools[node_id]:
            if not self._outages.get(backup):  # a spare is never down
                return backup
        return None

    # -- commands ----------------------------------------------------------

    def _handle_command(self, command: CommandSpec) -> None:
        s9_ms = 0
        if self.config.s9 is not None:
            refused = {}
            try:
                middleware.authenticate(
                    command.user, command.credential, command.device, self.config
                )
            except UnknownUser:
                refused = {"reason": "unknown-user"}
            except AuthDenied:
                refused = {"reason": "bad-credential"}
            self.trace.append("audit", self.clock, {
                "user": command.user, "device": command.device,
                "authenticated": not refused, **refused,
            })
            if refused:
                return
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
        else:  # validation allows only the three intents
            self.send_message(
                command.device, self.cloud_id, b"meeting-request", s9_ms,
                on_delivered=(
                    "schedule_meeting", command.device, list(command.attendees),
                    command.duration_min,
                ),
            )

    def _request(self, intent: str, *args) -> None:
        """Carry out a request at the cloud by calling the method named
        `intent`. While the cloud is down it serves none: the request is
        traced as `request_failed`, and the run goes on."""
        if self._outages[self.cloud_id]:
            self._record("request_failed", {"intent": intent, "reason": "cloud-down"})
        else:
            getattr(self, intent)(*args)

    # -- reminders ---------------------------------------------------------

    def create_reminder(
        self, author: str, target: str, payload: bytes, reminder_id: str | None = None
    ) -> str:
        rid = reminder_id
        if rid is None:
            # a generated id skips the ids the scenario declares
            n = len(self.reminders) + 1
            while f"rem-{n}" in self.reminders or f"rem-{n}" in self._declared_reminders:
                n += 1
            rid = f"rem-{n}"
        self.reminders[rid] = (target, bytes(payload))
        self.trace.append("reminder", self.clock, {
            "event": "created", "reminder": rid, "author": author, "target": target,
        })
        self._schedule_reminder(rid)
        return rid

    def _schedule_reminder(self, rid: str) -> None:
        """Queue the reminder's next firing, at the next month end."""
        self._schedule(
            next_month_end_instant(
                self.clock, self.scenario.reminder_fire_time, self.scenario.epoch
            ),
            "_reminder_due",
            rid,
        )

    def _reminder_due(self, rid: str) -> None:
        self._request("fire_reminder", rid)
        self._schedule_reminder(rid)  # due again, whether or not it fired

    def fire_reminder(self, rid: str) -> None:
        target, payload = self.reminders[rid]
        self.trace.append("reminder", self.clock,
                          {"event": "fired", "reminder": rid, "target": target})
        self.send_message(self.cloud_id, target, payload)

    # -- meetings ------------------------------------------------------------

    def schedule_meeting(
        self, organizer: str, attendees: list[str], duration_min: int
    ) -> int | None:
        """Book the earliest common slot and invite everyone; returns its start
        minute, or None when no slot is free, which is traced as `request_failed`."""
        scenario = self.scenario
        search_from = -(-self.clock // 60)
        horizon = search_from + scenario.meeting_horizon_days * MINUTES_PER_DAY
        start = find_common_slot(
            [self.calendars[a] for a in attendees], duration_min, search_from, horizon,
            scenario.working_hours, scenario.epoch.weekday(),
        )
        if start is None:
            self._record("request_failed", {"intent": "schedule_meeting", "reason": "no-slot"})
            return None
        for attendee in attendees:
            self.calendars[attendee].add_busy(start, start + duration_min)
        self.trace.append("meeting", self.clock, {
            "organizer": organizer, "attendees": list(attendees), "start_min": start,
            "duration_min": duration_min,
        })
        invitation = f"invitation:{start}:{duration_min}".encode("ascii")
        for attendee in attendees:
            self.send_message(self.cloud_id, self.attendee_device[attendee], invitation)
        return start


# A second name for the constructor, kept only because perfbench's tracer
# patches it on `world`, `costs` and `cli`; ROADMAP item 4's benchmark step
# deletes it.
build_world = World
