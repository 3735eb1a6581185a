"""Seeded scenario generator for the three benchmark workloads.

Each workload turns a generator seed into two plain JSON documents: a
scenario and a pipeline config that points at it. The program reads them
through its normal `smartbizsim dmaic --config` path; this module does no
validation in the program's place.

Generated traffic follows the business model, so no op should fail on
the program as it stands:

* every command lands at least `TAIL_S` before the horizon, so no
  message is in flight when the run stops;
* device outages end at least `TAIL_S` before the horizon, and the
  cloud never fails, so a reminder never registers against a failed
  cloud;
* meeting load leaves every attendee free time inside the scheduler's
  search window, so every meeting can be placed.

Why each workload exists, and which per-layer metric should move which
end-to-end metric on it, is written in the docstring of its generator
below; later changes cite those predictions by workload name.
"""

from __future__ import annotations

import json
import random
import string

DAY = 86_400
TAIL_S = 6 * 3600  # quiet time before the horizon: nothing is in flight there
SITES = ("CityA", "CityB", "Truck")


# Sizes per workload, scaled down from a first sizing (branch ~60k
# messages, fleet ~30k, meetings ~3000 meetings) so that one op takes
# about half a second and one 15-second run holds some 30 ops; each
# stays large enough that its named layer leads the traced run.
SIZES = {
    "branch": dict(days=60, messages=3500, bad_credential_share=0.02,
                   meetings=20, reminders=20, outages=10),
    "fleet": dict(devices=300, days=60, messages=2000, outages=10),
    "meetings": dict(devices=30, days=360, busy_blocks=200, meetings=250,
                     reminders=100, messages=300, outages=100),
}


def _credential(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase + string.digits) for _ in range(12))


_WORDS = ("loading", "list", "delivery", "confirmation", "invoice", "pallet",
          "route", "customer", "complaint", "order", "truck", "branch", "stock")


def _payload(rng: random.Random) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(2, 6)))


def _scenario(nodes, links, users, attendees, commands, failures, days, seed):
    """Assemble the scenario document; users maps user id -> credential."""
    commands.sort(key=lambda c: (c["at"], c["device"]))
    failures.sort(key=lambda f: (f["at"], f["node"]))
    return {
        "epoch": "2024-01-01",
        "horizon_s": days * DAY,
        "seed": seed,
        "nodes": nodes,
        "links": links,
        "attendees": attendees,
        "commands": commands,
        "failures": failures,
        "controls": {"s9": {"credential_store": users}},
    }


def _voice(rng, at, device, user, credential, to):
    return {"at": at, "device": device, "user": user, "credential": credential,
            "intent": "voice_message", "to": to, "payload": _payload(rng)}


def _outages(rng, devices, count, days, max_s):
    out = []
    for _ in range(count):
        duration = rng.randint(300, max_s)
        at = rng.randrange(3600, days * DAY - TAIL_S - duration)
        out.append({"node": rng.choice(devices), "at": at, "duration_s": duration})
    return out


def _busy_blocks(rng, count, days):
    """Busy intervals in minutes since the epoch, inside working hours."""
    blocks = []
    for _ in range(count):
        day = rng.randrange(days)
        start = day * 1440 + rng.randrange(8 * 60, 17 * 60, 15)
        blocks.append([start, start + rng.choice((30, 45, 60, 90))])
    blocks.sort()
    return blocks


def _branch(rng: random.Random, seed: int) -> dict:
    """branch: the paper's own topology, three devices and the cloud.

    Why: routing is trivial (every path is two hops), so per-message costs
    dominate: event heap, trace append, S9/S10 middleware, metering and
    NDJSON serialization. About 2% of commands carry a bad credential, so
    S9 denies some; 20 meetings, 20 reminders and 10 outages keep every
    record kind present.

    Predictions, per-layer metric -> end-to-end metric:
      world.run_s.*, trace.to_ndjson_s, metering.meter_s,
      metering.meter_sections_s, middleware.*_s, costs.*_s,
      cli.self_s                              -> dmaic_s, records_per_s
      scenario.load_s, scenario.validate_calls,
      scenario.validate_s                     -> setup_s, dmaic_s
      world.messages_retained, trace.bytes    -> peak_rss_mb
      world.send_s                            -> flat: a routing change
                                                 must not move branch
    """
    size = SIZES["branch"]
    days = size["days"]
    sites = (("dev-city-a", "CityA", "finance-manager", 50),
             ("dev-city-b", "CityB", "chief-of-department", 50),
             ("dev-truck", "Truck", "truck-driver", 80))
    nodes = [{"id": d, "kind": "SmartDevice", "site": s} for d, s, _, _ in sites]
    nodes.append({"id": "cloud", "kind": "CloudService"})
    links = [{"a": d, "b": "cloud", "latency_ms": ms} for d, _, _, ms in sites]
    users = {u: _credential(rng) for _, _, u, _ in sites}
    attendees = [{"id": u, "device": d, "busy": _busy_blocks(rng, 20, days)}
                 for d, _, u, _ in sites]
    last = days * DAY - TAIL_S
    commands = []

    def sender():
        device, _, user, _ = rng.choice(sites)
        credential = users[user]
        if rng.random() < size["bad_credential_share"]:
            credential = "wrong-" + _credential(rng)
        return device, user, credential

    for _ in range(size["messages"]):
        device, user, credential = sender()
        to = rng.choice([d for d, _, _, _ in sites if d != device])
        commands.append(_voice(rng, rng.randrange(60, last), device, user, credential, to))
    for _ in range(size["meetings"]):
        device, user, credential = sender()
        commands.append({
            "at": rng.randrange(60, last), "device": device, "user": user,
            "credential": credential, "intent": "schedule_meeting",
            "attendees": rng.sample(sorted(users), rng.randint(2, 3)),
            "duration_min": rng.choice((30, 60)),
        })
    for _ in range(size["reminders"]):
        device, user, credential = sender()
        commands.append({
            "at": rng.randrange(60, last), "device": device, "user": user,
            "credential": credential, "intent": "create_reminder",
            "target": rng.choice([d for d, _, _, _ in sites]),
            "payload": _payload(rng),
        })
    failures = _outages(rng, [d for d, _, _, _ in sites], size["outages"], days, 7200)
    return _scenario(nodes, links, users, attendees, commands, failures, days, seed)


def _devices(rng: random.Random, count: int):
    """Star around the cloud: (device id, user id) pairs plus nodes and links."""
    devices = [f"dev-{i:04d}" for i in range(count)]
    nodes = [{"id": d, "kind": "SmartDevice", "site": SITES[i % 3]}
             for i, d in enumerate(devices)]
    nodes.append({"id": "cloud", "kind": "CloudService"})
    links = [{"a": d, "b": "cloud", "latency_ms": rng.randint(20, 120)} for d in devices]
    users = {f"user-{i:04d}": _credential(rng) for i in range(count)}
    return devices, list(users), users, nodes, links


def _fleet(rng: random.Random, seed: int) -> dict:
    """fleet: 300 devices in a star around the cloud, voice messages only.

    Why: S17 adds one spare per device (600 devices in the secured run),
    and every send searches a route afresh, so World.send_message (whose
    self time holds the route search) dominates. A routing change shows
    here and should leave branch flat. No meetings and no reminders.

    Predictions, per-layer metric -> end-to-end metric:
      world.send_s, world.send_us_per_call,
      world.send_share_of_run                 -> dmaic_s, records_per_s
      world.build_s (S17 provisions spares)   -> dmaic_s
      calendars.*                             -> zero here
    """
    size = SIZES["fleet"]
    days = size["days"]
    devices, user_ids, users, nodes, links = _devices(rng, size["devices"])
    last = days * DAY - TAIL_S
    commands = []
    for _ in range(size["messages"]):
        i = rng.randrange(len(devices))
        j = rng.randrange(len(devices) - 1)
        to = devices[j + (j >= i)]
        commands.append(_voice(rng, rng.randrange(60, last), devices[i],
                               user_ids[i], users[user_ids[i]], to))
    failures = _outages(rng, devices, size["outages"], days, 7200)
    return _scenario(nodes, links, users, [], commands, failures, days, seed)


def _meetings(rng: random.Random, seed: int) -> dict:
    """meetings: 30 devices whose attendees hold ~200 busy blocks each.

    Why: commands mutate world state instead of only passing messages:
    meetings placed in calendars, recurring month-end reminders, and 100
    device outages with S17 failover over a 360-day horizon. Calendar
    normalisation and the common-slot search dominate. The cloud never
    fails (a reminder registered while it is down crashes the run).

    Predictions, per-layer metric -> end-to-end metric:
      calendars.find_slot_s, calendars.add_busy_s,
      calendars.busy_max, world.schedule_meeting_s -> dmaic_s, records_per_s
      world.records.meeting, .reminder, .failover  -> none: work counts
                                                      that must repeat exactly
    """
    size = SIZES["meetings"]
    days = size["days"]
    devices, user_ids, users, nodes, links = _devices(rng, size["devices"])
    attendees = [{"id": u, "device": d, "busy": _busy_blocks(rng, size["busy_blocks"], days)}
                 for u, d in zip(user_ids, devices)]
    last = days * DAY - TAIL_S
    commands = []

    def command(i, intent, at=None, **fields):
        commands.append({"at": at or rng.randrange(60, last), "device": devices[i],
                         "user": user_ids[i], "credential": users[user_ids[i]],
                         "intent": intent, **fields})

    # Fixed meeting size, and reminders registered in the first month so
    # that each fires at every month end: the work per op then varies
    # little from one seed to the next.
    for _ in range(size["meetings"]):
        command(rng.randrange(len(devices)), "schedule_meeting",
                attendees=rng.sample(user_ids, 3),
                duration_min=rng.choice((30, 45, 60, 90)))
    for _ in range(size["reminders"]):
        command(rng.randrange(len(devices)), "create_reminder",
                at=rng.randrange(60, 28 * DAY),
                target=rng.choice(devices), payload=_payload(rng))
    for _ in range(size["messages"]):
        i = rng.randrange(len(devices))
        command(i, "voice_message", to=rng.choice(devices[:i] + devices[i + 1:]),
                payload=_payload(rng))
    failures = _outages(rng, devices, size["outages"], days, 4 * 3600)
    return _scenario(nodes, links, users, attendees, commands, failures, days, seed)


WORKLOADS = {"branch": _branch, "fleet": _fleet, "meetings": _meetings}


def generate(name: str, seed: int) -> tuple[str, str]:
    """(scenario JSON, pipeline config JSON) for one workload and seed.

    The pipeline config names the scenario as "scenario.json" next to it
    and leaves every other knob at the program's default (top_k=3 selects
    S9, S10 and S17).
    """
    rng = random.Random(f"{name}:{seed}")
    scenario = WORKLOADS[name](rng, seed)
    config = {"scenario": "scenario.json", "top_k": 3}
    return (json.dumps(scenario, sort_keys=True, separators=(",", ":")) + "\n",
            json.dumps(config, sort_keys=True, indent=1) + "\n")
