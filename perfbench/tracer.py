"""In-process tracing of one `dmaic` op, from outside the program.

`install(tracer)` replaces the public functions and methods of
`smartbizsim.*` that the benchmark measures with timing wrappers, by
patching module and class attributes in the current process only. Every
binding the program calls through is patched, including names that one
module imported from another (`costs.meter` as well as `metering.meter`).

Coarse calls (loading, building, running, metering, pricing,
serializing) each record a span: name, start, end, parent span and the
op id. Per-message calls (send, authenticate, wrap, calendar updates)
would distort the run with one span each, so they record a call count
and summed time only. Every wrapper also books its duration against its
caller, so each name gets a self time: its duration minus the time its
traced callees took.
"""

from __future__ import annotations

import time
from collections import Counter

clock = time.monotonic_ns  # same clock as the parent's op timer

# Which layer (module) each traced name belongs to.
LAYER = {
    "cli.main": "cli",
    "costs.load_dmaic_config": "costs",
    "costs.run_dmaic": "costs",
    "costs.digest": "costs",
    "costs.monetize": "costs",
    "costs.residual_assessment": "costs",
    "scenario.load_scenario": "scenario",
    "scenario.parse_scenario": "scenario",
    "scenario.validate_scenario": "scenario",
    "risk.rank": "risk",
    "controls.build_plan": "controls",
    "world.build_world": "world",
    "world.run_until.baseline": "world",
    "world.run_until.secured": "world",
    "world.send_message": "world",
    "world.schedule_meeting": "world",
    "calendars.find_common_slot": "calendars",
    "calendars.add_busy": "calendars",
    "middleware.authenticate": "middleware",
    "middleware.wrap": "middleware",
    "metering.meter": "metering",
    "metering.meter_sections": "metering",
    "trace.to_ndjson": "trace",
}


class Tracer:
    """Spans and per-name [calls, total_ns, self_ns] for one op."""

    def __init__(self, op_id: str) -> None:
        self.op_id = op_id
        self.spans: list[list] = []  # [id, parent id, name, start_ns, end_ns]
        self.stats: dict[str, list[int]] = {}
        self.counters: Counter = Counter()
        self.traces: list = []  # Trace objects returned by each run_until
        self._stack: list[list[int]] = []  # per active call: [child_ns, span id]

    def wrap(self, name, fn, span: bool):
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            span_id = -1
            if span:
                span_id = len(spans)
                parent = stack[-1][1] if stack else -1
                spans.append([span_id, parent, name, 0, 0])
            elif stack:
                span_id = stack[-1][1]
            frame = [0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                stat[0] += 1
                stat[1] += took
                stat[2] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if span:
                    spans[span_id][3] = start
                    spans[span_id][4] = end

        return traced

    def layer_self_ns(self) -> dict[str, int]:
        out: Counter = Counter()
        for name, (_, _, self_ns) in self.stats.items():
            out[LAYER[name]] += self_ns
        return dict(out)

    def count_records(self) -> None:
        """Record kinds over every trace the op produced (done after the op)."""
        for trace in self.traces:
            for record in trace.records:
                self.counters["records." + record["kind"]] += 1


def install(tracer: Tracer) -> None:
    from smartbizsim import (
        calendars, cli, controls, costs, metering, middleware, risk, scenario, trace, world,
    )
    from smartbizsim.errors import AuthDenied, UnknownUser

    def patch(owners, attr, name, span):
        traced = tracer.wrap(name, getattr(owners[0], attr), span)
        for owner in owners:
            setattr(owner, attr, traced)

    patch([cli], "main", "cli.main", True)
    patch([costs], "load_dmaic_config", "costs.load_dmaic_config", True)
    patch([costs], "run_dmaic", "costs.run_dmaic", True)
    patch([costs.DmaicConfig], "digest", "costs.digest", True)
    patch([costs], "monetize", "costs.monetize", True)
    patch([costs], "residual_assessment", "costs.residual_assessment", True)
    patch([scenario, costs, cli], "load_scenario", "scenario.load_scenario", True)
    patch([scenario], "parse_scenario", "scenario.parse_scenario", True)
    patch([scenario, world], "validate_scenario", "scenario.validate_scenario", True)
    patch([risk, costs, cli], "rank", "risk.rank", True)
    patch([controls, costs], "build_plan", "controls.build_plan", True)
    patch([world, costs, cli], "build_world", "world.build_world", True)
    patch([metering, costs, cli], "meter", "metering.meter", True)
    patch([metering, costs], "meter_sections", "metering.meter_sections", True)
    patch([trace.Trace], "to_ndjson", "trace.to_ndjson", True)
    patch([world.World], "send_message", "world.send_message", False)
    patch([world, calendars], "find_common_slot", "calendars.find_common_slot", False)
    patch([middleware], "wrap", "middleware.wrap", False)
    patch([world.World], "schedule_meeting", "world.schedule_meeting", False)

    counters = tracer.counters

    run_until = world.World.run_until
    baseline = tracer.wrap("world.run_until.baseline", run_until, True)
    secured = tracer.wrap("world.run_until.secured", run_until, True)

    def traced_run_until(self, t_end):
        result = (secured if self.config.enabled_sections else baseline)(self, t_end)
        counters["messages_retained"] += len(self.messages)
        tracer.traces.append(self.trace)
        return result

    world.World.run_until = traced_run_until

    add_busy = tracer.wrap("calendars.add_busy", calendars.Calendar.add_busy, False)

    def traced_add_busy(self, start, end):
        add_busy(self, start, end)
        if len(self.busy) > counters["busy_max"]:
            counters["busy_max"] = len(self.busy)

    calendars.Calendar.add_busy = traced_add_busy

    authenticate = tracer.wrap("middleware.authenticate", middleware.authenticate, False)

    def traced_authenticate(*args, **kwargs):
        try:
            return authenticate(*args, **kwargs)
        except (AuthDenied, UnknownUser):
            counters["auth_denied"] += 1
            raise

    middleware.authenticate = traced_authenticate

    to_ndjson = trace.Trace.to_ndjson

    def traced_to_ndjson(self):
        text = to_ndjson(self)
        counters["trace_bytes"] += len(text)  # json.dumps escapes to ASCII
        return text

    trace.Trace.to_ndjson = traced_to_ndjson
