"""Benchmark of the `smartbizsim dmaic` pipeline on generated scenarios.

    python3 perfbench/run.py --workload branch --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The workload's scenario and pipeline
config are generated from --seed into .perfbench_work/<workload>/, then
ops run closed-loop, one at a time, for --seconds. One op is a full
`smartbizsim dmaic --config pipeline.json` in a fresh interpreter
(op.py), so no interpreter state carries from one op to the next. A
first, untimed op compiles the bytecode into the work directory and
settles the file cache.

Every op is gated (gate.py): exit code 0, and report and traces
byte-identical to those of the first op, whose outputs pass the full
conservation and cost-additivity checks. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 runs the fixed reference task (reference.py) before the first
op and after every op, and reports the end-to-end metrics of
BENCHMARK.json, each a median over the ops:

  dmaic_s         wall seconds of an op, in reference units (below)
  setup_s         seconds from process start until the pipeline config
                  and its scenario are loaded and validated, in
                  reference units
  records_per_s   trace records per op (both runs) / dmaic_s
  peak_rss_mb     peak resident memory of the op's process
  ok_op_share     share of attempted ops that passed the gate

Reference units: an op's times are multiplied by REFERENCE_S over the
mean wall time of the reference runs just before and after it. On the
shared host the benchmark was written on, host speed drifts by up to
1.8x from one minute to the next; the ratio to the reference task does
not. The raw medians in host seconds are printed on the line above the
result.

--trace 1 alternates untraced ops with traced ones (tracer.py) and
reports the per-layer metrics, in raw host seconds: medians over the
traced ops, the tracing overhead (median over pairs of an untraced op
and the traced op run right after it of their difference in wall
time), and the 75th percentiles of the untraced ops' wall and set-up
times with their sample count. The spans of each traced op are written
to .perfbench_work/<workload>/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate
import workloads
from tracer import LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
# Time of reference.py on a calm host of the 2-CPU sandbox this benchmark
# was written on (Python 3.11): the unit of the end-to-end times.
REFERENCE_S = 0.25
OP_TIMEOUT_S = 40  # an op takes about a second; a hung one must not stall the run
RECORD_KINDS = ("sent", "delivered", "lost", "audit", "meeting", "reminder", "failover")
LAYERS = sorted(set(LAYER.values())) + ["process"]
# Per-layer metrics that count work; they must repeat exactly across ops.
COUNTS = (
    "scenario.validate_calls", "world.send_calls", "world.messages_retained",
    *(f"world.records.{kind}" for kind in RECORD_KINDS),
    "calendars.find_slot_calls", "calendars.busy_max",
    "middleware.authenticate_calls", "middleware.auth_denied", "middleware.wrap_calls",
    "trace.bytes",
)


class Op:
    """One finished op: timings, exit code and the child's stamp."""

    def __init__(self, code, t0_ns, end_ns, rss_kb, stamp):
        self.code = code
        self.t0_ns = t0_ns
        self.wall_s = (end_ns - t0_ns) / 1e9
        self.end_ns = end_ns
        self.rss_mb = rss_kb / 1024
        self.stamp = stamp
        self.setup_s = (stamp["setup_end_ns"] - t0_ns) / 1e9 if stamp else None
        self.problems: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.problems


class Bench:
    def __init__(self, work: Path) -> None:
        self.work = work
        self.out = work / "out"
        # The caller's PYTHON* settings (say, PYTHONDONTWRITEBYTECODE) must not
        # change what an op pays; compiled bytecode goes to the work directory.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
        self.first_digests: dict[str, str] | None = None
        self.first_problems: list[str] = []
        self.records = 0
        self.ops: list[Op] = []

    def op(self, traced: bool) -> Op:
        stamp_path = self.work / "stamp.json"
        stamp_path.unlink(missing_ok=True)
        for name in gate.OUTPUTS:
            (self.out / name).unlink(missing_ok=True)
        extra = []
        if traced:
            extra = ["--trace", str(self.work / "spans" / f"op-{len(self.ops)}.json")]
        with open(self.work / "op.log", "wb") as log:
            t0_ns = time.monotonic_ns()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "op.py"), str(stamp_path), str(t0_ns), *extra,
                 "--", "--config", str(self.work / "pipeline.json"), "--out", str(self.out)],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=self.work,
            )
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end_ns = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        stamp = json.loads(stamp_path.read_text()) if stamp_path.exists() else None
        op = Op(proc.returncode, t0_ns, end_ns, usage.ru_maxrss, stamp)
        self._gate(op)
        self.ops.append(op)
        return op

    def time_reference(self) -> float:
        """Wall seconds of one run of reference.py in a fresh interpreter."""
        t0_ns = time.monotonic_ns()
        subprocess.run([sys.executable, str(HERE / "reference.py")], env=self.env,
                       cwd=self.work, check=True, timeout=OP_TIMEOUT_S)
        return (time.monotonic_ns() - t0_ns) / 1e9

    def _gate(self, op: Op) -> None:
        if op.stamp is None:
            log = (self.work / "op.log").read_text(errors="replace")
            op.problems.append(f"exit code {op.code}: {log[-500:]}")
            return
        found = gate.digests(self.out)
        if self.first_digests is None:
            self.first_digests = found
            self.first_problems, self.records = gate.check(self.out)
        if found != self.first_digests:
            op.problems.append(f"outputs differ from the first op's: {found}")
        op.problems += self.first_problems  # identical bytes, identical verdict


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p75(values) -> float:
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=4)[2]


def end_to_end(bench: Bench, timed: list[Op], refs: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics in reference units, and the raw medians.

    Op i ran between reference runs i and i+1; its times are multiplied
    by REFERENCE_S over the mean of those two, which cancels the host's
    speed at that moment.
    """
    good = [(op, REFERENCE_S * 2 / (refs[i] + refs[i + 1]))
            for i, op in enumerate(timed) if op.ok]
    wall = [op.wall_s * scale for op, scale in good]
    metrics = {
        "dmaic_s": (median(wall), "s"),
        "setup_s": (median([op.setup_s * scale for op, scale in good]), "s"),
        "records_per_s": (median([bench.records / w for w in wall]), "1/s"),
        "peak_rss_mb": (median([op.rss_mb for op, _ in good]), "MB"),
        "ok_op_share": (sum(op.ok for op in bench.ops) / len(bench.ops), "ratio"),
    }
    raw = {
        "dmaic_s": median([op.wall_s for op, _ in good]),
        "setup_s": median([op.setup_s for op, _ in good]),
        "reference_s": median(refs),
    }
    return metrics, raw


def layer_values(op: Op) -> dict:
    """Per-layer figures of one traced op, as (value, unit)."""
    stats, counters = op.stamp["stats"], op.stamp["counters"]
    calls = {name: s[0] for name, s in stats.items()}
    secs = {name: s[1] / 1e9 for name, s in stats.items()}
    self_s = {layer: ns / 1e9 for layer, ns in op.stamp["layer_self_ns"].items()}
    startup_ns = op.stamp["main_start_ns"] - op.t0_ns
    exit_ns = op.end_ns - op.stamp["main_end_ns"] - op.stamp["flush_ns"]
    self_s["process"] = (startup_ns + exit_ns) / 1e9
    run_s = secs["world.run_until.baseline"] + secs["world.run_until.secured"]
    send_s = secs["world.send_message"]
    send_calls = calls["world.send_message"]
    values = {
        "scenario.load_s": (secs["scenario.load_scenario"], "s"),
        "scenario.validate_calls": (calls["scenario.validate_scenario"], "count"),
        "scenario.validate_s": (secs["scenario.validate_scenario"], "s"),
        "world.build_s": (secs["world.build_world"], "s"),
        "world.run_s.baseline": (secs["world.run_until.baseline"], "s"),
        "world.run_s.secured": (secs["world.run_until.secured"], "s"),
        "world.send_calls": (send_calls, "count"),
        "world.send_s": (send_s, "s"),
        "world.send_us_per_call": (send_s / send_calls * 1e6 if send_calls else 0.0, "us"),
        "world.send_share_of_run": (send_s / run_s, "ratio"),
        "world.schedule_meeting_s": (secs["world.schedule_meeting"], "s"),
        "world.messages_retained": (counters.get("messages_retained", 0), "count"),
        **{f"world.records.{kind}": (counters.get(f"records.{kind}", 0), "count")
           for kind in RECORD_KINDS},
        "calendars.find_slot_calls": (calls["calendars.find_common_slot"], "count"),
        "calendars.find_slot_s": (secs["calendars.find_common_slot"], "s"),
        "calendars.add_busy_s": (secs["calendars.add_busy"], "s"),
        "calendars.busy_max": (counters.get("busy_max", 0), "count"),
        "middleware.authenticate_calls": (calls["middleware.authenticate"], "count"),
        "middleware.auth_denied": (counters.get("auth_denied", 0), "count"),
        "middleware.authenticate_s": (secs["middleware.authenticate"], "s"),
        "middleware.wrap_calls": (calls["middleware.wrap"], "count"),
        "middleware.wrap_s": (secs["middleware.wrap"], "s"),
        "metering.meter_s": (secs["metering.meter"], "s"),
        "metering.meter_sections_s": (secs["metering.meter_sections"], "s"),
        "costs.digest_s": (secs["costs.digest"], "s"),
        "costs.monetize_s": (secs["costs.monetize"], "s"),
        "costs.residual_s": (secs["costs.residual_assessment"], "s"),
        "costs.run_dmaic_s": (secs["costs.run_dmaic"], "s"),
        "risk.rank_s": (secs["risk.rank"], "s"),
        "controls.build_plan_s": (secs["controls.build_plan"], "s"),
        "trace.to_ndjson_s": (secs["trace.to_ndjson"], "s"),
        "trace.bytes": (counters.get("trace_bytes", 0), "bytes"),
        "bench.traced_dmaic_s": (op.wall_s, "s"),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (self_s[layer], "s")
        values[f"{layer}.self_share"] = (self_s[layer] / op.wall_s, "ratio")
    return values


def per_layer(bench: Bench, plain: list[Op], traced: list[Op]) -> dict:
    per_op = [layer_values(op) for op in traced if op.ok]
    if not per_op:
        return {}
    for name in COUNTS:
        seen = {values[name][0] for values in per_op}
        if len(seen) > 1:
            traced[0].problems.append(f"count {name} differs between ops: {sorted(seen)}")
    metrics = {
        name: (median([values[name][0] for values in per_op]), unit)
        for name, (_, unit) in per_op[0].items()
    }
    good = [op for op in plain if op.ok]
    wall = [op.wall_s for op in good]
    untraced = median(wall)
    # each traced op ran right after an untraced one: pair them, so drift
    # in host speed between the two halves of the run cancels
    overhead = median([t.wall_s - u.wall_s for u, t in zip(plain, traced) if u.ok and t.ok])
    metrics["bench.untraced_ops"] = (len(good), "count")
    metrics["bench.untraced_dmaic_s"] = (untraced, "s")
    metrics["bench.untraced_dmaic_s_p75"] = (p75(wall), "s")
    metrics["bench.untraced_setup_s_p75"] = (p75([op.setup_s for op in good]), "s")
    metrics["bench.tracing_overhead_s"] = (overhead, "s")
    metrics["bench.tracing_overhead_share"] = (overhead / untraced if untraced else 0.0, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "smartbizsim" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    (work / "spans").mkdir()
    scenario, config = workloads.generate(args.workload, args.seed)
    (work / "scenario.json").write_text(scenario, encoding="utf-8")
    (work / "pipeline.json").write_text(config, encoding="utf-8")

    bench = Bench(work)
    bench.op(traced=False)  # warm-up: bytecode, file cache; gated, not timed
    plain: list[Op] = []
    traced: list[Op] = []
    refs = [] if args.trace else [bench.time_reference()]
    deadline = time.monotonic() + args.seconds
    while time.monotonic() < deadline or not plain or (args.trace and not traced):
        if args.trace and len(traced) < len(plain):
            traced.append(bench.op(traced=True))
        else:
            plain.append(bench.op(traced=False))
            if not args.trace:
                refs.append(bench.time_reference())

    if args.trace:
        metrics, raw = per_layer(bench, plain, traced), {}
    else:
        metrics, raw = end_to_end(bench, plain, refs)
    failed = sum(not op.ok for op in bench.ops)
    for op in bench.ops:
        for problem in op.problems[:1]:
            print(f"perfbench: op failed: {problem}", file=sys.stderr)
    print("digests " + " ".join(f"{k}={v}" for k, v in (bench.first_digests or {}).items()))
    print(f"ops timed={len(plain)} traced={len(traced)} records_per_op={bench.records} "
          + " ".join(f"raw_median_{k}={v}" for k, v in raw.items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(bench.ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
