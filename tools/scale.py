"""Wall time and memory of `simulate` and `dmaic` at three scales.

    python3 tools/scale.py --parent REV --out SCALE_<n>.json

Run from the root of a checkout. Each scale is perfbench's `fleet`
workload at seed 41, resized to a device and command count (SCALES).
For each scale and each of `simulate --controls none`, `simulate
--controls all` and `dmaic`, the parent REV (exported with `git
archive`) and this checkout run REPEATS times each, alternating which
side goes first, every run in a fresh interpreter. A run records:

  wall_s            seconds from starting the process until it exited
  load_s            seconds in the call that loads the scenario or the
                    pipeline config
  post_load_rss_mb  peak resident memory when that call returned
  peak_rss_mb       peak resident memory of the whole process
  records           trace lines written, over every trace file
  digests           SHA-256 of every file the run wrote

The file holds every run and, per scale, command and side, the medians.
The script exits 1 when the two sides wrote different bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

from bench_pairs import ROOT, export

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

SEED = 41
SCALES = {"small": (3, 2_000), "medium": (50, 20_000), "large": (300, 100_000)}
REPEATS = 3
COMMANDS = {
    "simulate-none": ["simulate", "--scenario", "scenario.json", "--controls", "none",
                      "--out", "out/trace.ndjson"],
    "simulate-all": ["simulate", "--scenario", "scenario.json", "--controls", "all",
                     "--out", "out/trace.ndjson"],
    "dmaic": ["dmaic", "--config", "pipeline.json", "--out", "out"],
}
MEDIANS = ("wall_s", "load_s", "post_load_rss_mb", "peak_rss_mb")

# Runs the CLI from the checkout's src/ as the console script does, and
# notes the time and peak memory of loading the input.
CHILD = """
import json, resource, sys, time
src, stamp_path, *argv = sys.argv[1:]
sys.path.insert(0, src)
from smartbizsim import cli, costs
stamp = {}

def stamped(load):
    def load_and_stamp(*args, **kwargs):
        start = time.monotonic()
        loaded = load(*args, **kwargs)
        stamp["load_s"] = time.monotonic() - start
        stamp["post_load_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return loaded
    return load_and_stamp

costs.load_dmaic_config = stamped(costs.load_dmaic_config)
cli.load_scenario = stamped(cli.load_scenario)
code = cli.main(argv)
with open(stamp_path, "w") as out:
    json.dump(stamp, out)
sys.exit(code)
"""


def generate(work: Path, devices: int, commands: int) -> None:
    """perfbench's fleet scenario at SEED, resized, and its pipeline config."""
    sizes = {**workloads.SIZES["fleet"], "devices": devices, "messages": commands}
    with mock.patch.dict(workloads.SIZES, fleet=sizes):
        scenario, config = workloads.generate("fleet", SEED)
    (work / "scenario.json").write_text(scenario, encoding="utf-8")
    (work / "pipeline.json").write_text(config, encoding="utf-8")


def run(src: Path, work: Path, argv: list[str]) -> dict:
    out, stamp = work / "out", work / "stamp.json"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-c", CHILD, str(src), str(stamp), *argv],
                            cwd=work, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"scale: {' '.join(argv)} from {src} exited {code}")
    result = json.loads(stamp.read_text())
    result["wall_s"] = wall
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    result["records"] = 0
    result["digests"] = {}
    for path in sorted(out.iterdir()):
        result["digests"][path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        if path.suffix == ".ndjson":
            with path.open("rb") as lines:
                result["records"] += sum(1 for _ in lines)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()

    runs, summary = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        rev = export(args.parent, Path(tmp) / "parent")
        sides = {"parent": Path(tmp) / "parent" / "src", "change": ROOT / "src"}
        work = Path(tmp) / "work"
        work.mkdir()
        generate(work, *SCALES["small"])
        for src in sides.values():  # compile the bytecode; not timed
            run(src, work, COMMANDS["simulate-none"])
        k = 0
        for scale, (devices, commands) in SCALES.items():
            generate(work, devices, commands)
            summary[scale] = {}
            for command, argv in COMMANDS.items():
                results = {side: [] for side in sides}
                for _ in range(REPEATS):
                    order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
                    k += 1
                    for side in order:
                        result = run(sides[side], work, argv)
                        results[side].append(result)
                        runs.append({"scale": scale, "command": command, "side": side,
                                     **result})
                        print(scale, command, side, round(result["wall_s"], 3),
                              round(result["peak_rss_mb"], 1), file=sys.stderr)
                digests = {json.dumps(r["digests"]) for rs in results.values() for r in rs}
                summary[scale][command] = {"digests_equal": len(digests) == 1}
                for side, rs in results.items():
                    medians = {m: round(statistics.median(r[m] for r in rs), 3)
                               for m in MEDIANS}
                    medians["peak_over_post_load"] = round(
                        medians["peak_rss_mb"] / medians["post_load_rss_mb"], 2)
                    medians["records"] = rs[0]["records"]
                    summary[scale][command][side] = medians

    doc = {
        "command": f"python3 tools/scale.py --parent {args.parent} --out {args.out}",
        "parent": rev,
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "scales": {name: {"devices": d, "commands": c} for name, (d, c) in SCALES.items()},
        "digests_equal": all(c["digests_equal"] for s in summary.values() for c in s.values()),
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if doc["digests_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
