"""Run perfbench on a parent commit and on this checkout, in pairs.

    python3 tools/bench_pairs.py --parent REV --out BENCH_<n>.json

Run from the root of a checkout. REV is exported with `git archive`
into a temporary directory. For each workload of BENCHMARK.json and each
of SEEDS, both sides run `perfbench/run.py --trace 0` for BENCHMARK.json's
`run_seconds`, the first side alternating from one pair to the next; one
more pair per workload runs with `--trace 1` for the per-layer metrics,
and the work counts that differ between its sides are listed per
workload. The file holds every run's
digests and result line and, per workload and end-to-end metric, the
medians of both sides, the distance between the parent's quartiles and
the number of pairs in which the change is better. The report and trace
digests of the two sides must be equal; the script exits 1 when they
are not.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SECONDS = BENCHMARK["run_seconds"]
SEEDS = range(21, 31)  # one pair per workload and seed


def export(rev: str, dest: str | Path) -> str:
    """Write the files of git revision `rev` into the directory `dest`;
    returns the revision's full commit id."""
    rev = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return rev


def run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    digests = next(line for line in lines if line.startswith("digests "))
    return {
        "digests": dict(item.split("=", 1) for item in digests.split()[1:]),
        "result": json.loads(lines[-1]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        rev = export(args.parent, tmp)
        sides = {"parent": Path(tmp), "change": ROOT}
        plan = [(w, seed, 0) for w in WORKLOADS for seed in SEEDS]
        plan += [(w, SEEDS[0], 1) for w in WORKLOADS]
        pairs = []
        for k, (workload, seed, trace) in enumerate(plan):
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            pair = {"workload": workload, "seed": seed, "trace": trace, "first": order[0]}
            for side in order:
                pair[side] = run(sides[side], workload, seed, trace)
                print(workload, seed, trace, side, pair[side]["result"]["metrics"],
                      file=sys.stderr)
            pair["digests_equal"] = pair["parent"]["digests"] == pair["change"]["digests"]
            pairs.append(pair)

    better = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
    summary = {}
    for workload in WORKLOADS:
        timed = [p for p in pairs if p["workload"] == workload and p["trace"] == 0]
        summary[workload] = {}
        for name, direction in better.items():
            parent = [p["parent"]["result"]["metrics"][name]["value"] for p in timed]
            change = [p["change"]["result"]["metrics"][name]["value"] for p in timed]
            sign = 1 if direction == "higher" else -1
            q1, _, q3 = statistics.quantiles(parent, n=4)
            summary[workload][name] = {
                "pairs": len(timed),
                "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                "parent_median": statistics.median(parent),
                "parent_quartile_distance": q3 - q1,
                "change_median": statistics.median(change),
                "change_over_parent_median": round(
                    statistics.median(change) / statistics.median(parent), 4),
            }
    counts_differ = {}
    for traced in (p for p in pairs if p["trace"] == 1):
        parent_layers = traced["parent"]["result"]["metrics"]
        change_layers = traced["change"]["result"]["metrics"]
        # bench.* counts are ops run, which depends on speed; the rest count work
        counts_differ[traced["workload"]] = sorted(
            name for name, metric in parent_layers.items()
            if metric["unit"] in ("count", "bytes") and not name.startswith("bench.")
            and change_layers[name] != metric
        )
    doc = {
        "command": f"python3 tools/bench_pairs.py --parent {args.parent} --out {args.out}",
        "parent": rev,
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "digests_equal": all(p["digests_equal"] for p in pairs),
        "traced_work_counts_that_differ": counts_differ,
        "summary": summary,
        "pairs": pairs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if doc["digests_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
