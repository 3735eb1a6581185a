"""Run perfbench on a parent commit and on this checkout, in pairs.

    python3 tools/bench_pairs.py --parent REV --out BENCH_<n>.json

Run from the root of a checkout. REV is exported with `git archive`
into a temporary directory. For each workload of BENCHMARK.json and each
of SEEDS, both sides run `perfbench/run.py --trace 0` for BENCHMARK.json's
`run_seconds`, the first side alternating from one pair to the next.
After the pairs of A_A_SEEDS, an A/A pair runs the parent against
itself on the same seed (its first side alternating too), so the file
shows how far two runs of the same code drift apart on this host. One
more pair per workload runs with `--trace 1` for the per-layer metrics,
and the work counts that differ between its sides are listed per
workload. The file holds every run's
digests and result line and, per workload and end-to-end metric, the
medians of both sides, the distance between the parent's quartiles, the
median and quartile distance of the per-pair ratios (change/parent), the
number of pairs in which the change is better, and the median and
quartile distance of the A/A pairs' ratios (parent_again/parent). The
report and trace digests of the two sides of every pair must be equal;
the script exits 1 when they are not.
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
A_A_SEEDS = SEEDS[1::3]  # 22, 25, 28: each also runs an A/A pair, spread among the rest


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


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """One metric over the pairs of one workload, `parent[i]` and `change[i]`
    from pair i. Each ratio is taken within its pair: the pairs run
    different seeds, so their sizes differ, and a ratio of medians taken
    across them would divide runs of one seed by runs of another."""
    sign = 1 if better == "higher" else -1
    q1, _, q3 = statistics.quantiles(parent, n=4)
    median, spread = ratio_spread(parent, change)
    return {
        "pairs": len(parent),
        "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "parent_median": statistics.median(parent),
        "parent_quartile_distance": q3 - q1,
        "change_median": statistics.median(change),
        "change_over_parent_ratio_median": median,
        "change_over_parent_ratio_quartile_distance": spread,
    }


def ratio_spread(first: list[float], second: list[float]) -> tuple[float, float]:
    """The median and quartile distance of the per-pair ratios second/first."""
    ratios = [b / a for a, b in zip(first, second)]
    r1, _, r3 = statistics.quantiles(ratios, n=4)
    return round(statistics.median(ratios), 4), round(r3 - r1, 4)


def schedule() -> list[tuple[str, int, int, str]]:
    """Every pair in the order it runs: (workload, seed, trace, the side
    run against the parent). An A/A pair follows its seed's real pair."""
    plan = [(w, seed, 0, other) for w in WORKLOADS for seed in SEEDS
            for other in (("change", "parent_again") if seed in A_A_SEEDS else ("change",))]
    return plan + [(w, SEEDS[0], 1, "change") for w in WORKLOADS]


def summarize(pairs: list[dict]) -> dict:
    """Per workload and end-to-end metric: `compare` over the untraced
    pairs, beside the ratio spread of the A/A pairs (the noise floor)."""
    def values(group: list[dict], side: str, name: str) -> list[float]:
        return [p[side]["result"]["metrics"][name]["value"] for p in group]

    summary = {}
    for workload in WORKLOADS:
        timed = [p for p in pairs if p["workload"] == workload and p["trace"] == 0]
        real = [p for p in timed if "change" in p]
        a_a = [p for p in timed if "parent_again" in p]
        summary[workload] = {}
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            median, spread = ratio_spread(values(a_a, "parent", name),
                                          values(a_a, "parent_again", name))
            summary[workload][name] = {
                **compare(values(real, "parent", name), values(real, "change", name),
                          metric["better"]),
                "a_a_pairs": len(a_a),
                "a_a_ratio_median": median,
                "a_a_ratio_quartile_distance": spread,
            }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        rev = export(args.parent, tmp)
        sides = {"parent": Path(tmp), "change": ROOT, "parent_again": Path(tmp)}
        pairs = []
        for workload, seed, trace, other in schedule():
            # the first side alternates among the real pairs and among the A/A pairs
            earlier = sum(other in p for p in pairs)
            order = ["parent", other] if earlier % 2 == 0 else [other, "parent"]
            pair = {"workload": workload, "seed": seed, "trace": trace, "first": order[0]}
            for side in order:
                pair[side] = run(sides[side], workload, seed, trace)
                print(workload, seed, trace, side, pair[side]["result"]["metrics"],
                      file=sys.stderr)
            pair["digests_equal"] = pair["parent"]["digests"] == pair[other]["digests"]
            pairs.append(pair)

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
        "summary": summarize(pairs),
        "pairs": pairs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if doc["digests_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
