"""Check that this checkout writes the same bytes as a parent commit, or
under another Python interpreter.

    python3 tools/identity.py --parent REV [--expect NAME ...]
    python3 tools/identity.py --python PATH [--expect NAME ...]

Run from the root of a checkout. REV is exported with `git archive`, and
the parent's source runs under this interpreter; with `--python`, this
checkout's source runs under this interpreter and under the one at PATH
(a `python3` executable, or the directory of an installed version, such
as `~/.pyenv/versions/3.13.0`).
Both sides run one fixed corpus (`corpus()`), whose bad documents are the
rows of `tests/documents.py`: every entry in a fresh work directory
holding the same input files at the same relative paths,
every command in a fresh interpreter with `PYTHONPATH=<side>/src`. An
entry's outputs are the files its commands write and, for its k-th
command, `k.stdout`, `k.stderr` and `k.exit`, each named under the
entry (`dmaic-json/out/report.json`, `dmaic-json/1.stdout`). A side's
own source path in stderr, as a traceback prints it, reads `<src>`.

Exit 1 lists each output that differs: in one side only, or with other
bytes. Exit 0 prints the SHA-256 of every output. An output named by
`--expect`, or under an entry it names, is printed as before and after
instead, and does not fail the run: a change that fixes a documented
defect names the outputs it moves.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export

sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
import workloads  # noqa: E402
from documents import ROWS, scenario_document  # noqa: E402

SEEDS = (21, 31)
HASH_SEED = "987654"
CLI = "import sys; from smartbizsim.cli import main; sys.exit(main(sys.argv[1:]))"


class Entry:
    """Commands run in order in one work directory that holds `files`
    (relative path -> text or bytes), with `env` added to the environment."""

    def __init__(self, *commands: list[str], files: dict | None = None,
                 env: dict | None = None):
        self.commands, self.files, self.env = commands, files or {}, env or {}


def _at_horizon(doc: dict) -> None:
    """A voice message sent at the horizon itself."""
    doc["commands"].append({**doc["commands"][-1], "at": doc["horizon_s"]})


def _wait_past_horizon(doc: dict) -> None:
    """City B down from 40 s before the horizon, with a message to it at
    30 s before: S17's detection window ends after the horizon."""
    end = doc["horizon_s"]
    doc["failures"].append({"node": "dev-city-b", "at": end - 40, "duration_s": 200})
    doc["commands"].append({**doc["commands"][-1], "at": end - 30, "to": "dev-city-b"})


def _huge_latency(doc: dict) -> None:
    """A link of 10**12 ms: its messages are due long after the horizon."""
    doc["links"][0]["latency_ms"] = 10**12


def _cloud_outage(doc: dict) -> None:
    """The cloud, which has no backup pool, down from day 30 for one day."""
    doc["failures"].append({"node": "cloud", "at": 30 * 86_400, "duration_s": 86_400})


def _theft_and_bandwidth(doc: dict) -> None:
    """A theft of the truck's device on day 2, and a link of 1000 bytes/s."""
    doc["thefts"].append({"node": "dev-truck", "at": 2 * 86_400})
    doc["links"][0]["bandwidth_bps"] = 1000


def _empty_reminder_id(doc: dict) -> None:
    """A reminder declared at 100 s with the empty id."""
    doc["reminders"].append({"id": "", "author": "dev-city-a", "target": "dev-city-b", "at": 100})


def corpus() -> dict[str, Entry]:
    """Every entry by name, in the order it runs."""
    entries = {}
    entries["dmaic-json"] = Entry(
        ["dmaic", "--out", "out"],
        *(["report", "--in", "out/report.json", "--format", fmt]
          for fmt in ("json", "csv", "table")))
    for controls in ("none", "all", "s9,s10"):
        entries[f"simulate-{controls}"] = Entry(
            ["simulate", "--controls", controls, "--out", "trace.ndjson"])
    for fmt in ("json", "csv", "table"):
        entries[f"assess-{fmt}"] = Entry(["assess", "--format", fmt])
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            scenario, config = workloads.generate(workload, seed)
            entries[f"{workload}-{seed}"] = Entry(
                ["dmaic", "--config", "pipeline.json", "--out", "out"],
                ["simulate", "--scenario", "scenario.json", "--controls", "all",
                 "--out", "all.ndjson"],
                files={"scenario.json": scenario, "pipeline.json": config})
    for name, patch in (("probe-at-horizon", _at_horizon),
                        ("probe-wait-past-horizon", _wait_past_horizon),
                        ("probe-huge-latency", _huge_latency),
                        ("probe-cloud-outage", _cloud_outage),
                        ("probe-empty-reminder-id", _empty_reminder_id),
                        ("theft-and-bandwidth", _theft_and_bandwidth)):
        entries[name] = Entry(
            ["simulate", "--scenario", "scenario.json", "--controls", "none",
             "--out", "none.ndjson"],
            ["simulate", "--scenario", "scenario.json", "--controls", "all",
             "--out", "all.ndjson"],
            ["dmaic", "--scenario", "scenario.json", "--out", "out"],
            files={"scenario.json": json.dumps(scenario_document(patch))})
    for name, row in ROWS.items():
        entries[name] = Entry(list(row.argv), files=row.files)
    entries["dmaic-hash-seed"] = Entry(["dmaic", "--out", "out"],
                                       env={"PYTHONHASHSEED": HASH_SEED})
    return entries


def run_side(src: Path, tree: Path, entries: dict[str, Entry],
             python: str = sys.executable) -> None:
    """Run every entry on the source tree `src` under the interpreter
    `python`, writing its outputs under `tree/<entry name>`; the input
    files are removed once it has run."""
    base = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    for name, entry in entries.items():
        work = tree / name
        for rel, text in entry.files.items():
            path = work / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            if isinstance(text, bytes):
                path.write_bytes(text)
            else:
                path.write_text(text, encoding="utf-8")
        work.mkdir(parents=True, exist_ok=True)
        env = {**base, "PYTHONPATH": str(src), **entry.env}
        for k, argv in enumerate(entry.commands, 1):
            proc = subprocess.run([python, "-c", CLI, *argv], cwd=work, env=env,
                                  capture_output=True)
            (work / f"{k}.stdout").write_bytes(proc.stdout)
            (work / f"{k}.stderr").write_bytes(proc.stderr.replace(bytes(src), b"<src>"))
            (work / f"{k}.exit").write_text(f"{proc.returncode}\n")
        for rel in entry.files:
            (work / rel).unlink()


def digests(tree: Path) -> dict[str, str]:
    """The SHA-256 of every file under `tree`, by its path relative to it."""
    return {
        path.relative_to(tree).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tree.rglob("*")) if path.is_file()
    }


def compare(before: Path, after: Path) -> list[str]:
    """The outputs that differ between two trees, sorted: a file in one
    tree only, or one with other bytes."""
    old, new = digests(before), digests(after)
    return sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))


def _expected(name: str, expect: list[str]) -> bool:
    return any(name == e or name.startswith(e.rstrip("/") + "/") for e in expect)


def _show(path: Path) -> str:
    if not path.exists():
        return "(absent)"
    data = path.read_bytes()
    if len(data) > 2000:
        return f"sha256 {hashlib.sha256(data).hexdigest()} ({len(data)} bytes)"
    return data.decode("utf-8", "replace").rstrip("\n")


def interpreter(path: str) -> tuple[str, str]:
    """The `python3` executable at `path`, or in its `bin` directory, and
    its version, so that an unusable PATH fails before the corpus runs."""
    exe = Path(path).expanduser()
    if exe.is_dir():
        exe = exe / "bin" / "python3"
    version = subprocess.run([str(exe), "-c", "import sys; print(sys.version.split()[0])"],
                             check=True, capture_output=True, text=True).stdout.strip()
    return str(exe), version


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    against = parser.add_mutually_exclusive_group(required=True)
    against.add_argument("--parent", help="git revision to compare against")
    against.add_argument("--python", metavar="PATH",
                         help="interpreter to compare this checkout's bytes under")
    parser.add_argument("--expect", nargs="*", default=[], metavar="NAME",
                        help="an output, or an entry, that this change is meant to move")
    args = parser.parse_args()

    entries = corpus()
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"before": Path(tmp) / "before", "after": Path(tmp) / "after"}
        if args.parent:
            rev = export(args.parent, Path(tmp) / "parent")
            run_side(Path(tmp) / "parent" / "src", trees["before"], entries)
            run_side(ROOT / "src", trees["after"], entries)
            label = f"parent {rev}"
        else:
            python, version = interpreter(args.python)
            run_side(ROOT / "src", trees["before"], entries)
            run_side(ROOT / "src", trees["after"], entries, python)
            label = f"python {sys.version.split()[0]} against {version} ({python})"
        moved = compare(trees["before"], trees["after"])
        names = sorted(digests(trees["before"]).keys() | digests(trees["after"]).keys())
        print(f"{label}: {len(entries)} entries, {len(names)} outputs")
        for name in names:
            if _expected(name, args.expect):
                state = "moved" if name in moved else "unchanged"
                print(f"expected {name} ({state})")
                print(f"  before: {_show(trees['before'] / name)}")
                print(f"  after:  {_show(trees['after'] / name)}")
        unexpected = [name for name in moved if not _expected(name, args.expect)]
        if unexpected:
            for name in unexpected:
                print(f"differs {name}")
            return 1
        after = digests(trees["after"])
        for name in names:
            if not _expected(name, args.expect):
                print(f"{after[name]}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
