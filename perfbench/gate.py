"""Correctness gate for the outputs of one `dmaic` op.

The checks recount everything from the files the op wrote, without
importing the program, so a fault in metering cannot hide itself:

* conservation on both traces: every sent message has exactly one
  terminal record (delivered or lost), so delivered + lost = sent;
* the report's metric sets equal the recount from each trace;
* the per-section costs sum exactly to `total_security_cost`, in
  integers;
* the secured run exposes no plaintext and enables S9, S10 and S17 (the
  default top-3 plan).

Digests of the report and both traces let one run require that every op
wrote identical bytes, and let a reviewer diff parent against change.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

OUTPUTS = ("report.json", "trace_baseline.ndjson", "trace_secured.ndjson")
PLAN_SECTIONS = {"S9", "S10", "S17"}


def digests(out_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in OUTPUTS
    }


def recount(path: Path) -> tuple[dict, list[str], int]:
    """Metric set recomputed from one trace, the problems found, record count."""
    problems: list[str] = []
    sent: set[int] = set()
    terminal: Counter = Counter()
    kinds: Counter = Counter()
    wire = latency = plaintext = 0
    with path.open(encoding="utf-8") as lines:
        for seq, line in enumerate(lines):
            record = json.loads(line)
            if record["seq"] != seq:
                problems.append(f"{path.name}: record {seq} has seq {record['seq']}")
                break
            kind = record["kind"]
            kinds[kind] += 1
            if kind == "sent":
                sent.add(record["msg_id"])
                wire += record["wire_bytes"]
                plaintext += not record["wrapped"]
            elif kind in ("delivered", "lost"):
                terminal[record["msg_id"]] += 1
                if kind == "delivered":
                    latency += record["latency_ms"]
    unfinished = sent - set(terminal)
    if unfinished:
        problems.append(f"{path.name}: {len(unfinished)} sent message(s) never "
                        f"delivered or lost, e.g. {sorted(unfinished)[:3]}")
    orphans = set(terminal) - sent
    if orphans:
        problems.append(f"{path.name}: terminal records for unsent ids {sorted(orphans)[:3]}")
    repeated = [m for m, n in terminal.items() if n > 1]
    if repeated:
        problems.append(f"{path.name}: messages with several terminal records {repeated[:3]}")
    if kinds["delivered"] + kinds["lost"] != kinds["sent"]:
        problems.append(f"{path.name}: delivered ({kinds['delivered']}) + lost "
                        f"({kinds['lost']}) != sent ({kinds['sent']})")
    metrics = {
        "messages_sent": kinds["sent"],
        "messages_delivered": kinds["delivered"],
        "messages_lost": kinds["lost"],
        "total_wire_bytes": wire,
        "total_latency_ms": latency,
        "plaintext_exposures": plaintext,
    }
    return metrics, problems, sum(kinds.values())


def check(out_dir: Path) -> tuple[list[str], int]:
    """Problems with one op's outputs (empty when correct), and its record count."""
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    records = 0
    for run in ("baseline", "secured"):
        metrics, found, count = recount(out_dir / f"trace_{run}.ndjson")
        problems += found
        records += count
        for key, value in metrics.items():
            if report[run][key] != value:
                problems.append(f"report {run}.{key} = {report[run][key]}, "
                                f"trace gives {value}")
    if report["secured"]["plaintext_exposures"] != 0:
        problems.append("secured run exposes "
                        f"{report['secured']['plaintext_exposures']} plaintext message(s)")
    sections = report["cost_breakdown"]
    if set(sections) != PLAN_SECTIONS:
        problems.append(f"plan enabled {sorted(sections)}, expected {sorted(PLAN_SECTIONS)}")
    parts = [v for cost in sections.values() for v in cost.values()]
    total = report["total_security_cost"]
    if not all(type(v) is int for v in parts + [total]):
        problems.append("cost figures are not all integers")
    elif sum(parts) != total:
        problems.append(f"section costs sum to {sum(parts)}, "
                        f"total_security_cost is {total}")
    return problems, records
