"""Command-line entry point.

Four subcommands:

* assess   -- rank the risk catalog and print the scored listing
* simulate -- run one scenario (optionally with control layers) and
              write its trace
* dmaic    -- run the full five-step pipeline; writes the cost report
              and both traces
* report   -- re-render an existing cost report in another format

Exit codes: 0 success, 2 input/config error or an output that cannot be
written, 3 simulation error. `main` picks the code from the class of the
error alone: a ConfigError or an OSError is 2, any other SmartBizError 3.
A pipeline step's label keeps the class. Any other exception is a
program error and escapes with its traceback.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from . import costs, middleware
from .errors import (
    ConfigError, SmartBizError, canonical_json, decode, json_default, read, read_text,
)
from .metering import Meter
from .risk import RiskAssessment, RiskCatalog, default_risk_catalog, rank, top_k
from .scenario import default_scenario, load_scenario
from .trace import ndjson
from .world import build_world

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smartbizsim",
        description="Smart-business simulator with a security cost pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_assess = sub.add_parser("assess", help="rank the risk catalog")
    p_assess.add_argument("--catalog", help="risk catalog JSON (default: built-in)")
    p_assess.add_argument("--top-k", type=int, default=None, dest="top_k",
                          help="print the top-k ids on a line after the table (table only)")
    p_assess.add_argument("--format", choices=("json", "csv", "table"),
                          default="table")
    p_assess.add_argument("--out", help="write output here instead of stdout")

    p_sim = sub.add_parser("simulate", help="run one scenario and write its trace")
    p_sim.add_argument("--scenario", help="scenario JSON (default: built-in)")
    p_sim.add_argument("--controls", default="none",
                       help='comma list of layers to enable: "s9,s10,s17", '
                            '"all" or "none" (default)')
    p_sim.add_argument("--out", default="trace.ndjson", help="trace output path")

    p_dmaic = sub.add_parser("dmaic", help="run the full pipeline")
    p_dmaic.add_argument("--config", help="pipeline config JSON (default: built-ins)")
    p_dmaic.add_argument("--catalog", help="override the risk catalog reference")
    p_dmaic.add_argument("--scenario", help="override the scenario reference")
    p_dmaic.add_argument("--top-k", type=int, default=None, dest="top_k")
    p_dmaic.add_argument("--format", choices=("json", "csv", "table"),
                         default="json")
    p_dmaic.add_argument("--out", default="dmaic-out", help="output directory")

    p_report = sub.add_parser("report", help="re-render a cost report")
    p_report.add_argument("--in", dest="infile", required=True,
                          help="existing report.json")
    p_report.add_argument("--format", choices=("json", "csv", "table"),
                          default="table")
    p_report.add_argument("--out", help="write output here instead of stdout")
    return parser


# -- rendering ---------------------------------------------------------------


def _table(headers: list[str], rows: list[list]) -> str:
    cells = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(cells[0], widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _csv(headers: list[str], rows: list[list]) -> str:
    lines = [",".join(headers)] + [",".join(_csv_cell(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    text = str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:  # RFC 4180
        return '"' + text.replace('"', '""') + '"'
    return text


def _ranking_rows(assessment: RiskAssessment) -> list[list]:
    by_id = {r.id: r for r in assessment.risks}
    rows = []
    for position, rid in enumerate(assessment.ranking, start=1):
        risk = by_id[rid]
        rows.append([
            position, rid, risk.name, risk.relevance.value,
            risk.severity.value, assessment.scores[rid],
        ])
    return rows


def _render_ranking(assessment: RiskAssessment, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(assessment, indent=2, sort_keys=True, default=json_default) + "\n"
    headers = ["rank", "id", "name", "relevance", "severity", "score"]
    rows = _ranking_rows(assessment)
    return _csv(headers, rows) if fmt == "csv" else _table(headers, rows)


def _report_rows(report_dict: dict) -> list[list]:
    """Flatten a report to key/value rows so every format carries the
    same numbers. A list of objects gives each object its own rows, keyed
    by its `id` (its position if it has none); any other list is one row."""
    rows: list[list] = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else key, value[key])
        elif value and isinstance(value, list) and all(isinstance(v, dict) for v in value):
            for position, item in enumerate(value):
                fields = {k: v for k, v in item.items() if k != "id"}
                walk(f"{prefix}.{item.get('id', position)}", fields)
        elif isinstance(value, list):
            rows.append([prefix, " ".join(str(v) for v in value)])
        else:
            rows.append([prefix, value])

    walk("", report_dict)
    return rows


def _render_report(report: costs.CostReport, fmt: str) -> str:
    text = canonical_json(report)
    if fmt == "json":
        return text + "\n"
    rows = _report_rows(json.loads(text))  # the JSON's rows: each format, the same values
    headers = ["key", "value"]
    return _csv(headers, rows) if fmt == "csv" else _table(headers, rows)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# -- trace files ---------------------------------------------------------------


class _TraceFile(Meter):
    """A trace written as its run goes and metered in the same pass.

    Each batch is written, in one call, to a temporary file beside `path`,
    then metered. `commit` moves the finished file to `path`; `discard`
    closes the file and removes it if it was not committed.
    """

    def __init__(self, path: Path) -> None:
        super().__init__()
        self.path = path
        self._partial = path.with_name(f".{path.name}.partial")
        try:
            self._file = open(self._partial, "w", encoding="utf-8")
        except OSError as exc:  # name the path given, not the hidden partial
            raise OSError(exc.errno, exc.strerror, str(path)) from None

    def feed(self, records: list[dict]) -> None:
        self._file.write(ndjson(records))
        super().feed(records)

    def commit(self) -> None:
        self._file.close()
        os.replace(self._partial, self.path)

    def discard(self) -> None:
        self._file.close()
        self._partial.unlink(missing_ok=True)


@contextmanager
def _trace_files(*paths: Path) -> Iterator[list[_TraceFile]]:
    """A _TraceFile per path. They replace their paths only when the block
    ends without an error, so a failed run leaves no complete-looking trace."""
    files: list[_TraceFile] = []
    try:
        for path in paths:
            files.append(_TraceFile(path))
        yield files
        for trace_file in files:
            trace_file.commit()
    finally:
        for trace_file in files:
            trace_file.discard()


# -- subcommands ---------------------------------------------------------------


def _cmd_assess(args: argparse.Namespace) -> int:
    if args.top_k is not None and args.format != "table":
        raise ConfigError(f"--top-k needs --format table; --format {args.format} holds the rank")
    if args.catalog:
        catalog = read(RiskCatalog, decode(read_text(args.catalog)))
    else:
        catalog = default_risk_catalog()
    assessment = rank(catalog)
    output = _render_ranking(assessment, args.format)
    if args.top_k is not None:
        output += "top-%d: %s\n" % (args.top_k, ", ".join(top_k(assessment, args.top_k)))
    _emit(output, args.out)
    return EXIT_OK


def _parse_controls_flag(flag: str) -> frozenset[str]:
    flag = flag.strip().lower()
    if flag in ("none", ""):
        return frozenset()
    if flag == "all":
        return frozenset(middleware.SECTIONS)
    sections = set()
    for part in flag.split(","):
        part = part.strip().upper()
        if part not in middleware.SECTIONS:
            raise ConfigError(f"unknown control layer {part!r} (use s9,s10,s17)")
        sections.add(part)
    return frozenset(sections)


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario) if args.scenario else default_scenario()
    enabled = _parse_controls_flag(args.controls)
    # What was loaded lives until the process exits, so the cyclic collector
    # need not walk it again: not in the run's collections and, above all,
    # not at interpreter shutdown. Freeze it before any world is built.
    gc.freeze()
    with _trace_files(Path(args.out)) as (trace_file,):
        world = build_world(scenario, enabled, trace_file.feed)
        world.run_until(scenario.horizon_s)
        metrics = trace_file.metrics()
    print(
        f"sent={metrics.messages_sent} delivered={metrics.messages_delivered} "
        f"lost={metrics.messages_lost}"
    )
    print(f"trace written to {args.out}")
    return EXIT_OK


def _cmd_dmaic(args: argparse.Namespace) -> int:
    # Reference resolution is the pipeline's Define step: any unreadable
    # or malformed input is reported under that name.
    try:
        flags = {
            "risk_catalog": args.catalog,
            "scenario": args.scenario,
            "top_k": args.top_k,
        }
        config = costs.load_dmaic_config(
            args.config, {k: v for k, v in flags.items() if v is not None}
        )
    except SmartBizError as exc:  # the same class, so the exit code stays
        raise type(exc)(f"[Define] {exc}") from exc
    gc.freeze()  # the loaded input lives until exit: see _cmd_simulate

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = {"json": "json", "csv": "csv", "table": "txt"}[args.format]
    report_path = out_dir / f"report.{suffix}"
    with _trace_files(
        out_dir / "trace_baseline.ndjson", out_dir / "trace_secured.ndjson"
    ) as (baseline, secured):
        report = costs.run_dmaic(config, {"baseline": baseline, "secured": secured})
        report_path.write_text(_render_report(report, args.format), encoding="utf-8")
    print(f"total_security_cost={report.total_security_cost}")
    print(f"report written to {report_path}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    report = read(costs.CostReport, decode(read_text(args.infile)))
    _emit(_render_report(report, args.format), args.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "assess": _cmd_assess,
        "simulate": _cmd_simulate,
        "dmaic": _cmd_dmaic,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (SmartBizError, OSError) as exc:  # OSError: an output cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, (ConfigError, OSError)) else EXIT_SIMULATION


if __name__ == "__main__":
    sys.exit(main())
