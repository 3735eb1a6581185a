"""Tests of the benchmark itself: generator, correctness gate, metric names.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from smartbizsim import cli  # noqa: E402
from smartbizsim.scenario import parse_scenario  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_from_its_seed(name):
    first = workloads.generate(name, 7)
    assert workloads.generate(name, 7) == first
    other = workloads.generate(name, 8)
    assert other[0] != first[0]
    assert other[1] == first[1]  # the pipeline config only names the scenario


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_scenarios_pass_the_programs_own_validation(name):
    scenario = parse_scenario(workloads.generate(name, 1)[0])
    assert scenario.commands


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A real dmaic op on a branch scenario, written to a directory."""
    work = tmp_path_factory.mktemp("op")
    scenario, config = workloads.generate("branch", 3)
    (work / "scenario.json").write_text(scenario)
    (work / "pipeline.json").write_text(config)
    assert cli.main(["dmaic", "--config", str(work / "pipeline.json"),
                     "--out", str(work / "out")]) == 0
    return work / "out"


def copy_outputs(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for name in gate.OUTPUTS:
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


def test_gate_accepts_the_programs_outputs(outputs):
    problems, records = gate.check(outputs)
    assert problems == []
    lines = sum(len((outputs / f"trace_{r}.ndjson").read_text().splitlines())
                for r in ("baseline", "secured"))
    assert records == lines


def test_gate_rejects_a_trace_with_a_delivered_record_dropped(outputs, tmp_path):
    out = copy_outputs(outputs, tmp_path / "out")
    path = out / "trace_baseline.ndjson"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    drop = next(i for i, r in enumerate(records) if r["kind"] == "delivered")
    kept = records[:drop] + records[drop + 1:]
    for seq, record in enumerate(kept):  # renumber, so only conservation can tell
        record["seq"] = seq
    path.write_text("".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                            for r in kept))
    problems, _ = gate.check(out)
    assert any("never delivered or lost" in p for p in problems)
    assert any("delivered" in p and "!= sent" in p for p in problems)


def test_gate_rejects_a_report_with_one_section_cost_changed(outputs, tmp_path):
    out = copy_outputs(outputs, tmp_path / "out")
    report = json.loads((out / "report.json").read_text())
    report["cost_breakdown"]["S10"]["performance"] += 1
    (out / "report.json").write_text(json.dumps(report))
    problems, _ = gate.check(out)
    assert any("section costs sum to" in p for p in problems)


def test_gate_rejects_plaintext_in_the_secured_run(outputs, tmp_path):
    out = copy_outputs(outputs, tmp_path / "out")
    report = json.loads((out / "report.json").read_text())
    report["secured"]["plaintext_exposures"] = 1
    (out / "report.json").write_text(json.dumps(report))
    problems, _ = gate.check(out)
    assert any("plaintext" in p for p in problems)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key, capsys):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    assert run.main(["--workload", "fleet", "--seed", "1",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}


def test_an_op_that_exits_nonzero_fails(tmp_path):
    (tmp_path / "out").mkdir()
    (tmp_path / "pipeline.json").write_text('{"scenario": "missing.json"}')
    op = run.Bench(tmp_path).op(traced=False)
    assert op.code == 2 and not op.ok
    assert "exit code 2" in op.problems[0]
