"""Byte identity of the default pipeline outputs.

The default `dmaic` report and both traces are the project's reference
outputs. A change may alter these digests only while fixing a documented
defect, and must then record the before/after diff in CHANGES.md.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import multi_hop_scenario, recorded_dmaic, run
from smartbizsim import trace
from smartbizsim.cli import main
from smartbizsim.costs import load_dmaic_config
from smartbizsim.errors import canonical_json
from smartbizsim.scenario import default_scenario
from smartbizsim.trace import ndjson

ROOT = Path(__file__).resolve().parent.parent

GOLDEN_SHA256 = {
    "report": "18ffa700f6822265d5ef692e58147954d11856ce0db87c69def26a78f4a7579e",
    "baseline_trace": "c7a26ad9f3f5b54fb28f30d37743a609be230c78cbb66dc038f132a154ec90e9",
    "secured_trace": "410b4b5b64fa025c4c809134517e70e50834004fac2c0d9295f540d86ce483c1",
}

# Secured (S9+S10+S17) trace of helpers.multi_hop_scenario, whose routes
# have up to three hops and equal-length alternatives. Message 14 crosses
# dev-d while it is down, so it is lost in transit.
MULTI_HOP_SECURED_SHA256 = (
    "2206aecb428b95aa3d18fa9a198cc6745b55ae4cc2e4009f8ebef46dd3a58785"
)

# The CLI's renderings: `assess --format json`, and the default report
# re-rendered by `report --in report.json --format csv|table`.
RENDERED_SHA256 = {
    "assess_json": "cb50f604fce2d3ee6c8a42a79d3b1e9b3d2cd8c5890290c98505e4277a41e99a",
    "report_csv": "ae3e6142543e253661ed42ea1c713ed8a719ee8190dd1df536b03a8b12f3af0a",
    "report_table": "a7fbd9f1376c84ce3b30488174fac4f02a239fed219e6e2052f48bcbde666b6e",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_default_dmaic_outputs_are_byte_identical_to_the_reference():
    report, baseline, secured = recorded_dmaic(load_dmaic_config(None))
    outputs = {
        "report": canonical_json(report) + "\n",
        "baseline_trace": baseline.to_ndjson(),
        "secured_trace": secured.to_ndjson(),
    }
    digests = {name: _sha256(text) for name, text in outputs.items()}
    assert digests == GOLDEN_SHA256


@pytest.mark.parametrize("batch", [trace.BATCH_RECORDS, 7], ids=["default-batch", "batch-7"])
def test_dmaic_writes_the_reference_outputs_as_it_runs(monkeypatch, tmp_path, batch):
    monkeypatch.setattr(trace, "BATCH_RECORDS", batch)
    assert main(["dmaic", "--out", str(tmp_path)]) == 0
    files = {
        "report": "report.json",
        "baseline_trace": "trace_baseline.ndjson",
        "secured_trace": "trace_secured.ndjson",
    }
    digests = {name: _sha256((tmp_path / file).read_text(encoding="utf-8"))
               for name, file in files.items()}
    assert digests == GOLDEN_SHA256
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(files.values())


@pytest.mark.parametrize(
    "controls, enabled, golden",
    [("none", (), "baseline_trace"), ("all", ("S9", "S10", "S17"), "secured_trace")],
)
def test_simulate_writes_the_trace_a_kept_run_encodes(
    monkeypatch, tmp_path, capsys, controls, enabled, golden
):
    monkeypatch.setattr(trace, "BATCH_RECORDS", 7)
    out = tmp_path / "trace.ndjson"
    assert main(["simulate", "--controls", controls, "--out", str(out)]) == 0
    _, records = run(default_scenario(), enabled)
    assert out.read_text(encoding="utf-8") == ndjson(records)
    assert _sha256(ndjson(records)) == GOLDEN_SHA256[golden]


def test_multi_hop_secured_trace_is_byte_identical_to_the_reference():
    _, records = run(multi_hop_scenario(), {"S9", "S10", "S17"})
    assert _sha256(ndjson(records)) == MULTI_HOP_SECURED_SHA256


@pytest.fixture(scope="module")
def default_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("dmaic")
    assert main(["dmaic", "--out", str(out)]) == 0
    return out / "report.json"


def test_cli_renderings_are_byte_identical_to_the_reference(default_report, tmp_path):
    paths = {name: tmp_path / name for name in RENDERED_SHA256}
    assert main(["assess", "--format", "json", "--out", str(paths["assess_json"])]) == 0
    for fmt in ("csv", "table"):
        out = str(paths[f"report_{fmt}"])
        assert main(["report", "--in", str(default_report), "--format", fmt,
                     "--out", out]) == 0
    digests = {name: _sha256(path.read_text(encoding="utf-8")) for name, path in paths.items()}
    assert digests == RENDERED_SHA256


def test_report_renders_as_json_the_bytes_dmaic_writes(default_report, tmp_path):
    # dmaic writes report.json as `report --format json` renders it, so a
    # report read back by `report --in` is the report dmaic wrote
    rendered = tmp_path / "report.json"
    assert main(["report", "--in", str(default_report), "--format", "json",
                 "--out", str(rendered)]) == 0
    assert rendered.read_bytes() == default_report.read_bytes()
    assert _sha256(rendered.read_text(encoding="utf-8")) == GOLDEN_SHA256["report"]


def _outputs_under_hash_seed(argv, cwd: Path, seed: str) -> tuple[bytes, dict[str, bytes]]:
    """stdout and every file in `cwd` after the CLI runs `argv` there in a
    fresh interpreter whose str hashes are seeded by `seed`."""
    env = {"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": seed,
           "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "smartbizsim.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    files = {path.relative_to(cwd).as_posix(): path.read_bytes()
             for path in sorted(cwd.rglob("*")) if path.is_file()}
    return done.stdout, files


@pytest.mark.parametrize("argv", [
    ["dmaic"],
    ["simulate", "--controls", "all", "--scenario", "scenario.json"],
], ids=["dmaic", "simulate-multi-hop"])
def test_outputs_do_not_depend_on_the_hash_seed(tmp_path, argv):
    runs = []
    for seed in ("0", "987654"):
        cwd = tmp_path / seed
        cwd.mkdir()
        (cwd / "scenario.json").write_text(canonical_json(multi_hop_scenario()))
        runs.append(_outputs_under_hash_seed(argv, cwd, seed))
    (stdout, files), other = runs
    assert len(files) > 1  # the scenario and what the command wrote
    assert (stdout, files) == other
