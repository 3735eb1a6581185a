import json

import pytest

from smartbizsim.cli import main
from smartbizsim.scenario import default_scenario


def test_assess_prints_the_ranking_with_r6_first(capsys):
    assert main(["assess", "--top-k", "3"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith(("rank", "-"))]
    assert lines[0].split()[1] == "R6"
    assert len([l for l in lines if l[0].isdigit()]) == 10
    assert "top-3: R6, R9, R4" in out


def test_assess_formats_carry_the_same_numbers(tmp_path, capsys):
    assert main(["assess", "--format", "json"]) == 0
    as_json = json.loads(capsys.readouterr().out)
    assert main(["assess", "--format", "csv"]) == 0
    csv_lines = capsys.readouterr().out.strip().splitlines()
    csv_scores = {row.split(",")[1]: int(row.split(",")[-1]) for row in csv_lines[1:]}
    assert csv_scores == {k: v for k, v in as_json["scores"].items()}
    assert [row.split(",")[1] for row in csv_lines[1:]] == as_json["ranking"]


def test_assess_missing_catalog_file_exits_2(capsys):
    assert main(["assess", "--catalog", "/no/such/file.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_assess_malformed_catalog_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"risks": [{"id": "R1", "name": "x", "relevance": "Huge", "severity": "Low"}]}')
    assert main(["assess", "--catalog", str(bad)]) == 2
    assert "Huge" in capsys.readouterr().err


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as err:
        main(["assess", "--bogus"])
    assert err.value.code == 2


def test_simulate_writes_trace_and_summary(tmp_path, capsys):
    out = tmp_path / "trace.ndjson"
    assert main(["simulate", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "sent=62 delivered=61 lost=1" in stdout
    assert out.exists()
    first = json.loads(out.read_text().splitlines()[0])
    assert {"seq", "time", "kind"} <= set(first)


def test_simulate_without_failures_loses_nothing(tmp_path, capsys):
    scenario = default_scenario()
    doc = scenario.to_dict()
    doc["failures"] = []
    path = tmp_path / "calm.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "trace.ndjson"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    assert "lost=0" in capsys.readouterr().out


def test_simulate_with_all_controls_recovers_the_outage(tmp_path, capsys):
    out = tmp_path / "trace.ndjson"
    assert main(["simulate", "--controls", "all", "--out", str(out)]) == 0
    assert "lost=0" in capsys.readouterr().out


def test_simulate_rejects_unknown_layer(tmp_path, capsys):
    assert main(["simulate", "--controls", "s42", "--out", str(tmp_path / "t")]) == 2


def test_dmaic_writes_report_and_traces(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["dmaic", "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["total_security_cost"] > 0
    assert (out_dir / "trace_baseline.ndjson").exists()
    assert (out_dir / "trace_secured.ndjson").exists()
    assert "provenance" in report
    assert len(report["provenance"]["config_digest"]) == 64


def test_dmaic_reruns_byte_identically(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["dmaic", "--out", str(a)]) == 0
    assert main(["dmaic", "--out", str(b)]) == 0
    for name in ("report.json", "trace_baseline.ndjson", "trace_secured.ndjson"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_dmaic_with_unresolvable_scenario_names_define(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenario": "missing-scenario.json"}))
    assert main(["dmaic", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "[Define]" in capsys.readouterr().err


def test_dmaic_table_format_carries_the_total(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["dmaic", "--format", "table", "--out", str(out_dir)]) == 0
    json_dir = tmp_path / "json"
    assert main(["dmaic", "--format", "json", "--out", str(json_dir)]) == 0
    total = json.loads((json_dir / "report.json").read_text())["total_security_cost"]
    table = (out_dir / "report.txt").read_text()
    row = next(l for l in table.splitlines() if l.startswith("total_security_cost"))
    assert row.split()[-1] == str(total)


def test_report_rerenders_an_existing_report(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["dmaic", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["report", "--in", str(out_dir / "report.json"), "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    total = json.loads((out_dir / "report.json").read_text())["total_security_cost"]
    assert f"total_security_cost,{total}" in csv_text


def test_report_missing_file_exits_2(capsys):
    assert main(["report", "--in", "/no/such/report.json"]) == 2


def _report(out_dir) -> dict:
    return json.loads((out_dir / "report.json").read_text())


def test_dmaic_top_k_2_prices_only_the_locks_it_builds(tmp_path, capsys):
    # S17 is off, so no spares are built: 3 locks, not 6.
    assert main(["dmaic", "--top-k", "2", "--out", str(tmp_path)]) == 0
    sections = _report(tmp_path)["cost_breakdown"]
    assert set(sections) == {"S9", "S10"}
    assert sections["S9"]["capital"] == 3 * 150_000


def _larger_scenario(path) -> None:
    """The built-in scenario plus five devices: 8 devices, 8 spares."""
    doc = default_scenario().to_dict()
    for i in range(5):
        doc["nodes"].append({"id": f"dev-extra-{i}", "kind": "SmartDevice",
                             "site": "CityA"})
        doc["links"].append({"a": f"dev-extra-{i}", "b": "cloud", "latency_ms": 50})
    path.write_text(json.dumps(doc))


def test_dmaic_scenario_flag_prices_that_scenarios_hardware(tmp_path, capsys):
    scenario = tmp_path / "big.json"
    _larger_scenario(scenario)
    assert main(["dmaic", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 0
    sections = _report(tmp_path / "o")["cost_breakdown"]
    assert sections["S9"]["capital"] == 16 * 150_000
    assert sections["S17"]["capital"] == 8 * 150_000


def test_dmaic_scenario_flag_equals_the_same_reference_in_the_config(tmp_path, capsys):
    scenario = tmp_path / "big.json"
    _larger_scenario(scenario)
    block = {"controls": {"s10": {"overhead_bytes": 500}}, "seed": 9}
    flag_cfg = tmp_path / "flag.json"
    flag_cfg.write_text(json.dumps(block))
    ref_cfg = tmp_path / "ref.json"
    ref_cfg.write_text(json.dumps({**block, "scenario": "big.json"}))
    assert main(["dmaic", "--config", str(flag_cfg), "--scenario", str(scenario),
                 "--out", str(tmp_path / "flag")]) == 0
    assert main(["dmaic", "--config", str(ref_cfg), "--out", str(tmp_path / "ref")]) == 0
    report = (tmp_path / "flag" / "report.json").read_bytes()
    assert report == (tmp_path / "ref" / "report.json").read_bytes()
    assert _report(tmp_path / "flag")["provenance"]["seed"] == 9


def test_dmaic_seed_flag_sets_the_scenario_seed(tmp_path, capsys):
    assert main(["dmaic", "--seed", "777", "--out", str(tmp_path)]) == 0
    assert _report(tmp_path)["provenance"]["seed"] == 777


def test_dmaic_missing_catalog_flag_names_define(tmp_path, capsys):
    assert main(["dmaic", "--catalog", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2
    assert "[Define]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "block, key",
    [
        ({"top_k": None}, "top_k"),
        ({"seed": "abc"}, "seed"),
        ({"rates": {"session": "y"}}, "rates"),
        ({"rates": 5}, "rates"),
        ({"controls": {"s10": {"overhead_bytes": "x"}}}, "controls"),
        ({"controls": 5}, "controls"),
        ({"controls": "s10"}, "controls"),
    ],
)
def test_dmaic_malformed_config_value_exits_2_naming_the_key(tmp_path, capsys, block, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(block))
    assert main(["dmaic", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Define] ")
    assert f"bad {key} " in err


def test_dmaic_numeric_string_top_k_is_accepted(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"top_k": "3"}))
    assert main(["dmaic", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    default = tmp_path / "default"
    assert main(["dmaic", "--out", str(default)]) == 0
    assert _report(tmp_path / "o")["cost_breakdown"] == _report(default)["cost_breakdown"]
