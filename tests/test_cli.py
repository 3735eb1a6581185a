import csv
import errno
import gc
import json
import os

import pytest

from helpers import document, rejected, run
from smartbizsim import cli, costs, trace
from smartbizsim.cli import main
from smartbizsim.controls import build_plan, default_mapping
from smartbizsim.errors import ConfigError, SimulationError, SmartBizError, canonical_json
from smartbizsim.scenario import default_scenario
from smartbizsim.trace import ndjson
from smartbizsim.world import World


def test_assess_prints_the_ranking_with_r6_first(capsys):
    assert main(["assess"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith(("rank", "-"))]
    assert [l.split()[1] for l in lines[:3]] == ["R6", "R9", "R4"]
    assert len([l for l in lines if l[0].isdigit()]) == 10


def test_assess_formats_carry_the_same_numbers(tmp_path, capsys):
    assert main(["assess", "--format", "json"]) == 0
    as_json = json.loads(capsys.readouterr().out)
    assert main(["assess", "--format", "csv"]) == 0
    csv_lines = capsys.readouterr().out.strip().splitlines()
    csv_scores = {row.split(",")[1]: int(row.split(",")[-1]) for row in csv_lines[1:]}
    assert csv_scores == {k: v for k, v in as_json["scores"].items()}
    assert [row.split(",")[1] for row in csv_lines[1:]] == as_json["ranking"]


def test_a_csv_cell_with_a_line_break_reads_back_as_one_cell(tmp_path):
    risks = [
        {"id": "R1", "name": "Data\nloss", "relevance": "High", "severity": "VeryHigh"},
        {"id": "R2", "name": 'Say "hi", then\r\nleave', "relevance": "Low",
         "severity": "Low"},
    ]
    catalog, out = tmp_path / "catalog.json", tmp_path / "ranking.csv"
    catalog.write_text(json.dumps({"risks": risks}))
    assert main(["assess", "--catalog", str(catalog), "--format", "csv",
                 "--out", str(out)]) == 0
    with open(out, encoding="utf-8", newline="") as rendered:  # RFC 4180: as written
        rows = list(csv.reader(rendered))
    assert rows == [
        ["rank", "id", "name", "relevance", "severity", "score"],
        ["1", "R1", "Data\nloss", "High", "VeryHigh", "20"],
        ["2", "R2", 'Say "hi", then\r\nleave', "Low", "Low", "4"],
    ]


def test_dmaic_freezes_its_loaded_input_for_the_collector(tmp_path):
    assert gc.get_freeze_count() == 0
    assert main(["dmaic", "--out", str(tmp_path)]) == 0
    assert gc.get_freeze_count() > 0


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as err:
        main(["assess", "--bogus"])
    assert err.value.code == 2


# `report --in report.json` is the one renderer, and the top k risks are the
# first k rows of the ranking: neither `dmaic --format` nor `assess --top-k`
# is a flag
@pytest.mark.parametrize("argv", [
    ["dmaic", "--format", fmt, "--out", "out"] for fmt in ("json", "csv", "table")
] + [
    ["assess", "--top-k", "3"],
    *(["assess", "--format", fmt, "--top-k", "3", "--out", f"ranking.{fmt}"]
      for fmt in ("csv", "json")),
], ids=["dmaic-json", "dmaic-csv", "dmaic-table", "assess-table", "assess-csv", "assess-json"])
def test_a_removed_flag_exits_2_and_writes_nothing(monkeypatch, tmp_path, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    out, err_text = capsys.readouterr()
    flag = {"dmaic": "--format", "assess": "--top-k"}[argv[0]]
    assert out == ""
    assert f"error: unrecognized arguments: {flag} " in err_text
    assert list(tmp_path.iterdir()) == []


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
    doc = document(scenario)
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


def test_simulate_reads_a_spaced_mixed_case_list_of_layers(tmp_path, capsys):
    out = tmp_path / "trace.ndjson"
    assert main(["simulate", "--controls", " S10, s9 ", "--out", str(out)]) == 0
    assert out.read_text() == ndjson(run(default_scenario(), {"S9", "S10"})[1])


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


def test_dmaic_unplaceable_meeting_writes_request_failed_and_finishes(tmp_path, capsys):
    doc = document(default_scenario())
    meeting = next(c for c in doc["commands"] if c["intent"] == "schedule_meeting")
    meeting["duration_min"] = 660  # longer than the 10-hour working window
    scenario = tmp_path / "long-meeting.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["dmaic", "--scenario", str(scenario), "--out", str(out)]) == 0
    for name in ("trace_baseline.ndjson", "trace_secured.ndjson"):
        records = [json.loads(line) for line in (out / name).read_text().splitlines()]
        failed = [r for r in records if r["kind"] == "request_failed"]
        assert [(r["intent"], r["reason"]) for r in failed] == [
            ("schedule_meeting", "no-slot")
        ]
        assert not [r for r in records if r["kind"] == "meeting"]
    assert _report(out)["total_security_cost"] > 0


def test_report_table_format_carries_the_total(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["dmaic", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["report", "--in", str(out_dir / "report.json"), "--format", "table"]) == 0
    total = json.loads((out_dir / "report.json").read_text())["total_security_cost"]
    table = capsys.readouterr().out
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


def test_report_gives_each_listed_risk_its_own_rows(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["dmaic", "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    capsys.readouterr()
    assert main(["report", "--in", str(out_dir / "report.json"), "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert "residual_ranking.risks.R1.name,Accountability and Data Ownership" in rows
    assert "residual_ranking.risks.R4.severity,VeryHigh" in rows
    assert not any(row.startswith("residual_ranking.risks,") for row in rows)
    assert not any("{'" in row for row in rows)
    risk_rows = [row for row in rows if row.startswith("residual_ranking.risks.")]
    assert len(risk_rows) == 4 * len(report["residual_ranking"]["risks"])
    ranking = " ".join(report["residual_ranking"]["ranking"])
    assert f"residual_ranking.ranking,{ranking}" in rows  # a plain list stays one row


# dmaic fails in its secured run, after the baseline trace is complete
@pytest.mark.parametrize("command, fail_at", [("dmaic", 80), ("simulate", 40)])
def test_a_run_that_fails_midway_leaves_no_trace_file(
    monkeypatch, tmp_path, capsys, command, fail_at
):
    # one record per batch: the failed run has already written part of its trace
    monkeypatch.setattr(trace, "BATCH_RECORDS", 1)
    handle_delivery = World._handle_delivery
    deliveries = []

    def failing_delivery(self, msg):
        deliveries.append(msg.msg_id)
        if len(deliveries) == fail_at:
            raise SimulationError("delivery failed")
        handle_delivery(self, msg)

    monkeypatch.setattr(World, "_handle_delivery", failing_delivery)
    out = tmp_path / "out"
    out.mkdir()
    if command == "dmaic":
        argv = ["dmaic", "--out", str(out)]
    else:
        argv = ["simulate", "--controls", "all", "--out", str(out / "trace_all.ndjson")]
    assert main(argv) == 3
    assert "delivery failed" in capsys.readouterr().err
    assert len(deliveries) == fail_at
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, step", [("simulate", ""), ("dmaic", "[Control] ")])
def test_an_engine_error_names_the_time_and_the_handler(
    monkeypatch, tmp_path, capsys, command, step
):
    def failing_start(self, node_id):
        raise SimulationError("boom")

    # the default scenario's first outage starts at t=824400
    monkeypatch.setattr(World, "_fail_start", failing_start)
    out = tmp_path / "out"
    out.mkdir()
    if command == "dmaic":
        argv = ["dmaic", "--out", str(out)]
    else:
        argv = ["simulate", "--out", str(out / "trace.ndjson")]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {step}t=824400s handler=_fail_start: boom\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("error, message", [
    (ConfigError("bad"), "t=824400s handler=_fail_start: bad"),
    (OSError("disk full"), "disk full"),
], ids=["program-error", "os-error"])
def test_a_handler_error_keeps_its_class(monkeypatch, error, message):
    def failing_start(self, node_id):
        raise error

    monkeypatch.setattr(World, "_fail_start", failing_start)
    scenario = default_scenario()
    with pytest.raises(type(error), match=f"^{message}$") as raised:
        run(scenario, ())
    if isinstance(error, SmartBizError):
        assert type(raised.value) is ConfigError and raised.value.__cause__ is error
    else:
        assert raised.value is error  # passed through as it was raised


@pytest.mark.parametrize(
    "error, code",
    [
        (ConfigError("bad input"), 2),
        (SimulationError("run failed"), 3),
        (SmartBizError("other"), 3),
    ],
    ids=["config", "simulation", "bare"],
)
def test_dmaic_exit_code_follows_the_error_or_its_cause(
    monkeypatch, tmp_path, capsys, error, code
):
    def fail(config, sinks=None):
        raise error

    monkeypatch.setattr(costs, "run_dmaic", fail)
    assert main(["dmaic", "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize(
    "error, code", [(ConfigError("bad"), 2), (SimulationError("boom"), 3)],
    ids=["config", "simulation"],
)
def test_a_control_error_keeps_its_class_and_exit_code(
    monkeypatch, tmp_path, capsys, error, code
):
    def failing_start(self, node_id):
        raise error

    monkeypatch.setattr(World, "_fail_start", failing_start)
    assert main(["dmaic", "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == (
        f"error: [Control] t=824400s handler=_fail_start: {error}\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_a_full_disk_exits_2_from_simulate_and_dmaic_alike(monkeypatch, tmp_path, capsys):
    def full_disk(self, records):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli._TraceFile, "feed", full_disk)
    out = tmp_path / "out"
    out.mkdir()
    line = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert main(["simulate", "--controls", "all", "--out", str(out / "trace.ndjson")]) == 2
    assert capsys.readouterr().err == line
    assert main(["dmaic", "--out", str(out)]) == 2
    assert capsys.readouterr().err == line
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "dmaic"])
def test_a_program_error_escapes_main(monkeypatch, tmp_path, capsys, command):
    def failing_start(self, node_id):
        raise KeyError("oops")

    monkeypatch.setattr(World, "_fail_start", failing_start)
    out = tmp_path / "out"
    out.mkdir()
    argv = [command, "--out", str(out / "trace.ndjson" if command == "simulate" else out)]
    with pytest.raises(KeyError, match="oops"):
        main(argv)
    assert capsys.readouterr().err == ""
    assert list(out.iterdir()) == []


def _report(out_dir) -> dict:
    return json.loads((out_dir / "report.json").read_text())


def test_dmaic_top_k_2_prices_only_the_locks_it_builds(tmp_path, capsys):
    # S17 is off, so no spares are built: 3 locks, not 6.
    assert main(["dmaic", "--top-k", "2", "--out", str(tmp_path)]) == 0
    sections = _report(tmp_path)["cost_breakdown"]
    assert set(sections) == {"S9", "S10"}
    assert sections["S9"]["capital"] == 3 * 150_000


@pytest.mark.parametrize("k", [1, 3, 10])
def test_dmaic_top_k_plans_the_controls_of_the_first_k_risks_assess_ranks(tmp_path, capsys, k):
    assert main(["assess"]) == 0
    ranked = [l.split()[1] for l in capsys.readouterr().out.splitlines() if l[:1].isdigit()]
    assert main(["dmaic", "--top-k", str(k), "--out", str(tmp_path)]) == 0
    planned = _report(tmp_path)["cost_breakdown"].keys()
    assert planned == build_plan(ranked[:k], default_mapping())


def _larger_scenario(path) -> None:
    """The built-in scenario plus five devices: 8 devices, 8 spares."""
    doc = document(default_scenario())
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
    knobs = {"top_k": 4}
    flag_cfg = tmp_path / "flag.json"
    flag_cfg.write_text(json.dumps(knobs))
    ref_cfg = tmp_path / "ref.json"
    ref_cfg.write_text(json.dumps({**knobs, "scenario": "big.json"}))
    assert main(["dmaic", "--config", str(flag_cfg), "--scenario", str(scenario),
                 "--out", str(tmp_path / "flag")]) == 0
    assert main(["dmaic", "--config", str(ref_cfg), "--out", str(tmp_path / "ref")]) == 0
    report = (tmp_path / "flag" / "report.json").read_bytes()
    assert report == (tmp_path / "ref" / "report.json").read_bytes()


def test_the_built_in_scenario_from_a_file_gives_the_plain_dmaic_outputs(tmp_path, capsys):
    # README's way to tune the layers: write the scenario out, edit its
    # `controls` block and pass the file; unedited, nothing changes
    scenario = tmp_path / "scenario.json"
    scenario.write_text(canonical_json(default_scenario()))
    assert main(["dmaic", "--scenario", str(scenario), "--out", str(tmp_path / "file")]) == 0
    assert main(["dmaic", "--out", str(tmp_path / "plain")]) == 0
    for name in ("report.json", "trace_baseline.ndjson", "trace_secured.ndjson"):
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


# Each test below keeps its id and runs the rows of `documents.ROWS` it held.
test_assess_missing_catalog_file_exits_2 = rejected("assess-missing-catalog")
test_assess_malformed_catalog_exits_2 = rejected("assess-level-label")
test_simulate_rejects_unknown_layer = rejected("simulate-unknown-layer")
test_simulate_rejects_two_links_with_one_id = rejected("simulate-two-links-with-one-id")
test_dmaic_with_unresolvable_scenario_names_define = rejected("dmaic-missing-scenario")
test_dmaic_missing_catalog_flag_names_define = rejected("dmaic-missing-catalog-flag")
test_report_missing_file_exits_2 = rejected("report-missing-file")
test_dmaic_numeric_string_top_k_is_rejected = rejected("config-wrong-type")
test_a_document_that_is_not_utf8_exits_2_naming_it = rejected({
    name: f"{name}-not-utf8"
    for name in ("assess-catalog", "simulate-scenario", "dmaic-scenario", "dmaic-config",
                 "report-in")})
test_an_output_that_cannot_be_written_exits_2_naming_it = rejected({name: name for name in (
    "dmaic-out-is-a-file", "dmaic-out-under-a-file", "simulate-out-in-a-missing-dir",
    "assess-out-in-a-missing-dir", "report-out-in-a-missing-dir")})
test_dmaic_malformed_config_value_exits_2_naming_the_key = rejected({
    f"block{i}-{key}": row for i, (key, row) in enumerate([
        ("top_k", "config-top-k-null"), ("seed", "config-seed"), ("rates", "config-rate-text"),
        ("rates", "config-rates-5"), ("controls", "define-layer-value-text"),
        ("controls", "define-controls-5"), ("controls", "define-controls-text"),
        ("controls", "define-controls-null")])})
test_dmaic_rejects_a_bad_working_week_at_define = rejected({name: f"define-{name}" for name in (
    "night", "empty-window", "day-9", "day-minus-1", "repeated-day", "no-days")})
test_inputs_that_were_coerced_or_ignored_exit_2_naming_their_path = rejected({
    "rates.session": "config-float", "top_k0": "config-top-k-2.7", "top_k1": "config-top-k-true",
    "residual_factor": "config-residual-true", "controls.s17.enabled": "define-s17-enabled-no",
    "controls.s10.overhed_bytes": "define-misspelt-layer-key",
    "links[0].latency_ms": "ref-scenario-float", "horizon": "ref-scenario-unknown-key",
    "failures[0].duration_s": "ref-scenario-duration-true",
    "nodes[0].backup_pool": "ref-scenario-backup-pool-text",
    **{f"residual-factor-{v}": f"config-residual-{v}" for v in ("3/2", "1/0", "x")}})
test_a_document_that_switches_a_layer_on_exits_2 = rejected({
    **{f"config-{layer}": f"ref-scenario-{layer}-enabled" for layer in ("s9", "s10", "s17")},
    **{f"scenario-{layer}": (f"define-{layer}-enabled", f"scenario-{layer}-enabled")
       for layer in ("s9", "s10", "s17")}})
test_an_undecodable_document_exits_2_with_one_error_line = rejected({
    **{name: name for argv in ("assess-catalog", "dmaic-scenario", "report-in")
       for name in (f"{argv}-int-digits", f"{argv}-nesting")},
    "dmaic-config-int-digits": "text-long-integer", "dmaic-config-nesting": "text-deep-nesting"})
test_inputs_that_stopped_the_control_step_exit_2_at_define = rejected({
    "no-attendees": "define-meeting-without-attendees",
    "partial-key-map": "define-key-ids-partial",
    "empty-key-id": "define-key-id-empty", "spare-id": "define-spare-id",
    **{f"horizon-{n}": f"define-meeting-horizon-{n}" for n in ("0", "minus-3")}})
test_configs_that_cannot_run_exit_2_at_define = rejected({
    "unknown-section": "ref-mapping-r1-unknown-section", "top-k-11": "config-top-k-11",
    "uncovered-section": "ref-mapping-uncovered-section",
    "empty-catalog": "ref-risk-catalog-empty",
    "empty-mapping-entry": "ref-mapping-empty-entry",
    "misspelt-key-id": "ref-scenario-misspelt-key-id",
    **{f"empty-{key}-file": f"ref-{key}-empty-file"
       for key in ("mapping", "control-catalog", "action-library")},
    **{name: f"ref-{name}" for name in (
        "action-unknown-section", "action-cost", "mapping-entry-type", "risk-level-label")},
    "negative-layer-value": "ref-scenario-negative-layer-value",
    "negative-rate": "config-negative-rate"})
