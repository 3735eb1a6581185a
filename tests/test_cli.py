import csv
import errno
import gc
import json
import os

import pytest

from helpers import document, run
from smartbizsim import cli, costs, trace
from smartbizsim.cli import main
from smartbizsim.errors import ConfigError, SimulationError, SmartBizError
from smartbizsim.scenario import default_scenario
from smartbizsim.world import World


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


def test_simulate_rejects_unknown_layer(tmp_path, capsys):
    assert main(["simulate", "--controls", "s42", "--out", str(tmp_path / "t")]) == 2


# Both of the first two links derive the id 'x--y--z'. Kept by id, the
# second took the place of the first, and message 1 (x--y to z) was
# priced at link_ms 5000, the latency of the link from x.
_SAME_LINK_ID = {
    "nodes": [{"id": "z", "kind": "CloudService"},
              {"id": "x--y", "kind": "SmartDevice", "site": "CityA"},
              {"id": "x", "kind": "SmartDevice", "site": "CityB"},
              {"id": "y--z", "kind": "SmartDevice", "site": "Truck"}],
    "links": [{"a": "x--y", "b": "z", "latency_ms": 10},
              {"a": "x", "b": "y--z", "latency_ms": 5000},
              {"a": "y--z", "b": "z", "latency_ms": 20}],
    "commands": [{"at": 0, "device": "x--y", "intent": "voice_message", "to": "z"}],
}


def test_simulate_rejects_two_links_with_one_id(tmp_path, capsys):
    scenario, out = tmp_path / "scenario.json", tmp_path / "trace.ndjson"
    scenario.write_text(json.dumps(_SAME_LINK_ID))
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: links[0] ('x--y' to 'z') and links[1] ('x' to 'y--z') "
        "share the id 'x--y--z'\n"
    )
    assert not out.exists()


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


@pytest.mark.parametrize(
    "argv, what, step",
    [
        (["assess", "--catalog"], "catalog", ""),
        (["simulate", "--scenario"], "scenario", ""),
        (["dmaic", "--scenario"], "scenario", "[Define] "),
        (["dmaic", "--config"], "config", "[Define] "),
        (["report", "--in"], "report", ""),
    ],
    ids=["assess-catalog", "simulate-scenario", "dmaic-scenario", "dmaic-config", "report-in"],
)
def test_a_document_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys, argv, what, step):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "out"
    assert main([*argv, str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {step}cannot read {what} {path}: 'utf-8' codec can't decode byte 0xff"
        " in position 0: invalid start byte\n"
    )
    assert not out.exists()


def test_report_missing_file_exits_2(capsys):
    assert main(["report", "--in", "/no/such/report.json"]) == 2


# (argv, the path the error must name), given a regular file and a missing
# directory; each raised out of `main` before an OSError meant exit 2
_UNWRITABLE_OUTPUTS = {
    "dmaic-out-is-a-file": lambda file, gone: (["dmaic", "--out", file], file),
    "dmaic-out-under-a-file": lambda file, gone: (["dmaic", "--out", f"{file}/sub"], file),
    "simulate-out-in-a-missing-dir": lambda file, gone: (
        ["simulate", "--out", f"{gone}/t.ndjson"], f"{gone}/t.ndjson"),
    "assess-out-in-a-missing-dir": lambda file, gone: (["assess", "--out", f"{gone}/x"], gone),
    "report-out-in-a-missing-dir": lambda file, gone: (
        ["report", "--in", file, "--out", f"{gone}/x"], gone),
}


@pytest.mark.parametrize("probe", _UNWRITABLE_OUTPUTS.values(), ids=_UNWRITABLE_OUTPUTS.keys())
def test_an_output_that_cannot_be_written_exits_2_naming_it(tmp_path, capsys, probe):
    file = tmp_path / "report.json"  # a regular file, and a report `report --in` reads
    file.write_text('{"total_security_cost": 0}')
    argv, named = probe(str(file), str(tmp_path / "gone"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert ".partial" not in err  # the path given, not the temporary file beside it
    assert err.count("\n") == 1 and err.endswith("\n")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["report.json"]  # no .partial


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
    block = {"controls": {"s10": {"overhead_bytes": 500}}}
    flag_cfg = tmp_path / "flag.json"
    flag_cfg.write_text(json.dumps(block))
    ref_cfg = tmp_path / "ref.json"
    ref_cfg.write_text(json.dumps({**block, "scenario": "big.json"}))
    assert main(["dmaic", "--config", str(flag_cfg), "--scenario", str(scenario),
                 "--out", str(tmp_path / "flag")]) == 0
    assert main(["dmaic", "--config", str(ref_cfg), "--out", str(tmp_path / "ref")]) == 0
    report = (tmp_path / "flag" / "report.json").read_bytes()
    assert report == (tmp_path / "ref" / "report.json").read_bytes()


def test_dmaic_missing_catalog_flag_names_define(tmp_path, capsys):
    assert main(["dmaic", "--catalog", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2
    assert "[Define]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "block, path",
    [
        ({"top_k": None}, "top_k"),
        ({"seed": "abc"}, "seed"),  # the seed override is gone: an unknown key
        ({"rates": {"session": "y"}}, "rates.session"),
        ({"rates": 5}, "rates"),
        ({"controls": {"s10": {"overhead_bytes": "x"}}}, "controls.s10.overhead_bytes"),
        ({"controls": 5}, "controls"),
        ({"controls": "s10"}, "controls"),
        ({"controls": None}, "controls"),
    ],
    ids=lambda value: value.split(".")[0] if isinstance(value, str) else None,
)
def test_dmaic_malformed_config_value_exits_2_naming_the_key(tmp_path, capsys, block, path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(block))
    assert main(["dmaic", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Define] ")
    assert f"{path}: " in err


@pytest.mark.parametrize(
    "hours, message",
    [
        ({"start": "18:00", "end": "08:00"},
         "working_hours.start 18:00 is not before working_hours.end 08:00"),
        ({"start": "08:00", "end": "08:00"},
         "working_hours.start 08:00 is not before working_hours.end 08:00"),
        ({"days": [9]}, "working_hours.days[0] 9 is not a weekday 0..6"),
        ({"days": [0, -1]}, "working_hours.days[1] -1 is not a weekday 0..6"),
        ({"days": [1, 2, 1]}, "working_hours.days[2] 1 is a repeated day"),
        ({"days": []}, "working_hours.days names no day"),
    ],
    ids=["night", "empty-window", "day-9", "day-minus-1", "repeated-day", "no-days"],
)
def test_dmaic_rejects_a_bad_working_week_at_define(tmp_path, capsys, hours, message):
    doc = document(default_scenario())
    doc["working_hours"].update(hours)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["dmaic", "--scenario", str(scenario), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Define] ")
    assert message in err
    assert not out.exists()


def test_dmaic_numeric_string_top_k_is_rejected(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"top_k": "3"}))
    assert main(["dmaic", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "top_k: expected an integer, got '3'" in capsys.readouterr().err


def _scenario_with(patch) -> dict:
    doc = document(default_scenario())
    patch(doc)
    return doc


# Each input below ran at the parent with a coerced or dropped value (or,
# for backup_pool, a string split into one-letter device ids).
_PROBES = [
    ({"rates": {"session": 1.9}}, None,
     "rates.session: expected an integer, got 1.9"),
    ({"top_k": 2.7}, None, "top_k: expected an integer, got 2.7"),
    ({"top_k": True}, None, "top_k: expected an integer, got True"),
    ({"residual_factor": True}, None,
     "residual_factor: expected an integer or a rational string"),
    ({"controls": {"s17": {"enabled": "no"}}}, None, "controls.s17.enabled: unknown field"),
    ({"controls": {"s10": {"overhed_bytes": 500}}}, None,
     "controls.s10.overhed_bytes: unknown field"),
    ({}, lambda doc: doc["links"][0].update(latency_ms=2.7),
     "links[0].latency_ms: expected an integer, got 2.7"),
    ({}, lambda doc: doc["failures"][0].update(duration_s=True),
     "failures[0].duration_s: expected an integer, got True"),
    ({}, lambda doc: doc.update(horizon=86_400), "horizon: unknown field"),
    ({}, lambda doc: doc["nodes"][0].update(backup_pool="dev-truck"),
     "nodes[0].backup_pool: expected an array, got 'dev-truck'"),
]


@pytest.mark.parametrize(
    "config, scenario, message", _PROBES, ids=[m.split(":")[0] for *_, m in _PROBES]
)
def test_inputs_that_were_coerced_or_ignored_exit_2_naming_their_path(
    tmp_path, capsys, config, scenario, message
):
    if scenario is not None:
        (tmp_path / "scenario.json").write_text(json.dumps(_scenario_with(scenario)))
        config = {**config, "scenario": "scenario.json"}
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["dmaic", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Define] ")
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("layer", ["s9", "s10", "s17"])
@pytest.mark.parametrize("where", ["config", "scenario"])
def test_a_document_that_switches_a_layer_on_exits_2(tmp_path, capsys, where, layer):
    # only the plan, or `simulate --controls`, switches a layer on
    if where == "config":
        doc = {"controls": {layer: {"enabled": True}}}
    else:
        doc = _scenario_with(lambda d: d["controls"][layer].update(enabled=True))
    path = tmp_path / f"{where}.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["dmaic", f"--{where}", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: [Define] controls.{layer}.enabled: unknown field\n"
    assert not out.exists()
    if where == "scenario":
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: controls.{layer}.enabled: unknown field\n"


# Text on which `json.loads` raises something other than JSONDecodeError.
_UNDECODABLE = {
    "int-digits": '{"top_k": ' + "9" * 5000 + "}",  # past the int digit limit
    "nesting": "[" * 200_000,  # past the recursion limit
}


@pytest.mark.parametrize("text", _UNDECODABLE.values(), ids=_UNDECODABLE.keys())
@pytest.mark.parametrize(
    "argv",
    [["dmaic", "--config"], ["dmaic", "--scenario"], ["assess", "--catalog"], ["report", "--in"]],
    ids=["dmaic-config", "dmaic-scenario", "assess-catalog", "report-in"],
)
def test_an_undecodable_document_exits_2_with_one_error_line(tmp_path, capsys, argv, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main([*argv, str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1 and err.endswith("\n")


def _no_attendees(doc):
    next(c for c in doc["commands"] if c["intent"] == "schedule_meeting")["attendees"] = []


def _key_ids(doc, blank):
    doc["controls"]["s10"]["key_ids"] = {
        n["id"]: "" if n["id"] == blank else f"k{n['id']}" for n in doc["nodes"]
    }


def _spare_id(doc):
    doc["nodes"].append({"id": "dev-city-a-r1", "kind": "SmartDevice", "site": "CityA"})
    doc["links"].append({"a": "dev-city-a-r1", "b": "cloud", "latency_ms": 5})


# Without its validation rule, each input below would stop the Control
# step after the baseline run, the empty key id with exit code 3.
_CONTROL_STEP_PROBES = [
    (_no_attendees, "meeting (device 'dev-city-b', at=208800) has no attendees"),
    (lambda doc: doc.update(meeting_horizon_days=0), "meeting_horizon_days must be >= 1"),
    (lambda doc: doc.update(meeting_horizon_days=-3), "meeting_horizon_days must be >= 1"),
    (lambda doc: doc["controls"]["s10"].update(key_ids={"dev-city-a": "ka"}),
     "controls.s10.key_ids gives node 'dev-city-b' no key id"),
    (lambda doc: _key_ids(doc, blank="dev-city-a"),
     "controls.s10.key_ids gives node 'dev-city-a' no key id"),
    (_spare_id, "nodes[4].id 'dev-city-a-r1' is the id of S17 spare 1 of 'dev-city-a'"),
]


@pytest.mark.parametrize(
    "patch, message", _CONTROL_STEP_PROBES,
    ids=["no-attendees", "horizon-0", "horizon-minus-3", "partial-key-map", "empty-key-id",
         "spare-id"],
)
def test_inputs_that_stopped_the_control_step_exit_2_at_define(
    tmp_path, capsys, patch, message
):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(_scenario_with(patch)))
    out = tmp_path / "out"
    assert main(["dmaic", "--scenario", str(scenario), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Define] ")
    assert message in err
    assert not out.exists()


def _misspelt_key_id(doc):
    _key_ids(doc, blank=None)
    doc["controls"]["s10"]["key_ids"]["dev-citya"] = "typo"  # beside the real 'dev-city-a'


# No config below can run. Before `DmaicConfig` checked them, all but the
# action row ran to exit 0 (the empty files with the built-in reference) or
# failed in a later step; the empty entry was refused by the mapping file's
# own type. A reference is given as its document or its text.
_CONFIG_PROBES = [
    ({"mapping": {"R1": ["S99"]}}, "mapping.R1[0]: unknown control section 'S99'"),
    ({"mapping": {"R1": ["S13"]}}, "mapping.R1[0]: no action covers section 'S13'"),
    ({"top_k": 11}, "top_k: 11 is outside 1..10"),
    ({"risk_catalog": {"risks": []}}, "the risk catalog lists no risks"),
    ({"action_library": {"actions": [{"id": "x", "control": "S99"}]}},
     "action_library[0] ('x').control: unknown control section 'S99'"),
    ({"mapping": ""}, "mapping file is not valid JSON"),
    ({"control_catalog": ""}, "control catalog is not valid JSON"),
    ({"action_library": ""}, "action library is not valid JSON"),
    ({"scenario": _scenario_with(_misspelt_key_id)},
     "controls.s10.key_ids.dev-citya names no declared node"),
    ({"mapping": {"R4": []}}, "mapping.R4: names no section"),
]


@pytest.mark.parametrize(
    "config, message", _CONFIG_PROBES,
    ids=["unknown-section", "uncovered-section", "top-k-11", "empty-catalog",
         "action-unknown-section", "empty-mapping-file", "empty-control-catalog-file",
         "empty-action-library-file", "misspelt-key-id", "empty-mapping-entry"],
)
def test_configs_that_cannot_run_exit_2_at_define(tmp_path, capsys, config, message):
    for key, value in list(config.items()):
        if key != "top_k":
            text = value if isinstance(value, str) else json.dumps(value)
            (tmp_path / f"{key}.json").write_text(text)
            config = {**config, key: f"{key}.json"}
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["dmaic", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Define] ")
    assert message in err
    assert not out.exists()
