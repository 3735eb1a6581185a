"""Every input the command line refuses, each written once: a row is a
command line, its input files (relative path -> text or bytes) and the
one line it writes to stderr. Every row exits with `EXIT`, writes nothing
to stdout and leaves its working directory holding only its input files.
Tier-1 runs each row in a fresh directory, and `tools/identity.py` runs
each as a corpus entry of the row's name. A line that quotes `json.loads`
ends in the running interpreter's own message for the same text: Python
3.10 words the digit limit, and 3.13 a trailing comma, otherwise than 3.11.
"""

import json

from smartbizsim.costs import load_dmaic_config, run_dmaic
from smartbizsim.errors import Record, canonical_json
from smartbizsim.scenario import default_scenario

EXIT = 2


class Row(Record):
    argv: tuple
    files: dict
    line: str


def _not_json(text: str) -> str:
    """The message for `text`, which the running interpreter cannot decode."""
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        return f"not valid JSON: {exc}"
    raise ValueError(f"{text[:20]!r} is valid JSON")


def _row(argv: str, message: str, files: dict | None = None) -> Row:
    files = {k: v if isinstance(v, (str, bytes)) else json.dumps(v)
             for k, v in (files or {}).items()}
    return Row(argv=tuple(argv.split()), files=files, line=f"error: {message}")


def _config(message: str, doc, **refs) -> Row:
    """`dmaic` on the config `doc`, each reference `key` in refs given as the
    file `<key>.json` that holds refs[key]."""
    if refs:
        doc = {**doc, **{key: f"{key}.json" for key in refs}}
    return _row("dmaic --config config.json --out out", f"[Define] {message}",
                {"config.json": doc, **{f"{key}.json": ref for key, ref in refs.items()}})


_DEFAULT = canonical_json(default_scenario())
_SIMULATE = "simulate --scenario scenario.json --out trace.ndjson"


def scenario_document(*patches) -> dict:
    """The built-in scenario's document, with the keys of each dict patch
    replaced, or changed in place by each function patch, in order."""
    doc = json.loads(_DEFAULT)
    for patch in patches:
        doc.update(patch) if isinstance(patch, dict) else patch(doc)
    return doc


def _put(path: str, value):
    """A patch that sets the value at the dotted `path` (`links.0.latency_ms`)."""
    *parents, last = [int(key) if key.isdigit() else key for key in path.split(".")]

    def patch(doc):
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return patch


def _to_front(key: str):
    """A patch that moves `key` to the start of the document's keys."""
    def patch(doc):
        for other in [k for k in doc if k != key]:
            doc[other] = doc.pop(other)
    return patch


def _scenario(message: str, *patches) -> Row:
    """`simulate` on the built-in scenario, changed by `patches`."""
    return _row(_SIMULATE, message, {"scenario.json": scenario_document(*patches)})


def _define(message: str, *patches) -> Row:
    """`dmaic --scenario` on the built-in scenario changed by `patches`: the
    error is named from the `scenario` key, as in a config."""
    return _row("dmaic --scenario scenario.json --out out", f"[Define] scenario.{message}",
                {"scenario.json": scenario_document(*patches)})


def _device(node_id: str, site: str = "CityA") -> dict:
    return {"id": node_id, "kind": "SmartDevice", "site": site}


def _link(a: str, b: str, latency_ms: int = 10) -> dict:
    return {"a": a, "b": b, "latency_ms": latency_ms}


def _voice(device: str, to: str, at: int = 0) -> dict:
    return {"at": at, "device": device, "intent": "voice_message", "to": to}


def _meeting(device: str, at: int = 0, duration_min: int = 30, **fields) -> dict:
    return {"at": at, "device": device, "intent": "schedule_meeting",
            "duration_min": duration_min, **fields}


_CLOUD = {"id": "c", "kind": "CloudService"}


def _small(message: str, **patch) -> Row:
    """`simulate` on the device `d` linked to the cloud `c`, with `patch`'s keys."""
    return _row(_SIMULATE, message, {"scenario.json": {
        "nodes": [_device("d"), _CLOUD], "links": [_link("d", "c")], **patch}})


def _key_ids(blank=None, **extra):
    """Every node's key id `k<node id>`, `blank`'s empty, and `extra`'s."""
    def patch(doc):
        doc["controls"]["s10"]["key_ids"] = {
            **{n["id"]: "" if n["id"] == blank else f"k{n['id']}" for n in doc["nodes"]},
            **extra}
    return patch


# the flags that name an input document: the row names' start, the command
# line, and what its errors start with: the step's label and the config key
# that names the document, if any
_DOCUMENT_FLAGS = (("assess-catalog", "assess --catalog", ""),
                   ("simulate-scenario", "simulate --scenario", ""),
                   ("dmaic-scenario", "dmaic --scenario", "[Define] scenario: "),
                   ("dmaic-config", "dmaic --config", "[Define] "),
                   ("report-in", "report --in", ""))
_HUGE = {"risks": [{"id": "R1", "name": "n", "relevance": "Huge", "severity": "Low"}]}
_TWICE = {"risks": [{"id": "R1", "name": n, "relevance": "Low", "severity": "Low"}
                    for n in ("a", "b")]}
_DIGITS = '{"top_k": ' + "9" * 5000 + "}"  # past the integer digit limit
_NESTED = "[" * 200_000  # past the recursion limit
_UNDECODABLE = (("int-digits", _DIGITS), ("nesting", _NESTED))
_NOT_UTF8 = b"\xff\xfe{}"
_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
_MISSING = "[Errno 2] No such file or directory"
_REPORT = {"report.json": canonical_json(run_dmaic(load_dmaic_config()))}


def _report(patch) -> dict:
    """The default report's document, changed in place by `patch`."""
    doc = json.loads(_REPORT["report.json"])
    patch(doc)
    return doc


_FRACTION = "residual_factor: expected an integer or a rational string such as \"1/2\", got "
_HORIZON = "reaches 9999-12-31 09:00, the last month end a reminder can fall due"

ROWS = {
    # -- a document that is not UTF-8, or that JSON cannot decode -------------
    **{f"{name}-not-utf8": _row(f"{argv} doc.json --out out",
                                f"{at}cannot read doc.json: {_UTF8}", {"doc.json": _NOT_UTF8})
       for name, argv, at in _DOCUMENT_FLAGS},
    # `dmaic --config`'s are the rows text-long-integer and text-deep-nesting
    **{f"{name}-{kind}": _row(f"{argv} doc.json --out out", at + _not_json(text),
                              {"doc.json": text})
       for name, argv, at in _DOCUMENT_FLAGS if name != "dmaic-config"
       for kind, text in _UNDECODABLE},

    # -- assess ---------------------------------------------------------------
    "assess-missing-catalog": _row("assess --catalog nope.json",
                                   f"cannot read nope.json: {_MISSING}: 'nope.json'"),
    "assess-level-label": _row("assess --catalog catalog.json",
                               "risks[0].relevance: unknown label 'Huge'",
                               {"catalog.json": _HUGE}),
    "assess-out-in-a-missing-dir": _row("assess --out gone/x", f"{_MISSING}: 'gone/x'"),
    "assess-duplicate-risk-id": _row("assess --catalog catalog.json",
                                     "risks[1].id: 'R1' is a duplicate risk id",
                                     {"catalog.json": _TWICE}),
    "assess-risk-catalog-empty": _row("assess --catalog catalog.json", "risks: names no risk",
                                      {"catalog.json": {"risks": []}}),

    # -- report ---------------------------------------------------------------
    "report-missing-file": _row("report --in nope.json",
                                f"cannot read nope.json: {_MISSING}: 'nope.json'"),
    "report-out-in-a-missing-dir": _row("report --in report.json --out gone/x",
                                        f"{_MISSING}: 'gone/x'", _REPORT),
    # each was rendered as it stood: `[1, 2]` as a csv row, NaN written back
    "report-in-not-an-object": _row("report --in report.json", "expected an object, got [1, 2]",
                                    {"report.json": "[1, 2]"}),
    "report-in-nan": _row("report --in report.json", "a: unknown field",
                          {"report.json": '{"a": NaN}'}),
    "report-in-fractional-cost": _row(
        "report --in report.json", "total_security_cost: expected an integer, got 1.5",
        {"report.json": _report(_put("total_security_cost", 1.5))}),
    # a report that contradicts itself was rendered as it stood too
    "report-in-total-not-the-sum": _row(
        "report --in report.json",
        "total_security_cost: must be 1373358, the sum of cost_breakdown, got 5",
        {"report.json": _report(_put("total_security_cost", 5))}),
    "report-in-negative-capital": _row(
        "report --in report.json",
        "cost_breakdown.S9.capital: must be a non-negative integer, got -7",
        {"report.json": _report(_put("cost_breakdown.S9.capital", -7))}),
    "report-in-ranking-of-no-risk": _row(
        "report --in report.json", "residual_ranking.ranking: is not the order of the scores",
        {"report.json": _report(_put("residual_ranking.ranking", ["R99"]))}),
    "report-in-ranking-reversed": _row(
        "report --in report.json", "residual_ranking.ranking: is not the order of the scores",
        {"report.json": _report(lambda doc: doc["residual_ranking"]["ranking"].reverse())}),

    # -- simulate: flags and outputs ------------------------------------------
    "simulate-unknown-layer": _row("simulate --controls s42 --out trace.ndjson",
                                   "unknown control layer 'S42' (use s9,s10,s17)"),
    "simulate-out-in-a-missing-dir": _row("simulate --out gone/t.ndjson",
                                          f"{_MISSING}: 'gone/t.ndjson'"),

    # -- simulate: the built-in scenario, changed -----------------------------
    "scenario-unknown-key": _scenario("horizon: unknown field", {"horizon": 86_400}),
    "scenario-float": _scenario("links[0].latency_ms: expected an integer, got 2.7",
                                _put("links.0.latency_ms", 2.7)),
    "scenario-missing-field": _scenario("missing field 'links'", lambda d: d.pop("links")),
    "scenario-self-loop": _scenario("links[3]: 'cloud--cloud' is a self-loop",
                                    lambda d: d["links"].append(_link("cloud", "cloud", 5))),
    "scenario-unknown-endpoint": _scenario("links[3].a: 'ghost' is not a declared node",
                                           lambda d: d["links"].append(_link("ghost", "cloud"))),
    "scenario-bad-epoch": _scenario("epoch: bad date '2024-02-30': day is out of range for month",
                                    {"epoch": "2024-02-30"}),
    "scenario-duplicate-node": _scenario("nodes[4].id: 'dev-city-a' is a duplicate node id",
                                         lambda d: d["nodes"].append(d["nodes"][0])),
    "scenario-unknown-node-kind": _scenario(
        "nodes[4].kind: 'Robot' is not a node kind ('SmartDevice', 'CloudService')",
        lambda d: d["nodes"].append({"id": "robot", "kind": "Robot"})),
    "scenario-negative-layer-value": _scenario(
        "controls.s10.overhead_bytes: must be a non-negative integer, got -2",
        _put("controls.s10.overhead_bytes", -2)),
    # two faults: a structural one and, later in the document, a bad type
    "scenario-two-faults": _scenario("thefts[0].at: expected an integer, got 'noon'",
                                     lambda d: d["links"].append(_link("cloud", "cloud", 5)),
                                     {"thefts": [{"node": "cloud", "at": "noon"}]}),
    # two bad values, one in the controls block: the first in document order is named
    "scenario-two-faults-controls-last": _scenario(
        "attendees[0].id: expected a string, got 5",
        _put("attendees.0.id", 5), _put("controls.s10.overhead_bytes", -2)),
    "scenario-two-faults-controls-first": _scenario(
        "controls.s10.overhead_bytes: must be a non-negative integer, got -2",
        _put("attendees.0.id", 5), _put("controls.s10.overhead_bytes", -2), _to_front("controls")),
    "scenario-no-device": _scenario("nodes: must declare at least one smart device, got 0",
                                    {"nodes": [{"id": "cloud", "kind": "CloudService"}]}),
    "scenario-two-clouds": _scenario(
        "nodes: must declare exactly one cloud service, got 2",
        lambda d: d["nodes"].append({"id": "cloud2", "kind": "CloudService"})),
    "scenario-reminder-author-cloud": _scenario(
        "reminders[0].author: 'cloud' is not a smart device",
        {"reminders": [{"id": "r", "author": "cloud", "target": "dev-city-b"}]}),
    "scenario-voice-target-unknown": _scenario("commands[0].to: 'ghost' is not a declared node",
                                               {"commands": [_voice("dev-city-a", "ghost")]}),
    "scenario-reminder-target-cloud": _scenario(
        "commands[0].target: 'cloud' is not a smart device",
        {"commands": [{"at": 0, "device": "dev-city-a", "intent": "create_reminder",
                       "target": "cloud"}]}),
    # only the plan, or `simulate --controls`, switches a layer on
    **{f"scenario-{layer}-enabled": _scenario(f"controls.{layer}.enabled: unknown field",
                                              _put(f"controls.{layer}.enabled", True))
       for layer in ("s9", "s10", "s17")},

    # -- simulate: one device and the cloud, with one entry added -------------
    "small-no-nodes": _small("nodes: must declare at least one smart device, got 0", nodes=[]),
    "small-link-to-ghost": _small("links[0].b: 'ghost' is not a declared node",
                                  links=[_link("d", "ghost", 1)]),
    "small-negative-latency": _small("links[0].latency_ms: must be a non-negative integer, got -5",
                                     links=[_link("d", "c", -5)]),
    "small-failure-before-0": _small("failures[0].at: must be a non-negative integer, got -1",
                                     failures=[{"node": "d", "at": -1, "duration_s": 10}]),
    "small-command-from-cloud": _small("commands[0].device: 'c' is not a smart device",
                                       commands=[_voice("c", "d")]),
    "small-horizon-0": _small("horizon_s: must be a positive integer, got 0", horizon_s=0),
    # a second link between two nodes would replace or shadow the first
    "small-repeated-link": _small("links[1]: 'd--c' joins the same two nodes as links[0]",
                                  links=[_link("d", "c"), _link("d", "c", 999)]),
    "small-reversed-link": _small("links[1]: 'c--d' joins the same two nodes as links[0]",
                                  links=[_link("d", "c"), _link("c", "d", 5)]),
    # the inputs below would otherwise stop the run with NoRoute
    "small-unreachable-device": _small("nodes[1]: 'x' has no link path to the cloud",
                                       nodes=[_device("d"), _device("x", "Truck"), _CLOUD]),
    "small-voice-to-itself": _small("commands[0].to: 'd' is the command's own device",
                                    commands=[_voice("d", "d")]),
    "small-attendee-on-cloud": _small("attendees[0].device: 'c' is not a smart device",
                                      attendees=[{"id": "ops", "device": "c"}]),
    "small-command-before-0": _small("commands[0].at: must be a non-negative integer, got -5",
                                     commands=[_voice("d", "c", at=-5)]),
    "small-reminder-before-0": _small(
        "reminders[0].at: must be a non-negative integer, got -5",
        reminders=[{"id": "r", "author": "d", "target": "d", "at": -5}]),
    "small-theft-before-0": _small("thefts[0].at: must be a non-negative integer, got -5",
                                   thefts=[{"node": "d", "at": -5}]),
    # the second registration would stop the run midway
    "small-repeated-reminder-id": _small(
        "reminders[1].id: 'r' is a duplicate reminder id",
        reminders=[{"id": "r", "author": "d", "target": "d"},
                   {"id": "r", "author": "d", "target": "d", "at": 9}]),
    # the pipeline switches layers on after validation: these hold either way
    "small-meeting-without-attendees": _small("commands[0].attendees: names no attendee",
                                              attendees=[{"id": "p", "device": "d"}],
                                              commands=[_meeting("d")]),
    "small-meeting-horizon-0": _small("meeting_horizon_days: must be a positive integer, got 0",
                                      meeting_horizon_days=0),
    "small-key-ids-partial": _small("controls.s10.key_ids.c: no key id for node 'c'",
                                    controls={"s10": {"key_ids": {"d": "kd"}}}),
    "small-key-id-empty": _small("controls.s10.key_ids.d: no key id for node 'd'",
                                 controls={"s10": {"key_ids": {"d": "", "c": "kc"}}}),
    "small-spare-id": _small("nodes[2].id: 'd-r1' is the id of S17 spare 1 of 'd'",
                             nodes=[_device("d"), _CLOUD, _device("d-r1")],
                             links=[_link("d", "c"), _link("d-r1", "c")]),
    # the engine runs these without a check of its own
    "small-failure-on-ghost": _small("failures[0].node: 'ghost' is not a declared node",
                                     failures=[{"node": "ghost", "at": 0, "duration_s": 1}]),
    # an id is named in full, however long: a misspelling may be in its middle
    "small-failure-on-a-long-ghost": _small(
        "failures[0].node: 'warehouse-north-dock-sensor-7-ghost' is not a declared node",
        failures=[{"node": "warehouse-north-dock-sensor-7-ghost", "at": 0, "duration_s": 1}]),
    "small-meeting-attendee-unknown": _small(
        "commands[0].attendees[0]: 'nobody' is not an attendee",
        commands=[_meeting("d", attendees=["nobody"])]),
    "small-reminder-target-cloud": _small("reminders[0].target: 'c' is not a smart device",
                                          reminders=[{"id": "r", "author": "d", "target": "c"}]),
    "small-meeting-duration-0": _small(
        "commands[0].duration_min: must be a positive integer, got 0",
        attendees=[{"id": "p", "device": "d"}],
        commands=[_meeting("d", duration_min=0, attendees=["p"])]),
    # a misspelt node id beside the real one would be ignored, and an S17
    # spare never sends, so a key for it would change nothing
    **{f"small-key-id-{name}": _small(
        f"controls.s10.key_ids.{node}: {node!r} is not a declared node",
        controls={"s10": {"key_ids": {"d": "kd", "c": "kc", node: "k"}}})
       for name, node in (("misspelt", "D"), ("past-the-spares", "d-r2"), ("of-a-spare", "d-r1"))},
    # the cloud would book the calendar and invite the device twice
    "small-meeting-attendee-twice": _small(
        "commands[0].attendees[1]: 'p' is a duplicate attendee",
        attendees=[{"id": "p", "device": "d"}],
        commands=[_meeting("d", at=7, attendees=["p", "p"])]),
    # a reminder due by the horizon is due again at the next month end,
    # which must be a date: the run stopped in the year 10000
    "small-horizon-past-9999": _small(f"horizon_s: 3024000 {_HORIZON}",
                                      epoch="9999-12-01", horizon_s=3024000),
    "small-horizon-10**12": _small(f"horizon_s: 1000000000000 {_HORIZON}", horizon_s=10**12),
    # the engine keeps links by id: the second would replace the first
    "small-shared-link-id": _small(
        "links[1]: 'd--e--c' is also the id of links[0]",
        nodes=[_CLOUD, _device("d--e"), _device("d", "CityB"), _device("e--c", "Truck")],
        links=[_link("d--e", "c"), _link("d", "e--c", 5000), _link("e--c", "c", 20)]),
    # the world keeps one calendar per id: the second would replace the first
    "small-repeated-attendee-id": _small(
        "attendees[1].id: 'p' is a duplicate attendee id",
        attendees=[{"id": "p", "device": "d"}, {"id": "p", "device": "d", "busy": [[0, 60]]}]),
    # the calendar dropped it without a word
    "small-busy-backwards": _small("attendees[0].busy[1]: 600 is not before 540",
                                   attendees=[{"id": "p", "device": "d",
                                               "busy": [[0, 60], [600, 540]]}]),
    # a parameter the intent does not read changed nothing: each ran as if left out
    "small-voice-with-a-duration": _small(
        "commands[0].duration_min: is not read by a 'voice_message' command",
        commands=[{**_voice("d", "c"), "duration_min": 45}]),
    "small-reminder-with-a-recipient": _small(
        "commands[0].to: is not read by a 'create_reminder' command",
        commands=[{"at": 0, "device": "d", "intent": "create_reminder", "target": "d",
                   "to": "c"}]),
    "small-meeting-with-a-payload": _small(
        "commands[0].payload: is not read by a 'schedule_meeting' command",
        attendees=[{"id": "p", "device": "d"}],
        commands=[_meeting("d", attendees=["p"], payload="agenda")]),

    # -- simulate: a scenario of its own -------------------------------------
    # both links derive the id 'x--y--z': kept by id, the second took the
    # place of the first, and x--y to z was priced at the latency from x
    "simulate-two-links-with-one-id": _small(
        "links[1]: 'x--y--z' is also the id of links[0]",
        nodes=[{"id": "z", "kind": "CloudService"}, _device("x--y"), _device("x", "CityB"),
               _device("y--z", "Truck")],
        links=[_link("x--y", "z"), _link("x", "y--z", 5000), _link("y--z", "z", 20)],
        commands=[_voice("x--y", "z")]),

    # -- dmaic: flags and outputs ---------------------------------------------
    "dmaic-top-k-11": _row("dmaic --top-k 11 --out out",
                           "[Define] top_k: 11 is outside 1..10, the risk count"),
    "dmaic-missing-catalog-flag": _row(
        "dmaic --catalog nope.json --out out",
        f"[Define] risk_catalog: cannot read nope.json: {_MISSING}: 'nope.json'"),
    "dmaic-scenario-not-an-object": _row("dmaic --scenario doc.json --out out",
                                         "[Define] scenario: expected an object, got [1]",
                                         {"doc.json": "[1]"}),
    "dmaic-out-is-a-file": _row("dmaic --out report.json",
                                "[Errno 17] File exists: 'report.json'", _REPORT),
    "dmaic-out-under-a-file": _row("dmaic --out report.json/sub",
                                   "[Errno 20] Not a directory: 'report.json/sub'", _REPORT),

    # -- dmaic: the config's text ---------------------------------------------
    "text-bad-json": _config(_not_json('{"top_k": 3,}'), '{"top_k": 3,}'),
    # the reader's words, as for a scenario or a catalog that is no object
    "text-not-an-object": _config("expected an object, got [1]", "[1]"),
    "text-long-integer": _config(_not_json(_DIGITS), _DIGITS),
    "text-deep-nesting": _config(_not_json(_NESTED), _NESTED),
    "text-not-utf8": _config(
        "cannot read config.json: 'utf-8' codec can't decode byte 0xff in position 11: "
        "invalid start byte", b'{"top_k": "\xff"}'),

    # -- dmaic: the config's knobs --------------------------------------------
    "config-unknown-key": _config("topk: unknown field", {"topk": 3}),
    "config-seed": _config("seed: unknown field", {"seed": "abc"}),  # the override is gone
    "config-wrong-type": _config("top_k: expected an integer, got '3'", {"top_k": "3"}),
    "config-top-k-2.7": _config("top_k: expected an integer, got 2.7", {"top_k": 2.7}),
    "config-top-k-true": _config("top_k: expected an integer, got True", {"top_k": True}),
    "config-top-k-null": _config("top_k: expected an integer, got None", {"top_k": None}),
    "config-top-k-11": _config("top_k: 11 is outside 1..10, the risk count", {"top_k": 11}),
    "config-float": _config("rates.session: expected an integer, got 1.9",
                            {"rates": {"session": 1.9}}),
    "config-rate-text": _config("rates.session: expected an integer, got 'y'",
                                {"rates": {"session": "y"}}),
    "config-rates-5": _config("rates: expected an object, got 5", {"rates": 5}),
    "config-negative-rate": _config("rates.session: must be a non-negative integer, got -1",
                                    {"rates": {"session": -1}}),
    # without its rule, 3/2 would raise the residual score of every risk the
    # plan mitigates, and 1/0 and x escaped as a ZeroDivisionError or ValueError
    "config-residual-3/2": _config("residual_factor: must be in 0..1, got '3/2'",
                                   {"residual_factor": "3/2"}),
    **{f"config-residual-{name}": _config(_FRACTION + repr(value), {"residual_factor": value})
       for name, value in (("1/0", "1/0"), ("x", "x"), ("true", True))},
    # the layers' parameters have one home, the scenario's `controls` block
    "config-controls": _config("controls: unknown field",
                               {"controls": {"s10": {"overhead_bytes": 500}}}),
    "config-missing-reference": _config(
        f"mapping: cannot read nope.json: {_MISSING}: 'nope.json'", {"mapping": "nope.json"}),
    # two faults: a bad knob and a bad reference
    "config-two-faults": _config(
        f"mapping: cannot read nope.json: {_MISSING}: 'nope.json'",
        {"top_k": "x", "mapping": "nope.json"}),
    "dmaic-missing-scenario": _config(
        f"scenario: cannot read missing-scenario.json: {_MISSING}: 'missing-scenario.json'",
        {"scenario": "missing-scenario.json"}),
    # two missing references: the scenario is resolved first
    "config-two-missing-references": _config(
        f"scenario: cannot read missing-scenario.json: {_MISSING}: 'missing-scenario.json'",
        {"mapping": "nope.json", "scenario": "missing-scenario.json"}),

    # -- dmaic: a referenced document -----------------------------------------
    "ref-action-cost": _config(
        "action_library.actions[0].cost: unknown field; an action is only id, control "
        "and description; costs come from the rates and the secured run",
        {}, action_library={"actions": [{"id": "x", "control": "S9", "cost": 1}]}),
    "ref-action-unknown-section": _config(
        "action_library.actions[0].control: unknown control section 'S99'",
        {}, action_library={"actions": [{"id": "x", "control": "S99"}]}),
    "ref-mapping-entry-type": _config("mapping.R4[0]: expected a string, got 5",
                                      {}, mapping={"R4": [5]}),
    **{f"ref-mapping{tail}-unknown-section": _config(
        f"mapping.{risk}[0]: unknown control section 'S99'", {}, mapping={risk: ["S99"]})
       for tail, risk in (("", "R4"), ("-r1", "R1"))},
    "ref-mapping-uncovered-section": _config("mapping.R1[0]: no action covers section 'S13'",
                                             {}, mapping={"R1": ["S13"]}),
    "ref-mapping-empty-entry": _config("mapping.R4: names no section", {}, mapping={"R4": []}),
    "ref-risk-level-label": _config("risk_catalog.risks[0].relevance: unknown label 'Huge'",
                                    {}, risk_catalog=_HUGE),
    "ref-risk-catalog-empty": _config("risk_catalog.risks: names no risk",
                                      {}, risk_catalog={"risks": []}),
    "ref-risk-duplicate-id": _config("risk_catalog.risks[1].id: 'R1' is a duplicate risk id",
                                     {}, risk_catalog=_TWICE),
    "ref-control-level-label": _config(
        "control_catalog.sections[0].change_level: unknown label 'Huge'", {},
        control_catalog={"sections": [{"id": "S9", "name": "n", "change_level": "Huge"}]}),
    "ref-missing-field": _config("control_catalog.sections[0]: missing field 'name'",
                                 {}, control_catalog={"sections": [{"id": "S9"}]}),
    **{f"ref-{key.replace('_', '-')}-empty-file": _config(f"{key}: {_not_json('')}", {},
                                                          **{key: ""})
       for key in ("mapping", "control_catalog", "action_library")},
    # the referenced scenario's errors are named from its key, as every reference's are
    "ref-scenario-float": _config("scenario.links[0].latency_ms: expected an integer, got 2.7",
                                  {}, scenario=scenario_document(_put("links.0.latency_ms", 2.7))),
    "ref-scenario-duration-true": _config(
        "scenario.failures[0].duration_s: expected an integer, got True",
        {}, scenario=scenario_document(_put("failures.0.duration_s", True))),
    "ref-scenario-unknown-key": _config("scenario.horizon: unknown field",
                                        {}, scenario=scenario_document({"horizon": 86_400})),
    # a string was split into one-letter device ids
    "ref-scenario-backup-pool-text": _config(
        "scenario.nodes[0].backup_pool: expected an array, got 'dev-truck'",
        {}, scenario=scenario_document(_put("nodes.0.backup_pool", "dev-truck"))),
    "ref-scenario-misspelt-key-id": _config(
        "scenario.controls.s10.key_ids.dev-citya: 'dev-citya' is not a declared node",
        {}, scenario=scenario_document(_key_ids(**{"dev-citya": "typo"}))),
    "ref-scenario-negative-layer-value": _config(
        "scenario.controls.s17.detection_window_s: must be a non-negative integer, got -1",
        {}, scenario=scenario_document(_put("controls.s17.detection_window_s", -1))),
    **{f"ref-scenario-{layer}-enabled": _config(
        f"scenario.controls.{layer}.enabled: unknown field",
        {}, scenario=scenario_document(_put(f"controls.{layer}.enabled", True)))
       for layer in ("s9", "s10", "s17")},

    # -- dmaic --scenario -----------------------------------------------------
    **{f"define-{name}": _define(
        f"working_hours.start: {start} is not before working_hours.end {end}",
        _put("working_hours.start", start), _put("working_hours.end", end))
       for name, start, end in (("night", "18:00", "08:00"), ("empty-window", "08:00", "08:00"))},
    **{f"define-{name}": _define(f"working_hours.{message}", _put("working_hours.days", days))
       for name, days, message in (
           ("day-9", [9], "days[0]: 9 is not a weekday 0..6"),
           ("day-minus-1", [0, -1], "days[1]: -1 is not a weekday 0..6"),
           ("repeated-day", [1, 2, 1], "days[2]: 1 is a duplicate weekday"),
           ("no-days", [], "days: names no day"))},
    **{f"define-{layer}-enabled": _define(f"controls.{layer}.enabled: unknown field",
                                          _put(f"controls.{layer}.enabled", True))
       for layer in ("s9", "s10", "s17")},
    "define-s17-enabled-no": _define("controls.s17.enabled: unknown field",
                                     _put("controls.s17.enabled", "no")),
    **{f"define-controls-{name}": _define(f"controls: expected an object, got {value!r}",
                                          _put("controls", value))
       for name, value in (("5", 5), ("text", "s10"), ("null", None))},
    "define-misspelt-layer-key": _define("controls.s10.overhed_bytes: unknown field",
                                         _put("controls.s10.overhed_bytes", 500)),
    "define-layer-value-text": _define("controls.s10.overhead_bytes: expected an integer, got 'x'",
                                       _put("controls.s10.overhead_bytes", "x")),
    # without its rule, each would stop the Control step after the baseline
    # run, the empty key id with exit code 3
    "define-meeting-without-attendees": _define(
        "commands[6].attendees: names no attendee",
        lambda d: next(c for c in d["commands"] if c.get("attendees")).update(attendees=[])),
    **{f"define-meeting-horizon-{str(days).replace('-', 'minus-')}": _define(
        f"meeting_horizon_days: must be a positive integer, got {days}",
        {"meeting_horizon_days": days})
       for days in (0, -3)},
    "define-key-ids-partial": _define(
        "controls.s10.key_ids.dev-city-b: no key id for node 'dev-city-b'",
        _put("controls.s10.key_ids", {"dev-city-a": "ka"})),
    "define-key-id-empty": _define(
        "controls.s10.key_ids.dev-city-a: no key id for node 'dev-city-a'",
        _key_ids(blank="dev-city-a")),
    "define-spare-id": _define(
        "nodes[4].id: 'dev-city-a-r1' is the id of S17 spare 1 of 'dev-city-a'",
        lambda d: d["nodes"].append(_device("dev-city-a-r1")),
        lambda d: d["links"].append(_link("dev-city-a-r1", "cloud", 5))),
}
