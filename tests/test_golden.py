"""Byte identity of the default pipeline outputs.

The default `dmaic` report and both traces are the project's reference
outputs. A change may alter these digests only while fixing a documented
defect, and must then record the before/after diff in CHANGES.md.
"""

import hashlib

from smartbizsim.costs import load_dmaic_config, run_dmaic

GOLDEN_SHA256 = {
    "report": "67fa27007a3440fefbf520b363983ef7f0d32656214ff35d549931a8fded5c55",
    "baseline_trace": "c7a26ad9f3f5b54fb28f30d37743a609be230c78cbb66dc038f132a154ec90e9",
    "secured_trace": "410b4b5b64fa025c4c809134517e70e50834004fac2c0d9295f540d86ce483c1",
}


def test_default_dmaic_outputs_are_byte_identical_to_the_reference():
    outcome = run_dmaic(load_dmaic_config(None))
    outputs = {
        "report": outcome.report.to_canonical_json(),
        "baseline_trace": outcome.baseline_trace.to_ndjson(),
        "secured_trace": outcome.secured_trace.to_ndjson(),
    }
    digests = {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in outputs.items()
    }
    assert digests == GOLDEN_SHA256
