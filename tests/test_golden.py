"""Byte identity of the default pipeline outputs.

The default `dmaic` report and both traces are the project's reference
outputs. A change may alter these digests only while fixing a documented
defect, and must then record the before/after diff in CHANGES.md.
"""

import hashlib

from helpers import multi_hop_scenario
from smartbizsim.costs import load_dmaic_config, run_dmaic
from smartbizsim.world import build_world

GOLDEN_SHA256 = {
    "report": "18ffa700f6822265d5ef692e58147954d11856ce0db87c69def26a78f4a7579e",
    "baseline_trace": "c7a26ad9f3f5b54fb28f30d37743a609be230c78cbb66dc038f132a154ec90e9",
    "secured_trace": "410b4b5b64fa025c4c809134517e70e50834004fac2c0d9295f540d86ce483c1",
}

# Secured (S9+S10+S17) trace of helpers.multi_hop_scenario, whose routes
# have up to three hops and equal-length alternatives.
MULTI_HOP_SECURED_SHA256 = (
    "276d1bad8751208614d607c8a7c591722faa5c6bb5dab06c5ce531e6100a26a0"
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_default_dmaic_outputs_are_byte_identical_to_the_reference():
    outcome = run_dmaic(load_dmaic_config(None))
    outputs = {
        "report": outcome.report.to_canonical_json(),
        "baseline_trace": outcome.baseline_trace.to_ndjson(),
        "secured_trace": outcome.secured_trace.to_ndjson(),
    }
    digests = {name: _sha256(text) for name, text in outputs.items()}
    assert digests == GOLDEN_SHA256


def test_multi_hop_secured_trace_is_byte_identical_to_the_reference():
    scenario = multi_hop_scenario()
    world = build_world(scenario, scenario.controls.with_enabled({"S9", "S10", "S17"}))
    world.run_until(scenario.horizon_s)
    assert _sha256(world.trace.to_ndjson()) == MULTI_HOP_SECURED_SHA256
