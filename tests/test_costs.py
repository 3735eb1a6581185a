import hashlib
import json
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import by_kind, document, multi_hop_scenario, naive_total_cost, recorded_dmaic
from smartbizsim import trace as trace_module
from smartbizsim.controls import build_plan, default_mapping
from smartbizsim.costs import (
    CostRates,
    DmaicConfig,
    load_dmaic_config,
    monetize,
    residual_assessment,
    run_dmaic,
)
from smartbizsim.errors import ConfigError, canonical_json, read, replace
from smartbizsim.metering import SectionUsage
from smartbizsim.middleware import ControlLayerConfig, S9Config
from smartbizsim.risk import OrdinalLevel, Risk, RiskCatalog, default_risk_catalog, rank
from smartbizsim.scenario import FailureSpec, default_scenario
from smartbizsim.timeline import SECONDS_PER_DAY
from test_scenario import spec_scenarios


def _total(breakdown) -> int:
    return sum(cost.total for cost in breakdown.values())


def test_capital_is_metered_count_times_rate():
    plan = frozenset({"S17", "S13"})
    rates = CostRates(capital_item=10_000, operational_event=0, latency_ms=0,
                      wire_byte=0, session=0)
    usage = {"S17": SectionUsage(capital_items=3), "S9": SectionUsage(capital_items=5)}
    breakdown = monetize(plan, rates, usage)
    assert breakdown["S17"].capital == 30_000
    # S13 has no layer in the simulator, so nothing metered and nothing
    # priced; S9 is metered but not in the plan.
    assert breakdown["S13"].total == 0
    assert "S9" not in breakdown
    assert _total(breakdown) == 30_000


def test_zero_usage_means_zero_performance():
    plan = build_plan(["R6"], default_mapping())
    rates = CostRates()
    usage = {"S10": SectionUsage(extra_latency_ms=0, extra_bytes=0)}
    breakdown = monetize(plan, rates, usage)
    assert breakdown["S10"].performance == 0


def _random_plan(rng: random.Random) -> frozenset[str]:
    return frozenset(rng.sample(["S9", "S10", "S13", "S17"], rng.randint(0, 4)))


def _random_usage(rng: random.Random, plan: frozenset[str]):
    return {
        section: SectionUsage(
            extra_latency_ms=rng.randint(0, 10_000),
            extra_bytes=rng.randint(0, 100_000),
            sessions=rng.randint(0, 500),
            operational_events=rng.randint(0, 50),
            capital_items=rng.randint(0, 10),
        )
        for section in sorted(plan)
    }


def _random_rates(rng: random.Random) -> CostRates:
    return CostRates(
        capital_item=rng.randint(0, 10_000),
        operational_event=rng.randint(0, 10_000),
        latency_ms=rng.randint(0, 100),
        wire_byte=rng.randint(0, 100),
        session=rng.randint(0, 1_000),
    )


def test_randomized_totals_match_the_naive_oracle():
    rng = random.Random(77)
    for _ in range(60):
        plan = _random_plan(rng)
        rates = _random_rates(rng)
        usage = _random_usage(rng, plan)
        breakdown = monetize(plan, rates, usage)
        assert _total(breakdown) == naive_total_cost(plan, rates, usage)


def test_total_is_monotone_in_each_rate():
    rng = random.Random(78)
    plan = _random_plan(rng)
    usage = _random_usage(rng, plan)
    base_rates = _random_rates(rng)
    base_total = _total(monetize(plan, base_rates, usage))
    for field_name in ("capital_item", "operational_event", "latency_ms", "wire_byte", "session"):
        bumped = replace(base_rates, **{field_name: getattr(base_rates, field_name) + 17})
        bumped_total = _total(monetize(plan, bumped, usage))
        assert bumped_total >= base_total


# -- residual assessment ---------------------------------------------------------


def test_factor_zero_drops_the_mitigated_risks_to_the_bottom():
    assessment = rank(default_risk_catalog())
    residual = residual_assessment(
        assessment, {"S9", "S10", "S17"}, default_mapping(), Fraction(0)
    )
    assert list(residual.ranking[:3]) == ["R10", "R3", "R7"]
    # hand computation: mitigated risks score 0 and sink, keeping their
    # own tie order (relevance, then id suffix)
    assert list(residual.ranking) == [
        "R10", "R3", "R7", "R8", "R1", "R5", "R2", "R6", "R9", "R4",
    ]
    for rid in ("R4", "R6", "R9"):
        assert residual.scores[rid] == 0


def test_factor_one_is_identity():
    assessment = rank(default_risk_catalog())
    residual = residual_assessment(
        assessment, {"S9", "S10", "S17"}, default_mapping(), Fraction(1)
    )
    assert residual.ranking == assessment.ranking
    assert all(residual.scores[r] == assessment.scores[r] for r in assessment.scores)


def test_empty_enabled_set_changes_nothing():
    assessment = rank(default_risk_catalog())
    residual = residual_assessment(assessment, set(), default_mapping(), Fraction(0))
    assert residual.ranking == assessment.ranking


def test_half_factor_reorders_exactly():
    # 25/2 = 12.5 keeps R6 first; R10 (12) then overtakes R9 and R4 (10).
    assessment = rank(default_risk_catalog())
    residual = residual_assessment(
        assessment, {"S9", "S10", "S17"}, default_mapping(), Fraction(1, 2)
    )
    assert list(residual.ranking) == [
        "R6", "R10", "R9", "R4", "R3", "R7", "R8", "R1", "R5", "R2",
    ]
    assert residual.scores["R6"] == Fraction(25, 2)


def test_partially_enabled_mapping_leaves_risks_untouched():
    mapping = {"R6": ("S10", "S13")}
    assessment = rank(default_risk_catalog())
    residual = residual_assessment(assessment, {"S10"}, mapping, Fraction(0))
    assert residual.scores["R6"] == 25  # S13 missing, so R6 keeps its score


SECTIONS = ("S9", "S10", "S13", "S17")


@st.composite
def residual_cases(draw):
    """A catalog of 1-12 risks, a mapping over some of them, the enabled
    sections and a factor in [0, 1], both ends drawn often."""
    levels = st.sampled_from(list(OrdinalLevel))
    risks = tuple(
        Risk(id=f"R{k}", name=f"risk {k}", relevance=draw(levels), severity=draw(levels))
        for k in draw(st.lists(st.integers(1, 30), min_size=1, max_size=12, unique=True))
    )
    sections = st.lists(st.sampled_from(SECTIONS), min_size=1, max_size=3, unique=True)
    mapping = {r.id: tuple(draw(sections)) for r in risks if draw(st.booleans())}
    enabled = set(draw(st.lists(st.sampled_from(SECTIONS), unique=True)))
    factor = draw(st.sampled_from([Fraction(0), Fraction(1)])
                  | st.fractions(min_value=0, max_value=1, max_denominator=12))
    return RiskCatalog(risks=risks), mapping, enabled, factor


@settings(max_examples=300, deadline=None, derandomize=True)
@given(residual_cases())
def test_residual_ranking_scales_mitigated_risks_and_moves_them_only_down(case):
    catalog, mapping, enabled, factor = case
    before = rank(catalog)
    after = residual_assessment(before, enabled, mapping, factor)
    mitigated = {rid for rid, mapped in mapping.items() if set(mapped) <= enabled}
    for rid, score in before.scores.items():
        assert after.scores[rid] == (score * factor if rid in mitigated else score)

    def among(ranking, ids):
        return [rid for rid in ranking if rid in ids]

    unmitigated = set(before.scores) - mitigated
    assert among(after.ranking, unmitigated) == among(before.ranking, unmitigated)
    place = {rid: k for k, rid in enumerate(before.ranking)}
    new_place = {rid: k for k, rid in enumerate(after.ranking)}
    if factor == 0:
        # mitigated risks all score 0 and re-tie, so only their block is fixed
        assert after.ranking[:len(unmitigated)] == tuple(among(before.ranking, unmitigated))
    else:
        assert among(after.ranking, mitigated) == among(before.ranking, mitigated)
        assert all(new_place[rid] >= place[rid] for rid in mitigated)
        assert all(new_place[rid] <= place[rid] for rid in unmitigated)
    if factor == 1:
        assert after.ranking == before.ranking


# -- the full pipeline -------------------------------------------------------------


def test_default_pipeline_enables_the_three_controls():
    report = run_dmaic(load_dmaic_config(None))
    assert report.cost_breakdown.keys() == {"S9", "S10", "S17"}
    assert list(report.residual_ranking.ranking[:3]) == ["R10", "R3", "R7"]
    for rid in ("R4", "R6", "R9"):
        assert report.residual_ranking.scores[rid] == 0
    assert report.total_security_cost == _total(report.cost_breakdown)


def test_report_is_byte_deterministic():
    a = run_dmaic(load_dmaic_config(None))
    b = run_dmaic(load_dmaic_config(None))
    assert canonical_json(a) == canonical_json(b)


def _reworded(config: DmaicConfig) -> DmaicConfig:
    library = tuple(replace(a, description="reworded") for a in config.action_library)
    return replace(config, action_library=library)


def _first_payload_changed(config: DmaicConfig) -> DmaicConfig:
    first, *rest = config.scenario.commands
    commands = (replace(first, payload=first.payload + "!"), *rest)
    return replace(config, scenario=replace(config.scenario, commands=commands))


@pytest.mark.parametrize(
    "change, moves",
    [
        (_reworded, False),
        (_first_payload_changed, True),
        (lambda c: replace(c, rates=replace(c.rates, session=c.rates.session + 1)), True),
        (lambda c: replace(c, residual_factor=Fraction(1, 2)), True),
    ],
    ids=["action-description", "command-payload", "rate", "residual-factor"],
)
def test_the_digest_moves_with_every_priced_input_but_not_with_prose(change, moves):
    config = load_dmaic_config(None)
    assert (change(config).digest() != config.digest()) is moves


@settings(max_examples=100, deadline=None, derandomize=True)
@given(spec_scenarios(), st.integers(1, 5))
def test_the_digest_hashes_the_resolved_document_in_batches(scenario, batch):
    config = replace(load_dmaic_config(None), scenario=scenario)
    whole = canonical_json(config.resolved_dict()).encode("utf-8")
    with mock.patch.object(trace_module, "BATCH_RECORDS", batch):  # several batches
        assert config.digest() == hashlib.sha256(whole).hexdigest()


def test_top_k_zero_rejected_at_validation():
    config = load_dmaic_config(None)
    with pytest.raises(ConfigError, match="^top_k: 0 is outside 1..10"):
        replace(config, top_k=0)


def test_oversized_top_k_is_rejected_at_define():
    # the command line's `dmaic --top-k 11` is the row dmaic-top-k-11
    config = load_dmaic_config(None)
    assert replace(config, top_k=10).top_k == 10  # the whole catalog
    with pytest.raises(ConfigError, match=r"^top_k: 11 is outside 1\.\.10, the risk count$"):
        replace(config, top_k=11)


def test_top_k_is_checked_against_the_catalog_it_comes_with(tmp_path):
    # the config is built once, so the default top_k of 3 never meets
    # the two-risk catalog
    catalog = document(default_risk_catalog())
    catalog["risks"] = [r for r in catalog["risks"] if r["id"] in ("R6", "R9")]
    (tmp_path / "risks.json").write_text(json.dumps(catalog))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"risk_catalog": "risks.json", "top_k": 2}))
    report = run_dmaic(load_dmaic_config(path))
    assert report.cost_breakdown.keys() == {"S9", "S10"}
    path.write_text(json.dumps({"risk_catalog": "risks.json"}))
    with pytest.raises(ConfigError, match=r"^top_k: 3 is outside 1\.\.2, the risk count$"):
        load_dmaic_config(path)


def test_zero_rates_cost_zero_without_touching_the_metrics():
    zero = CostRates(capital_item=0, operational_event=0, latency_ms=0,
                     wire_byte=0, session=0)
    config = replace(load_dmaic_config(None), rates=zero)
    report = run_dmaic(config)
    assert report.total_security_cost == 0
    assert report.secured.messages_sent == report.baseline.messages_sent


def test_empty_mapping_runs_with_no_controls_and_zero_cost():
    config = replace(load_dmaic_config(None), mapping={})
    report, baseline, secured = recorded_dmaic(config)
    assert report.cost_breakdown == {}
    assert report.total_security_cost == 0
    assert baseline.to_ndjson() == secured.to_ndjson()


def test_a_scenario_files_layer_parameters_reach_the_secured_run(tmp_path):
    # the built-in scenario's document with one layer value changed: its
    # credential store and every other layer setting come along
    doc = document(default_scenario())
    doc["controls"]["s10"]["overhead_bytes"] = 500
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "scenario.json"}))
    config = load_dmaic_config(path)
    default = load_dmaic_config(None).scenario.controls
    assert config.scenario.controls == replace(
        default, s10=replace(default.s10, overhead_bytes=500)
    )
    report, _, secured = recorded_dmaic(config)
    assert not [r for r in by_kind(secured, "audit") if not r["authenticated"]]
    assert report.secured.messages_sent == 62
    sent = by_kind(secured, "sent")
    assert all(r["wire_bytes"] - r["size_bytes"] == 500 for r in sent)


def test_a_scenario_files_layer_block_gives_its_defaults_for_what_it_leaves_out(tmp_path):
    # the layer's own defaults, not the built-in scenario's, whose S9
    # credential store is not S9Config's default
    doc = document(default_scenario())
    doc["controls"] = {"s9": {"per_session_latency_ms": 7}}
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "scenario.json"}))
    assert load_dmaic_config(None).scenario.controls.s9.credential_store
    assert load_dmaic_config(path).scenario.controls == ControlLayerConfig(
        s9=S9Config(per_session_latency_ms=7)
    )


def test_negative_rate_rejected():
    with pytest.raises(ConfigError):
        CostRates(capital_item=-1)


def test_baseline_and_secured_differ_only_in_middleware_events():
    _, baseline, secured = recorded_dmaic(load_dmaic_config(None))
    layer_kinds = {"audit", "ops", "capital", "failover"}

    def stripped(trace):
        out = []
        for record in trace.records:
            if record["kind"] in layer_kinds:
                continue
            clean = {
                k: v for k, v in record.items()
                if k not in ("seq", "wire_bytes", "wrapped", "key_id", "marker",
                             "inner_size", "payload_b64", "s10_ms", "s9_ms",
                             "s17_ms", "latency_ms", "time", "to")
            }
            out.append(clean)
        return out

    base = stripped(baseline)
    sec = [r for r in stripped(secured)
           if not (r["kind"] in ("delivered", "lost"))]
    base = [r for r in base if not (r["kind"] in ("delivered", "lost"))]
    assert base == sec


def _traced_capital(trace) -> dict[str, int]:
    counts: dict[str, int] = {}
    for record in by_kind(trace, "capital"):
        counts[record["section"]] = counts.get(record["section"], 0) + record["count"]
    return counts


@pytest.mark.parametrize("top", [1, 2, 3])
@pytest.mark.parametrize("scenario", ["default", "multi_hop"])
def test_capital_is_what_the_secured_trace_counts(scenario, top):
    config = replace(load_dmaic_config(None), top_k=top)
    if scenario == "multi_hop":
        config = replace(config, scenario=multi_hop_scenario())
    report, _, secured = recorded_dmaic(config)
    counted = _traced_capital(secured)
    sections = report.cost_breakdown
    assert set(counted) <= set(sections)
    for section_id, cost in sections.items():
        assert cost.capital == counted.get(section_id, 0) * config.rates.capital_item


def test_s17_orders_no_replacement_for_a_node_it_cannot_substitute():
    # the cloud has no backup pool: S17 switches it over to no substitute
    # and orders no replacement, so only dev-city-b's outage is priced
    default = default_scenario()
    cloud_down = FailureSpec(node="cloud", at=30 * SECONDS_PER_DAY, duration_s=SECONDS_PER_DAY)
    scenario = replace(default, failures=(*default.failures, cloud_down))
    report, _, secured = recorded_dmaic(replace(load_dmaic_config(None), scenario=scenario))
    assert [(r["failed"], r["substitute"]) for r in by_kind(secured, "failover")] == [
        ("dev-city-b", "dev-city-b-r1"), ("cloud", None)
    ]
    orders = [r for r in by_kind(secured, "ops") if r["section"] == "S17"]
    assert [(r["action"], r["time"]) for r in orders] == [
        ("replacement-order", default.failures[0].at + default.controls.s17.detection_window_s)
    ]
    assert report.cost_breakdown["S17"].operational == 5000
    assert report.total_security_cost == 1373284


def test_rate_defaults_have_one_source():
    assert read(CostRates, {}) == CostRates()
    # a numeric string is not an integer: rejected, not coerced
    with pytest.raises(ConfigError, match=r"^session: expected an integer, got '7'$"):
        read(CostRates, {"session": "7"})
