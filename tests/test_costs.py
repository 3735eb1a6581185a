import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import by_kind, multi_hop_scenario, naive_total_cost
from smartbizsim.controls import (
    ImplementationPlan,
    MitigationAction,
    RiskControlMapping,
    build_plan,
    default_mapping,
)
from smartbizsim.costs import (
    CostRates,
    DmaicConfig,
    load_dmaic_config,
    monetize,
    residual_assessment,
    run_dmaic,
)
from smartbizsim.errors import ConfigError, DmaicStepError, ParseError, read
from smartbizsim.metering import SectionUsage
from smartbizsim.risk import default_risk_catalog, rank
from smartbizsim.trace import canonical_json


def _plan_for(*sections: str) -> ImplementationPlan:
    actions = tuple(
        MitigationAction(id=f"a{i}", control=section, description="")
        for i, section in enumerate(sections)
    )
    return ImplementationPlan(actions=actions, enabled_controls=frozenset(sections))


def _total(breakdown) -> int:
    return sum(cost.total for cost in breakdown.values())


def test_capital_is_metered_count_times_rate():
    plan = _plan_for("S17", "S13")
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


def _random_plan(rng: random.Random) -> ImplementationPlan:
    return _plan_for(*rng.sample(["S9", "S10", "S13", "S17"], rng.randint(0, 4)))


def _random_usage(rng: random.Random, plan: ImplementationPlan):
    return {
        section: SectionUsage(
            extra_latency_ms=rng.randint(0, 10_000),
            extra_bytes=rng.randint(0, 100_000),
            sessions=rng.randint(0, 500),
            operational_events=rng.randint(0, 50),
            capital_items=rng.randint(0, 10),
        )
        for section in plan.enabled_controls
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
    mapping = RiskControlMapping(entries={"R6": ("S10", "S13")})
    assessment = rank(default_risk_catalog())
    residual = residual_assessment(assessment, {"S10"}, mapping, Fraction(0))
    assert residual.scores["R6"] == 25  # S13 missing, so R6 keeps its score


# -- the full pipeline -------------------------------------------------------------


def test_default_pipeline_enables_the_three_controls():
    outcome = run_dmaic(load_dmaic_config(None))
    assert outcome.plan.enabled_controls == {"S9", "S10", "S17"}
    report = outcome.report
    assert list(report.residual_ranking.ranking[:3]) == ["R10", "R3", "R7"]
    for rid in ("R4", "R6", "R9"):
        assert report.residual_ranking.scores[rid] == 0
    assert report.total_security_cost == _total(report.cost_breakdown)


def test_report_is_byte_deterministic():
    a = run_dmaic(load_dmaic_config(None)).report
    b = run_dmaic(load_dmaic_config(None)).report
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


def test_top_k_zero_rejected_at_validation():
    config = load_dmaic_config(None)
    with pytest.raises(ConfigError):
        replace(config, top_k=0)


def test_oversized_top_k_fails_in_the_analyze_step():
    config = replace(load_dmaic_config(None), top_k=11)
    with pytest.raises(DmaicStepError) as err:
        run_dmaic(config)
    assert err.value.step == "Analyze"
    assert isinstance(err.value.cause, ConfigError)


def test_zero_rates_cost_zero_without_touching_the_metrics():
    zero = CostRates(capital_item=0, operational_event=0, latency_ms=0,
                     wire_byte=0, session=0)
    config = replace(load_dmaic_config(None), rates=zero)
    report = run_dmaic(config).report
    assert report.total_security_cost == 0
    assert report.secured.messages_sent == report.baseline.messages_sent


def test_empty_mapping_runs_with_no_controls_and_zero_cost():
    config = replace(load_dmaic_config(None), mapping=RiskControlMapping(entries={}))
    outcome = run_dmaic(config)
    assert outcome.plan.enabled_controls == frozenset()
    assert outcome.report.total_security_cost == 0
    assert (
        outcome.baseline_trace.to_ndjson() == outcome.secured_trace.to_ndjson()
    )


def test_controls_block_updates_the_scenario_controls(tmp_path):
    # Only the named field changes; the scenario's credential store and
    # every other layer setting survive.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"controls": {"s10": {"overhead_bytes": 500}}}))
    config = load_dmaic_config(path)
    default = load_dmaic_config(None).scenario.controls
    assert config.scenario.controls == replace(
        default, s10=replace(default.s10, overhead_bytes=500)
    )
    outcome = run_dmaic(config)
    assert not [r for r in by_kind(outcome.secured_trace, "audit")
                if not r["authenticated"]]
    assert outcome.report.secured.messages_sent == 62
    sent = by_kind(outcome.secured_trace, "sent")
    assert all(r["wire_bytes"] - r["size_bytes"] == 500 for r in sent)


def test_controls_block_keeps_the_unnamed_fields_of_a_layer_it_names(tmp_path):
    # the default scenario's S9 credential store is not S9Config's default
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"controls": {"s9": {"per_session_latency_ms": 7}}}))
    default = load_dmaic_config(None).scenario.controls
    assert default.s9.credential_store
    assert load_dmaic_config(path).scenario.controls == replace(
        default, s9=replace(default.s9, per_session_latency_ms=7)
    )


def test_negative_rate_rejected():
    with pytest.raises(ConfigError):
        CostRates(capital_item=-1)


def test_baseline_and_secured_differ_only_in_middleware_events():
    outcome = run_dmaic(load_dmaic_config(None))
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

    base = stripped(outcome.baseline_trace)
    sec = [r for r in stripped(outcome.secured_trace)
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
    outcome = run_dmaic(config)
    counted = _traced_capital(outcome.secured_trace)
    sections = outcome.report.cost_breakdown
    assert set(counted) <= set(sections)
    for section_id, cost in sections.items():
        assert cost.capital == counted.get(section_id, 0) * config.rates.capital_item


def test_rate_defaults_have_one_source():
    assert read(CostRates, {}) == CostRates()
    # a numeric string is not an integer: rejected, not coerced
    with pytest.raises(ParseError, match=r"^session: expected an integer, got '7'$"):
        read(CostRates, {"session": "7"})
