"""The five-step improvement pipeline and the cost-of-security report.

Define loads the reference data, Measure ranks the risks, Analyze maps
the top-k risks onto control sections, Improve assembles the mitigation
plan, and Control runs the same scenario twice (all layers off, then the
plan's layers on), meters both traces and prices the difference.
Every priced quantity -- hardware, operational events, latency, bytes
and sessions -- is read from the secured run's trace; the plan only
says which sections are on.

Money is integer minor currency units throughout. No floats touch the
cost path, so every breakdown is exactly additive.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from .controls import (
    ControlCatalog,
    ImplementationPlan,
    MitigationAction,
    RiskControlMapping,
    build_plan,
    controls_for,
    default_action_library,
    default_control_catalog,
    default_mapping,
    parse_action_library,
    parse_control_catalog,
    parse_mapping,
)
from .errors import (
    ConfigError,
    DmaicStepError,
    ParseError,
    parse_json,
    read_document,
)
from .metering import MetricSet, SectionUsage, meter, meter_sections
from .middleware import updated_from_dict
from .risk import (
    RiskAssessment,
    RiskCatalog,
    id_order,
    load_risk_catalog,
    rank,
    reassess,
    top_k,
)
from .scenario import ScenarioConfig, default_scenario, load_scenario
from .trace import Trace, canonical_json
from .world import build_world


@dataclass(frozen=True)
class CostRates:
    """Minor currency units charged per metered unit."""

    capital_item: int = 150_000
    operational_event: int = 5_000
    latency_ms: int = 2
    wire_byte: int = 1
    session: int = 25

    def __post_init__(self) -> None:
        for name, value in self.to_dict().items():
            if not isinstance(value, int) or value < 0:
                raise ConfigError(f"rate {name} must be a non-negative integer")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "CostRates":
        return updated_from_dict(cls(), data)


@dataclass(frozen=True)
class SectionCost:
    capital: int
    operational: int
    performance: int

    @property
    def total(self) -> int:
        return self.capital + self.operational + self.performance

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CostBreakdown:
    sections: Mapping[str, SectionCost]

    @property
    def total(self) -> int:
        return sum(cost.total for cost in self.sections.values())

    def to_dict(self) -> dict:
        return {sid: cost.to_dict() for sid, cost in self.sections.items()}


@dataclass(frozen=True)
class DmaicConfig:
    """Fully resolved pipeline configuration (all references loaded)."""

    risk_catalog: RiskCatalog
    control_catalog: ControlCatalog
    mapping: RiskControlMapping
    action_library: tuple[MitigationAction, ...]
    scenario: ScenarioConfig
    rates: CostRates = field(default_factory=CostRates)
    top_k: int = 3
    residual_factor: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if not 0 <= self.residual_factor <= 1:
            raise ConfigError(
                f"residual_factor must be in 0..1, got {self.residual_factor}"
            )

    def resolved_dict(self) -> dict:
        return {
            "risk_catalog": self.risk_catalog.to_dict(),
            "control_catalog": self.control_catalog.to_dict(),
            "mapping": self.mapping.to_dict(),
            # descriptions stay out: the report prints this dict's digest
            "action_library": [
                {"id": a.id, "control": a.control} for a in self.action_library
            ],
            "scenario": self.scenario.to_dict(),
            "rates": self.rates.to_dict(),
            "top_k": self.top_k,
            "residual_factor": str(self.residual_factor),
        }

    def digest(self) -> str:
        canonical = canonical_json(self.resolved_dict())
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CostReport:
    baseline: MetricSet
    secured: MetricSet
    cost_breakdown: CostBreakdown
    total_security_cost: int
    residual_ranking: RiskAssessment
    provenance: dict

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline.to_dict(),
            "secured": self.secured.to_dict(),
            "cost_breakdown": self.cost_breakdown.to_dict(),
            "total_security_cost": self.total_security_cost,
            "residual_ranking": self.residual_ranking.to_dict(),
            "provenance": dict(self.provenance),
        }

    def to_canonical_json(self) -> str:
        return canonical_json(self.to_dict()) + "\n"


@dataclass(frozen=True)
class DmaicOutcome:
    """Everything a pipeline run produces; the report plus both traces."""

    report: CostReport
    assessment: RiskAssessment
    plan: ImplementationPlan
    baseline_trace: Trace
    secured_trace: Trace


def monetize(
    plan: ImplementationPlan,
    rates: CostRates,
    section_usage: Mapping[str, SectionUsage] | None = None,
) -> CostBreakdown:
    """Price each section the plan enables from what the secured run
    metered for it: capital items, operational events and performance
    overhead. A section with no layer in the simulator prices 0.

    All integer arithmetic; the per-section totals add up exactly.
    """
    usage = section_usage or {}
    sections = {}
    for section_id in sorted(plan.enabled_controls, key=id_order):
        used = usage.get(section_id, SectionUsage())
        capital = used.capital_items * rates.capital_item
        operational = used.operational_events * rates.operational_event
        performance = (
            used.extra_latency_ms * rates.latency_ms
            + used.extra_bytes * rates.wire_byte
            + used.sessions * rates.session
        )
        sections[section_id] = SectionCost(
            capital=capital, operational=operational, performance=performance
        )
    return CostBreakdown(sections=sections)


def residual_assessment(
    assessment: RiskAssessment,
    enabled: frozenset[str] | set[str],
    mapping: RiskControlMapping,
    residual_factor: Fraction = Fraction(0),
) -> RiskAssessment:
    """Scale down every risk whose mapped controls are all enabled, then
    re-rank with the same tie rules.

    Risks without a mapping entry keep their score; "eliminate" is the
    default factor of zero.
    """
    factor = Fraction(residual_factor)
    scores = {}
    for risk in assessment.risks:
        base = assessment.scores[risk.id]
        mapped = mapping.sections_for(risk.id)
        if mapped and set(mapped) <= set(enabled):
            scores[risk.id] = Fraction(base) * factor
        else:
            scores[risk.id] = base
    return reassess(assessment.risks, scores)


def load_dmaic_config(
    path: str | Path | None = None, overrides: Mapping | None = None
) -> DmaicConfig:
    """Resolve a pipeline config document into a DmaicConfig.

    With no document at all, every reference falls back to its built-in
    default, so the pipeline runs with zero arguments. `overrides` takes
    the same keys as the document and wins over it (the CLI's flags);
    its references are read relative to the working directory, the
    document's relative to the document.
    """
    data: dict = {}
    base = Path(".")
    if path is not None:
        data = parse_json(read_document(path, "config"), "config")
        if not isinstance(data, dict):
            raise ParseError("config must be a JSON object")
        base = Path(path).parent
    overrides = overrides or {}
    data = {**data, **overrides}

    def ref_path(key: str) -> Path | None:
        ref = data.get(key)
        if ref is None:
            return None
        return Path(ref) if key in overrides else base / ref  # absolute stays absolute

    def read_ref(key: str) -> str | None:
        ref = ref_path(key)
        return None if ref is None else read_document(ref, f"{key} reference")

    catalog = load_risk_catalog(read_ref("risk_catalog"))
    control_text = read_ref("control_catalog")
    control_catalog = (
        parse_control_catalog(control_text) if control_text else default_control_catalog()
    )
    mapping_text = read_ref("mapping")
    mapping = parse_mapping(mapping_text) if mapping_text else default_mapping()
    scenario_path = ref_path("scenario")
    scenario = default_scenario() if scenario_path is None else load_scenario(scenario_path)
    changes = {}
    if "controls" in data:
        changes["controls"] = _config_value(
            "controls", lambda v: updated_from_dict(scenario.controls, v), data["controls"]
        )
    if data.get("seed") is not None:
        changes["seed"] = _config_value("seed", int, data["seed"])
    if changes:
        scenario = replace(scenario, **changes)
    library_text = read_ref("action_library")
    library = (
        parse_action_library(library_text) if library_text else default_action_library()
    )
    for action in library:
        if not control_catalog.has(action.control):
            raise ParseError(
                f"action {action.id!r} references unknown control "
                f"section {action.control!r}"
            )
    return DmaicConfig(
        risk_catalog=catalog,
        control_catalog=control_catalog,
        mapping=mapping,
        action_library=library,
        scenario=scenario,
        rates=_config_value("rates", CostRates.from_dict, data.get("rates", {})),
        top_k=_config_value("top_k", int, data.get("top_k", DmaicConfig.top_k)),
        residual_factor=_config_value(
            "residual_factor", lambda v: Fraction(str(v)), data.get("residual_factor", 0)
        ),
    )


def _config_value(key: str, convert, value):
    """`convert(value)`; a value it cannot convert is a ParseError naming `key`."""
    try:
        return convert(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad {key} {value!r}: {exc}") from exc


@contextmanager
def _step(name: str):
    """Annotate any escaping error with the failing pipeline step."""
    try:
        yield
    except DmaicStepError:
        raise
    except Exception as exc:
        raise DmaicStepError(name, exc) from exc


def run_dmaic(config: DmaicConfig) -> DmaicOutcome:
    """Execute all five steps and return the report plus both traces."""
    with _step("Define"):
        catalog = config.risk_catalog
        mapping = config.mapping
        library = config.action_library
        scenario = config.scenario

    with _step("Measure"):
        assessment = rank(catalog)

    with _step("Analyze"):
        selected = top_k(assessment, config.top_k)
        for risk_id in selected:
            controls_for(
                risk_id, mapping, config.control_catalog, known_risks=catalog.ids
            )

    with _step("Improve"):
        plan = build_plan(selected, mapping, library, known_risks=catalog.ids)

    with _step("Control"):
        baseline_world = build_world(scenario, scenario.controls.with_enabled(()))
        baseline_world.run_until(scenario.horizon_s)
        secured_world = build_world(
            scenario, scenario.controls.with_enabled(plan.enabled_controls)
        )
        secured_world.run_until(scenario.horizon_s)

        baseline_metrics = meter(baseline_world.trace)
        secured_metrics = meter(secured_world.trace)
        usage = meter_sections(secured_world.trace)
        breakdown = monetize(plan, config.rates, usage)
        residual = residual_assessment(
            assessment, plan.enabled_controls, mapping, config.residual_factor
        )
        report = CostReport(
            baseline=baseline_metrics,
            secured=secured_metrics,
            cost_breakdown=breakdown,
            total_security_cost=breakdown.total,
            residual_ranking=residual,
            provenance={
                "seed": scenario.seed,
                "config_digest": config.digest(),
            },
        )
    return DmaicOutcome(
        report=report,
        assessment=assessment,
        plan=plan,
        baseline_trace=baseline_world.trace,
        secured_trace=secured_world.trace,
    )

