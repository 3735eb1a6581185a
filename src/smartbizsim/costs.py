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
from dataclasses import dataclass, field, fields
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
    json_default,
    parse_json,
    read,
    read_document,
)
from .metering import Meter, MetricSet, SectionUsage, meter, meter_sections
from .middleware import ControlLayerConfig
from .risk import (
    RiskAssessment,
    RiskCatalog,
    id_order,
    load_risk_catalog,
    rank,
    reassess,
    top_k,
)
from .scenario import CommandSpec, ScenarioConfig, default_scenario, load_scenario
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
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, int) or value < 0:
                raise ConfigError(f"rate {f.name} must be a non-negative integer")


@dataclass(frozen=True)
class SectionCost:
    capital: int
    operational: int
    performance: int

    @property
    def total(self) -> int:
        return self.capital + self.operational + self.performance


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
        """The document `digest` hashes: every resolved input in the spelling
        `errors.json_default` gives it, with three exceptions, each kept so
        that the digest of an unchanged configuration does not move."""
        return {
            "risk_catalog": self.risk_catalog,
            "control_catalog": self.control_catalog,
            "mapping": self.mapping.entries,
            # descriptions stay out: they price nothing, and the report
            # prints this digest, so rewording one leaves the report as it is
            "action_library": [
                {"id": a.id, "control": a.control} for a in self.action_library
            ],
            # a command carries only its intent's parameters: the others
            # hold defaults that mean nothing for it
            "scenario": {
                **json_default(self.scenario),
                "commands": [_command_dict(c) for c in self.scenario.commands],
            },
            "rates": self.rates,
            "top_k": self.top_k,
            # text, "0" and not 0: the spelling the digest was defined with
            "residual_factor": str(self.residual_factor),
        }

    def digest(self) -> str:
        canonical = canonical_json(self.resolved_dict())
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _command_dict(c: CommandSpec) -> dict:
    """A command with only the parameters its intent reads."""
    out = {
        "at": c.at,
        "device": c.device,
        "user": c.user,
        "credential": c.credential,
        "intent": c.intent,
    }
    if c.intent == "voice_message":
        out.update({"to": c.to, "payload": c.payload})
    elif c.intent == "create_reminder":
        out.update({"target": c.target, "payload": c.payload})
    elif c.intent == "schedule_meeting":
        out.update({"attendees": c.attendees, "duration_min": c.duration_min})
    return out


@dataclass(frozen=True)
class CostReport:
    baseline: MetricSet
    secured: MetricSet
    cost_breakdown: Mapping[str, SectionCost]
    total_security_cost: int
    residual_ranking: RiskAssessment
    provenance: dict


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
) -> dict[str, SectionCost]:
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
    return sections


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
    document's relative to the document. `controls` updates the
    scenario's control layers; every other key is a DmaicConfig knob.
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
        ref = read(str | None, data.pop(key, None), at=key)
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
    update = None
    if "controls" in data:
        block = data.pop("controls")

        def update(own: ControlLayerConfig) -> ControlLayerConfig:
            return read(ControlLayerConfig, block, base=own, at="controls")

    if scenario_path is None:
        scenario = default_scenario(update)
    else:
        scenario = load_scenario(scenario_path, update)
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
    config = DmaicConfig(
        risk_catalog=catalog,
        control_catalog=control_catalog,
        mapping=mapping,
        action_library=library,
        scenario=scenario,
    )
    return read(DmaicConfig, data, base=config)


@contextmanager
def _step(name: str):
    """Annotate any escaping error with the failing pipeline step."""
    try:
        yield
    except DmaicStepError:
        raise
    except Exception as exc:
        raise DmaicStepError(name, exc) from exc


def run_dmaic(
    config: DmaicConfig, sinks: Mapping[str, Meter] | None = None
) -> DmaicOutcome:
    """Execute all five steps and return the report plus both traces.

    With `sinks`, the runs named "baseline" and "secured" each stream
    their trace in batches to the Meter of that name, which may also write
    it, and are priced from those meters; the returned traces then hold no
    records. Without, both traces keep every record and are metered after
    their runs.
    """
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
        traces = {}
        for run, enabled in (("baseline", ()), ("secured", plan.enabled_controls)):
            world = build_world(
                scenario,
                scenario.controls.with_enabled(enabled),
                sinks[run].feed if sinks else None,
            )
            world.run_until(scenario.horizon_s)
            traces[run] = world.trace
        if sinks:
            baseline_metrics = sinks["baseline"].metrics()
            secured_metrics = sinks["secured"].metrics()
            usage = sinks["secured"].sections()
        else:
            baseline_metrics = meter(traces["baseline"])
            secured_metrics = meter(traces["secured"])
            usage = meter_sections(traces["secured"])
        breakdown = monetize(plan, config.rates, usage)
        residual = residual_assessment(
            assessment, plan.enabled_controls, mapping, config.residual_factor
        )
        report = CostReport(
            baseline=baseline_metrics,
            secured=secured_metrics,
            cost_breakdown=breakdown,
            total_security_cost=sum(cost.total for cost in breakdown.values()),
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
        baseline_trace=traces["baseline"],
        secured_trace=traces["secured"],
    )

