"""The five-step improvement pipeline and the cost-of-security report.

Define loads the reference data into a `DmaicConfig`, which rejects any
config that cannot run, so no later step raises on its input. Measure
ranks the risks, Analyze selects the top k, Improve maps them onto the
control sections to enable (the plan), and Control runs the
same scenario twice (all layers off, then the plan's layers on), meters
both traces as they stream and prices the difference.
Every priced quantity -- hardware, operational events, latency, bytes
and sessions -- is read from the secured run's trace; the plan only
says which sections are on.

Money is integer minor currency units throughout. No floats touch the
cost path, so every breakdown is exactly additive.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from .controls import (
    ControlCatalog,
    MitigationAction,
    build_plan,
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
    Record,
    json_default,
    parse_json,
    read,
    read_document,
)
from .metering import Meter, MetricSet, SectionUsage
from .risk import (
    RiskAssessment,
    RiskCatalog,
    default_risk_catalog,
    id_order,
    parse_risk_catalog,
    rank,
    reassess,
    top_k,
)
from .scenario import CommandSpec, ScenarioConfig, default_scenario, load_scenario
from .trace import canonical_json
from .world import build_world


class CostRates(Record):
    """Minor currency units charged per metered unit."""

    capital_item: int = 150_000
    operational_event: int = 5_000
    latency_ms: int = 2
    wire_byte: int = 1
    session: int = 25

    def __post_init__(self) -> None:
        for name in self._fields:
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ConfigError(f"rate {name} must be a non-negative integer")


class SectionCost(Record):
    capital: int
    operational: int
    performance: int

    @property
    def total(self) -> int:
        return self.capital + self.operational + self.performance


# Commands the digest encodes at a time. At 100k commands, batches of
# 128 to 512 hashed 1.05x faster than one list of all of them, and 1.5x
# faster than batches of 4096 (Python 3.11, 2-vCPU x86-64 VM), most
# likely because a small batch's dicts are still in the CPU cache when
# they are encoded.
BATCH_COMMANDS = 256


class DmaicConfig(Record):
    """Fully resolved pipeline configuration (all references loaded)."""

    risk_catalog: RiskCatalog
    control_catalog: ControlCatalog
    mapping: Mapping[str, tuple[str, ...]]  # risk id -> its sections
    action_library: tuple[MitigationAction, ...]
    scenario: ScenarioConfig
    rates: CostRates = CostRates()
    top_k: int = 3
    residual_factor: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        # Every instance can run: loaded, built in code or a replace() copy.
        # So no pipeline step checks its input again.
        sections = {section.id for section in self.control_catalog.sections}
        for i, action in enumerate(self.action_library):
            if action.control not in sections:
                raise ConfigError(
                    f"action_library[{i}] ({action.id!r}).control: "
                    f"unknown control section {action.control!r}"
                )
        covered = {action.control for action in self.action_library}
        # every entry, not only the risks top_k selects: a config that runs
        # with one top_k runs with all of them
        for risk_id, mapped in self.mapping.items():
            if not mapped:
                raise ConfigError(f"mapping.{risk_id}: names no section")
            for j, sid in enumerate(mapped):
                at = f"mapping.{risk_id}[{j}]"
                if sid not in sections:
                    raise ConfigError(f"{at}: unknown control section {sid!r}")
                if sid not in covered:
                    raise ConfigError(f"{at}: no action covers section {sid!r}")
        risks = len(self.risk_catalog.risks)
        if not 1 <= self.top_k <= risks:
            raise ConfigError(f"top_k: {self.top_k} is outside 1..{risks}, the risk count")
        if not 0 <= self.residual_factor <= 1:
            raise ConfigError(
                f"residual_factor must be in 0..1, got {self.residual_factor}"
            )

    def resolved_dict(self) -> dict:
        """The document `digest` hashes: every resolved input in the spelling
        `errors.json_default` gives it, with four exceptions, each kept so
        that the digest of an unchanged configuration does not move."""
        return self._resolved([_command_dict(c) for c in self.scenario.commands])

    def _resolved(self, commands: list) -> dict:
        """`resolved_dict` with `commands` as the scenario's commands."""
        controls = json_default(self.scenario.controls)
        return {
            "risk_catalog": self.risk_catalog,
            "control_catalog": self.control_catalog,
            "mapping": self.mapping,
            # descriptions stay out: they price nothing, and the report
            # prints this digest, so rewording one leaves the report as it is
            "action_library": [
                {"id": a.id, "control": a.control} for a in self.action_library
            ],
            # a command carries only its intent's parameters: the others
            # hold defaults that mean nothing for it
            "scenario": {
                **json_default(self.scenario),
                "commands": commands,
                # `"enabled": false` on each layer: the spelling the digest
                # was defined with; the plan, not the scenario, switches them
                "controls": {
                    name: {**json_default(layer), "enabled": False}
                    for name, layer in controls.items()
                },
            },
            "rates": self.rates,
            "top_k": self.top_k,
            # text, "0" and not 0: the spelling the digest was defined with
            "residual_factor": str(self.residual_factor),
        }

    def digest(self) -> str:
        """The SHA-256 of `canonical_json(self.resolved_dict())`, fed in
        pieces: the text around the commands, then the commands in batches
        of BATCH_COMMANDS, so the text of all of them is never built."""
        # Canonical JSON escapes every quote inside a string, so this text is
        # a key "commands" holding an empty array: the scenario's, since
        # every other key is a field name, or a mapping key whose value is a
        # string or, in the mapping, an array that is never empty.
        head, _, tail = canonical_json(self._resolved([])).partition('"commands":[]')
        sha = hashlib.sha256(f'{head}"commands":['.encode("utf-8"))
        commands, size = self.scenario.commands, BATCH_COMMANDS
        for start in range(0, len(commands), size):
            batch = canonical_json([_command_dict(c) for c in commands[start:start + size]])
            if start:
                sha.update(b",")
            sha.update(batch[1:-1].encode("utf-8"))  # the items, without brackets
        sha.update(f"]{tail}".encode("utf-8"))
        return sha.hexdigest()


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


class CostReport(Record):
    baseline: MetricSet
    secured: MetricSet
    cost_breakdown: Mapping[str, SectionCost]
    total_security_cost: int
    residual_ranking: RiskAssessment
    provenance: dict


def monetize(
    enabled: frozenset[str], rates: CostRates, usage: Mapping[str, SectionUsage]
) -> dict[str, SectionCost]:
    """Price each enabled section from what the secured run metered for
    it: capital items, operational events and performance overhead. A
    section with no layer in the simulator prices 0.

    All integer arithmetic; the per-section totals add up exactly.
    """
    sections = {}
    for section_id in sorted(enabled, key=id_order):
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
    mapping: Mapping[str, tuple[str, ...]],
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
        mapped = mapping.get(risk.id, ())
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
            raise ConfigError("config must be a JSON object")
        base = Path(path).parent
    overrides = overrides or {}
    data = {**data, **overrides}

    def ref_path(key: str) -> Path | None:
        ref = read(str | None, data.pop(key, None), at=key)
        if ref is None:
            return None
        return Path(ref) if key in overrides else base / ref  # absolute stays absolute

    def reference(key: str, parse, default):
        """The parsed file `key` names, even an empty one; `default()` only
        when the key is absent (or null)."""
        ref = ref_path(key)
        return default() if ref is None else parse(read_document(ref, f"{key} reference"))

    controls = data.pop("controls", {})
    scenario_path = ref_path("scenario")
    given = {
        "risk_catalog": reference("risk_catalog", parse_risk_catalog, default_risk_catalog),
        "control_catalog": reference(
            "control_catalog", parse_control_catalog, default_control_catalog
        ),
        "mapping": reference("mapping", parse_mapping, default_mapping),
        "scenario": (
            default_scenario(controls) if scenario_path is None
            else load_scenario(scenario_path, controls)
        ),
        "action_library": reference(
            "action_library", parse_action_library, default_action_library
        ),
    }
    # built once from the parts and the knobs, so its rules see the top_k given
    return read(DmaicConfig, data, given=given)


def run_dmaic(
    config: DmaicConfig, sinks: Mapping[str, Meter] | None = None
) -> CostReport:
    """Execute all five steps and return the report; the plan, the sections
    the secured run enabled, is the set of its `cost_breakdown` keys.

    The runs named "baseline" and "secured" each stream their trace in
    batches to the Meter of that name in `sinks`, which may also write or
    keep it, and are priced from those meters. Without `sinks`, each run
    streams to a fresh Meter.
    """
    # Measure, Analyze and Improve raise on no config that exists
    assessment = rank(config.risk_catalog)
    selected = top_k(assessment, config.top_k)
    plan = build_plan(selected, config.mapping)

    try:  # Control: any error is reported under the step's name
        meters = sinks or {"baseline": Meter(), "secured": Meter()}
        for run, enabled in (("baseline", ()), ("secured", plan)):
            world = build_world(config.scenario, enabled, meters[run].feed)
            world.run_until(config.scenario.horizon_s)
        breakdown = monetize(plan, config.rates, meters["secured"].sections())
        residual = residual_assessment(
            assessment, plan, config.mapping, config.residual_factor
        )
        report = CostReport(
            baseline=meters["baseline"].metrics(),
            secured=meters["secured"].metrics(),
            cost_breakdown=breakdown,
            total_security_cost=sum(cost.total for cost in breakdown.values()),
            residual_ranking=residual,
            provenance={
                "seed": config.scenario.seed,
                "config_digest": config.digest(),
            },
        )
    except Exception as exc:
        raise DmaicStepError(f"[Control] {exc}") from exc
    return report
