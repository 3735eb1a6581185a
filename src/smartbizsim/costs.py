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
import reprlib
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from .controls import (
    ActionLibrary,
    ControlCatalog,
    MitigationAction,
    build_plan,
    default_action_library,
    default_control_catalog,
    default_mapping,
)
from .errors import (
    ConfigError,
    NonNegative,
    Record,
    SmartBizError,
    canonical_json,
    decode,
    json_default,
    read,
    read_text,
)
from .metering import Meter, MetricSet, SectionUsage
from .risk import (
    RiskAssessment,
    RiskCatalog,
    default_risk_catalog,
    id_order,
    rank,
    reassess,
)
from .scenario import (
    INTENT_PARAMS, CommandSpec, ScenarioConfig, default_scenario, load_scenario,
)
from . import trace
from .world import build_world


class CostRates(NonNegative):
    """Minor currency units charged per metered unit."""

    capital_item: int = 150_000
    operational_event: int = 5_000
    latency_ms: int = 2
    wire_byte: int = 1
    session: int = 25


class SectionCost(NonNegative):
    capital: int
    operational: int
    performance: int

    @property
    def total(self) -> int:
        return self.capital + self.operational + self.performance


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
                raise ConfigError(f"unknown control section {action.control!r}",
                                  f".action_library.actions[{i}].control")
        covered = {action.control for action in self.action_library}
        # every entry, not only the risks top_k selects: a config that runs
        # with one top_k runs with all of them
        for rid, mapped in self.mapping.items():
            if not mapped:
                raise ConfigError("names no section", f".mapping.{rid}")
            for j, sid in enumerate(mapped):
                if sid not in sections:
                    raise ConfigError(f"unknown control section {sid!r}", f".mapping.{rid}[{j}]")
                if sid not in covered:
                    raise ConfigError(f"no action covers section {sid!r}", f".mapping.{rid}[{j}]")
        risks = len(self.risk_catalog.risks)
        if not 1 <= self.top_k <= risks:
            raise ConfigError(f"{self.top_k} is outside 1..{risks}, the risk count", ".top_k")
        if not 0 <= self.residual_factor <= 1:
            got = reprlib.repr(json_default(self.residual_factor))
            raise ConfigError(f"must be in 0..1, got {got}", ".residual_factor")

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
        of `trace.BATCH_RECORDS`, so the text of all of them is never built."""
        # Canonical JSON escapes every quote inside a string, so this text is
        # a key "commands" holding an empty array: the scenario's, since
        # every other key is a field name, or a mapping key whose value is a
        # string or, in the mapping, an array that is never empty.
        head, _, tail = canonical_json(self._resolved([])).partition('"commands":[]')
        sha = hashlib.sha256(f'{head}"commands":['.encode("utf-8"))
        commands, size = self.scenario.commands, trace.BATCH_RECORDS
        for start in range(0, len(commands), size):
            batch = canonical_json([_command_dict(c) for c in commands[start:start + size]])
            if start:
                sha.update(b",")
            sha.update(batch[1:-1].encode("utf-8"))  # the items, without brackets
        sha.update(f"]{tail}".encode("utf-8"))
        return sha.hexdigest()


def _command_dict(c: CommandSpec) -> dict:
    """A command with only the parameters its intent reads."""
    out = {"at": c.at, "device": c.device, "user": c.user, "credential": c.credential,
           "intent": c.intent}
    for name in INTENT_PARAMS[c.intent]:
        out[name] = getattr(c, name)
    return out


class Provenance(Record):
    seed: int
    config_digest: str


class CostReport(Record):
    baseline: MetricSet
    secured: MetricSet
    cost_breakdown: Mapping[str, SectionCost]
    total_security_cost: int
    residual_ranking: RiskAssessment
    provenance: Provenance

    def __post_init__(self) -> None:
        total = sum(cost.total for cost in self.cost_breakdown.values())
        if self.total_security_cost != total:
            raise ConfigError(f"must be {total}, the sum of cost_breakdown, "
                              f"got {self.total_security_cost}", ".total_security_cost")


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
    residual_factor: Fraction,
) -> RiskAssessment:
    """Scale down every risk whose mapped controls are all enabled, then
    re-rank with the same tie rules.

    Risks without a mapping entry keep their score; "eliminate" is a
    factor of zero, `DmaicConfig`'s default.
    """
    scores = {}
    for risk in assessment.risks:
        base = assessment.scores[risk.id]
        mapped = mapping.get(risk.id, ())
        if mapped and set(mapped) <= set(enabled):
            scores[risk.id] = base * residual_factor
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
    document's relative to the document. Every other key is a
    DmaicConfig knob; the control layers' parameters are the scenario's.
    The five references are resolved in one loop, the scenario first; a
    fault of a file or in it is named from its key (`mapping: ...`).
    """
    data: dict = {}
    base = Path(".")
    if path is not None:
        data = decode(read_text(path))
        if type(data) is not dict:
            read(DmaicConfig, data)  # raises the reader's own `expected an object, got ...`
        base = Path(path).parent
    overrides = overrides or {}
    data = {**data, **overrides}

    def document(kind):
        return lambda file, key: read(kind, decode(read_text(file, key), key), at=key)

    # key -> the loader of the file it names, and the default when it names none
    references = {
        "scenario": (load_scenario, default_scenario),
        "risk_catalog": (document(RiskCatalog), default_risk_catalog),
        "control_catalog": (document(ControlCatalog), default_control_catalog),
        "mapping": (document(Mapping[str, tuple[str, ...]]), default_mapping),
        "action_library": (lambda file, key: document(ActionLibrary)(file, key).actions,
                           default_action_library),
    }
    given = {}
    for key, (load, default) in references.items():
        ref = read(str | None, data.pop(key, None), at=key)
        if ref is None:  # absent or null; an empty file is read, and rejected
            given[key] = default()
        else:  # absolute stays absolute
            given[key] = load(Path(ref) if key in overrides else base / ref, key)
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
    plan = build_plan(assessment.ranking[:config.top_k], config.mapping)

    try:  # Control: a package error is reported under the step's name
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
            provenance=Provenance(seed=config.scenario.seed, config_digest=config.digest()),
        )
    except SmartBizError as exc:  # the same class, so the exit code stays
        raise type(exc)(f"[Control] {exc}") from exc
    return report
