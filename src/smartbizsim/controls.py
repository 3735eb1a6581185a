"""Cloud control-of-practice catalog (sections S5..S18), risk mapping
and mitigation planning.

Sections carry the published level-of-change annotation. The default
mapping ties the top three risks to one section each: R4 -> S17
(continuity), R6 -> S10 (cryptography), R9 -> S9 (access control).
Mitigation actions declare cost components so the metering step always
has something to price.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import (
    MissingActionsForControl,
    ParseError,
    UnknownRiskId,
    UnknownSectionId,
    parse_json,
)
from .risk import LabeledEnum, id_order


class ChangeLevel(LabeledEnum):
    LOW = "Low"
    LOW_MODERATE = "LowModerate"
    MODERATE = "Moderate"
    MODERATE_HIGH = "ModerateHigh"
    HIGH = "High"

    @staticmethod
    def _unknown_label(label: str) -> Exception:
        return ParseError(f"unknown change level {label!r}")


class CostKind(LabeledEnum):
    CAPITAL = "capital"
    OPERATIONAL = "operational"
    PER_MESSAGE_LATENCY = "per_message_latency"
    PER_MESSAGE_BYTES = "per_message_bytes"
    PER_SESSION = "per_session"

    @staticmethod
    def _unknown_label(label: str) -> Exception:
        return ParseError(f"unknown cost component kind {label!r}")


@dataclass(frozen=True)
class ControlSection:
    id: str
    name: str
    change_level: ChangeLevel


@dataclass(frozen=True)
class ControlCatalog:
    sections: tuple[ControlSection, ...]

    def get(self, section_id: str) -> ControlSection:
        for section in self.sections:
            if section.id == section_id:
                return section
        raise UnknownSectionId(f"unknown control section {section_id!r}")

    def has(self, section_id: str) -> bool:
        return any(s.id == section_id for s in self.sections)

    def to_dict(self) -> dict:
        return {
            "sections": [
                {"id": s.id, "name": s.name, "change_level": s.change_level.value}
                for s in self.sections
            ]
        }


@dataclass(frozen=True)
class RiskControlMapping:
    entries: Mapping[str, tuple[str, ...]]

    def sections_for(self, risk_id: str) -> tuple[str, ...]:
        return tuple(self.entries.get(risk_id, ()))

    def to_dict(self) -> dict:
        return {rid: list(secs) for rid, secs in self.entries.items()}


@dataclass(frozen=True)
class CostComponent:
    kind: CostKind
    magnitude: int

    def __post_init__(self) -> None:
        if self.magnitude < 0:
            raise ParseError(
                f"cost component magnitude must be non-negative, got {self.magnitude}"
            )


@dataclass(frozen=True)
class MitigationAction:
    id: str
    control: str
    description: str
    cost_components: tuple[CostComponent, ...]

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "control": self.control,
            "description": self.description,
            "cost_components": [
                {"kind": c.kind.value, "magnitude": c.magnitude}
                for c in self.cost_components
            ],
        }


@dataclass(frozen=True)
class ImplementationPlan:
    actions: tuple[MitigationAction, ...]
    enabled_controls: frozenset[str]


_DEFAULT_SECTIONS: tuple[tuple[str, str, str], ...] = (
    ("S5", "Information Security Policy", "Moderate"),
    ("S6", "Organization of Information Security", "Moderate"),
    ("S7", "Human Resource Security", "LowModerate"),
    ("S8", "Asset Management", "LowModerate"),
    ("S9", "Access Control", "High"),
    ("S10", "Cryptography", "Moderate"),
    ("S11", "Physical and Environmental Security", "LowModerate"),
    ("S12", "Operations Security", "ModerateHigh"),
    ("S13", "Communications Security", "ModerateHigh"),
    ("S14", "System Acquisition, Development and Maintenance", "Moderate"),
    ("S15", "Supplier Relationships", "ModerateHigh"),
    ("S16", "Information Security Incident Management", "Moderate"),
    ("S17", "Information Security Aspects of Business Continuity", "Low"),
    ("S18", "Compliance", "ModerateHigh"),
)


def default_control_catalog() -> ControlCatalog:
    return ControlCatalog(
        sections=tuple(
            ControlSection(id=sid, name=name, change_level=ChangeLevel.from_label(lvl))
            for sid, name, lvl in _DEFAULT_SECTIONS
        )
    )


def default_mapping() -> RiskControlMapping:
    return RiskControlMapping(
        entries={"R4": ("S17",), "R6": ("S10",), "R9": ("S9",)}
    )


DEFAULT_KNOWN_RISKS: tuple[str, ...] = tuple(f"R{i}" for i in range(1, 11))


def controls_for(
    risk_id: str,
    mapping: RiskControlMapping | None = None,
    catalog: ControlCatalog | None = None,
    known_risks: Sequence[str] = DEFAULT_KNOWN_RISKS,
) -> list[ControlSection]:
    """Sections mitigating a risk; empty for known-but-unmapped risks."""
    mapping = mapping or default_mapping()
    catalog = catalog or default_control_catalog()
    if risk_id not in mapping.entries and risk_id not in known_risks:
        raise UnknownRiskId(f"unknown risk id {risk_id!r}")
    return [catalog.get(sid) for sid in mapping.sections_for(risk_id)]


def change_level(
    section_id: str, catalog: ControlCatalog | None = None
) -> ChangeLevel:
    catalog = catalog or default_control_catalog()
    return catalog.get(section_id).change_level


def build_plan(
    selected_risks: Sequence[str],
    mapping: RiskControlMapping | None = None,
    action_library: Iterable[MitigationAction] | None = None,
    known_risks: Sequence[str] = DEFAULT_KNOWN_RISKS,
) -> ImplementationPlan:
    """Collect every library action whose control mitigates a selected risk.

    Action order is deterministic: control id (numeric), then action id.
    """
    mapping = mapping or default_mapping()
    library = tuple(
        action_library if action_library is not None else default_action_library()
    )
    wanted: set[str] = set()
    for risk_id in selected_risks:
        if risk_id not in mapping.entries and risk_id not in known_risks:
            raise UnknownRiskId(f"unknown risk id {risk_id!r}")
        wanted.update(mapping.sections_for(risk_id))
    actions = [a for a in library if a.control in wanted]
    covered = {a.control for a in actions}
    missing = sorted(wanted - covered, key=id_order)
    if missing:
        raise MissingActionsForControl(
            f"no actions in library for control(s): {', '.join(missing)}"
        )
    actions.sort(key=lambda a: (id_order(a.control), a.id))
    return ImplementationPlan(actions=tuple(actions), enabled_controls=frozenset(wanted))


def default_action_library(
    backup_devices: int = 3,
    device_locks: int = 6,
    encryption_latency_ms: int = 5,
    encryption_overhead_bytes: int = 64,
) -> tuple[MitigationAction, ...]:
    """The built-in mitigation actions for S9/S10/S17.

    Magnitudes are parameters, not facts: capital counts come from the
    deployment at hand (how many spare devices, how many locks), and the
    per-message figures mirror the encryption layer's configuration.
    Operational components count one event per occurrence in the run.
    """
    return (
        MitigationAction(
            id="backup-devices",
            control="S17",
            description="One spare smart device per site and truck",
            cost_components=(CostComponent(CostKind.CAPITAL, backup_devices),),
        ),
        MitigationAction(
            id="replacement-process",
            control="S17",
            description="Replacement ordering process run after a failover",
            cost_components=(CostComponent(CostKind.OPERATIONAL, 1),),
        ),
        MitigationAction(
            id="message-encryption",
            control="S10",
            description="Encrypt every device/cloud message in transit",
            cost_components=(
                CostComponent(CostKind.PER_MESSAGE_LATENCY, encryption_latency_ms),
                CostComponent(CostKind.PER_MESSAGE_BYTES, encryption_overhead_bytes),
            ),
        ),
        MitigationAction(
            id="key-management",
            control="S10",
            description="Provision and manage per-node message keys",
            cost_components=(CostComponent(CostKind.OPERATIONAL, 1),),
        ),
        MitigationAction(
            id="auth-gate",
            control="S9",
            description="Code or password check before each device command",
            cost_components=(CostComponent(CostKind.PER_SESSION, 1),),
        ),
        MitigationAction(
            id="device-locks",
            control="S9",
            description="Desk-mount lock per deployed device",
            cost_components=(CostComponent(CostKind.CAPITAL, device_locks),),
        ),
        MitigationAction(
            id="access-review",
            control="S9",
            description="Periodic review and update of access rights",
            cost_components=(CostComponent(CostKind.OPERATIONAL, 1),),
        ),
    )


def parse_control_catalog(document: str) -> ControlCatalog:
    data = parse_json(document, "control catalog")
    if not isinstance(data, dict) or not isinstance(data.get("sections"), list):
        raise ParseError('control catalog must be an object with a "sections" list')
    sections = []
    for i, entry in enumerate(data["sections"]):
        if not isinstance(entry, dict):
            raise ParseError(f"sections[{i}] must be an object")
        try:
            sections.append(
                ControlSection(
                    id=str(entry["id"]),
                    name=str(entry["name"]),
                    change_level=ChangeLevel.from_label(entry["change_level"]),
                )
            )
        except KeyError as exc:
            raise ParseError(f"sections[{i}] is missing field {exc}") from exc
    return ControlCatalog(sections=tuple(sections))


def parse_mapping(document: str) -> RiskControlMapping:
    data = parse_json(document, "mapping file")
    if not isinstance(data, dict):
        raise ParseError("mapping file must be a JSON object of risk -> sections")
    entries = {}
    for rid, secs in data.items():
        if not isinstance(secs, list) or not all(isinstance(s, str) for s in secs):
            raise ParseError(f"mapping for {rid!r} must be a list of section ids")
        if not secs:
            raise ParseError(f"mapping for {rid!r} must not be empty")
        entries[str(rid)] = tuple(secs)
    return RiskControlMapping(entries=entries)


def parse_action_library(document: str) -> tuple[MitigationAction, ...]:
    data = parse_json(document, "action library")
    if not isinstance(data, dict) or not isinstance(data.get("actions"), list):
        raise ParseError('action library must be an object with an "actions" list')
    actions = []
    for i, entry in enumerate(data["actions"]):
        if not isinstance(entry, dict):
            raise ParseError(f"actions[{i}] must be an object")
        try:
            components = tuple(
                CostComponent(CostKind.from_label(c["kind"]), int(c["magnitude"]))
                for c in entry["cost_components"]
            )
            actions.append(
                MitigationAction(
                    id=str(entry["id"]),
                    control=str(entry["control"]),
                    description=str(entry.get("description", "")),
                    cost_components=components,
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"actions[{i}] is malformed: {exc}") from exc
    return tuple(actions)


def library_to_dict(actions: Iterable[MitigationAction]) -> dict:
    return {"actions": [a.to_dict() for a in actions]}
