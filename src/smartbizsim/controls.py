"""Cloud control-of-practice catalog (sections S5..S18), risk mapping
and mitigation planning.

Sections carry the published level-of-change annotation. The default
mapping ties the top three risks to one section each: R4 -> S17
(continuity), R6 -> S10 (cryptography), R9 -> S9 (access control).
Mitigation actions name what each section does; they carry no cost
figures. Every priced quantity comes from the secured run's trace
(see `costs.monetize`).
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, Sequence

from .errors import Record


class ChangeLevel(Enum):
    LOW = "Low"
    LOW_MODERATE = "LowModerate"
    MODERATE = "Moderate"
    MODERATE_HIGH = "ModerateHigh"
    HIGH = "High"


class ControlSection(Record):
    id: str
    name: str
    change_level: ChangeLevel


class ControlCatalog(Record):
    sections: tuple[ControlSection, ...]


class MitigationAction(Record):
    id: str
    control: str
    description: str = ""

    unknown_field_hint = (
        "an action is only id, control and description; "
        "costs come from the rates and the secured run"
    )


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
            ControlSection(id=sid, name=name, change_level=ChangeLevel(lvl))
            for sid, name, lvl in _DEFAULT_SECTIONS
        )
    )


def default_mapping() -> Mapping[str, tuple[str, ...]]:
    """Risk id -> the control sections that mitigate it."""
    return {"R4": ("S17",), "R6": ("S10",), "R9": ("S9",)}


def build_plan(
    selected_risks: Sequence[str], mapping: Mapping[str, tuple[str, ...]]
) -> frozenset[str]:
    """The plan: every section mapped to a selected risk, to be enabled.

    A `DmaicConfig` guarantees a library action for each of them.
    """
    return frozenset(
        section for risk_id in selected_risks for section in mapping.get(risk_id, ())
    )


_DEFAULT_ACTIONS: tuple[tuple[str, str, str], ...] = (
    ("backup-devices", "S17", "One spare smart device per site and truck"),
    ("replacement-process", "S17", "Replacement ordering process run after a failover"),
    ("message-encryption", "S10", "Encrypt every device/cloud message in transit"),
    ("key-management", "S10", "Provision and manage per-node message keys"),
    ("auth-gate", "S9", "Code or password check before each device command"),
    ("device-locks", "S9", "Desk-mount lock per deployed device"),
    ("access-review", "S9", "Periodic review and update of access rights"),
)


def default_action_library() -> tuple[MitigationAction, ...]:
    """The built-in mitigation actions for S9/S10/S17."""
    return tuple(
        MitigationAction(id=aid, control=control, description=description)
        for aid, control, description in _DEFAULT_ACTIONS
    )


class ActionLibrary(Record):
    actions: tuple[MitigationAction, ...]
