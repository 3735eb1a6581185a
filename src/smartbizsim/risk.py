"""Cloud risk catalog, 5x5 relevance/severity scoring and priority ranking.

The built-in catalog places the ten OWASP cloud risks (R1..R10) on a
five-level relevance x severity grid. Scores are the product of the two
encoded levels (1..25); ranking is score-descending with deterministic
tie-breaks, so the same catalog always yields the same ordering.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import ConfigError, LabeledEnum, Record, parse_json, read

Score = Union[int, Fraction]


def id_order(item_id: str) -> tuple[int, str]:
    """Sort key for ids like R10 or S9: numeric suffix first, then the id."""
    m = re.search(r"(\d+)$", item_id)
    return (int(m.group(1)) if m else 0, item_id)


class OrdinalLevel(LabeledEnum):
    """Five-step qualitative scale with a fixed 1..5 numeric encoding."""

    VERY_LOW = ("VeryLow", 1)
    LOW = ("Low", 2)
    MEDIUM = ("Medium", 3)
    HIGH = ("High", 4)
    VERY_HIGH = ("VeryHigh", 5)

    @property
    def label(self) -> str:
        return self.value[0]

    @property
    def level(self) -> int:
        return self.value[1]


class Risk(Record):
    id: str
    name: str
    relevance: OrdinalLevel
    severity: OrdinalLevel
    rationale: str = ""


class RiskCatalog(Record):
    risks: tuple[Risk, ...]

    def __post_init__(self) -> None:
        if not self.risks:
            raise ConfigError("the risk catalog lists no risks")
        seen: set[str] = set()
        for risk in self.risks:
            if risk.id in seen:
                raise ConfigError(f"risk id {risk.id!r} appears more than once")
            seen.add(risk.id)


class RiskAssessment(Record):
    risks: tuple[Risk, ...]
    scores: Mapping[str, Score]
    ranking: tuple[str, ...]


def rank_key(risk: Risk, score: Score):
    """Shared sort key: score desc, relevance desc, numeric id suffix asc."""
    return (-score, -risk.relevance.level, *id_order(risk.id))


def score(risk: Risk) -> int:
    """Product of the encoded relevance and severity levels (1..25)."""
    return risk.relevance.level * risk.severity.level


def rank(catalog: RiskCatalog) -> RiskAssessment:
    """Assess a catalog into a deterministic priority ranking."""
    return reassess(catalog.risks, {r.id: score(r) for r in catalog.risks})


def top_k(assessment: RiskAssessment, k: int) -> list[str]:
    if not 1 <= k <= len(assessment.ranking):
        raise ConfigError(
            f"k={k} outside 1..{len(assessment.ranking)} for this assessment"
        )
    return list(assessment.ranking[:k])


# The built-in grid placements. Relevance first, severity second.
_DEFAULT_PLACEMENTS: tuple[tuple[str, str, str, str, str], ...] = (
    ("R1", "Accountability and Data Ownership", "VeryLow", "High",
     "The automated tasks could still be done by hand, but losing control "
     "of business data would hurt."),
    ("R2", "User Identity Federation", "VeryLow", "VeryLow",
     "A single cloud provider is in play, so federated identity barely "
     "applies."),
    ("R3", "Regulatory Compliance", "Medium", "Medium",
     "The provider lets customers pin data location, yet compliance still "
     "deserves care."),
    ("R4", "Business Continuity and Resiliency", "High", "VeryHigh",
     "Deliveries stall whenever a branch device drops out; the business "
     "must keep running."),
    ("R5", "User Privacy and Secondary Usage of Data", "VeryLow", "High",
     "Voice commands expose little beyond what manual handling already "
     "would."),
    ("R6", "Service and Data Integration", "VeryHigh", "VeryHigh",
     "Every branch-to-branch message crosses the cloud and is exposed "
     "unless encrypted end to end."),
    ("R7", "Multi Tenancy and Physical Security", "Medium", "Medium",
     "Shared provider infrastructure; location pinning limits the "
     "exposure."),
    ("R8", "Incidence Analysis and Forensic Support", "Medium", "Medium",
     "Investigations depend on provider-side logs."),
    ("R9", "Infrastructure Security", "VeryHigh", "High",
     "Devices sit in offices and trucks where theft or misuse is easy."),
    ("R10", "Non-Production Environment Exposure", "High", "Medium",
     "No constant redevelopment going on, so staging exposure stays "
     "secondary."),
)


def default_risk_catalog() -> RiskCatalog:
    """The built-in ten-risk catalog with the default grid placements."""
    return RiskCatalog(
        risks=tuple(
            Risk(
                id=rid,
                name=name,
                relevance=OrdinalLevel.from_label(rel),
                severity=OrdinalLevel.from_label(sev),
                rationale=why,
            )
            for rid, name, rel, sev, why in _DEFAULT_PLACEMENTS
        )
    )


def parse_risk_catalog(document: str) -> RiskCatalog:
    """Parse a JSON catalog document.

    Expected shape: {"risks": [{"id", "name", "relevance", "severity",
    "rationale"?}, ...]} with level labels from the five-step scale.
    """
    return read(RiskCatalog, parse_json(document, "risk catalog"))


def reassess(
    risks: Iterable[Risk], scores: Mapping[str, Score]
) -> RiskAssessment:
    """Re-rank existing risks under replacement scores (same tie rules)."""
    risks = tuple(risks)
    ordered = sorted(risks, key=lambda r: rank_key(r, scores[r.id]))
    return RiskAssessment(
        risks=risks,
        scores=dict(scores),
        ranking=tuple(r.id for r in ordered),
    )
