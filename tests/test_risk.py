import json

import pytest

from smartbizsim.errors import ConfigError, canonical_json, decode, read, replace
from smartbizsim.risk import (
    OrdinalLevel,
    Risk,
    RiskCatalog,
    default_risk_catalog,
    id_order,
    rank,
    score,
)

# Derived by applying the product scoring and tie rules to the default
# grid placements by hand (R9 beats R4 on relevance; R3/R7/R8 and R1/R5
# fall back to id order).
FULL_ORDER = ["R6", "R9", "R4", "R10", "R3", "R7", "R8", "R1", "R5", "R2"]


def _risk(risk_id: str) -> Risk:
    return next(r for r in default_risk_catalog().risks if r.id == risk_id)


def test_default_catalog_has_ten_risks_with_expected_extremes():
    assert len(default_risk_catalog().risks) == 10
    r6 = _risk("R6")
    assert (r6.relevance, r6.severity) == (OrdinalLevel.VERY_HIGH, OrdinalLevel.VERY_HIGH)
    r2 = _risk("R2")
    assert (r2.relevance, r2.severity) == (OrdinalLevel.VERY_LOW, OrdinalLevel.VERY_LOW)


@pytest.mark.parametrize(
    "risk_id,expected",
    [("R6", 25), ("R2", 1), ("R4", 20), ("R9", 20), ("R10", 12)],
)
def test_score_of_default_placements(risk_id, expected):
    assert score(_risk(risk_id)) == expected


def test_score_strictly_monotone_in_each_axis():
    levels = list(OrdinalLevel)
    for i, rel in enumerate(levels[:-1]):
        for sev in levels:
            low = Risk(id="Rx", name="x", relevance=rel, severity=sev)
            high = Risk(id="Rx", name="x", relevance=levels[i + 1], severity=sev)
            assert score(high) > score(low)
            low = Risk(id="Rx", name="x", relevance=sev, severity=rel)
            high = Risk(id="Rx", name="x", relevance=sev, severity=levels[i + 1])
            assert score(high) > score(low)


def test_full_ranking_matches_hand_derivation():
    assessment = rank(default_risk_catalog())
    assert list(assessment.ranking) == FULL_ORDER


def test_ranking_invariant_under_scaling_of_encoded_values():
    # Scale both axes by a constant: scores scale by its square, order
    # and tie-breaks stay put. Recomputed here with the scaled encoding.
    catalog = default_risk_catalog()
    for k in (2, 3, 10):
        scaled = sorted(
            catalog.risks,
            key=lambda r: (
                -(k * r.relevance.level) * (k * r.severity.level),
                -(k * r.relevance.level),
                int(r.id[1:]),
            ),
        )
        assert [r.id for r in scaled] == FULL_ORDER


def test_an_assessment_scores_exactly_its_risks_and_ranks_them_by_the_rule():
    assessment = rank(default_risk_catalog())
    missing = {rid: s for rid, s in assessment.scores.items() if rid != "R2"}
    for scores in (missing, {**assessment.scores, "R99": 1}):
        with pytest.raises(ConfigError, match="^scores: must score exactly the listed risks$"):
            replace(assessment, scores=scores)
    for ranking in (FULL_ORDER[::-1], FULL_ORDER[1:], ["R99"]):
        with pytest.raises(ConfigError, match="^ranking: is not the order of the scores$"):
            replace(assessment, ranking=tuple(ranking))


def test_rank_is_pure_and_serialization_is_stable():
    a = rank(default_risk_catalog())
    b = rank(default_risk_catalog())
    assert canonical_json(a) == canonical_json(b)


def test_default_catalog_round_trips_through_serialization():
    catalog = default_risk_catalog()
    reparsed = read(RiskCatalog, decode(canonical_json(catalog)))
    assert reparsed == catalog
    assert canonical_json(rank(reparsed)) == canonical_json(rank(catalog))


def test_singleton_catalog_ranks_alone():
    single = RiskCatalog(risks=(_risk("R9"),))
    assert list(rank(single).ranking) == ["R9"]


def test_empty_catalog_rejected():
    # rejected when built, so `rank` never sees one
    with pytest.raises(ConfigError, match="^risks: names no risk$"):
        RiskCatalog(risks=())
    with pytest.raises(ConfigError, match="^risks: names no risk$"):
        read(RiskCatalog, decode(json.dumps({"risks": []})))


def test_duplicate_risk_id_rejected():
    doc = json.dumps(
        {
            "risks": [
                {"id": "R1", "name": "a", "relevance": "Low", "severity": "Low"},
                {"id": "R1", "name": "b", "relevance": "Low", "severity": "Low"},
            ]
        }
    )
    with pytest.raises(ConfigError, match=r"^risks\[1\]\.id: 'R1' is a duplicate risk id$"):
        read(RiskCatalog, decode(doc))


def test_unknown_level_label_rejected():
    doc = json.dumps(
        {"risks": [{"id": "R1", "name": "a", "relevance": "Extreme", "severity": "Low"}]}
    )
    with pytest.raises(ConfigError, match=r"^risks\[0\]\.relevance: unknown label 'Extreme'$"):
        read(RiskCatalog, decode(doc))


@pytest.mark.parametrize(
    "doc",
    [
        "not json",
        json.dumps([1, 2]),
        json.dumps({"risks": [{"id": "R1", "name": "a", "relevance": "Low"}]}),
    ],
)
def test_malformed_documents_raise_parse_error(doc):
    problem = {
        "not json": "^not valid JSON: Expecting value",
        "[1, 2]": r"^expected an object, got \[1, 2\]$",
    }.get(doc, r"^risks\[0\]: missing field 'severity'$")
    with pytest.raises(ConfigError, match=problem):
        read(RiskCatalog, decode(doc))


def test_top_k_bounds():
    assessment = rank(default_risk_catalog())
    assert assessment.ranking[:3] == ("R6", "R9", "R4")
    assert list(assessment.ranking[:10]) == FULL_ORDER


def test_id_order_sorts_by_numeric_suffix():
    assert sorted(["S17", "S9", "R10", "S10", "X"], key=id_order) == [
        "X", "S9", "R10", "S10", "S17",
    ]
