import json

import jsonschema
import pytest

from ciore.errors import ParseError
from ciore.fo_prover import decide_fo
from ciore.fo_semantics import fo_sequent_satisfied, structure_from_json
from ciore.parsing import parse_sequent
from ciore.prop_prover import decide
from ciore.serialize import (
    describe_verdict,
    proof_from_json,
    proof_to_json,
    sequent_from_json,
    sequent_to_json,
    verdict_to_json,
)

PROOF_SCHEMA = {
    "$defs": {
        "node": {
            "type": "object",
            "required": ["sequent", "rule", "principal", "side", "premises"],
            "additionalProperties": False,
            "properties": {
                "sequent": {
                    "type": "object",
                    "required": ["ante", "succ"],
                    "additionalProperties": False,
                    "properties": {
                        "ante": {"type": "array", "items": {"type": "string"}},
                        "succ": {"type": "array", "items": {"type": "string"}},
                    },
                },
                "rule": {"type": "string"},
                "principal": {"type": ["string", "null"]},
                "side": {"type": ["string", "null"]},
                "premises": {"type": "array", "items": {"$ref": "#/$defs/node"}},
            },
        }
    },
    "$ref": "#/$defs/node",
}

STRUCTURE_SCHEMA = {
    "type": "object",
    "required": ["domain", "predicates"],
    "properties": {
        "domain": {"type": "array", "items": {"type": "string"}},
        "predicates": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["plus", "minus", "circ"],
                "properties": {
                    side: {"type": "array", "items": {"type": "array", "items": {"type": "string"}}}
                    for side in ("plus", "minus", "circ")
                },
            },
        },
    },
}


def test_sequent_json_round_trip():
    s = parse_sequent("o p, q |- ~(p & q), r")
    assert sequent_from_json(sequent_to_json(s)) == s


def test_proof_json_round_trip_and_schema():
    verdict = decide(parse_sequent("|- o o p"))
    data = proof_to_json(verdict.proof)
    jsonschema.validate(data, PROOF_SCHEMA)
    assert proof_from_json(json.loads(json.dumps(data))) == verdict.proof


def test_fo_proof_json_round_trip():
    verdict = decide_fo(parse_sequent("|- (forall x. P(x)) -> P(a1)"))
    data = proof_to_json(verdict.proof)
    jsonschema.validate(data, PROOF_SCHEMA)
    rebuilt = proof_from_json(data)
    assert rebuilt == verdict.proof
    # quantifier nodes carry their variable in the "side" slot
    def has_var(node):
        return node["side"] is not None or any(has_var(p) for p in node["premises"])

    assert has_var(data)


def test_verdict_json_shapes():
    proved = verdict_to_json(decide(parse_sequent("|- p -> p")))
    assert proved["status"] == "proved"
    jsonschema.validate(proved["proof"], PROOF_SCHEMA)

    refuted = verdict_to_json(decide(parse_sequent("p |- o p")))
    assert refuted == {"status": "refuted", "valuation": {"p": "1/2"}}

    fo_refuted = verdict_to_json(decide_fo(parse_sequent("exists x. P(x) |- forall x. P(x)")))
    assert fo_refuted["status"] == "refuted"
    jsonschema.validate(fo_refuted["structure"], STRUCTURE_SCHEMA)
    assert set(fo_refuted["assignment"]) == set(fo_refuted["structure"]["domain"])

    unknown = verdict_to_json(decide_fo(parse_sequent("|- (o forall x. P(x)) -> exists x. o P(x)"), max_depth=20))
    assert unknown["status"] == "unknown" and "report" in unknown

    # the stage loop gives up on the quantifier swap; the finite refuter does not
    swap = parse_sequent("|- (forall x. exists y. R(x, y)) -> exists y. forall x. R(x, y)")
    finite = verdict_to_json(decide_fo(swap, max_nodes=40, max_depth=20))
    assert finite["status"] == "refuted"
    jsonschema.validate(finite["structure"], STRUCTURE_SCHEMA)
    assert not fo_sequent_satisfied(structure_from_json(finite["structure"]), finite["assignment"], swap)


def test_describe_verdict():
    text = describe_verdict(decide(parse_sequent("p |- o p")))
    assert "1/2" in text
    assert describe_verdict(decide(parse_sequent("|-"))) == "refuted by the empty valuation"


def test_proof_from_json_reads_deeper_than_the_json_reader():
    # built in memory, not parsed: one frame per proof level reads 700 levels,
    # which two frames per level (about 490 at most) would not
    node = {"sequent": {"ante": ["p"], "succ": ["p"]}, "rule": "Axiom", "principal": None, "side": None, "premises": []}
    for _ in range(700):
        node = {"sequent": {"ante": ["p"], "succ": ["p"]}, "rule": "WeakL", "principal": "p", "side": None, "premises": [node]}
    proof = proof_from_json(node)
    for _ in range(700):
        proof = proof.premises[0]
    assert proof.rule.value == "Axiom" and not proof.premises


def test_proof_from_json_errors():
    with pytest.raises(ParseError):
        proof_from_json({"rule": "NoSuchRule", "sequent": {"ante": [], "succ": []}, "premises": []})
    with pytest.raises(ParseError):
        proof_from_json({"sequent": {"ante": ["(("], "succ": []}, "rule": "Axiom", "premises": []})
