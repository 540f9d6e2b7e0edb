"""JSON forms of proofs and prover verdicts.

Formulas inside JSON use the same text grammar the command line accepts, so
dumped proofs can be edited by hand and checked again.
"""

from __future__ import annotations

from typing import Mapping

from . import fo_prover, prop_prover
from .errors import ParseError
from .fo_semantics import structure_to_json
from .matrix import valuation_to_json
from .parsing import format_formula, format_sequent, parse_formula
from .sequents import Proof, Proved, RuleId, Sequent


def sequent_to_json(s: Sequent) -> dict:
    return {
        "ante": [format_formula(f) for f in s.sorted_ante()],
        "succ": [format_formula(f) for f in s.sorted_succ()],
    }


def _list(data: Mapping, key: str) -> list:
    value = data[key]
    if not isinstance(value, list):
        raise ParseError(f"malformed proof JSON: {key!r} must be a list, got {value!r}")
    return value


def sequent_from_json(data: Mapping) -> Sequent:
    return Sequent.make(
        (parse_formula(t) for t in _list(data, "ante")),
        (parse_formula(t) for t in _list(data, "succ")),
    )


def proof_to_json(proof: Proof) -> dict:
    return {
        "sequent": sequent_to_json(proof.sequent),
        "rule": proof.rule.value,
        "principal": format_formula(proof.principal) if proof.principal is not None else None,
        "side": proof.var,
        "premises": [proof_to_json(p) for p in proof.premises],
    }


def proof_from_json(data: Mapping) -> Proof:
    try:
        rule = RuleId(data["rule"])
        principal = parse_formula(data["principal"]) if data.get("principal") else None
        var = data.get("side")
        if not (var is None or isinstance(var, str)):
            raise ParseError(f"malformed proof JSON: 'side' must be a string or null, got {var!r}")
        premises = tuple(proof_from_json(p) for p in _list(data, "premises"))
        sequent = sequent_from_json(data["sequent"])
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed proof JSON: {exc}") from exc
    return Proof(sequent=sequent, rule=rule, principal=principal, var=var or None, premises=premises)


def verdict_to_json(verdict) -> dict:
    if isinstance(verdict, Proved):
        body = {"proof": proof_to_json(verdict.proof)}
    elif isinstance(verdict, prop_prover.Refuted):
        body = {"valuation": valuation_to_json(verdict.valuation)}
    elif isinstance(verdict, fo_prover.Refuted):
        body = {
            "structure": structure_to_json(verdict.structure),
            "assignment": dict(sorted(verdict.assignment.items())),
        }
    elif isinstance(verdict, fo_prover.Unknown):
        body = {"report": verdict.report}
    else:
        raise TypeError(f"not a verdict: {verdict!r}")
    return {"status": verdict.status, **body}


def describe_verdict(verdict) -> str:
    if isinstance(verdict, Proved):
        return f"proved: {format_sequent(verdict.proof.sequent)}"
    if isinstance(verdict, prop_prover.Refuted):
        pairs = ", ".join(f"{k} = {v.value}" for k, v in sorted(verdict.valuation.items()))
        return f"refuted by valuation: {pairs}" if pairs else "refuted by the empty valuation"
    if isinstance(verdict, fo_prover.Refuted):
        dom = ", ".join(verdict.structure.domain)
        return f"refuted by a structure with domain {{{dom}}}"
    return f"unknown: {verdict.report}"
