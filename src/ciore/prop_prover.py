"""Terminating decision procedure for the propositional logic.

Backward saturation with the invertible calculus: every applied rule is
invertible, so validity is preserved in both directions and the procedure
either closes every branch (cut-free proof) or reads a countermodel off a
saturated leaf. Each step reduces, among the principals whose rule lowers
the weight, the least by (premise count, antecedent first, formula_key):
Smullyan's alpha-before-beta order. Only when none is left does the one
weight-preserving rule (a negation on the right, reduced in place) apply,
at most once per formula per branch, tracked by marks. Every other step
lowers the weight, so the search ends whatever the order.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .errors import InternalError, LogicError
from .matrix import ZERO, TruthValue, capped_atoms, leaf_values, sequent_satisfied
from .sequents import (
    LEFT,
    RIGHT,
    RULE_TABLE,
    Calculus,
    Proof,
    Proved,
    RuleId,
    Sequent,
    axiom_proof,
    formula_key,
    premises_from_schema,
    rules_for,
)
from .syntax import BINARY_TYPES, Formula, PropAtom, is_literal

R = RuleId

# Premise count of each weight-decreasing GCiore' rule (all but NEG_R2),
# read off its table row applied to placeholder parts: two under a binary
# connective, else one.
_DECREASING_PREMISE_COUNT = {
    rule: len(shape.premises(*[PropAtom("_")] * (2 if (shape.inner or shape.outer) in BINARY_TYPES else 1)))
    for rule, shape in RULE_TABLE.items()
    if rule in Calculus.GCIORE_PRIME.rules and rule is not R.NEG_R2
}


class Refuted(NamedTuple):
    valuation: dict[str, TruthValue]
    status = "refuted"


Verdict = Union[Proved, Refuted]


def _next_reduction(s: Sequent, marks: frozenset) -> tuple[Formula, RuleId] | None:
    """The principal to reduce next and its GCiore' rule: among the rules
    that strictly shrink the weight, on either side, the least by (premise
    count, antecedent before succedent, formula_key of the principal);
    failing that, an unmarked negation on the right for the in-place rule,
    negated consistency formulas before negated atoms."""
    best, best_key = None, None
    for side_rank, side in enumerate((LEFT, RIGHT)):
        for phi in s.side(side):
            for rule in rules_for(phi, side):
                count = _DECREASING_PREMISE_COUNT.get(rule)
                if count is not None:
                    key = (count, side_rank, formula_key(phi))
                    if best_key is None or key < best_key:
                        best, best_key = (phi, rule), key
    if best is not None:
        return best
    in_place = [phi for phi in s.succ - marks if R.NEG_R2 in rules_for(phi, RIGHT)]
    if not in_place:
        return None
    return min(in_place, key=lambda phi: (is_literal(phi), formula_key(phi))), R.NEG_R2


def _decide(s: Sequent, marks: frozenset) -> Proof | Sequent:
    """A cut-free proof of s, or the saturated leaf of a branch that stays
    open. marks: the succedent formulas the in-place negation rule has
    already reduced on this branch."""
    if s.closed_by_axiom:
        return axiom_proof(s)

    step = _next_reduction(s, marks)
    if step is None:
        return s
    principal, rule = step

    premises = premises_from_schema(s, rule, principal)
    assert premises is not None
    new_marks = marks | {principal} if rule is R.NEG_R2 else marks
    subproofs = []
    for premise in premises:
        sub = _decide(premise, new_marks & premise.succ)
        if not isinstance(sub, Proof):
            return sub
        subproofs.append(sub)
    return Proof(s, rule, principal=principal, premises=tuple(subproofs))


def decide(s: Sequent, atom_cap: int | None = None) -> Verdict:
    """Prove the sequent cut-free or refute it with a valuation."""
    if not s.propositional:
        raise LogicError("the propositional prover takes quantifier-free input")
    names = capped_atoms(s, atom_cap)

    result = _decide(s, frozenset())
    if isinstance(result, Proof):
        return Proved(result)
    values = leaf_values(result.ante)
    v = {name: values.get(PropAtom(name), ZERO) for name in names}
    if sequent_satisfied(v, s):
        raise InternalError("refuting valuation fails to falsify the sequent")
    return Refuted(v)
