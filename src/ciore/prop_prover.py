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

from dataclasses import dataclass
from typing import Callable, ClassVar, Union

from .errors import AtomCapExceeded, InternalError, LogicError
from .matrix import HALF, ONE, ZERO, TruthValue, effective_atom_cap, sequent_atoms, sequent_satisfied
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
from .syntax import (
    And,
    Circ,
    Formula,
    Imp,
    Neg,
    Or,
    PropAtom,
    iff,
    is_literal,
    is_propositional,
)

R = RuleId

# Premise count of each weight-decreasing GCiore' rule (all but NEG_R2),
# read off its table row applied to placeholder parts.
_DECREASING_PREMISE_COUNT = {
    rule: len(shape.premises(*[PropAtom("_")] * shape.premises.__code__.co_argcount))
    for rule, shape in RULE_TABLE.items()
    if rule in Calculus.GCIORE_PRIME.rules and rule is not R.NEG_R2
}


@dataclass(frozen=True, slots=True)
class Refuted:
    status: ClassVar[str] = "refuted"
    valuation: dict[str, TruthValue]


Verdict = Union[Proved, Refuted]


@dataclass(frozen=True, slots=True)
class SearchNode:
    """A sequent under reduction plus the succedent formulas the in-place
    negation rule has already been applied to on this branch."""

    sequent: Sequent
    marks: frozenset[Formula]

    def __post_init__(self):
        assert self.marks <= self.sequent.succ


StepHook = Callable[[SearchNode, RuleId, Formula, tuple[Sequent, ...]], None]

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


def _countermodel_of_leaf(s: Sequent) -> dict[str, TruthValue]:
    v: dict[str, TruthValue] = {}
    for name in sequent_atoms(s):
        atom = PropAtom(name)
        if atom in s.ante:
            v[name] = HALF if Neg(atom) in s.ante else ONE
        else:
            v[name] = ZERO
    return v


def _decide(s: Sequent, marks: frozenset, on_step: StepHook | None) -> Verdict:
    if s.closed_by_axiom:
        pivot = min(s.ante & s.succ, key=formula_key)
        return Proved(axiom_proof(pivot, s))

    step = _next_reduction(s, marks)
    if step is None:
        return Refuted(_countermodel_of_leaf(s))
    principal, rule = step

    premises = premises_from_schema(s, rule, principal)
    assert premises is not None
    if on_step is not None:
        on_step(SearchNode(s, marks), rule, principal, tuple(premises))
    new_marks = marks | {principal} if rule is R.NEG_R2 else marks
    subproofs = []
    for premise in premises:
        sub = _decide(premise, new_marks & premise.succ, on_step)
        if isinstance(sub, Refuted):
            return sub
        subproofs.append(sub.proof)
    return Proved(Proof(s, rule, principal=principal, premises=tuple(subproofs)))


def decide(s: Sequent, atom_cap: int | None = None, on_step: StepHook | None = None) -> Verdict:
    """Prove the sequent cut-free or refute it with a valuation."""
    if not all(map(is_propositional, s.ante | s.succ)):
        raise LogicError("the propositional prover takes quantifier-free input")
    names = sequent_atoms(s)
    cap = effective_atom_cap(atom_cap)
    if len(names) > cap:
        raise AtomCapExceeded(f"sequent has {len(names)} atoms, cap is {cap}")

    verdict = _decide(s, frozenset(), on_step)
    if isinstance(verdict, Refuted):
        v = dict(verdict.valuation)
        for name in names:
            v.setdefault(name, ZERO)
        if sequent_satisfied(v, s):
            raise InternalError("refuting valuation fails to falsify the sequent")
        return Refuted(v)
    return verdict


def theorem_suite(a: Formula | None = None, b: Formula | None = None) -> list[tuple[str, Sequent]]:
    """Nine provable schemata: consistency facts and the propagation of both
    consistency and contradictoriness through the binary connectives."""
    a = a if a is not None else PropAtom("p")
    b = b if b is not None else PropAtom("q")

    def contradiction(f: Formula) -> Formula:
        return And(f, Neg(f))

    both = And(contradiction(a), contradiction(b))
    either_consistent = Or(Circ(a), Circ(b))
    items = [
        ("contradiction-iff-inconsistency", iff(contradiction(a), Neg(Circ(a)))),
        ("consistency-is-consistent", Circ(Circ(a))),
        ("consistency-matches-negation", iff(Circ(a), Circ(Neg(a)))),
        ("contradiction-propagates-and", iff(both, contradiction(And(a, b)))),
        ("contradiction-propagates-or", iff(both, contradiction(Or(a, b)))),
        ("contradiction-propagates-imp", iff(both, contradiction(Imp(a, b)))),
        ("consistency-propagates-and", iff(either_consistent, Circ(And(a, b)))),
        ("consistency-propagates-or", iff(either_consistent, Circ(Or(a, b)))),
        ("consistency-propagates-imp", iff(either_consistent, Circ(Imp(a, b)))),
    ]
    return [(name, Sequent.make((), (phi,))) for name, phi in items]
