"""Sequents, the one rule table of the three calculi, proof trees and proof
checking.

Sequents are pairs of finite formula sets, so exchange and contraction are
implicit; weakening stays explicit so printed derivations can be replayed
verbatim. Rule instances are checked against the schema with the context
either keeping or dropping the principal formula (set semantics absorbs the
duplicate either way).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Sequence

from .errors import LogicError
from .syntax import (
    BINARY_TYPES,
    QUANTIFIER_TYPES,
    And,
    Circ,
    Exists,
    Forall,
    Formula,
    FreeVar,
    Imp,
    Neg,
    Or,
    formula_key,
    free_variables,
    fresh_free_variable,
    instantiate,
    is_free_var_name,
    var_index,
)

LEFT = "L"
RIGHT = "R"


@dataclass(frozen=True, slots=True)
class Sequent:
    ante: frozenset[Formula]
    succ: frozenset[Formula]

    @staticmethod
    def make(ante: Iterable[Formula] = (), succ: Iterable[Formula] = ()) -> "Sequent":
        return Sequent(frozenset(ante), frozenset(succ))

    def with_ante(self, *formulas: Formula) -> "Sequent":
        return Sequent(self.ante | frozenset(formulas), self.succ)

    def with_succ(self, *formulas: Formula) -> "Sequent":
        return Sequent(self.ante, self.succ | frozenset(formulas))

    def without(self, side: str, phi: Formula) -> "Sequent":
        if side == LEFT:
            return Sequent(self.ante - {phi}, self.succ)
        return Sequent(self.ante, self.succ - {phi})

    def side(self, side: str) -> frozenset[Formula]:
        return self.ante if side == LEFT else self.succ

    def sorted_ante(self) -> list[Formula]:
        return sorted(self.ante, key=formula_key)

    def sorted_succ(self) -> list[Formula]:
        return sorted(self.succ, key=formula_key)

    @property
    def closed_by_axiom(self) -> bool:
        return bool(self.ante & self.succ)

    def free_variables(self) -> frozenset[str]:
        return frozenset().union(*map(free_variables, self.ante | self.succ))


class RuleId(enum.Enum):
    AXIOM = "Axiom"
    WEAK_L = "WeakL"
    WEAK_R = "WeakR"
    WEAKEN = "Weaken"  # several formulas at once, possibly on both sides
    OR_L = "OrL"
    OR_R = "OrR"
    NEG_OR_L = "NegOrL"
    NEG_OR_R = "NegOrR"
    NEG_OR_R2 = "NegOrR2"
    AND_L = "AndL"
    AND_R = "AndR"
    NEG_AND_L = "NegAndL"
    NEG_AND_R = "NegAndR"
    NEG_AND_R2 = "NegAndR2"
    IMP_L = "ImpL"
    IMP_R = "ImpR"
    NEG_IMP_L = "NegImpL"
    NEG_IMP_R = "NegImpR"
    NEG_IMP_R2 = "NegImpR2"
    NEG_R = "NegR"
    NEG_R2 = "NegR2"
    NEG_NEG_L = "NegNegL"
    NEG_NEG_R = "NegNegR"
    CIRC_L = "CircL"
    CIRC_R = "CircR"
    NEG_CIRC_L = "NegCircL"
    CUT = "Cut"
    FORALL_L = "ForallL"
    FORALL_R = "ForallR"
    EXISTS_L = "ExistsL"
    EXISTS_R = "ExistsR"
    CIRC_FORALL_L = "CircForallL"
    CIRC_FORALL_R = "CircForallR"
    CIRC_EXISTS_L = "CircExistsL"
    CIRC_EXISTS_R = "CircExistsR"


R = RuleId

STRUCTURAL_RULES = frozenset({R.AXIOM, R.WEAK_L, R.WEAK_R, R.WEAKEN})

#: Rules whose side datum is an eigenvariable that must be fresh for the
#: conclusion.
EIGEN_RULES = frozenset({R.FORALL_R, R.EXISTS_L, R.CIRC_EXISTS_L})

QUANTIFIER_RULES = frozenset(
    {
        R.FORALL_L,
        R.FORALL_R,
        R.EXISTS_L,
        R.EXISTS_R,
        R.CIRC_FORALL_L,
        R.CIRC_FORALL_R,
        R.CIRC_EXISTS_L,
        R.CIRC_EXISTS_R,
    }
)

_GCIORE_LOGICAL = frozenset(
    {
        R.OR_L,
        R.OR_R,
        R.NEG_OR_L,
        R.NEG_OR_R,
        R.AND_L,
        R.AND_R,
        R.NEG_AND_L,
        R.NEG_AND_R,
        R.IMP_L,
        R.IMP_R,
        R.NEG_IMP_L,
        R.NEG_IMP_R,
        R.NEG_R,
        R.NEG_NEG_L,
        R.NEG_NEG_R,
        R.CIRC_L,
        R.CIRC_R,
        R.NEG_CIRC_L,
    }
)

_PRIMED_FORMS = frozenset({R.NEG_OR_R2, R.NEG_AND_R2, R.NEG_IMP_R2, R.NEG_R2})
_REPLACED_BY_PRIMED = frozenset({R.NEG_OR_R, R.NEG_AND_R, R.NEG_IMP_R, R.NEG_R})


class Calculus(enum.Enum):
    """The three calculi; each value is the set of admitted logical rules.

    The first-order calculus admits both right-negation variants: its
    reduction-tree search reduces negated conjunctions and implications on
    the right with the invertible multi-premise forms, so the proofs it
    emits use those alongside the plain rules.
    """

    GCIORE = "GCiore"
    GCIORE_PRIME = "GCiore'"
    GQCIORE = "GQCiore"

    @property
    def rules(self) -> frozenset[RuleId]:
        if self is Calculus.GCIORE:
            return _GCIORE_LOGICAL
        if self is Calculus.GCIORE_PRIME:
            return (_GCIORE_LOGICAL - _REPLACED_BY_PRIMED) | _PRIMED_FORMS
        return _GCIORE_LOGICAL | _PRIMED_FORMS | QUANTIFIER_RULES


@dataclass(frozen=True, slots=True)
class Proof:
    """Rule-labelled proof tree; ``var`` carries the instantiating free
    variable or eigenvariable of quantifier rules, and the cut formula is the
    ``principal`` of a Cut node."""

    sequent: Sequent
    rule: RuleId
    principal: Formula | None = None
    var: str | None = None
    premises: tuple["Proof", ...] = ()

    def uses_cut(self) -> bool:
        return self.rule is R.CUT or any(p.uses_cut() for p in self.premises)

    def nodes(self):
        yield self
        for p in self.premises:
            yield from p.nodes()


@dataclass(frozen=True, slots=True)
class Proved:
    """Verdict of either prover: a cut-free proof of the goal."""

    status: ClassVar[str] = "proved"
    proof: Proof


# ---------------------------------------------------------------------------
# The rule table
#
# Every logical rule is stated once, in the spirit of Smullyan's uniform
# notation: the side of its principal formula, the principal's connective,
# the connective directly under it (None: any body), and the formulas each
# premise adds, in the rule's fixed premise order. The additions are a
# function of the principal's parts: the operands of the binary connective
# at or under the top, the body of a unary one, or the instance of a
# quantifier at the rule's variable. The checker and both provers read this
# table and nothing else.

Delta = tuple[tuple[Formula, ...], tuple[Formula, ...]]


@dataclass(frozen=True, slots=True)
class RuleShape:
    """One row of the rule table."""

    side: str
    outer: type
    inner: type | None
    premises: Callable[..., list[Delta]]


n = Neg

RULE_TABLE: dict[RuleId, RuleShape] = {
    R.OR_L: RuleShape(LEFT, Or, None, lambda a, b: [((a,), ()), ((b,), ())]),
    R.OR_R: RuleShape(RIGHT, Or, None, lambda a, b: [((), (a, b))]),
    R.NEG_OR_L: RuleShape(LEFT, Neg, Or, lambda a, b: [((a, n(a), b, n(b)), ()), ((n(a), n(b)), (a, b))]),
    R.NEG_OR_R: RuleShape(RIGHT, Neg, Or, lambda a, b: [((), (a,)), ((), (n(a),)), ((), (b,)), ((), (n(b),))]),
    R.NEG_OR_R2: RuleShape(
        RIGHT,
        Neg,
        Or,
        lambda a, b: [
            ((a,), (n(a),)),
            ((a,), (b,)),
            ((a,), (n(b),)),
            ((b,), (a,)),
            ((b,), (n(a),)),
            ((b,), (n(b),)),
        ],
    ),
    R.AND_L: RuleShape(LEFT, And, None, lambda a, b: [((a, b), ())]),
    R.AND_R: RuleShape(RIGHT, And, None, lambda a, b: [((), (a,)), ((), (b,))]),
    R.NEG_AND_L: RuleShape(
        LEFT, Neg, And, lambda a, b: [((), (a, b)), ((n(a),), (a,)), ((n(b),), (b,)), ((n(a), n(b)), ())]
    ),
    R.NEG_AND_R: RuleShape(RIGHT, Neg, And, lambda a, b: [((), (a,)), ((), (n(a),)), ((), (b,)), ((), (n(b),))]),
    R.NEG_AND_R2: RuleShape(RIGHT, Neg, And, lambda a, b: [((a, b), (n(a),)), ((a, b), (n(b),))]),
    R.IMP_L: RuleShape(LEFT, Imp, None, lambda a, b: [((), (a,)), ((b,), ())]),
    R.IMP_R: RuleShape(RIGHT, Imp, None, lambda a, b: [((a,), (b,))]),
    R.NEG_IMP_L: RuleShape(LEFT, Neg, Imp, lambda a, b: [((a, n(b)), (b,)), ((a, n(a), n(b)), ())]),
    R.NEG_IMP_R: RuleShape(RIGHT, Neg, Imp, lambda a, b: [((), (a,)), ((), (n(a),)), ((), (b,)), ((), (n(b),))]),
    R.NEG_IMP_R2: RuleShape(RIGHT, Neg, Imp, lambda a, b: [((), (a,)), ((b,), (n(a),)), ((b,), (n(b),))]),
    R.NEG_R: RuleShape(RIGHT, Neg, None, lambda a: [((a,), ())]),
    # in place: the premise keeps the principal ~a
    R.NEG_R2: RuleShape(RIGHT, Neg, None, lambda a: [((a,), (n(a),))]),
    R.NEG_NEG_L: RuleShape(LEFT, Neg, Neg, lambda a: [((a,), ())]),
    R.NEG_NEG_R: RuleShape(RIGHT, Neg, Neg, lambda a: [((), (a,))]),
    R.CIRC_L: RuleShape(LEFT, Circ, None, lambda a: [((), (a,)), ((), (n(a),))]),
    R.CIRC_R: RuleShape(RIGHT, Circ, None, lambda a: [((a, n(a)), ())]),
    R.NEG_CIRC_L: RuleShape(LEFT, Neg, Circ, lambda a: [((a, n(a)), ())]),
    R.FORALL_L: RuleShape(LEFT, Forall, None, lambda i: [((i,), ())]),
    R.FORALL_R: RuleShape(RIGHT, Forall, None, lambda i: [((), (i,))]),
    R.EXISTS_L: RuleShape(LEFT, Exists, None, lambda i: [((i,), ())]),
    R.EXISTS_R: RuleShape(RIGHT, Exists, None, lambda i: [((), (i,))]),
    R.CIRC_FORALL_L: RuleShape(LEFT, Circ, Forall, lambda i: [((Circ(i),), ())]),
    R.CIRC_FORALL_R: RuleShape(RIGHT, Circ, Forall, lambda i: [((), (Circ(i),))]),
    R.CIRC_EXISTS_L: RuleShape(LEFT, Circ, Exists, lambda i: [((Circ(i),), ())]),
    R.CIRC_EXISTS_R: RuleShape(RIGHT, Circ, Exists, lambda i: [((), (Circ(i),))]),
}

_RULES_BY_SHAPE: dict[tuple[str, type, type | None], tuple[RuleId, ...]] = {}
for _rule, _shape in RULE_TABLE.items():
    _key = (_shape.side, _shape.outer, _shape.inner)
    _RULES_BY_SHAPE[_key] = _RULES_BY_SHAPE.get(_key, ()) + (_rule,)


def rules_for(phi: Formula, side: str) -> tuple[RuleId, ...]:
    """Logical rules that reduce phi on the given side: those stated for its
    exact (connective, inner connective) shape, else those stated for its
    connective over any body."""
    outer = type(phi)
    if outer is Neg or outer is Circ:
        exact = _RULES_BY_SHAPE.get((side, outer, type(phi.body)))
        if exact:
            return exact
    return _RULES_BY_SHAPE.get((side, outer, None), ())


def rule_schema(rule: RuleId, principal: Formula, var: str | None = None) -> tuple[str, list[Delta]] | None:
    """Side of the principal and the formula additions of each premise, in
    the rule's fixed premise order; None if the principal has the wrong shape."""
    shape = RULE_TABLE.get(rule)
    if shape is None or not isinstance(principal, shape.outer):
        return None
    node = principal
    if shape.inner is not None:
        node = principal.body
        if not isinstance(node, shape.inner):
            return None
    if isinstance(node, QUANTIFIER_TYPES):
        if var is None or not is_free_var_name(var):
            return None
        parts = (instantiate(node, FreeVar(var)),)
    elif isinstance(node, BINARY_TYPES):
        parts = (node.left, node.right)
    else:
        parts = (node.body,)
    return shape.side, shape.premises(*parts)


def premises_from_schema(conclusion: Sequent, rule: RuleId, principal: Formula, var: str | None = None, keep_principal: bool = False) -> list[Sequent] | None:
    """Premise sequents of the rule applied backward at the principal, with
    the context either dropping the principal (canonical) or keeping it."""
    schema = rule_schema(rule, principal, var)
    if schema is None:
        return None
    side, deltas = schema
    if principal not in conclusion.side(side):
        return None
    base = conclusion if keep_principal else conclusion.without(side, principal)
    return [base.with_ante(*da).with_succ(*ds) for da, ds in deltas]


# ---------------------------------------------------------------------------
# Instance checking


def rule_instance_error(
    rule: RuleId,
    conclusion: Sequent,
    premises: Sequence[Sequent],
    principal: Formula | None = None,
    var: str | None = None,
) -> str | None:
    """None if this is a correct instance, else the first violated condition."""
    if rule is R.AXIOM:
        if premises:
            return "axiom takes no premises"
        if len(conclusion.ante) == 1 and conclusion.ante == conclusion.succ:
            return None
        return "axiom must be of the shape  a |- a"
    if rule in (R.WEAK_L, R.WEAK_R, R.WEAKEN):
        if len(premises) != 1:
            return "weakening takes exactly one premise"
        p = premises[0]
        if not (p.ante <= conclusion.ante and p.succ <= conclusion.succ):
            return "weakening premise must be contained in the conclusion"
        if rule is R.WEAK_L and p.succ != conclusion.succ:
            return "left weakening must not change the succedent"
        if rule is R.WEAK_R and p.ante != conclusion.ante:
            return "right weakening must not change the antecedent"
        if principal is not None:
            side = LEFT if rule is R.WEAK_L else RIGHT
            if rule is R.WEAKEN:
                return "combined weakening carries no principal"
            if principal not in conclusion.side(side):
                return "weakened formula missing from the conclusion"
            if conclusion.without(side, principal) != p and conclusion != p:
                return "premise is not the conclusion minus the weakened formula"
        return None
    if rule is R.CUT:
        if principal is None:
            return "cut needs its cut formula as principal"
        if len(premises) != 2:
            return "cut takes two premises"
        want = [conclusion.with_succ(principal), conclusion.with_ante(principal)]
        if list(premises) != want:
            return "cut premises must share the conclusion context and move the cut formula across"
        return None

    if principal is None:
        return "logical rule needs a principal formula"
    schema = rule_schema(rule, principal, var)
    if schema is None:
        return f"principal has the wrong shape for {rule.value}"
    side, _ = schema
    if principal not in conclusion.side(side):
        return "principal formula missing from the conclusion"
    if rule in EIGEN_RULES:
        assert var is not None
        if var in conclusion.free_variables():
            return f"eigenvariable {var} occurs in the conclusion"
    for keep in (False, True):
        want = premises_from_schema(conclusion, rule, principal, var, keep_principal=keep)
        if want is not None and list(premises) == want:
            return None
    return "premises do not match the rule schema at this principal"


def proof_error(proof: Proof, calculus: Calculus, allow_cut: bool = False, _path: str = "root") -> str | None:
    """Path and reason of the first invalid node, or None for a valid proof."""
    rule = proof.rule
    if rule is R.CUT:
        if not allow_cut:
            return f"{_path}: cut is not allowed here"
    elif rule not in STRUCTURAL_RULES and rule not in calculus.rules:
        return f"{_path}: rule {rule.value} is not part of {calculus.value}"
    err = rule_instance_error(rule, proof.sequent, [p.sequent for p in proof.premises], proof.principal, proof.var)
    if err is not None:
        return f"{_path}: {err}"
    for i, sub in enumerate(proof.premises):
        err = proof_error(sub, calculus, allow_cut, f"{_path}.premises[{i}]")
        if err is not None:
            return err
    return None


def check_proof(proof: Proof, calculus: Calculus, allow_cut: bool = False) -> bool:
    return proof_error(proof, calculus, allow_cut) is None


# ---------------------------------------------------------------------------
# Derived rules and their printed expansions


class DerivedRuleId(enum.Enum):
    NEG_OR_R_PRIME = "NegOrR'"
    NEG_AND_R_PRIME = "NegAndR'"
    NEG_IMP_R_PRIME = "NegImpR'"
    NEG_R_PRIME = "NegR'"
    FORALL_INTRO = "ForallIntro"
    EXISTS_INTRO = "ExistsIntro"


def _axiom(phi: Formula) -> Proof:
    return Proof(Sequent.make((phi,), (phi,)), R.AXIOM)


def _schema_mismatch(reason: str) -> LogicError:
    return LogicError(f"derived rule schema mismatch: {reason}")


def _expand_neg_binary_prime(
    rule: DerivedRuleId, conclusion: Sequent, premises: Sequence[Proof]
) -> Proof:
    """NegR on ~(a # b) above the left rule of a # b: the derived rule's
    premises are that left rule's."""
    binop = {
        DerivedRuleId.NEG_OR_R_PRIME: Or,
        DerivedRuleId.NEG_AND_R_PRIME: And,
        DerivedRuleId.NEG_IMP_R_PRIME: Imp,
    }[rule]
    for cand in sorted(conclusion.succ, key=formula_key):
        if not (isinstance(cand, Neg) and isinstance(cand.body, binop)):
            continue
        (left_rule,) = rules_for(cand.body, LEFT)
        _, deltas = rule_schema(left_rule, cand.body)
        if len(premises) != len(deltas):
            raise _schema_mismatch(f"{rule.value} takes {len(deltas)} premises")
        rest = Sequent(conclusion.ante, conclusion.succ - {cand})
        if [p.sequent for p in premises] != [rest.with_ante(*da).with_succ(*ds) for da, ds in deltas]:
            continue
        inner = Proof(rest.with_ante(cand.body), left_rule, principal=cand.body, premises=tuple(premises))
        return Proof(conclusion, R.NEG_R, principal=cand, premises=(inner,))
    raise _schema_mismatch("no succedent formula matches the premises")


def _expand_quantifier_intro(rule: DerivedRuleId, conclusion: Sequent, premises: Sequence[Proof]) -> Proof:
    if len(premises) != 1:
        raise _schema_mismatch(f"{rule.value} takes one premise")
    hyp = premises[0]
    if conclusion.ante or len(conclusion.succ) != 1 or hyp.sequent.ante or len(hyp.sequent.succ) != 1:
        raise _schema_mismatch("conclusion and premise must be single-succedent sequents with empty antecedent")
    goal = next(iter(conclusion.succ))
    given = next(iter(hyp.sequent.succ))
    if not isinstance(goal, Imp) or not isinstance(given, Imp):
        raise _schema_mismatch("conclusion and premise must be implications")

    if rule is DerivedRuleId.FORALL_INTRO:
        side_fixed, quantified, inst_part = goal.left, goal.right, given.right
        if given.left != side_fixed or not isinstance(quantified, Forall):
            raise _schema_mismatch("conclusion must be  phi -> forall x psi(x)  with matching phi")
    else:
        side_fixed, quantified, inst_part = goal.right, goal.left, given.left
        if given.right != side_fixed or not isinstance(quantified, Exists):
            raise _schema_mismatch("conclusion must be  exists x phi(x) -> psi  with matching psi")

    candidates = sorted(free_variables(inst_part) - free_variables(side_fixed), key=var_index)
    candidates.append(fresh_free_variable(conclusion.free_variables() | hyp.sequent.free_variables()))
    var = next(
        (
            v
            for v in candidates
            if v not in free_variables(quantified) and instantiate(quantified, FreeVar(v)) == inst_part
        ),
        None,
    )
    if var is None:
        raise _schema_mismatch("premise is not an instance of the quantified formula")
    if var in free_variables(side_fixed):
        raise _schema_mismatch(f"variable {var} must not occur in the fixed side")

    # Splice the hypothesis in through a context-sharing cut on the premise
    # implication, then introduce the quantifier and the implication.
    a, b = given.left, given.right
    n1 = Proof(hyp.sequent.with_ante(a), R.WEAK_L, premises=(hyp,))
    n2 = Proof(n1.sequent.with_succ(b), R.WEAK_R, premises=(n1,))
    ax_a = _axiom(a)
    n3 = Proof(ax_a.sequent.with_succ(b), R.WEAK_R, premises=(ax_a,))
    ax_b = _axiom(b)
    n4 = Proof(ax_b.sequent.with_ante(a), R.WEAK_L, premises=(ax_b,))
    n5 = Proof(Sequent.make((a, given), (b,)), R.IMP_L, principal=given, premises=(n3, n4))
    n6 = Proof(Sequent.make((a,), (b,)), R.CUT, principal=given, premises=(n2, n5))
    if rule is DerivedRuleId.FORALL_INTRO:
        n7 = Proof(Sequent.make((a,), (quantified,)), R.FORALL_R, principal=quantified, var=var, premises=(n6,))
    else:
        n7 = Proof(Sequent.make((quantified,), (b,)), R.EXISTS_L, principal=quantified, var=var, premises=(n6,))
    return Proof(conclusion, R.IMP_R, principal=goal, premises=(n7,))


def expand_derived_rule(rule: DerivedRuleId, conclusion: Sequent, premises: Sequence[Proof]) -> Proof:
    """Macro-expand a derived rule applied to proofs of its premises.

    The four primed right-negation rules expand cut-free; the two
    quantifier-introduction rules expand through a cut.
    """
    if rule in (DerivedRuleId.NEG_OR_R_PRIME, DerivedRuleId.NEG_AND_R_PRIME, DerivedRuleId.NEG_IMP_R_PRIME):
        return _expand_neg_binary_prime(rule, conclusion, premises)
    if rule is DerivedRuleId.NEG_R_PRIME:
        if len(premises) != 2:
            raise _schema_mismatch("NegR' takes two premises")
        second = premises[1]
        if second.sequent != conclusion:
            raise _schema_mismatch("second premise must equal the conclusion")
        first = premises[0]
        for cand in sorted(conclusion.succ, key=formula_key):
            if not isinstance(cand, Neg):
                continue
            delta = conclusion.succ - {cand}
            if first.sequent in (Sequent(conclusion.ante, delta | {cand.body}), conclusion.with_succ(cand.body)):
                return second
        raise _schema_mismatch("first premise does not fit any negated succedent formula")
    return _expand_quantifier_intro(rule, conclusion, premises)


def weaken_to(proof: Proof, target: Sequent) -> Proof:
    """Wrap a proof in a combined weakening up to the target sequent."""
    if proof.sequent == target:
        return proof
    if not (proof.sequent.ante <= target.ante and proof.sequent.succ <= target.succ):
        raise LogicError("cannot weaken: proved sequent is not contained in the target")
    return Proof(target, R.WEAKEN, premises=(proof,))


def axiom_proof(phi: Formula, target: Sequent) -> Proof:
    """Axiom on phi weakened up to the target sequent."""
    return weaken_to(_axiom(phi), target)
