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
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .syntax import (
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
    instantiate,
    is_free_var_name,
    is_propositional,
    parts,
)

LEFT = "L"
RIGHT = "R"


class Sequent(NamedTuple):
    ante: frozenset[Formula]
    succ: frozenset[Formula]

    @staticmethod
    def make(ante: Iterable[Formula] = (), succ: Iterable[Formula] = ()) -> "Sequent":
        return Sequent(frozenset(ante), frozenset(succ))

    def without(self, side: str, phi: Formula) -> "Sequent":
        return Sequent(*_sides_without(self, side, phi))

    def side(self, side: str) -> frozenset[Formula]:
        return self.ante if side == LEFT else self.succ

    def sorted_ante(self) -> list[Formula]:
        return sorted(self.ante, key=formula_key)

    def sorted_succ(self) -> list[Formula]:
        return sorted(self.succ, key=formula_key)

    @property
    def closed_by_axiom(self) -> bool:
        return bool(self.ante & self.succ)

    @property
    def propositional(self) -> bool:
        """True unless a formula has a quantifier or a predicate: the goal
        is then the propositional prover's, else the first-order prover's."""
        return all(map(is_propositional, self.ante | self.succ))

    def free_variables(self) -> frozenset[str]:
        return frozenset().union(*map(free_variables, self.ante | self.succ))


Sides = tuple[frozenset[Formula], frozenset[Formula]]


def _sides_without(s: Sequent, side: str, phi: Formula) -> Sides:
    """The sides of s with phi dropped from one of them, as a plain pair,
    which costs less to build than a `Sequent`."""
    ante, succ = s
    return (ante - {phi}, succ) if side == LEFT else (ante, succ - {phi})


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

    # Enum.__hash__ is Python code that hashes the name, run on every mark
    # and rule-table lookup; members are singletons, so identity serves.
    __hash__ = object.__hash__


R = RuleId

STRUCTURAL_RULES = frozenset({R.AXIOM, R.WEAK_L, R.WEAK_R, R.WEAKEN})

#: Rules whose side datum is an eigenvariable that must be fresh for the
#: conclusion.
EIGEN_RULES = frozenset({R.FORALL_R, R.EXISTS_L, R.CIRC_EXISTS_L})

#: The multi-premise right-negation forms of GCiore', each stated in the rule
#: table for the shape of the GCiore rule it replaces.
_PRIMED_FORMS = frozenset({R.NEG_OR_R2, R.NEG_AND_R2, R.NEG_IMP_R2, R.NEG_R2})


class Calculus(enum.Enum):
    """The three calculi; `rules` is the set of logical rules each admits.

    The first-order calculus admits both right-negation variants: its
    reduction-tree search reduces negated disjunctions, conjunctions and
    implications on the right with the invertible multi-premise forms, so
    the proofs it emits use those alongside the plain rules.
    """

    GCIORE = "GCiore"
    GCIORE_PRIME = "GCiore'"
    GQCIORE = "GQCiore"

    @property
    def rules(self) -> frozenset[RuleId]:
        return _CALCULUS_RULES[self]


class Proof(NamedTuple):
    """Rule-labelled proof tree; ``var`` carries the instantiating free
    variable or eigenvariable of quantifier rules, and the cut formula is the
    ``principal`` of a Cut node."""

    sequent: Sequent
    rule: RuleId
    principal: Formula | None = None
    var: str | None = None
    premises: tuple["Proof", ...] = ()

    def uses_cut(self) -> bool:
        return any(node.rule is R.CUT for node in self.nodes())

    def nodes(self) -> Iterator["Proof"]:
        """Every node in preorder, premises left to right, with no recursion."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack += reversed(node.premises)


class Proved(NamedTuple):
    """Verdict of either prover: a cut-free proof of the goal."""

    proof: Proof
    status = "proved"


# ---------------------------------------------------------------------------
# The rule table
#
# Every logical rule is stated once, in the spirit of Smullyan's uniform
# notation: the side of its principal formula, the principal's connective,
# the connective directly under it (None: any body), and the formulas each
# premise adds, a tuple in the rule's fixed premise order. The additions are
# a function of the principal's parts: the operands of the binary connective
# at or under the top, the body of a unary one, or the instance of a
# quantifier at the rule's variable. The checker and both provers read this
# table, and each calculus's rule set is read off it; only which rules are
# primed forms and which take an eigenvariable are listed by name.

Delta = tuple[tuple[Formula, ...], tuple[Formula, ...]]


class RuleShape(NamedTuple):
    """One row of the rule table."""

    side: str
    outer: type
    inner: type | None
    premises: Callable[..., tuple[Delta, ...]]


n = Neg

RULE_TABLE: dict[RuleId, RuleShape] = {
    R.OR_L: RuleShape(LEFT, Or, None, lambda a, b: (((a,), ()), ((b,), ()))),
    R.OR_R: RuleShape(RIGHT, Or, None, lambda a, b: (((), (a, b)),)),
    R.NEG_OR_L: RuleShape(LEFT, Neg, Or, lambda a, b: (((a, n(a), b, n(b)), ()), ((n(a), n(b)), (a, b)))),
    R.NEG_OR_R: RuleShape(RIGHT, Neg, Or, lambda a, b: (((), (a,)), ((), (n(a),)), ((), (b,)), ((), (n(b),)))),
    R.NEG_OR_R2: RuleShape(
        RIGHT,
        Neg,
        Or,
        lambda a, b: (
            ((a,), (n(a),)),
            ((a,), (b,)),
            ((a,), (n(b),)),
            ((b,), (a,)),
            ((b,), (n(a),)),
            ((b,), (n(b),)),
        ),
    ),
    R.AND_L: RuleShape(LEFT, And, None, lambda a, b: (((a, b), ()),)),
    R.AND_R: RuleShape(RIGHT, And, None, lambda a, b: (((), (a,)), ((), (b,)))),
    R.NEG_AND_L: RuleShape(
        LEFT, Neg, And, lambda a, b: (((), (a, b)), ((n(a),), (a,)), ((n(b),), (b,)), ((n(a), n(b)), ()))
    ),
    R.NEG_AND_R: RuleShape(RIGHT, Neg, And, lambda a, b: (((), (a,)), ((), (n(a),)), ((), (b,)), ((), (n(b),)))),
    R.NEG_AND_R2: RuleShape(RIGHT, Neg, And, lambda a, b: (((a, b), (n(a),)), ((a, b), (n(b),)))),
    R.IMP_L: RuleShape(LEFT, Imp, None, lambda a, b: (((), (a,)), ((b,), ()))),
    R.IMP_R: RuleShape(RIGHT, Imp, None, lambda a, b: (((a,), (b,)),)),
    R.NEG_IMP_L: RuleShape(LEFT, Neg, Imp, lambda a, b: (((a, n(b)), (b,)), ((a, n(a), n(b)), ()))),
    R.NEG_IMP_R: RuleShape(RIGHT, Neg, Imp, lambda a, b: (((), (a,)), ((), (n(a),)), ((), (b,)), ((), (n(b),)))),
    R.NEG_IMP_R2: RuleShape(RIGHT, Neg, Imp, lambda a, b: (((), (a,)), ((b,), (n(a),)), ((b,), (n(b),)))),
    R.NEG_R: RuleShape(RIGHT, Neg, None, lambda a: (((a,), ()),)),
    # in place: the premise keeps the principal ~a
    R.NEG_R2: RuleShape(RIGHT, Neg, None, lambda a: (((a,), (n(a),)),)),
    R.NEG_NEG_L: RuleShape(LEFT, Neg, Neg, lambda a: (((a,), ()),)),
    R.NEG_NEG_R: RuleShape(RIGHT, Neg, Neg, lambda a: (((), (a,)),)),
    R.CIRC_L: RuleShape(LEFT, Circ, None, lambda a: (((), (a,)), ((), (n(a),)))),
    R.CIRC_R: RuleShape(RIGHT, Circ, None, lambda a: (((a, n(a)), ()),)),
    R.NEG_CIRC_L: RuleShape(LEFT, Neg, Circ, lambda a: (((a, n(a)), ()),)),
    R.FORALL_L: RuleShape(LEFT, Forall, None, lambda i: (((i,), ()),)),
    R.FORALL_R: RuleShape(RIGHT, Forall, None, lambda i: (((), (i,)),)),
    R.EXISTS_L: RuleShape(LEFT, Exists, None, lambda i: (((i,), ()),)),
    R.EXISTS_R: RuleShape(RIGHT, Exists, None, lambda i: (((), (i,)),)),
    R.CIRC_FORALL_L: RuleShape(LEFT, Circ, Forall, lambda i: (((Circ(i),), ()),)),
    R.CIRC_FORALL_R: RuleShape(RIGHT, Circ, Forall, lambda i: (((), (Circ(i),)),)),
    R.CIRC_EXISTS_L: RuleShape(LEFT, Circ, Exists, lambda i: (((Circ(i),), ()),)),
    R.CIRC_EXISTS_R: RuleShape(RIGHT, Circ, Exists, lambda i: (((), (Circ(i),)),)),
}

_RULES_BY_SHAPE: dict[tuple[str, type, type | None], tuple[RuleId, ...]] = {}
for _rule, _shape in RULE_TABLE.items():
    _RULES_BY_SHAPE[_shape[:3]] = _RULES_BY_SHAPE.get(_shape[:3], ()) + (_rule,)

# The calculi's rule sets. GCiore' trades each rule that shares a shape with
# a primed form for that form; GQCiore admits every row.
QUANTIFIER_RULES = frozenset(
    rule for rule, shape in RULE_TABLE.items() if shape.outer in QUANTIFIER_TYPES or shape.inner in QUANTIFIER_TYPES
)
_GCIORE = frozenset(RULE_TABLE) - QUANTIFIER_RULES - _PRIMED_FORMS
_REPLACED_BY_PRIMED = frozenset(
    rule for primed in _PRIMED_FORMS for rule in _RULES_BY_SHAPE[RULE_TABLE[primed][:3]] if rule not in _PRIMED_FORMS
)
_CALCULUS_RULES = {
    Calculus.GCIORE: _GCIORE,
    Calculus.GCIORE_PRIME: (_GCIORE - _REPLACED_BY_PRIMED) | _PRIMED_FORMS,
    Calculus.GQCIORE: frozenset(RULE_TABLE),
}


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


def rule_schema(rule: RuleId, principal: Formula, var: str | None = None) -> tuple[str, tuple[Delta, ...]] | None:
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
        return shape.side, shape.premises(instantiate(node, FreeVar(var)))
    return shape.side, shape.premises(*parts(node))


def premise_sequents(base: Sides, deltas: Iterable[Delta]) -> list[Sequent]:
    """One sequent per premise: the sides of base (a `Sequent` or a pair)
    joined with that premise's additions. A side with no additions is
    shared, not copied."""
    ante, succ = base
    return [Sequent(ante.union(da) if da else ante, succ.union(ds) if ds else succ) for da, ds in deltas]


def premises_from_schema(conclusion: Sequent, rule: RuleId, principal: Formula, var: str | None = None) -> list[Sequent] | None:
    """Premise sequents of the rule applied backward at the principal, the
    principal dropped from the context."""
    schema = rule_schema(rule, principal, var)
    if schema is None:
        return None
    side, deltas = schema
    dropped = _sides_without(conclusion, side, principal)
    if dropped == conclusion:  # the principal is not on its side
        return None
    return premise_sequents(dropped, deltas)


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
    if rule in STRUCTURAL_RULES:  # a weakening: the axiom returned above
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
        if list(premises) != premise_sequents(conclusion, (((), (principal,)), ((principal,), ()))):
            return "cut premises must share the conclusion context and move the cut formula across"
        return None

    if principal is None:
        return "logical rule needs a principal formula"
    schema = rule_schema(rule, principal, var)
    if schema is None:
        return f"principal has the wrong shape for {rule.value}"
    side, deltas = schema
    dropped = _sides_without(conclusion, side, principal)
    if dropped == conclusion:
        return "principal formula missing from the conclusion"
    if rule in EIGEN_RULES:
        assert var is not None
        if var in conclusion.free_variables():
            return f"eigenvariable {var} occurs in the conclusion"
    # The principal is dropped from the premises' context or kept in it. Only
    # NegR2 adds its principal back, and both bases give it the same
    # premise, so the first premise tells which base to compare with.
    kept = bool(premises) and principal in premises[0].side(side)
    if list(premises) != premise_sequents(conclusion if kept else dropped, deltas):
        return "premises do not match the rule schema at this principal"
    return None


def _first_error(proof: Proof, calculus: Calculus, rules: frozenset[RuleId], allow_cut: bool) -> str | None:
    """The first invalid node's path below proof and its reason, as
    ``.premises[i]...: reason``, or None. The path is built on the way back
    up, so only a failing branch builds one."""
    rule = proof.rule
    if rule is R.CUT:
        if not allow_cut:
            return ": cut is not allowed here"
    elif rule not in STRUCTURAL_RULES and rule not in rules:
        return f": rule {rule.value} is not part of {calculus.value}"
    err = rule_instance_error(rule, proof.sequent, [p.sequent for p in proof.premises], proof.principal, proof.var)
    if err is not None:
        return f": {err}"
    for i, sub in enumerate(proof.premises):
        err = _first_error(sub, calculus, rules, allow_cut)
        if err is not None:
            return f".premises[{i}]{err}"
    return None


def proof_error(proof: Proof, calculus: Calculus, allow_cut: bool = False) -> str | None:
    """Path and reason of the first invalid node, or None for a valid proof."""
    err = _first_error(proof, calculus, calculus.rules, allow_cut)
    return None if err is None else "root" + err


def check_proof(proof: Proof, calculus: Calculus, allow_cut: bool = False) -> bool:
    return proof_error(proof, calculus, allow_cut) is None


# ---------------------------------------------------------------------------
# Closing a sequent by an axiom


def axiom_proof(s: Sequent) -> Proof:
    """The axiom on the least formula by formula_key that s has on both
    sides, weakened up to s."""
    phi = min(s.ante & s.succ, key=formula_key)
    axiom = Proof(Sequent.make((phi,), (phi,)), R.AXIOM)
    return axiom if axiom.sequent == s else Proof(s, R.WEAKEN, premises=(axiom,))
