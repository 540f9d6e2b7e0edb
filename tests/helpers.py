"""Shared test utilities: independent oracles and random generators.

The truth tables here are transcribed literally, cell by cell. The
per-valuation matrix oracle and the denotation oracle (component-set
formulas: quantifiers via assignment-set filters, connectives pointwise from
the tables) read them, staying independent of the package's one kernel,
`matrix.evaluate`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from ciore.errors import LogicError
from ciore.fo_semantics import Structure, Triple, denote, eval_term, fo_sequent_satisfied
from ciore.matrix import (
    HALF,
    ONE,
    VALUE_ORDER,
    ZERO,
    TruthValue,
    Valuation,
    eval_formula,
    evaluate,
    sequent_atoms,
    valuations,
)
from ciore.sequents import Sequent
from ciore.syntax import (
    And,
    Circ,
    Exists,
    Forall,
    Formula,
    FreeVar,
    Imp,
    Neg,
    Or,
    PredAtom,
    PropAtom,
    free_variables,
    fresh_free_variables,
    instantiate,
    predicate_arities,
    var_index,
)


def var_sorted(names) -> tuple[str, ...]:
    return tuple(sorted(names, key=var_index))


def with_ante(s: Sequent, *formulas: Formula) -> Sequent:
    return Sequent(s.ante | frozenset(formulas), s.succ)


def with_succ(s: Sequent, *formulas: Formula) -> Sequent:
    return Sequent(s.ante, s.succ | frozenset(formulas))


# ---------------------------------------------------------------------------
# Literal truth tables and the per-valuation oracle

# All 33 table cells, transcribed row-operand-first: 1, 1/2, 0.
AND_CELLS = "110 1h0 000"
OR_CELLS = "111 1h1 110"
IMP_CELLS = "110 1h0 111"
NEG_CELLS = "0h1"
CIRC_CELLS = "101"

CELL_VALUE = {"1": ONE, "h": HALF, "0": ZERO}
_ROWS = (ONE, HALF, ZERO)


def binary_table(cells: str) -> dict[tuple[TruthValue, TruthValue], TruthValue]:
    return {
        (left, right): CELL_VALUE[char]
        for left, row in zip(_ROWS, cells.split())
        for right, char in zip(_ROWS, row)
    }


def unary_table(cells: str) -> dict[TruthValue, TruthValue]:
    return {value: CELL_VALUE[char] for value, char in zip(_ROWS, cells)}


TABLES = {
    And: binary_table(AND_CELLS),
    Or: binary_table(OR_CELLS),
    Imp: binary_table(IMP_CELLS),
    Neg: unary_table(NEG_CELLS),
    Circ: unary_table(CIRC_CELLS),
}


def table_value(phi: Formula, v: Valuation) -> TruthValue:
    """Value of a propositional formula, read off the literal tables."""
    if isinstance(phi, PropAtom):
        return v[phi.name]
    if isinstance(phi, (Neg, Circ)):
        return TABLES[type(phi)][table_value(phi.body, v)]
    return TABLES[type(phi)][table_value(phi.left, v), table_value(phi.right, v)]


def tilde_forall(values: frozenset[TruthValue] | set[TruthValue]) -> TruthValue:
    """The universal quantifier's value function on a nonempty set of
    attained values, as the definition states it: the reference that
    `fo_semantics`'s fold of a block of bits is tested against."""
    if not values:
        raise LogicError("quantifier value function needs a nonempty value set")
    if ZERO in values:
        return ZERO
    if ONE in values:
        return ONE
    return HALF


def tilde_exists(values: frozenset[TruthValue] | set[TruthValue]) -> TruthValue:
    """The existential quantifier's value function, as `tilde_forall`."""
    if not values:
        raise LogicError("quantifier value function needs a nonempty value set")
    if values == {HALF}:
        return HALF
    if values == {ZERO}:
        return ZERO
    return ONE


def oracle_countermodel(s: Sequent) -> dict[str, TruthValue] | None:
    """First falsifying valuation in `valuations()` order, one valuation at
    a time on the literal tables."""
    for v in valuations(sequent_atoms(s)):
        if all(table_value(g, v).designated for g in s.ante) and not any(
            table_value(d, v).designated for d in s.succ
        ):
            return v
    return None


def kernel_triple(phi: Formula, parts: dict[str, Triple]) -> Triple:
    """`matrix.evaluate` on triples' frozensets: each atom of phi names a
    triple in parts, all over one universe."""
    universe = next(iter(parts.values())).universe
    minus, circ = evaluate(phi, lambda atom: (parts[atom.name].minus, parts[atom.name].circ), universe)
    return Triple(universe, universe ^ (minus | circ), minus, circ)


# ---------------------------------------------------------------------------
# Measures


def complexity(phi: Formula) -> int:
    """Number of connective and quantifier nodes."""
    if isinstance(phi, (PropAtom, PredAtom)):
        return 0
    if isinstance(phi, (Neg, Circ)):
        return 1 + complexity(phi.body)
    if isinstance(phi, (And, Or, Imp)):
        return 1 + complexity(phi.left) + complexity(phi.right)
    return 1 + complexity(phi.body)


# ---------------------------------------------------------------------------
# Signed formulas and 3-slot sequents


@dataclass(frozen=True, slots=True)
class SignedFormula:
    sign: TruthValue
    formula: Formula


@dataclass(frozen=True, slots=True)
class NSequent:
    """Three formula slots indexed by the value each member should take."""

    zero: frozenset[Formula]
    half: frozenset[Formula]
    one: frozenset[Formula]

    def slot(self, value: TruthValue) -> frozenset[Formula]:
        return {ZERO: self.zero, HALF: self.half, ONE: self.one}[value]


def signed_satisfied(v: Valuation, sf: SignedFormula) -> bool:
    return eval_formula(sf.formula, v) is sf.sign


def nsequent_satisfied(v: Valuation, ns: NSequent) -> bool:
    return any(
        eval_formula(phi, v) is value
        for value in VALUE_ORDER
        for phi in ns.slot(value)
    )


def nsequent_of_sequent(s: Sequent) -> NSequent:
    """Slot embedding of an ordinary sequent: the non-designated slot holds
    the antecedent, both designated slots hold the succedent."""
    return NSequent(zero=s.ante, half=s.succ, one=s.succ)


# ---------------------------------------------------------------------------
# Expressiveness conditions: how membership of a formula and its negation in
# the designated/non-designated sets pins down each single truth value.


def expressiveness_witnesses(phi: Formula, t: TruthValue) -> frozenset[tuple[Formula, str]]:
    """Conditions (formula, "D"|"N") jointly equivalent to phi taking value t."""
    if t is ZERO:
        return frozenset([(phi, "N")])
    if t is HALF:
        return frozenset([(phi, "D"), (Neg(phi), "D")])
    return frozenset([(phi, "D"), (Neg(phi), "N")])


def witnesses_hold(v: Valuation, conditions: frozenset[tuple[Formula, str]]) -> bool:
    return all(
        eval_formula(f, v).designated is (side == "D")
        for f, side in conditions
    )


def tuple_space(domain, k: int):
    return tuple(itertools.product(domain, repeat=k))


def valid_in(st: Structure, phi: Formula) -> bool:
    triple = denote(phi, st)
    return triple.plus | triple.circ == triple.universe


# ---------------------------------------------------------------------------
# Independent denotation: component sets


def _hat_forall(universe, var_pos: int, domain, subset) -> frozenset:
    """Assignments whose every update at the given coordinate lands in subset."""
    return frozenset(
        s for s in universe if all(s[:var_pos] + (m,) + s[var_pos + 1 :] in subset for m in domain)
    )


def _hat_exists(universe, var_pos: int, domain, subset) -> frozenset:
    return frozenset(
        s for s in universe if any(s[:var_pos] + (m,) + s[var_pos + 1 :] in subset for m in domain)
    )


def denote_components(phi: Formula, st: Structure, variables: tuple[str, ...]) -> Triple:
    """Triple of phi over assignment tuples for ``variables``, computed from
    the component-set characterization."""
    universe = frozenset(tuple_space(st.domain, len(variables)))

    if isinstance(phi, PredAtom):
        triple = st.predicates[phi.name]
        values = {}
        for combo in universe:
            s = dict(zip(variables, combo))
            values[combo] = triple.value_at(tuple(eval_term(t, st, s) for t in phi.args))
        return Triple.from_values(universe, values)
    if isinstance(phi, Neg):
        sub = denote_components(phi.body, st, variables)
        return Triple(universe, sub.minus, sub.plus, sub.circ)
    if isinstance(phi, Circ):
        sub = denote_components(phi.body, st, variables)
        return Triple(universe, sub.plus | sub.minus, sub.circ, frozenset())
    if isinstance(phi, (And, Or, Imp)):
        table = TABLES[type(phi)]
        left = denote_components(phi.left, st, variables)
        right = denote_components(phi.right, st, variables)
        values = {s: table[left.value_at(s), right.value_at(s)] for s in universe}
        return Triple.from_values(universe, values)
    if isinstance(phi, (Forall, Exists)):
        fresh = next(fresh_free_variables(free_variables(phi) | set(variables)))
        body = instantiate(phi, FreeVar(fresh))
        ext_vars = variables + (fresh,)
        sub = denote_components(body, st, ext_vars)
        pos = len(variables)
        dom = st.domain

        def project(subset) -> frozenset:
            # the filters act on the extended space; restrict to the original
            # coordinates (the filtered sets no longer depend on the last one)
            return frozenset(s[:pos] for s in subset)

        if isinstance(phi, Forall):
            plus = project(_hat_exists(sub.universe, pos, dom, sub.plus)) - project(
                _hat_exists(sub.universe, pos, dom, sub.minus)
            )
            minus = project(_hat_exists(sub.universe, pos, dom, sub.minus))
            circ = project(_hat_forall(sub.universe, pos, dom, sub.circ))
        else:
            minus = project(_hat_forall(sub.universe, pos, dom, sub.minus))
            circ = project(_hat_forall(sub.universe, pos, dom, sub.circ))
            plus = frozenset(universe) - (minus | circ)
        return Triple(universe, plus, minus, circ)
    raise AssertionError(f"unexpected formula {phi!r}")


# ---------------------------------------------------------------------------
# The first-order prover's countermodel recipe, built tuple by tuple


def per_tuple_countermodel(leaf: Sequent, goal: Sequent) -> tuple[Structure, dict[str, str]] | None:
    """`fo_prover.extract_countermodel` as first written: the leaf's own
    predicates, and for each tuple of the tuple space the atom is built and
    looked up in the antecedent, with its negation."""
    domain = tuple(sorted(leaf.free_variables(), key=var_index)) or ("a1",)
    predicates = {}
    for name, arity in sorted(predicate_arities(leaf.ante | leaf.succ).items()):
        space = tuple(itertools.product(domain, repeat=arity))
        values = {}
        for combo in space:
            atom = PredAtom(name, tuple(FreeVar(v) for v in combo))
            if atom in leaf.ante:
                values[combo] = HALF if Neg(atom) in leaf.ante else ONE
            else:
                values[combo] = ZERO
        predicates[name] = Triple.from_values(space, values)
    structure = Structure(domain=domain, predicates=predicates)
    assignment = {v: v for v in domain}
    if fo_sequent_satisfied(structure, assignment, goal):
        return None
    return structure, assignment


# ---------------------------------------------------------------------------
# Random structures and first-order formulas


def random_structure(rng: random.Random, arities: dict[str, int], max_size: int = 3) -> Structure:
    size = rng.randint(1, max_size)
    domain = tuple(f"m{i}" for i in range(size))
    predicates = {}
    for name, arity in sorted(arities.items()):
        space = tuple_space(domain, arity)
        values = {combo: rng.choice(VALUE_ORDER) for combo in space}
        predicates[name] = Triple.from_values(space, values)
    return Structure(domain=domain, predicates=predicates)


def all_unary_structures(size: int, name: str = "P"):
    """Every structure with the given domain size and one unary predicate."""
    domain = tuple(f"m{i}" for i in range(size))
    space = tuple_space(domain, 1)
    for values in itertools.product(VALUE_ORDER, repeat=len(space)):
        yield Structure(
            domain=domain,
            predicates={name: Triple.from_values(space, dict(zip(space, values)))},
        )


# ---------------------------------------------------------------------------
# Exhaustive propositional formula enumeration


def formulas_of_complexity(atom_names: tuple[str, ...], max_connectives: int) -> list[Formula]:
    """All formulas over the atoms with at most the given connective count,
    deduplicated, in a deterministic order."""
    by_size: list[list[Formula]] = [[PropAtom(n) for n in atom_names]]
    for size in range(1, max_connectives + 1):
        layer: list[Formula] = []
        for sub in by_size[size - 1]:
            layer.append(Neg(sub))
            layer.append(Circ(sub))
        for left_size in range(size):
            right_size = size - 1 - left_size
            for left in by_size[left_size]:
                for right in by_size[right_size]:
                    layer.extend((And(left, right), Or(left, right), Imp(left, right)))
        by_size.append(layer)
    out: list[Formula] = []
    seen: set[Formula] = set()
    for layer in by_size:
        for phi in layer:
            if phi not in seen:
                seen.add(phi)
                out.append(phi)
    return out


def sides_upto(pool: list[Formula], max_size: int) -> list[tuple[Formula, ...]]:
    sides: list[tuple[Formula, ...]] = [()]
    sides.extend((phi,) for phi in pool)
    if max_size >= 2:
        sides.extend(itertools.combinations(pool, 2))
    return sides


def make_sequent(ante: tuple[Formula, ...], succ: tuple[Formula, ...]) -> Sequent:
    return Sequent.make(ante, succ)


# ---------------------------------------------------------------------------
# Random rule instances

from ciore.randgen import random_fo_formula, random_formula  # noqa: E402
from ciore.sequents import (  # noqa: E402
    LEFT,
    RULE_TABLE,
    Calculus,
    RuleId,
    formula_key,
    premises_from_schema,
    rule_schema,
)
from ciore.syntax import bind, free_variables as _fv  # noqa: E402

_R = RuleId

PROP_LOGICAL_RULES = (
    _R.OR_L,
    _R.OR_R,
    _R.NEG_OR_L,
    _R.NEG_OR_R,
    _R.NEG_OR_R2,
    _R.AND_L,
    _R.AND_R,
    _R.NEG_AND_L,
    _R.NEG_AND_R,
    _R.NEG_AND_R2,
    _R.IMP_L,
    _R.IMP_R,
    _R.NEG_IMP_L,
    _R.NEG_IMP_R,
    _R.NEG_IMP_R2,
    _R.NEG_R,
    _R.NEG_R2,
    _R.NEG_NEG_L,
    _R.NEG_NEG_R,
    _R.CIRC_L,
    _R.CIRC_R,
    _R.NEG_CIRC_L,
)

QUANTIFIER_RULES = (
    _R.FORALL_L,
    _R.FORALL_R,
    _R.EXISTS_L,
    _R.EXISTS_R,
    _R.CIRC_FORALL_L,
    _R.CIRC_FORALL_R,
    _R.CIRC_EXISTS_L,
    _R.CIRC_EXISTS_R,
)

EIGEN_RULES = (_R.FORALL_R, _R.EXISTS_L, _R.CIRC_EXISTS_L)


def principal_shape(rule: RuleId, a: Formula, b: Formula) -> Formula:
    if rule in (_R.OR_L, _R.OR_R):
        return Or(a, b)
    if rule in (_R.NEG_OR_L, _R.NEG_OR_R, _R.NEG_OR_R2):
        return Neg(Or(a, b))
    if rule in (_R.AND_L, _R.AND_R):
        return And(a, b)
    if rule in (_R.NEG_AND_L, _R.NEG_AND_R, _R.NEG_AND_R2):
        return Neg(And(a, b))
    if rule in (_R.IMP_L, _R.IMP_R):
        return Imp(a, b)
    if rule in (_R.NEG_IMP_L, _R.NEG_IMP_R, _R.NEG_IMP_R2):
        return Neg(Imp(a, b))
    if rule in (_R.NEG_R, _R.NEG_R2):
        return Neg(a)
    if rule in (_R.NEG_NEG_L, _R.NEG_NEG_R):
        return Neg(Neg(a))
    if rule in (_R.CIRC_L, _R.CIRC_R):
        return Circ(a)
    if rule is _R.NEG_CIRC_L:
        return Neg(Circ(a))
    raise AssertionError(rule)


def random_prop_instance(rng: random.Random, rule: RuleId, atoms=("p", "q", "r", "s")):
    """(conclusion, premises, principal) for a random instance of a
    propositional logical rule."""
    a = random_formula(rng, atoms, rng.randint(0, 2))
    b = random_formula(rng, atoms, rng.randint(0, 2))
    principal = principal_shape(rule, a, b)
    ante = frozenset(random_formula(rng, atoms, 1) for _ in range(rng.randint(0, 2)))
    succ = frozenset(random_formula(rng, atoms, 1) for _ in range(rng.randint(0, 2)))
    side, _ = rule_schema(rule, principal)
    if side == LEFT:
        conclusion = Sequent(ante | {principal}, succ)
    else:
        conclusion = Sequent(ante, succ | {principal})
    premises = premises_from_schema(conclusion, rule, principal)
    assert premises is not None
    return conclusion, premises, principal


_FO_ARITIES = {"P": 1, "Q": 1, "R": 2}


def random_fo_rule_instance(rng: random.Random, rule: RuleId):
    """(conclusion, premises, principal, var) over a small first-order pool,
    with eigenvariable side conditions respected."""
    pool = ("a1", "a2")
    mk = lambda d: random_fo_formula(rng, _FO_ARITIES, pool, d, quantifier_chance=0.2)
    ante = frozenset(mk(1) for _ in range(rng.randint(0, 2)))
    succ = frozenset(mk(1) for _ in range(rng.randint(0, 2)))

    if rule in QUANTIFIER_RULES:
        body = random_fo_formula(rng, _FO_ARITIES, pool, rng.randint(0, 1), quantifier_chance=0.0)
        target = rng.choice(sorted(_fv(body))) if _fv(body) and rng.random() < 0.9 else "a9"
        quant = Forall if rule in (_R.FORALL_L, _R.FORALL_R, _R.CIRC_FORALL_L, _R.CIRC_FORALL_R) else Exists
        quantified = bind(body, target, "x9", quant)
        principal = Circ(quantified) if rule.value.startswith("Circ") else quantified
    else:
        principal = principal_shape(rule, mk(rng.randint(0, 1)), mk(rng.randint(0, 1)))

    side, _ = rule_schema(rule, principal, "a1") if rule in QUANTIFIER_RULES else rule_schema(rule, principal)
    if side == LEFT:
        conclusion = Sequent(ante | {principal}, succ)
    else:
        conclusion = Sequent(ante, succ | {principal})

    var = None
    if rule in QUANTIFIER_RULES:
        if rule in EIGEN_RULES or rule is _R.CIRC_FORALL_L:
            # the consistency-forall left rule only preserves validity in a
            # fixed structure when its variable is fresh, like an eigenvariable
            var = next(fresh_free_variables(conclusion.free_variables()))
        else:
            var = rng.choice(pool)
    premises = premises_from_schema(conclusion, rule, principal, var)
    assert premises is not None
    return conclusion, premises, principal, var


# ---------------------------------------------------------------------------
# Backward rule application

_INSTANTIATING_RULES = frozenset({_R.FORALL_L, _R.EXISTS_R, _R.CIRC_FORALL_L, _R.CIRC_FORALL_R, _R.CIRC_EXISTS_R})


@dataclass(frozen=True, slots=True)
class BackwardApplication:
    rule: RuleId
    principal: Formula
    var: str | None
    premises: tuple[Sequent, ...]


def backward_applications(s: Sequent, calculus: Calculus) -> list[BackwardApplication]:
    """Every logical-rule instance concluding s, in deterministic order:
    rule enumeration order, then principal in the canonical formula order,
    then instantiating variable (available ones first, then one fresh)."""
    out: list[BackwardApplication] = []
    available = sorted(s.free_variables(), key=var_index)
    fresh = next(fresh_free_variables(available))
    for rule in RuleId:
        if rule not in calculus.rules:
            continue
        for principal in sorted(s.side(RULE_TABLE[rule].side), key=formula_key):
            if rule in QUANTIFIER_RULES:
                var_choices = available + [fresh] if rule in _INSTANTIATING_RULES else [fresh]
                for var in var_choices:
                    premises = premises_from_schema(s, rule, principal, var)
                    if premises is not None:
                        out.append(BackwardApplication(rule, principal, var, tuple(premises)))
            else:
                premises = premises_from_schema(s, rule, principal)
                if premises is not None:
                    out.append(BackwardApplication(rule, principal, None, tuple(premises)))
    return out


# ---------------------------------------------------------------------------
# Checks and procedures that only tests use

from dataclasses import field  # noqa: E402
from functools import lru_cache  # noqa: E402
from typing import Mapping, Sequence  # noqa: E402

from ciore.errors import InternalError  # noqa: E402
from ciore.prop_prover import Refuted, Verdict, decide  # noqa: E402
from ciore.sequents import Proof, proof_error, rule_instance_error  # noqa: E402
from ciore.syntax import (  # noqa: E402
    BINARY_TYPES,
    QUANTIFIER_TYPES,
    BoundVar,
    Const,
    FunApp,
    Term,
    iff,
    is_literal,
    is_propositional,
)


@lru_cache(maxsize=None)
def weight(phi: Formula) -> int:
    """Termination measure of the propositional decision procedure.

    Literals weigh 0; a binary compound weighs one more than its parts; the
    consistency and negation cases charge for the negated copies they will
    spawn when decomposed:

      w(b # c)    = w(b) + w(c) + 1
      w(o b)      = w(b) + w(~b) + 1
      w(~~b)      = w(~b) + 1
      w(~o b)     = w(o b) + 1
      w(~(b # c)) = w(b) + w(~b) + w(c) + w(~c) + 2
    """
    if not is_propositional(phi):
        raise LogicError("weight is defined for propositional formulas only")
    if is_literal(phi):
        return 0
    if isinstance(phi, BINARY_TYPES):
        return weight(phi.left) + weight(phi.right) + 1
    if isinstance(phi, Circ):
        return weight(phi.body) + weight(Neg(phi.body)) + 1
    # phi is a negation of a non-atom
    inner = phi.body
    if isinstance(inner, Neg):
        return weight(inner) + 1
    if isinstance(inner, Circ):
        return weight(inner) + 1
    return weight(inner.left) + weight(Neg(inner.left)) + weight(inner.right) + weight(Neg(inner.right)) + 2


@lru_cache(maxsize=None)
def gsub(phi: Formula) -> frozenset[Formula]:
    """Generalized subformulas: the closure that bounds cut-free proofs.

    Least set with: phi in gsub(phi); gsub(b) within gsub(~b); subformulas of
    a binary compound; negations of the parts under a negated binary
    compound; gsub(~b) within gsub(o b).
    """
    if isinstance(phi, (PropAtom, PredAtom)):
        return frozenset((phi,))
    if isinstance(phi, BINARY_TYPES):
        return frozenset((phi,)) | gsub(phi.left) | gsub(phi.right)
    if isinstance(phi, Circ):
        return frozenset((phi,)) | gsub(Neg(phi.body))
    if isinstance(phi, Neg):
        inner = phi.body
        out = frozenset((phi,)) | gsub(inner)
        if isinstance(inner, BINARY_TYPES):
            out |= gsub(Neg(inner.left)) | gsub(Neg(inner.right))
        return out
    raise LogicError("gsub is defined for propositional formulas only")


@dataclass(frozen=True, slots=True)
class Signature:
    """Predicate/function/constant symbols with their arities.

    Names must be unique across the three kinds, arities positive.
    """

    predicates: dict[str, int] = field(default_factory=dict)
    functions: dict[str, int] = field(default_factory=dict)
    constants: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        names = list(self.predicates) + list(self.functions) + list(self.constants)
        if len(names) != len(set(names)):
            raise LogicError("signature names must be unique across predicates, functions and constants")
        for name, arity in list(self.predicates.items()) + list(self.functions.items()):
            if arity < 1:
                raise LogicError(f"arity of {name!r} must be positive, got {arity}")


def structure_signature(st: Structure) -> Signature:
    return Signature(
        predicates={name: st.predicate_arity(name) for name in st.predicates},
        functions={name: len(next(iter(table))) for name, table in st.functions.items()},
        constants=frozenset(st.constants),
    )


def validate(phi: Formula, sig: Signature | None = None) -> None:
    """Check bound-variable discipline and, given a signature, arities.

    Every BoundVar must sit under a binder of the same name and the same
    name must not be rebound by a nested quantifier.
    """

    def term_ok(t: Term, scope: frozenset[str]) -> None:
        if isinstance(t, BoundVar) and t.name not in scope:
            raise LogicError(f"bound variable {t.name!r} occurs outside any {t.name}-binder")
        if isinstance(t, FunApp):
            if sig is not None:
                if t.name not in sig.functions:
                    raise LogicError(f"unknown function symbol {t.name!r}")
                if sig.functions[t.name] != len(t.args):
                    raise LogicError(f"function {t.name!r} expects {sig.functions[t.name]} arguments")
            for arg in t.args:
                term_ok(arg, scope)
        if isinstance(t, Const) and sig is not None and t.name not in sig.constants:
            raise LogicError(f"unknown constant {t.name!r}")

    def walk(f: Formula, scope: frozenset[str]) -> None:
        if isinstance(f, PredAtom):
            if sig is not None:
                if f.name not in sig.predicates:
                    raise LogicError(f"unknown predicate symbol {f.name!r}")
                if sig.predicates[f.name] != len(f.args):
                    raise LogicError(f"predicate {f.name!r} expects {sig.predicates[f.name]} arguments")
            for t in f.args:
                term_ok(t, scope)
        elif isinstance(f, (Neg, Circ)):
            walk(f.body, scope)
        elif isinstance(f, BINARY_TYPES):
            walk(f.left, scope)
            walk(f.right, scope)
        elif isinstance(f, QUANTIFIER_TYPES):
            if f.var in scope:
                raise LogicError(f"nested quantifiers rebind {f.var!r}")
            walk(f.body, scope | {f.var})

    walk(phi, frozenset())


def valuation_from_json(data: Mapping[str, str]) -> dict[str, TruthValue]:
    return {name: TruthValue(value) for name, value in data.items()}


def sequent_weight(s: Sequent) -> int:
    return sum(weight(phi) for phi in s.ante) + sum(weight(phi) for phi in s.succ)


def check_rule_instance(
    rule: RuleId,
    conclusion: Sequent,
    premises: Sequence[Sequent],
    principal: Formula | None = None,
    var: str | None = None,
) -> bool:
    return rule_instance_error(rule, conclusion, premises, principal, var) is None


def gsub_of_sequent(s: Sequent) -> frozenset[Formula]:
    out: frozenset[Formula] = frozenset()
    for phi in s.ante | s.succ:
        out |= gsub(phi)
    return out


def proof_respects_gsub(proof: Proof) -> bool:
    """Every formula anywhere in the proof is a generalized subformula of the
    end-sequent (holds for cut-free proofs)."""
    allowed = gsub_of_sequent(proof.sequent)
    return all(node.sequent.ante | node.sequent.succ <= allowed for node in proof.nodes())


def eliminate_cut(proof: Proof) -> Proof:
    """Cut-free proof of the same end-sequent, by re-deciding it."""
    errors = [proof_error(proof, calc, allow_cut=True) for calc in (Calculus.GCIORE, Calculus.GCIORE_PRIME)]
    if all(err is not None for err in errors):
        raise LogicError(f"not a valid proof in either propositional calculus: {errors[0]}")
    verdict = decide(proof.sequent)
    if isinstance(verdict, Refuted):
        raise InternalError(
            "a checked proof's end-sequent was refuted; the checker or the prover is unsound"
        )
    return verdict.proof


def contradiction_scan(phi: Formula) -> Verdict:
    """Decide  |- phi & ~phi ; the calculus proves no contradictions, so
    this must come back refuted for every phi."""
    return decide(Sequent.make((), (And(phi, Neg(phi)),)))


def quantifier_axioms(quantified_exists: Formula, quantified_forall: Formula, t: Term) -> dict[str, Formula]:
    """The four quantifier schemata instantiated at a term t.

    quantified_exists / quantified_forall are the formulas  exists x phi(x)
    and  forall x phi(x)  over the same body.
    """
    if not isinstance(quantified_exists, Exists) or not isinstance(quantified_forall, Forall):
        raise ValueError("expected an existential and a universal closure of the same body")
    return {
        "Ax11": Imp(instantiate(quantified_exists, t), quantified_exists),
        "Ax12": Imp(quantified_forall, instantiate(quantified_forall, t)),
        "Ax13": iff(Circ(quantified_exists), Exists(quantified_exists.var, Circ(quantified_exists.body))),
        "Ax14": iff(Circ(quantified_forall), Exists(quantified_forall.var, Circ(quantified_forall.body))),
    }


# ---------------------------------------------------------------------------
# Recursive references for the package's iterative walks over formulas and
# terms, and random formulas with every kind of term


def reference_subformulas(phi: Formula):
    yield phi
    if isinstance(phi, (Neg, Circ)):
        yield from reference_subformulas(phi.body)
    elif isinstance(phi, BINARY_TYPES):
        yield from reference_subformulas(phi.left)
        yield from reference_subformulas(phi.right)
    elif isinstance(phi, QUANTIFIER_TYPES):
        yield from reference_subformulas(phi.body)


def _reference_term_free_variables(t: Term) -> frozenset[str]:
    if isinstance(t, FreeVar):
        return frozenset((t.name,))
    if isinstance(t, FunApp):
        out: frozenset[str] = frozenset()
        for arg in t.args:
            out |= _reference_term_free_variables(arg)
        return out
    return frozenset()


def reference_free_variables(phi: Formula) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for f in reference_subformulas(phi):
        if isinstance(f, PredAtom):
            for t in f.args:
                out |= _reference_term_free_variables(t)
    return out


def reference_bound_names(phi: Formula) -> frozenset[str]:
    out: set[str] = set()
    for f in reference_subformulas(phi):
        if isinstance(f, QUANTIFIER_TYPES):
            out.add(f.var)
        elif isinstance(f, PredAtom):
            stack = list(f.args)
            while stack:
                t = stack.pop()
                if isinstance(t, BoundVar):
                    out.add(t.name)
                elif isinstance(t, FunApp):
                    stack.extend(t.args)
    return frozenset(out)


_TERM_TAGS = {FreeVar: 0, BoundVar: 1, Const: 2, FunApp: 3}
_FORMULA_TAGS = {PropAtom: 0, PredAtom: 1, Neg: 2, Circ: 3, And: 4, Or: 5, Imp: 6, Forall: 7, Exists: 8}


def _reference_key_term(t: Term, out: list) -> None:
    out.append((_TERM_TAGS[type(t)], getattr(t, "name", "")))
    if isinstance(t, FunApp):
        for a in t.args:
            _reference_key_term(a, out)


def reference_formula_key(phi: Formula) -> tuple:
    out: list = []

    def walk(f: Formula) -> None:
        tag = _FORMULA_TAGS[type(f)]
        if isinstance(f, PropAtom):
            out.append((tag, f.name))
        elif isinstance(f, PredAtom):
            out.append((tag, f.name))
            for t in f.args:
                _reference_key_term(t, out)
        elif isinstance(f, (Neg, Circ)):
            out.append((tag, ""))
            walk(f.body)
        elif isinstance(f, BINARY_TYPES):
            out.append((tag, ""))
            walk(f.left)
            walk(f.right)
        else:
            out.append((tag, f.var))
            walk(f.body)

    walk(phi)
    return tuple(out)


def random_term(rng: random.Random, depth: int) -> Term:
    """A free or bound variable, a constant or, above depth 0, a function
    application of one to three arguments."""
    kind = rng.randrange(4 if depth > 0 else 3)
    if kind == 0:
        return FreeVar(rng.choice(("a1", "a2", "a3")))
    if kind == 1:
        return BoundVar(rng.choice(("x", "y", "z")))
    if kind == 2:
        return Const(rng.choice(("c", "d")))
    return FunApp(rng.choice(("f", "g")), tuple(random_term(rng, depth - 1) for _ in range(rng.randint(1, 3))))


def random_term_formula(rng: random.Random, depth: int) -> Formula:
    """Any formula shape, over propositional atoms and predicate atoms whose
    arguments are random terms; bound variables need not sit under a binder."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.3:
            return PropAtom(rng.choice(("p", "q")))
        return PredAtom(rng.choice(("P", "Q")), tuple(random_term(rng, 2) for _ in range(rng.randint(1, 3))))
    shape = rng.randrange(7)
    if shape < 2:
        return (Neg, Circ)[shape](random_term_formula(rng, depth - 1))
    if shape < 5:
        return (And, Or, Imp)[shape - 2](random_term_formula(rng, depth - 1), random_term_formula(rng, depth - 1))
    return (Forall, Exists)[shape - 5](rng.choice(("x", "y", "z")), random_term_formula(rng, depth - 1))


# ---------------------------------------------------------------------------
# Recipes the package has replaced by faster ones, kept as references: the
# recursive formula printer, the chained premise construction, the recursive
# proof checker with its path built at every node, and the walks over every
# subformula and term that the stored signature replaced

from ciore.fo_prover import decide_fo  # noqa: E402
from ciore.sequents import STRUCTURAL_RULES, Proved  # noqa: E402
from ciore.syntax import subformulas, terms  # noqa: E402

_ATOM, _UNARY, _AND, _OR, _IMP, _QUANT = 5, 4, 3, 2, 1, 0


def _reference_level(phi: Formula) -> int:
    if isinstance(phi, (PropAtom, PredAtom)):
        return _ATOM
    if isinstance(phi, (Neg, Circ)):
        return _UNARY
    if isinstance(phi, And):
        return _AND
    if isinstance(phi, Or):
        return _OR
    if isinstance(phi, Imp):
        return _IMP
    return _QUANT


def _reference_term_text(t: Term) -> str:
    if isinstance(t, FunApp):
        return f"{t.name}({', '.join(_reference_term_text(a) for a in t.args)})"
    return t.name


def _reference_fmt(phi: Formula, min_level: int) -> str:
    text = reference_format(phi)
    return f"({text})" if _reference_level(phi) < min_level else text


def reference_format(phi: Formula) -> str:
    """The text of phi, formatted anew at every node."""
    if isinstance(phi, PropAtom):
        return phi.name
    if isinstance(phi, PredAtom):
        return f"{phi.name}({', '.join(_reference_term_text(a) for a in phi.args)})"
    if isinstance(phi, Neg):
        return f"~{_reference_fmt(phi.body, _UNARY)}"
    if isinstance(phi, Circ):
        return f"o {_reference_fmt(phi.body, _UNARY)}"
    if isinstance(phi, And):
        return f"{_reference_fmt(phi.left, _AND)} & {_reference_fmt(phi.right, _AND + 1)}"
    if isinstance(phi, Or):
        return f"{_reference_fmt(phi.left, _OR)} | {_reference_fmt(phi.right, _OR + 1)}"
    if isinstance(phi, Imp):
        return f"{_reference_fmt(phi.left, _IMP + 1)} -> {_reference_fmt(phi.right, _IMP)}"
    word = "forall" if isinstance(phi, Forall) else "exists"
    return f"{word} {phi.var}. {reference_format(phi.body)}"


def chained_premises(
    conclusion: Sequent, rule: RuleId, principal: Formula, var: str | None = None, keep_principal: bool = False
) -> list[Sequent] | None:
    """`premises_from_schema` through intermediate sequents: the principal
    dropped, then the antecedent additions, then the succedent ones."""
    schema = rule_schema(rule, principal, var)
    if schema is None:
        return None
    side, deltas = schema
    if principal not in conclusion.side(side):
        return None
    base = conclusion if keep_principal else conclusion.without(side, principal)
    return [with_succ(with_ante(base, *da), *ds) for da, ds in deltas]


def reference_proof_error(proof: Proof, calculus: Calculus, allow_cut: bool = False, _path: str = "root") -> str | None:
    """`proof_error` with each node's path built on the way down."""
    rule = proof.rule
    if rule is _R.CUT:
        if not allow_cut:
            return f"{_path}: cut is not allowed here"
    elif rule not in STRUCTURAL_RULES and rule not in calculus.rules:
        return f"{_path}: rule {rule.value} is not part of {calculus.value}"
    err = rule_instance_error(rule, proof.sequent, [p.sequent for p in proof.premises], proof.principal, proof.var)
    if err is not None:
        return f"{_path}: {err}"
    for i, sub in enumerate(proof.premises):
        err = reference_proof_error(sub, calculus, allow_cut, f"{_path}.premises[{i}]")
        if err is not None:
            return err
    return None


def reference_propositional(s: Sequent) -> bool:
    """`Sequent.propositional`: no formula has a quantifier or a predicate."""
    allowed = (PropAtom, Neg, Circ, And, Or, Imp)
    return all(isinstance(f, allowed) for phi in s.ante | s.succ for f in subformulas(phi))


def reference_sequent_atoms(s: Sequent) -> tuple[str, ...]:
    """`matrix.sequent_atoms`: the propositional atom names of s, sorted."""
    return tuple(sorted({f.name for phi in s.ante | s.succ for f in subformulas(phi) if isinstance(f, PropAtom)}))


def reference_predicate_arities(formulas) -> dict[str, int]:
    """`syntax.predicate_arities`, raising at the first predicate occurrence
    at a second arity."""
    arities: dict[str, int] = {}
    for phi in formulas:
        for f in subformulas(phi):
            if type(f) is PredAtom and arities.setdefault(f.name, len(f.args)) != len(f.args):
                raise LogicError(f"predicate {f.name!r} used with two arities")
    return arities


def reference_check_fo_input(s: Sequent) -> dict[str, int]:
    """`fo_prover._check_fo_input`: the arities, then per formula in
    formula_key order a propositional atom, then the first function or
    constant among its terms."""
    formulas = s.sorted_ante() + s.sorted_succ()
    arities = reference_predicate_arities(formulas)
    for phi in formulas:
        if any(type(f) is PropAtom for f in subformulas(phi)):
            raise LogicError("the first-order prover takes predicate atoms only")
        for t in terms(phi):
            if type(t) is FunApp:
                raise LogicError("the first-order prover does not handle function symbols")
            if type(t) is Const:
                raise LogicError("the first-order prover does not handle constants")
    return arities


_SYMBOL_KINDS = {PropAtom: "propositional atom", PredAtom: "predicate", FunApp: "function", Const: "constant"}


def reference_check_signature(st: Structure, formulas) -> None:
    """`Structure.check_signature`: every symbol occurrence, per formula its
    subformulas in preorder and then its terms."""
    arities = {("predicate", name): st.predicate_arity(name) for name in st.predicates}
    arities |= {("function", name): st.function_arity(name) for name in st.functions}
    arities |= {("constant", name): 0 for name in st.constants}
    for phi in formulas:
        for symbol in itertools.chain(subformulas(phi), terms(phi)):
            kind = _SYMBOL_KINDS.get(type(symbol))
            if kind is None:
                continue
            if (kind, symbol.name) not in arities:
                raise LogicError(f"structure does not interpret {kind} {symbol.name!r}")
            used = len(getattr(symbol, "args", ()))
            if arities[kind, symbol.name] != used:
                raise LogicError(
                    f"{kind} {symbol.name!r} has arity {arities[kind, symbol.name]} in the structure, used with {used} arguments"
                )


# ---------------------------------------------------------------------------
# Seeded proofs with one fault put in


def _node_paths(proof: Proof, path: tuple[int, ...] = ()):
    """(path, node) for every node, preorder; a path lists premise indices."""
    yield path, proof
    for i, sub in enumerate(proof.premises):
        yield from _node_paths(sub, path + (i,))


def _replace_at(proof: Proof, path: tuple[int, ...], new: Proof) -> Proof:
    if not path:
        return new
    premises = list(proof.premises)
    premises[path[0]] = _replace_at(premises[path[0]], path[1:], new)
    return proof._replace(premises=tuple(premises))


def _formula_pool(node: Proof) -> list[Formula]:
    pool = {f for phi in node.sequent.ante | node.sequent.succ for f in reference_subformulas(phi)}
    return sorted(pool, key=formula_key)


def _swap_premise(rng: random.Random, proof: Proof, nodes) -> Proof | None:
    """Two premises of a node swapped, or a one-premise node's premise
    replaced by another node's subproof."""
    inner = [(path, node) for path, node in nodes if node.premises]
    if not inner:
        return None
    path, node = rng.choice(inner)
    premises = list(node.premises)
    if len(premises) >= 2:
        i, j = rng.sample(range(len(premises)), 2)
        premises[i], premises[j] = premises[j], premises[i]
    else:
        premises[0] = rng.choice(nodes)[1]
    return _replace_at(proof, path, node._replace(premises=tuple(premises)))


def _change_principal(rng: random.Random, proof: Proof, nodes) -> Proof | None:
    """A principal replaced by another subformula of its node's sequent."""
    with_principal = [(path, node) for path, node in nodes if node.principal is not None]
    if not with_principal:
        return None
    path, node = rng.choice(with_principal)
    others = [f for f in _formula_pool(node) if f != node.principal] or [Neg(node.principal)]
    return _replace_at(proof, path, node._replace(principal=rng.choice(others)))


def _change_rule(rng: random.Random, proof: Proof, nodes) -> Proof | None:
    """A node's rule replaced by another rule, often one outside the calculus."""
    path, node = rng.choice(nodes)
    rule = rng.choice([rule for rule in RuleId if rule is not node.rule])
    return _replace_at(proof, path, node._replace(rule=rule))


def _insert_cut(rng: random.Random, proof: Proof, nodes) -> Proof | None:
    """A node wrapped in a cut on a subformula of its sequent, weakened into
    both premises, sometimes with the premises in the wrong order."""
    path, node = rng.choice(nodes)
    s = node.sequent
    phi = rng.choice(_formula_pool(node))
    premises = (
        Proof(with_succ(s, phi), _R.WEAK_R, premises=(node,)),
        Proof(with_ante(s, phi), _R.WEAK_L, premises=(node,)),
    )
    if rng.random() < 0.25:
        premises = premises[::-1]
    return _replace_at(proof, path, Proof(s, _R.CUT, principal=phi, premises=premises))


_CORRUPTIONS = (_swap_premise, _change_principal, _change_rule, _insert_cut)


def corrupted_proofs(seed: int = 4040) -> list[Proof]:
    """Proofs of both provers on seeded goals, and the two derived
    quantifier-introduction expansions, each corrupted once per kind of
    fault at a random node."""
    rng = random.Random(seed)
    proofs = []
    while len(proofs) < 40:
        verdict = decide(Sequent.make((), (random_formula(rng, ("p", "q", "r"), 3),)))
        if isinstance(verdict, Proved):
            proofs.append(verdict.proof)
    tries = 0
    while len(proofs) < 60 and tries < 2000:
        tries += 1
        phi = random_fo_formula(rng, {"P": 1, "R": 2}, ("a1", "a2"), 3)
        verdict = decide_fo(Sequent.make((), (phi,)), 200, 200)
        if isinstance(verdict, Proved):
            proofs.append(verdict.proof)
    proofs += [proof for _, proof in derived_quantifier_expansions()]

    out = []
    for proof in proofs:
        nodes = list(_node_paths(proof))
        for corrupt in _CORRUPTIONS:
            bad = corrupt(rng, proof, nodes)
            if bad is not None:
                out.append(bad)
    return out


# ---------------------------------------------------------------------------
# The paper's reproduction suites: the Hilbert axiom schemata, nine theorem
# schemata and the derived rules with their printed expansions

import enum  # noqa: E402
from typing import Callable  # noqa: E402

from ciore.sequents import rules_for  # noqa: E402

#: The sixteen propositional schemata, in their customary order.
PROPOSITIONAL_SCHEMATA: dict[str, Callable[[Formula, Formula, Formula], Formula]] = {
    "Ax1": lambda a, b, c: Imp(a, Imp(b, a)),
    "Ax2": lambda a, b, c: Imp(Imp(a, Imp(b, c)), Imp(Imp(a, b), Imp(a, c))),
    "Ax3": lambda a, b, c: Imp(a, Imp(b, And(a, b))),
    "Ax4": lambda a, b, c: Imp(And(a, b), a),
    "Ax5": lambda a, b, c: Imp(And(a, b), b),
    "Ax6": lambda a, b, c: Imp(a, Or(a, b)),
    "Ax7": lambda a, b, c: Imp(b, Or(a, b)),
    "Ax8": lambda a, b, c: Imp(Imp(a, c), Imp(Imp(b, c), Imp(Or(a, b), c))),
    "Ax9": lambda a, b, c: Or(Imp(a, b), a),
    "Ax10": lambda a, b, c: Or(a, Neg(a)),
    "bc1": lambda a, b, c: Imp(Circ(a), Imp(a, Imp(Neg(a), b))),
    "ci": lambda a, b, c: Imp(Neg(Circ(a)), And(a, Neg(a))),
    "cf": lambda a, b, c: iff(Neg(Neg(a)), a),
    "co1": lambda a, b, c: iff(Or(Circ(a), Circ(b)), Circ(And(a, b))),
    "co2": lambda a, b, c: iff(Or(Circ(a), Circ(b)), Circ(Or(a, b))),
    "co3": lambda a, b, c: iff(Or(Circ(a), Circ(b)), Circ(Imp(a, b))),
}


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


class DerivedRuleId(enum.Enum):
    NEG_OR_R_PRIME = "NegOrR'"
    NEG_AND_R_PRIME = "NegAndR'"
    NEG_IMP_R_PRIME = "NegImpR'"
    NEG_R_PRIME = "NegR'"
    FORALL_INTRO = "ForallIntro"
    EXISTS_INTRO = "ExistsIntro"


def axiom(phi: Formula) -> Proof:
    """The axiom  phi |- phi."""
    return Proof(Sequent.make((phi,), (phi,)), _R.AXIOM)


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
        wanted = [Sequent(conclusion.ante | frozenset(da), (conclusion.succ - {cand}) | frozenset(ds)) for da, ds in deltas]
        if [p.sequent for p in premises] != wanted:
            continue
        inner = Proof(
            Sequent(conclusion.ante | {cand.body}, conclusion.succ - {cand}),
            left_rule,
            principal=cand.body,
            premises=tuple(premises),
        )
        return Proof(conclusion, _R.NEG_R, principal=cand, premises=(inner,))
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
    candidates.append(next(fresh_free_variables(conclusion.free_variables() | hyp.sequent.free_variables())))
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
    n1 = Proof(with_ante(hyp.sequent, a), _R.WEAK_L, premises=(hyp,))
    n2 = Proof(with_succ(n1.sequent, b), _R.WEAK_R, premises=(n1,))
    ax_a = axiom(a)
    n3 = Proof(with_succ(ax_a.sequent, b), _R.WEAK_R, premises=(ax_a,))
    ax_b = axiom(b)
    n4 = Proof(with_ante(ax_b.sequent, a), _R.WEAK_L, premises=(ax_b,))
    n5 = Proof(Sequent.make((a, given), (b,)), _R.IMP_L, principal=given, premises=(n3, n4))
    n6 = Proof(Sequent.make((a,), (b,)), _R.CUT, principal=given, premises=(n2, n5))
    if rule is DerivedRuleId.FORALL_INTRO:
        n7 = Proof(Sequent.make((a,), (quantified,)), _R.FORALL_R, principal=quantified, var=var, premises=(n6,))
    else:
        n7 = Proof(Sequent.make((quantified,), (b,)), _R.EXISTS_L, principal=quantified, var=var, premises=(n6,))
    return Proof(conclusion, _R.IMP_R, principal=goal, premises=(n7,))


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
            if first.sequent in (Sequent(conclusion.ante, delta | {cand.body}), with_succ(conclusion, cand.body)):
                return second
        raise _schema_mismatch("first premise does not fit any negated succedent formula")
    return _expand_quantifier_intro(rule, conclusion, premises)


def derived_quantifier_expansions() -> list[tuple[str, Proof]]:
    """The two quantifier-introduction derived rules, replayed on provable
    premises; the expansions go through a cut."""
    p_free = PredAtom("P", (FreeVar("a1"),))
    p_bound = PredAtom("P", (BoundVar("x"),))
    forall_p = Forall("x", p_bound)
    exists_p = Exists("x", p_bound)

    out = []
    premise = decide_fo(Sequent.make((), (Imp(forall_p, p_free),)))
    if not isinstance(premise, Proved):
        raise InternalError("forall-elimination premise should be provable")
    conclusion = Sequent.make((), (Imp(forall_p, forall_p),))
    out.append(
        ("forall-introduction", expand_derived_rule(DerivedRuleId.FORALL_INTRO, conclusion, [premise.proof]))
    )
    premise = decide_fo(Sequent.make((), (Imp(p_free, exists_p),)))
    if not isinstance(premise, Proved):
        raise InternalError("exists-introduction premise should be provable")
    conclusion = Sequent.make((), (Imp(exists_p, exists_p),))
    out.append(
        ("exists-introduction", expand_derived_rule(DerivedRuleId.EXISTS_INTRO, conclusion, [premise.proof]))
    )
    return out
