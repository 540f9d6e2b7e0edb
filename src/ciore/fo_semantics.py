"""Finite first-order semantics over partial (three-valued) relations.

A predicate denotes a triple: a partition of the tuple space into a true
part, a false part and an inconsistent part. Formulas denote triples over
assignment tuples: the connectives are the matrix's own truth functions
(`matrix.evaluate` on bit sets over a list of assignment points, bit j for
point j). A quantifier gives its bound variable one more column of the
points and folds each point's block of values (`_leaf`), as the Tarskian
clause does over s[x -> m] for every domain element m.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from . import syntax
from .errors import LogicError
from .matrix import HALF, ONE, VALUE_ORDER, ZERO, Leaf, TruthValue, evaluate, falsified
from .sequents import Sequent
from .syntax import BoundVar, Const, Forall, Formula, FreeVar, PredAtom, PropAtom, Term


@dataclass(frozen=True, slots=True)
class Triple:
    """A map X -> {1, 1/2, 0}, kept as the partition it induces."""

    universe: frozenset
    plus: frozenset
    minus: frozenset
    circ: frozenset

    def __post_init__(self):
        parts = [self.plus, self.minus, self.circ]
        if self.plus | self.minus | self.circ != self.universe or sum(map(len, parts)) != len(self.universe):
            raise LogicError("triple components must partition the universe")

    @staticmethod
    def from_values(universe, values: Mapping) -> "Triple":
        uni = frozenset(universe)
        plus = frozenset(x for x in uni if values[x] is ONE)
        minus = frozenset(x for x in uni if values[x] is ZERO)
        circ = frozenset(x for x in uni if values[x] is HALF)
        return Triple(uni, plus, minus, circ)

    def value_at(self, x) -> TruthValue:
        if x in self.plus:
            return ONE
        if x in self.circ:
            return HALF
        if x in self.minus:
            return ZERO
        raise LogicError(f"{x!r} is not in the triple's universe")


# ---------------------------------------------------------------------------
# Structures


@dataclass(frozen=True)
class Structure:
    """Finite partial structure: a nonempty domain, a triple for each
    predicate over its tuple space, total functions and constants."""

    domain: tuple[str, ...]
    predicates: dict[str, Triple] = field(default_factory=dict)
    functions: dict[str, dict[tuple[str, ...], str]] = field(default_factory=dict)
    constants: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.domain:
            raise LogicError("the domain must be nonempty")
        if len(set(self.domain)) != len(self.domain):
            raise LogicError("domain elements must be distinct")
        elems = set(self.domain)
        for name, triple in self.predicates.items():
            if not triple.universe or triple.universe != frozenset(
                itertools.product(self.domain, repeat=self.predicate_arity(name))
            ):
                raise LogicError(f"predicate {name!r} must be a triple over the full tuple space")
        for name, table in self.functions.items():
            arities = {len(args) for args in table}
            if len(arities) != 1:
                raise LogicError(f"function {name!r} has mixed arities")
            arity = arities.pop()
            if set(table) != set(itertools.product(self.domain, repeat=arity)):
                raise LogicError(f"function {name!r} must be total")
            if not set(table.values()) <= elems:
                raise LogicError(f"function {name!r} maps outside the domain")
        for name, value in self.constants.items():
            if value not in elems:
                raise LogicError(f"constant {name!r} denotes no domain element")

    def predicate_arity(self, name: str) -> int:
        triple = self.predicates[name]
        return len(next(iter(triple.universe)))


Assignment = Mapping[str, str]


def eval_term(t: Term, st: Structure, s: Assignment) -> str:
    if isinstance(t, (FreeVar, BoundVar)):
        try:
            return s[t.name]
        except KeyError:
            problem = "assignment does not cover variable" if isinstance(t, FreeVar) else "dangling bound variable"
            raise LogicError(f"{problem} {t.name}") from None
    if isinstance(t, Const):
        try:
            return st.constants[t.name]
        except KeyError:
            raise LogicError(f"structure does not interpret constant {t.name!r}") from None
    try:
        table = st.functions[t.name]
    except KeyError:
        raise LogicError(f"structure does not interpret function {t.name!r}") from None
    return table[tuple(eval_term(a, st, s) for a in t.args)]


def _sorted_vars(names) -> tuple[str, ...]:
    return tuple(sorted(names, key=syntax.var_index))


def denote(phi: Formula, st: Structure, variables: tuple[str, ...] | None = None) -> Triple:
    """Triple over assignment tuples for the given variables (by default the
    free variables of phi, least index first)."""
    free = syntax.free_variables(phi)
    if variables is None:
        variables = _sorted_vars(free)
    if not free <= set(variables):
        raise LogicError("variable list does not cover the formula's free variables")
    if not all(map(syntax.is_free_var_name, variables)):
        raise LogicError("variable list names a variable outside the free-variable namespace")
    points = list(itertools.product(st.domain, repeat=len(variables)))
    zero, half = evaluate(phi, _leaf(st, variables, points), (1 << len(points)) - 1)
    universe = frozenset(points)
    minus, circ = _members(zero, points), _members(half, points)
    return Triple(universe, universe - minus - circ, minus, circ)


def _members(bits: int, points: list) -> frozenset:
    """The points whose bits are set; bit j stands for points[j]."""
    return frozenset(itertools.compress(points, map("1".__eq__, bin(bits)[:1:-1])))


def _leaf(st: Structure, variables: tuple[str, ...], points: list) -> Leaf:
    """The leaf for `matrix.evaluate` over `points`, a list of tuples of
    domain elements for `variables`: the (zero, half) pair of an atom or a
    quantified formula whose free variables `variables` cover, as bit sets,
    bit j standing for points[j]. A quantifier evaluates its body with its
    bound variable as one more column, over each point's block of |domain|
    extended points, and folds the block: 1/2 where the whole block is 1/2;
    else 0 where some bit is 0 (forall) or every bit is (exists); else 1. A
    quantifier whose variable is already a column denotes its body, as
    `syntax.instantiate` lets the outer binder take the inner occurrences."""
    top = (1 << len(points)) - 1

    def leaf(psi: Formula) -> tuple[int, int]:
        if isinstance(psi, PropAtom):
            raise LogicError("partial structures interpret predicates, not propositional atoms")
        zero = half = 0
        if isinstance(psi, PredAtom):
            if psi.name not in st.predicates:
                raise LogicError(f"structure does not interpret predicate {psi.name!r}")
            triple = st.predicates[psi.name]
            if st.predicate_arity(psi.name) != len(psi.args):
                raise LogicError(f"predicate {psi.name!r} arity mismatch")
            for j, combo in enumerate(points):
                s = dict(zip(variables, combo))
                value = triple.value_at(tuple(eval_term(t, st, s) for t in psi.args))
                if value is ZERO:
                    zero |= 1 << j
                elif value is HALF:
                    half |= 1 << j
            return zero, half
        if psi.var in variables:
            return evaluate(psi.body, leaf, top)
        extended = [combo + (m,) for combo in points for m in st.domain]
        sub_zero, sub_half = evaluate(psi.body, _leaf(st, variables + (psi.var,), extended), (1 << len(extended)) - 1)
        size = len(st.domain)
        block = (1 << size) - 1
        for j in range(len(points)):
            z, h = sub_zero >> j * size & block, sub_half >> j * size & block
            if h == block:
                half |= 1 << j
            elif z if isinstance(psi, Forall) else z == block:
                zero |= 1 << j
        return zero, half

    return leaf


def fo_sequent_satisfied(st: Structure, s: Assignment, seq: Sequent) -> bool:
    """True unless the assignment s, which must cover the sequent's free
    variables, makes every antecedent formula designated and every
    succedent formula 0."""
    variables = _sorted_vars(seq.free_variables())
    try:
        point = tuple(s[v] for v in variables)
    except KeyError as exc:
        raise LogicError(f"assignment does not cover variable {exc.args[0]}") from None
    if not set(point) <= set(st.domain):
        raise LogicError(f"{point!r} is not in the triple's universe")
    # Sorted sides fix which formula decides first, so the cost of a check
    # does not follow the hash seed's set order.
    return not falsified(seq.sorted_ante(), seq.sorted_succ(), _leaf(st, variables, [point]), 1)


def falsifying_assignment(st: Structure, seq: Sequent) -> dict[str, str] | None:
    """The first assignment of the sequent's free variables that falsifies
    it, variables in index order and values in domain order; None if none does."""
    variables = _sorted_vars(seq.free_variables())
    for combo in itertools.product(st.domain, repeat=len(variables)):
        assignment = dict(zip(variables, combo))
        if not fo_sequent_satisfied(st, assignment, seq):
            return assignment
    return None


def fo_sequent_valid_in(st: Structure, seq: Sequent) -> bool:
    return falsifying_assignment(st, seq) is None


# ---------------------------------------------------------------------------
# Exhaustive enumeration (small domains; the finite refuter of `fo_prover.decide_fo`)


def enumerate_structures(domain: tuple[str, ...], predicate_arities: Mapping[str, int]) -> Iterator[Structure]:
    """All structures over the domain interpreting exactly the given
    predicates, in a fixed deterministic order: one value per row of the
    predicates' tables, names in sorted order, the last row varying fastest.
    Each structure is made when it is asked for."""
    names = sorted(predicate_arities)
    spaces = [tuple(itertools.product(domain, repeat=predicate_arities[n])) for n in names]
    for values in itertools.product(VALUE_ORDER, repeat=sum(map(len, spaces))):
        rest = iter(values)
        predicates = {name: Triple.from_values(space, dict(zip(space, rest))) for name, space in zip(names, spaces)}
        yield Structure(domain=domain, predicates=predicates)


# ---------------------------------------------------------------------------
# JSON form: the three tuple lists must partition the full tuple space


def structure_to_json(st: Structure) -> dict:
    def rows(tuples) -> list[list[str]]:
        return [list(row) for row in sorted(tuples)]

    out: dict = {"domain": list(st.domain)}
    out["predicates"] = {
        name: {
            "plus": rows(triple.plus),
            "minus": rows(triple.minus),
            "circ": rows(triple.circ),
        }
        for name, triple in sorted(st.predicates.items())
    }
    if st.functions:
        out["functions"] = {
            name: [list(args) + [value] for args, value in sorted(table.items())]
            for name, table in sorted(st.functions.items())
        }
    if st.constants:
        out["constants"] = dict(sorted(st.constants.items()))
    return out


def structure_from_json(data: Mapping) -> Structure:
    try:
        if not isinstance(data["domain"], list):
            raise LogicError("malformed structure JSON: the domain must be a list")
        domain = tuple(str(x) for x in data["domain"])
        predicates = {}
        for name, parts in data.get("predicates", {}).items():
            plus = frozenset(tuple(row) for row in parts["plus"])
            minus = frozenset(tuple(row) for row in parts["minus"])
            circ = frozenset(tuple(row) for row in parts["circ"])
            predicates[name] = Triple(plus | minus | circ, plus, minus, circ)
        functions = {}
        for name, rows in data.get("functions", {}).items():
            functions[name] = {tuple(row[:-1]): row[-1] for row in rows}
        constants = dict(data.get("constants", {}))
        return Structure(domain=domain, predicates=predicates, functions=functions, constants=constants)
    except (KeyError, TypeError, AttributeError, ValueError, IndexError) as exc:
        raise LogicError(f"malformed structure JSON: {exc}") from exc
