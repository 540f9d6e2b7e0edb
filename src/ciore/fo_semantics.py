"""Finite first-order semantics over partial (three-valued) relations.

A predicate denotes a triple: a partition of the tuple space into a true
part, a false part and an inconsistent part. Formulas denote triples over
assignment tuples: the connectives are the matrix's own truth functions
(`matrix.evaluate` on the triple's frozensets), the quantifiers the value
functions below.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from . import syntax
from .errors import LogicError
from .matrix import HALF, ONE, VALUE_ORDER, ZERO, TruthValue, evaluate
from .sequents import Sequent
from .syntax import (
    BoundVar,
    Const,
    Forall,
    Formula,
    FreeVar,
    PredAtom,
    PropAtom,
    Term,
    fresh_free_variable,
)


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


def tilde_forall(values: frozenset[TruthValue] | set[TruthValue]) -> TruthValue:
    """Universal quantifier on a nonempty set of attained values."""
    if not values:
        raise LogicError("quantifier value function needs a nonempty value set")
    if ZERO in values:
        return ZERO
    if ONE in values:
        return ONE
    return HALF


def tilde_exists(values: frozenset[TruthValue] | set[TruthValue]) -> TruthValue:
    if not values:
        raise LogicError("quantifier value function needs a nonempty value set")
    if values == {HALF}:
        return HALF
    if values == {ZERO}:
        return ZERO
    return ONE


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
    if isinstance(t, FreeVar):
        try:
            return s[t.name]
        except KeyError:
            raise LogicError(f"assignment does not cover variable {t.name}") from None
    if isinstance(t, BoundVar):
        raise LogicError(f"dangling bound variable {t.name}")
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
    free variables of phi, least index first).

    Connectives go through `matrix.evaluate` on (minus, circ) frozensets;
    quantifiers evaluate the value set of a fresh-variable instance,
    pointwise.
    """
    if variables is None:
        variables = _sorted_vars(syntax.free_variables(phi))
    if not syntax.free_variables(phi) <= set(variables):
        raise LogicError("variable list does not cover the formula's free variables")
    return _denote(phi, st, variables, frozenset(itertools.product(st.domain, repeat=len(variables))))


def _denote(phi: Formula, st: Structure, variables: tuple[str, ...], universe: frozenset) -> Triple:
    """phi's triple over `universe`, a set of tuples of domain elements for
    `variables`, which cover phi's free variables."""

    def leaf(psi: Formula) -> tuple[frozenset, frozenset]:
        if isinstance(psi, PropAtom):
            raise LogicError("partial structures interpret predicates, not propositional atoms")
        values = {}
        if isinstance(psi, PredAtom):
            if psi.name not in st.predicates:
                raise LogicError(f"structure does not interpret predicate {psi.name!r}")
            triple = st.predicates[psi.name]
            if st.predicate_arity(psi.name) != len(psi.args):
                raise LogicError(f"predicate {psi.name!r} arity mismatch")
            for combo in universe:
                s = dict(zip(variables, combo))
                values[combo] = triple.value_at(tuple(eval_term(t, st, s) for t in psi.args))
        else:
            # quantifier: instantiate with a fresh free variable and aggregate
            fresh = fresh_free_variable(syntax.free_variables(psi) | set(variables))
            extended = frozenset(combo + (m,) for combo in universe for m in st.domain)
            sub = _denote(syntax.instantiate(psi, FreeVar(fresh)), st, variables + (fresh,), extended)
            tilde = tilde_forall if isinstance(psi, Forall) else tilde_exists
            for combo in universe:
                values[combo] = tilde({sub.value_at(combo + (m,)) for m in st.domain})
        part = Triple.from_values(universe, values)
        return part.minus, part.circ

    minus, circ = evaluate(phi, leaf, universe)
    return Triple(universe, universe ^ (minus | circ), minus, circ)


def denote_value(phi: Formula, st: Structure, s: Assignment) -> TruthValue:
    """Value of phi at one assignment (must cover its free variables), from
    its triple over that one assignment."""
    variables = _sorted_vars(syntax.free_variables(phi))
    point = tuple(s[v] for v in variables)
    if not set(point) <= set(st.domain):
        raise LogicError(f"{point!r} is not in the triple's universe")
    return _denote(phi, st, variables, frozenset([point])).value_at(point)


def satisfies(st: Structure, s: Assignment, phi: Formula) -> bool:
    return denote_value(phi, st, s).designated


def fo_sequent_satisfied(st: Structure, s: Assignment, seq: Sequent) -> bool:
    # Sorted sides fix which formula decides first, so the cost of a check
    # does not follow the hash seed's set order.
    return any(not satisfies(st, s, g) for g in seq.sorted_ante()) or any(
        satisfies(st, s, d) for d in seq.sorted_succ()
    )


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
# Exhaustive enumeration (small domains; used by regression suites)


def enumerate_structures(domain: tuple[str, ...], predicate_arities: Mapping[str, int]) -> Iterator[Structure]:
    """All structures over the domain interpreting exactly the given
    predicates, in a fixed deterministic order."""
    names = sorted(predicate_arities)
    spaces = [tuple(itertools.product(domain, repeat=predicate_arities[n])) for n in names]
    for choice in itertools.product(*(itertools.product(VALUE_ORDER, repeat=len(space)) for space in spaces)):
        predicates = {}
        for name, space, values in zip(names, spaces, choice):
            predicates[name] = Triple.from_values(space, dict(zip(space, values)))
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
