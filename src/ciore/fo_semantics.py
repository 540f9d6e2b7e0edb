"""Finite first-order semantics over partial (three-valued) relations.

A predicate denotes a triple: a partition of the tuple space into a true
part, a false part and an inconsistent part. A formula is evaluated at one
assignment at a time, by the Tarskian clause: the connectives are the
matrix's own truth functions (`matrix.evaluate` on one bit), an atom reads
its triple, and a quantifier evaluates its body under s[x -> m] for one
domain element m after another until an instance decides it (`_leaf`).
`denote` collects the values of all assignments into a triple.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, NamedTuple

from . import syntax
from .errors import LogicError
from .matrix import _POINT, _VALUE, HALF, ONE, VALUE_ORDER, ZERO, Leaf, TruthValue, evaluate, falsified
from .sequents import Sequent
from .syntax import BoundVar, Const, Forall, Formula, FreeVar, FunApp, PredAtom, Term


class _TripleFields(NamedTuple):
    universe: frozenset
    plus: frozenset
    minus: frozenset
    circ: frozenset


class Triple(_TripleFields):
    """A map X -> {1, 1/2, 0}, kept as the partition it induces."""

    __slots__ = ()

    def __new__(cls, universe: frozenset, plus: frozenset, minus: frozenset, circ: frozenset):
        if plus | minus | circ != universe or sum(map(len, (plus, minus, circ))) != len(universe):
            raise LogicError("triple components must partition the universe")
        return super().__new__(cls, universe, plus, minus, circ)

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


#: The kind of a signature's symbol, by list and by whether its arity is positive.
_FORMULA_KINDS, _TERM_KINDS = ("propositional atom", "predicate"), ("constant", "function")


def _check_arity(kind: str, name: str, arity: int, used: int) -> None:
    if arity != used:
        raise LogicError(f"{kind} {name!r} has arity {arity} in the structure, used with {used} arguments")


class _StructureFields(NamedTuple):
    domain: tuple[str, ...]
    predicates: dict[str, Triple]
    functions: dict[str, dict[tuple[str, ...], str]]
    constants: dict[str, str]


class Structure(_StructureFields):
    """Finite partial structure: a nonempty domain, a triple for each
    predicate over its tuple space, total functions and constants. A table
    left out is empty."""

    __slots__ = ()

    def __new__(
        cls,
        domain: tuple[str, ...],
        predicates: dict[str, Triple] | None = None,
        functions: dict[str, dict[tuple[str, ...], str]] | None = None,
        constants: dict[str, str] | None = None,
    ):
        tables = [{} if table is None else table for table in (predicates, functions, constants)]
        self = super().__new__(cls, domain, *tables)
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
            if not table or set(table) != set(itertools.product(self.domain, repeat=self.function_arity(name))):
                raise LogicError(f"function {name!r} must be total, with one arity")
            if not set(table.values()) <= elems:
                raise LogicError(f"function {name!r} maps outside the domain")
        for name, value in self.constants.items():
            if value not in elems:
                raise LogicError(f"constant {name!r} denotes no domain element")
        return self

    def predicate_arity(self, name: str) -> int:
        triple = self.predicates[name]
        return len(next(iter(triple.universe)))

    def function_arity(self, name: str) -> int:
        return len(next(iter(self.functions[name])))

    def check_signature(self, formulas: Iterable[Formula]) -> None:
        """Raise `LogicError` unless the structure interprets every symbol
        of the formulas at the arity they use it with. It interprets no
        propositional atom."""
        arities = {("predicate", name): self.predicate_arity(name) for name in self.predicates}
        arities |= {("function", name): self.function_arity(name) for name in self.functions}
        arities |= {("constant", name): 0 for name in self.constants}
        for phi in formulas:
            sig = syntax.signature(phi)
            for kinds, symbols in ((_FORMULA_KINDS, sig.formulas), (_TERM_KINDS, sig.terms)):
                for name, used in symbols:
                    kind = kinds[used > 0]
                    if (kind, name) not in arities:
                        raise LogicError(f"structure does not interpret {kind} {name!r}")
                    _check_arity(kind, name, arities[kind, name], used)


Assignment = Mapping[str, str]


def eval_term(t: Term, st: Structure, s: Assignment) -> str:
    kind = type(t)
    if kind is FreeVar or kind is BoundVar:
        try:
            return s[t.name]
        except KeyError:
            problem = "assignment does not cover variable" if kind is FreeVar else "dangling bound variable"
            raise LogicError(f"{problem} {t.name}") from None
    table = st.constants if kind is Const else st.functions
    if t.name not in table:
        raise LogicError(f"structure does not interpret {_TERM_KINDS[kind is FunApp]} {t.name!r}")
    if kind is Const:
        return table[t.name]
    args = tuple(eval_term(a, st, s) for a in t.args)
    if args not in table[t.name]:
        _check_arity("function", t.name, st.function_arity(t.name), len(args))
        raise LogicError(f"function {t.name!r} is not defined at {args!r}")
    return table[t.name][args]


def denote(phi: Formula, st: Structure, variables: tuple[str, ...] | None = None) -> Triple:
    """Triple over assignment tuples for the given variables (by default the
    free variables of phi, least index first), phi evaluated at each."""
    free = syntax.free_variables(phi)
    if variables is None:
        variables = sorted(free, key=syntax.var_index)
    if not free <= set(variables):
        raise LogicError("variable list does not cover the formula's free variables")
    if not all(map(syntax.is_free_var_name, variables)):
        raise LogicError("variable list names a variable outside the free-variable namespace")
    st.check_signature([phi])
    values = {}
    for point in itertools.product(st.domain, repeat=len(variables)):
        values[point] = _VALUE[evaluate(phi, _leaf(st, dict(zip(variables, point))), 1)]
    return Triple.from_values(values.keys(), values)


def _leaf(st: Structure, s: Assignment) -> Leaf:
    """The leaf for `matrix.evaluate` on one bit at the assignment s: the
    (zero, half) pair of an atom or a quantified formula whose free
    variables s covers, by the Tarskian clause. An atom reads its triple at
    the row its terms name. A quantifier evaluates its body under
    s[x -> m] for one domain element m after another and stops at the
    first instance that decides it, a 0 for `forall` and a 1 for `exists`.
    Otherwise it is 1/2 where every instance is 1/2; else 1 (`forall`), or
    0 where every instance is 0 and 1 where some is not (`exists`). A
    quantifier whose variable s already binds denotes its body, as
    `syntax.instantiate` lets the outer binder take the inner occurrences."""

    def leaf(psi: Formula) -> tuple[int, int]:
        kind = type(psi)
        if kind is PredAtom:
            return _POINT[st.predicates[psi.name].value_at(tuple(eval_term(t, st, s) for t in psi.args))]
        if psi.var in s:
            return evaluate(psi.body, _leaf(st, s), 1)
        decisive = _POINT[ZERO if kind is Forall else ONE]
        every_zero = every_half = 1
        for m in st.domain:
            pair = evaluate(psi.body, _leaf(st, {**s, psi.var: m}), 1)
            if pair == decisive:
                return decisive
            every_zero &= pair[0]
            every_half &= pair[1]
        return every_zero, every_half

    return leaf


def fo_sequent_satisfied(st: Structure, s: Assignment, seq: Sequent) -> bool:
    """True unless the assignment s, from free-variable names to domain
    elements, makes every antecedent formula designated and every
    succedent formula 0. The structure must interpret the sequent's
    signature (`Structure.check_signature`). Reading a variable that s does
    not cover, or a value outside the domain, raises `LogicError`; an
    answer that reads neither holds for every completion of s."""
    # Sorted sides fix which formula decides first, so the cost of a check
    # does not follow the hash seed's set order.
    return not falsified(seq.sorted_ante(), seq.sorted_succ(), _leaf(st, s), 1)


def falsifying_assignment(st: Structure, seq: Sequent) -> dict[str, str] | None:
    """The first assignment of the sequent's free variables that falsifies
    it, variables in index order and values in domain order; None if none
    does. Raises `LogicError` when the structure does not interpret the
    sequent's signature, whatever its values."""
    st.check_signature(seq.sorted_ante() + seq.sorted_succ())
    return unchecked_falsifying_assignment(st, seq)


def unchecked_falsifying_assignment(st: Structure, seq: Sequent) -> dict[str, str] | None:
    """`falsifying_assignment` for a structure already known to interpret
    the sequent's signature."""
    variables = sorted(seq.free_variables(), key=syntax.var_index)
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
            if len(functions[name]) != len(rows):
                raise LogicError(f"malformed structure JSON: function {name!r} lists an argument tuple twice")
        constants = dict(data.get("constants", {}))
        return Structure(domain=domain, predicates=predicates, functions=functions, constants=constants)
    except (KeyError, TypeError, AttributeError, ValueError, IndexError) as exc:
        raise LogicError(f"malformed structure JSON: {exc}") from exc
