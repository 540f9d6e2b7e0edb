"""Reference evaluators kept apart from the package, for checking its verdicts.

Truth values are ranks 0 (false), 1 (1/2, both) and 2 (true); the designated
values are 1/2 and 1. The tables are the ones the README and `ciore selftest`
state; evaluation is pointwise, one valuation or assignment at a time, so it
shares no code with the package's matrix enumeration or triple algebra.
"""

from __future__ import annotations

import itertools

from ciore.syntax import And, BoundVar, Circ, Exists, Forall, FreeVar, Imp, Neg, Or, PredAtom, PropAtom

F, H, T = 0, 1, 2
RANK = {"0": F, "1/2": H, "1": T}
NEG = {T: F, H: H, F: T}
CIRC = {T: T, H: F, F: T}


def conj(a: int, b: int) -> int:
    if F in (a, b):
        return F
    return H if a == b == H else T


def disj(a: int, b: int) -> int:
    if a == b == F:
        return F
    return H if a == b == H else T


def imp(a: int, b: int) -> int:
    if a == F:
        return T
    if b == F:
        return F
    return H if a == b == H else T


BINARY = {And: conj, Or: disj, Imp: imp}


def forall_value(values: set[int]) -> int:
    if F in values:
        return F
    return T if T in values else H


def exists_value(values: set[int]) -> int:
    if values == {H}:
        return H
    if values == {F}:
        return F
    return T


def prop_atoms(phi, out: set[str] | None = None) -> set[str]:
    out = set() if out is None else out
    if isinstance(phi, PropAtom):
        out.add(phi.name)
    elif isinstance(phi, (Neg, Circ)):
        prop_atoms(phi.body, out)
    else:
        prop_atoms(phi.left, out)
        prop_atoms(phi.right, out)
    return out


def sequent_atoms(s) -> list[str]:
    names: set[str] = set()
    for phi in s.ante | s.succ:
        prop_atoms(phi, names)
    return sorted(names)


def prop_value(phi, v: dict[str, int]) -> int:
    if isinstance(phi, PropAtom):
        return v[phi.name]
    if isinstance(phi, Neg):
        return NEG[prop_value(phi.body, v)]
    if isinstance(phi, Circ):
        return CIRC[prop_value(phi.body, v)]
    return BINARY[type(phi)](prop_value(phi.left, v), prop_value(phi.right, v))


def falsifies(v: dict[str, int], s) -> bool:
    """True when every antecedent formula is designated and no succedent one is."""
    return all(prop_value(g, v) != F for g in s.ante) and all(prop_value(d, v) == F for d in s.succ)


def valuation_index(names: list[str], v: dict[str, int]) -> int:
    """Position of a valuation in the enumeration 0 < 1/2 < 1 over the sorted
    atoms, last atom fastest, counting from 0."""
    index = 0
    for name in names:
        index = index * 3 + v[name]
    return index


def valuations_examined(names: list[str], countermodel: dict[str, int] | None) -> int:
    """Valuations an in-order search looks at: up to and including the first
    countermodel, or all 3^n when the goal is valid."""
    if countermodel is None:
        return 3 ** len(names)
    return valuation_index(names, countermodel) + 1


# ---------------------------------------------------------------------------
# First order: pointwise over one assignment; bound variables live in `env`.
# A `tally` list, when given, counts the subformula evaluations in tally[0].


def _element(t, env: dict[str, str]) -> str:
    if isinstance(t, (FreeVar, BoundVar)):
        return env[t.name]
    raise ValueError(f"the reference evaluator takes variables only, not {t!r}")


def fo_value(phi, structure, env: dict[str, str], tally: list[int] | None = None) -> int:
    if tally is not None:
        tally[0] += 1
    if isinstance(phi, PredAtom):
        triple = structure.predicates[phi.name]
        row = tuple(_element(t, env) for t in phi.args)
        if row in triple.plus:
            return T
        if row in triple.circ:
            return H
        if row in triple.minus:
            return F
        raise ValueError(f"{phi.name}{row} lies outside the predicate's tuple space")
    if isinstance(phi, Neg):
        return NEG[fo_value(phi.body, structure, env, tally)]
    if isinstance(phi, Circ):
        return CIRC[fo_value(phi.body, structure, env, tally)]
    if isinstance(phi, (Forall, Exists)):
        values = {fo_value(phi.body, structure, {**env, phi.var: m}, tally) for m in structure.domain}
        return forall_value(values) if isinstance(phi, Forall) else exists_value(values)
    left = fo_value(phi.left, structure, env, tally)
    return BINARY[type(phi)](left, fo_value(phi.right, structure, env, tally))


def fo_falsifies(structure, assignment: dict[str, str], s, tally: list[int] | None = None) -> bool:
    return all(fo_value(g, structure, assignment, tally) != F for g in s.ante) and all(
        fo_value(d, structure, assignment, tally) == F for d in s.succ
    )


def fo_valid_in(structure, s, tally: list[int] | None = None) -> bool:
    """No assignment of the goal's free variables falsifies it."""
    names = sorted(s.free_variables())
    return not any(
        fo_falsifies(structure, dict(zip(names, combo)), s, tally)
        for combo in itertools.product(structure.domain, repeat=len(names))
    )
