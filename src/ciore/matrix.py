"""Three-valued matrix semantics: evaluation, satisfaction, validity.

The matrix has domain {1, 1/2, 0} with designated values {1, 1/2}; the
middle value is read as "both true and false", which is what makes the
logic paraconsistent while the consistency connective restores explosion
for formulas it marks.
"""

from __future__ import annotations

import enum
import itertools
import os
from typing import Iterator, Mapping

from . import syntax
from .errors import AtomCapExceeded, LogicError, UsageError
from .sequents import Sequent
from .syntax import And, Circ, Formula, Imp, Neg, Or, PropAtom

DEFAULT_ATOM_CAP = 12


class TruthValue(enum.Enum):
    ZERO = "0"
    HALF = "1/2"
    ONE = "1"

    @property
    def rank(self) -> int:
        return {"0": 0, "1/2": 1, "1": 2}[self.value]

    @property
    def designated(self) -> bool:
        return self is not TruthValue.ZERO

    def __repr__(self) -> str:  # keeps countermodel dumps readable
        return self.value


ZERO, HALF, ONE = TruthValue.ZERO, TruthValue.HALF, TruthValue.ONE

#: Enumeration order for valuations: 0 < 1/2 < 1.
VALUE_ORDER = (ZERO, HALF, ONE)

# Tables indexed (left operand, right operand).
AND_TABLE = {
    (ONE, ONE): ONE, (ONE, HALF): ONE, (ONE, ZERO): ZERO,
    (HALF, ONE): ONE, (HALF, HALF): HALF, (HALF, ZERO): ZERO,
    (ZERO, ONE): ZERO, (ZERO, HALF): ZERO, (ZERO, ZERO): ZERO,
}
OR_TABLE = {
    (ONE, ONE): ONE, (ONE, HALF): ONE, (ONE, ZERO): ONE,
    (HALF, ONE): ONE, (HALF, HALF): HALF, (HALF, ZERO): ONE,
    (ZERO, ONE): ONE, (ZERO, HALF): ONE, (ZERO, ZERO): ZERO,
}
IMP_TABLE = {
    (ONE, ONE): ONE, (ONE, HALF): ONE, (ONE, ZERO): ZERO,
    (HALF, ONE): ONE, (HALF, HALF): HALF, (HALF, ZERO): ZERO,
    (ZERO, ONE): ONE, (ZERO, HALF): ONE, (ZERO, ZERO): ONE,
}
NEG_TABLE = {ONE: ZERO, HALF: HALF, ZERO: ONE}
CIRC_TABLE = {ONE: ONE, HALF: ZERO, ZERO: ONE}

Valuation = Mapping[str, TruthValue]


def eval_formula(phi: Formula, v: Valuation) -> TruthValue:
    """Evaluate a propositional formula under a valuation total on its atoms."""
    if isinstance(phi, PropAtom):
        try:
            return v[phi.name]
        except KeyError:
            raise LogicError(f"valuation does not assign atom {phi.name!r}") from None
    if isinstance(phi, Neg):
        return NEG_TABLE[eval_formula(phi.body, v)]
    if isinstance(phi, Circ):
        return CIRC_TABLE[eval_formula(phi.body, v)]
    if isinstance(phi, And):
        return AND_TABLE[eval_formula(phi.left, v), eval_formula(phi.right, v)]
    if isinstance(phi, Or):
        return OR_TABLE[eval_formula(phi.left, v), eval_formula(phi.right, v)]
    if isinstance(phi, Imp):
        return IMP_TABLE[eval_formula(phi.left, v), eval_formula(phi.right, v)]
    raise LogicError("matrix evaluation is propositional; no quantifiers or predicates")


def satisfies(v: Valuation, phi: Formula) -> bool:
    return eval_formula(phi, v).designated


def sequent_satisfied(v: Valuation, s: Sequent) -> bool:
    """True unless every antecedent formula is designated and no succedent one is."""
    return any(not satisfies(v, g) for g in s.ante) or any(satisfies(v, d) for d in s.succ)


# ---------------------------------------------------------------------------
# Exhaustive validity


def effective_atom_cap(atom_cap: int | None) -> int:
    """The given cap, else CIORE_ATOM_CAP, else the default; a positive integer."""
    if atom_cap is None:
        env = os.environ.get("CIORE_ATOM_CAP")
        if not env:
            return DEFAULT_ATOM_CAP
        try:
            atom_cap = int(env)
        except ValueError:
            atom_cap = 0
        if atom_cap < 1:
            raise UsageError(f"CIORE_ATOM_CAP must be a positive integer, got {env!r}")
    elif atom_cap < 1:
        raise UsageError(f"the atom cap must be a positive integer, got {atom_cap}")
    return atom_cap


def sequent_atoms(s: Sequent) -> tuple[str, ...]:
    names: set[str] = set()
    for phi in s.ante | s.succ:
        names |= syntax.atoms(phi)
    return tuple(sorted(names))


def valuations(names: tuple[str, ...]) -> Iterator[dict[str, TruthValue]]:
    """All valuations over the given atoms, lexicographic by atom name with
    value order 0 < 1/2 < 1 (last atom varies fastest)."""
    for combo in itertools.product(VALUE_ORDER, repeat=len(names)):
        yield dict(zip(names, combo))


def find_countermodel(s: Sequent, atom_cap: int | None = None) -> dict[str, TruthValue] | None:
    """First falsifying valuation in the fixed enumeration order, or None."""
    names = sequent_atoms(s)
    cap = effective_atom_cap(atom_cap)
    if len(names) > cap:
        raise AtomCapExceeded(f"sequent has {len(names)} atoms, cap is {cap}")
    for v in valuations(names):
        if not sequent_satisfied(v, s):
            return v
    return None


def matrix_valid(s: Sequent, atom_cap: int | None = None) -> bool:
    return find_countermodel(s, atom_cap) is None


def valuation_to_json(v: Valuation) -> dict[str, str]:
    return {name: v[name].value for name in sorted(v)}


def valuation_from_json(data: Mapping[str, str]) -> dict[str, TruthValue]:
    return {name: TruthValue(value) for name, value in data.items()}
