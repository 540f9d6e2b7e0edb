"""Three-valued matrix semantics: evaluation, satisfaction, validity.

The matrix has domain {1, 1/2, 0} with designated values {1, 1/2}; the
middle value is read as "both true and false", which is what makes the
logic paraconsistent while the consistency connective restores explosion
for formulas it marks.

The five truth functions are stated once, in `evaluate`, on a formula's
(zero, half) pair over a carrier: the points where it takes 0 and the
points where it takes 1/2, with 1 on the rest of `top`. Any carrier with
`&`, `|` and `^` works: a single bit (one valuation, as in the matrix
search) or a frozenset of assignment tuples (`fo_semantics.denote`).
"""

from __future__ import annotations

import enum
import itertools
import os
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

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
    def designated(self) -> bool:
        return self is not TruthValue.ZERO

    def __repr__(self) -> str:  # keeps countermodel dumps readable
        return self.value


ZERO, HALF, ONE = TruthValue.ZERO, TruthValue.HALF, TruthValue.ONE

#: Enumeration order for valuations: 0 < 1/2 < 1.
VALUE_ORDER = (ZERO, HALF, ONE)

Valuation = Mapping[str, TruthValue]
Points = TypeVar("Points")
Leaf = Callable[[Formula], tuple]


def evaluate(phi: Formula, leaf: Leaf, top: Points) -> tuple[Points, Points]:
    """The (zero, half) pair of phi over the carrier `top`. `leaf` gives the
    pair of each subformula that is not a connective (atoms, quantifiers)."""
    kind = type(phi)  # the formula classes have no subclasses
    if kind is Neg:
        zero, half = evaluate(phi.body, leaf, top)
        return top ^ (zero | half), half
    if kind is Circ:
        zero, half = evaluate(phi.body, leaf, top)
        return half, top ^ top
    if kind is And or kind is Or or kind is Imp:
        zero1, half1 = evaluate(phi.left, leaf, top)
        zero2, half2 = evaluate(phi.right, leaf, top)
        if kind is And:
            return zero1 | zero2, half1 & half2
        if kind is Or:
            return zero1 & zero2, half1 & half2
        return (top ^ zero1) & zero2, half1 & half2
    return leaf(phi)


def falsified(ante: Iterable[Formula], succ: Iterable[Formula], leaf: Leaf, top: Points) -> Points:
    """The points where every formula of `ante` is designated and every
    formula of `succ` is 0. Formulas after the one that leaves no point are
    not evaluated."""
    points = top
    for phi in ante:
        points &= top ^ evaluate(phi, leaf, top)[0]
        if not points:
            return points
    for phi in succ:
        points &= evaluate(phi, leaf, top)[0]
        if not points:
            return points
    return points


_PROPOSITIONAL_ONLY = "matrix evaluation is propositional; no quantifiers or predicates"


def _atom_leaf(lookup: Callable[[str], tuple]) -> Leaf:
    def leaf(phi: Formula) -> tuple:
        if not isinstance(phi, PropAtom):
            raise LogicError(_PROPOSITIONAL_ONLY)
        try:
            return lookup(phi.name)
        except KeyError:
            raise LogicError(f"valuation does not assign atom {phi.name!r}") from None

    return leaf


# One valuation on a one-bit carrier.
_POINT = {ZERO: (1, 0), HALF: (0, 1), ONE: (0, 0)}
_POINTS = tuple(_POINT[value] for value in VALUE_ORDER)


def _valuation_leaf(v: Valuation) -> Leaf:
    return _atom_leaf(lambda name: _POINT[v[name]])


def eval_formula(phi: Formula, v: Valuation) -> TruthValue:
    """Evaluate a propositional formula under a valuation total on its atoms."""
    zero, half = evaluate(phi, _valuation_leaf(v), 1)
    return ZERO if zero else HALF if half else ONE


def sequent_satisfied(v: Valuation, s: Sequent) -> bool:
    """True unless every antecedent formula is designated and no succedent one is."""
    return not falsified(s.ante, s.succ, _valuation_leaf(v), 1)


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
    return tuple(sorted(frozenset().union(*map(syntax.atoms, s.ante | s.succ))))


def valuations(names: tuple[str, ...]) -> Iterator[dict[str, TruthValue]]:
    """All valuations over the given atoms, lexicographic by atom name with
    value order 0 < 1/2 < 1 (last atom varies fastest)."""
    for combo in itertools.product(VALUE_ORDER, repeat=len(names)):
        yield dict(zip(names, combo))


def find_countermodel(s: Sequent, atom_cap: int | None = None) -> dict[str, TruthValue] | None:
    """First falsifying valuation in the fixed enumeration order, or None.

    The kernel runs on one bit per valuation, in `valuations()` order, with
    each atom's leaf read from its (zero, half) point. The formulas are
    taken in `formula_key` order, so the cost of a search does not follow
    the hash seed's set order."""
    names = sequent_atoms(s)
    cap = effective_atom_cap(atom_cap)
    if len(names) > cap:
        raise AtomCapExceeded(f"sequent has {len(names)} atoms, cap is {cap}")
    if not all(syntax.is_propositional(phi) for phi in s.ante | s.succ):
        raise LogicError(_PROPOSITIONAL_ONLY)
    ante, succ = s.sorted_ante(), s.sorted_succ()
    for combo in itertools.product(_POINTS, repeat=len(names)):
        if falsified(ante, succ, _atom_leaf(dict(zip(names, combo)).__getitem__), 1):
            return {name: VALUE_ORDER[_POINTS.index(point)] for name, point in zip(names, combo)}
    return None


def matrix_valid(s: Sequent, atom_cap: int | None = None) -> bool:
    return find_countermodel(s, atom_cap) is None


def valuation_to_json(v: Valuation) -> dict[str, str]:
    return {name: v[name].value for name in sorted(v)}
