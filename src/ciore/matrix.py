"""Three-valued matrix semantics: evaluation, satisfaction, validity.

The matrix has domain {1, 1/2, 0} with designated values {1, 1/2}; the
middle value is read as "both true and false", which is what makes the
logic paraconsistent while the consistency connective restores explosion
for formulas it marks.

The five truth functions are stated once, in `evaluate`, on a formula's
(zero, half) pair over a carrier: the points where it takes 0 and the
points where it takes 1/2, with 1 on the rest of `top`. Any carrier with
`&`, `|` and `^` works: one bit (a valuation in the matrix search, an
assignment in `fo_semantics`) or frozensets (the tests' `kernel_triple`).
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

from .errors import AtomCapExceeded, LogicError, UsageError
from .sequents import Sequent
from .syntax import And, Circ, Formula, Imp, Neg, Or, PredAtom, PropAtom, signature

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

    # Enum.__hash__ is Python code that hashes the name, run on every `_POINT`
    # lookup and countermodel table key; members are singletons, so identity
    # serves. No code iterates a set of values, so no order depends on it.
    __hash__ = object.__hash__


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


# One valuation, or one assignment in `fo_semantics`, on a one-bit carrier:
# the (zero, half) pair of each value, and the value of each pair.
_POINT = {ZERO: (1, 0), HALF: (0, 1), ONE: (0, 0)}
_VALUE = {point: value for value, point in _POINT.items()}
_POINTS = tuple(_POINT[value] for value in VALUE_ORDER)


def _valuation_leaf(v: Valuation) -> Leaf:
    return _atom_leaf(lambda name: _POINT[v[name]])


def eval_formula(phi: Formula, v: Valuation) -> TruthValue:
    """Evaluate a propositional formula under a valuation total on its atoms."""
    return _VALUE[evaluate(phi, _valuation_leaf(v), 1)]


def sequent_satisfied(v: Valuation, s: Sequent) -> bool:
    """True unless every antecedent formula is designated and no succedent one is."""
    return not falsified(s.ante, s.succ, _valuation_leaf(v), 1)


def leaf_values(ante: frozenset[Formula]) -> dict[Formula, TruthValue]:
    """The countermodel read off the antecedent of a saturated leaf, by both
    provers: an atom on the left is 1, or 1/2 where its negation is on the
    left too. An atom left out of the result is 0."""
    negated = {phi.body for phi in ante if type(phi) is Neg}
    return {phi: HALF if phi in negated else ONE for phi in ante if type(phi) is PropAtom or type(phi) is PredAtom}


# ---------------------------------------------------------------------------
# Exhaustive validity


def sequent_atoms(s: Sequent) -> tuple[str, ...]:
    """The names of the propositional atoms of s, sorted."""
    return tuple(sorted({name for phi in s.ante | s.succ for name, arity in signature(phi).formulas if not arity}))


def capped_atoms(s: Sequent, atom_cap: int | None) -> tuple[str, ...]:
    """The atoms of s, sorted; raises `AtomCapExceeded` when there are more
    than `atom_cap` (`DEFAULT_ATOM_CAP` when None), and `UsageError` for a
    cap below 1."""
    names = sequent_atoms(s)
    cap = DEFAULT_ATOM_CAP if atom_cap is None else atom_cap
    if cap < 1:
        raise UsageError(f"the atom cap must be a positive integer, got {cap}")
    if len(names) > cap:
        raise AtomCapExceeded(f"sequent has {len(names)} atoms, cap is {cap}")
    return names


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
    names = capped_atoms(s, atom_cap)
    if not s.propositional:
        raise LogicError(_PROPOSITIONAL_ONLY)
    ante, succ = s.sorted_ante(), s.sorted_succ()
    for combo in itertools.product(_POINTS, repeat=len(names)):
        if falsified(ante, succ, _atom_leaf(dict(zip(names, combo)).__getitem__), 1):
            return {name: _VALUE[point] for name, point in zip(names, combo)}
    return None


def matrix_valid(s: Sequent, atom_cap: int | None = None) -> bool:
    return find_countermodel(s, atom_cap) is None


def valuation_to_json(v: Valuation) -> dict[str, str]:
    return {name: v[name].value for name in sorted(v)}
