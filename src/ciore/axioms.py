"""Axiom schemata of the Hilbert presentations, as formula builders.

Used by the self-test suites and by the validity regression tests; the
sequent machinery never consumes schemata directly.
"""

from __future__ import annotations

from typing import Callable

from .syntax import And, Circ, Formula, Imp, Neg, Or, iff


def _ax1(a: Formula, b: Formula, c: Formula) -> Formula:
    return Imp(a, Imp(b, a))


def _ax2(a: Formula, b: Formula, c: Formula) -> Formula:
    return Imp(Imp(a, Imp(b, c)), Imp(Imp(a, b), Imp(a, c)))


def _ax3(a: Formula, b: Formula, c: Formula) -> Formula:
    return Imp(a, Imp(b, And(a, b)))


def _ax4(a: Formula, b: Formula, c: Formula) -> Formula:
    return Imp(And(a, b), a)


def _ax5(a: Formula, b: Formula, c: Formula) -> Formula:
    return Imp(And(a, b), b)


def _ax6(a: Formula, b: Formula, c: Formula) -> Formula:
    return Imp(a, Or(a, b))


def _ax7(a: Formula, b: Formula, c: Formula) -> Formula:
    return Imp(b, Or(a, b))


def _ax8(a: Formula, b: Formula, c: Formula) -> Formula:
    return Imp(Imp(a, c), Imp(Imp(b, c), Imp(Or(a, b), c)))


def _ax9(a: Formula, b: Formula, c: Formula) -> Formula:
    return Or(Imp(a, b), a)


def _ax10(a: Formula, b: Formula, c: Formula) -> Formula:
    return Or(a, Neg(a))


def _bc1(a: Formula, b: Formula, c: Formula) -> Formula:
    return Imp(Circ(a), Imp(a, Imp(Neg(a), b)))


def _ci(a: Formula, b: Formula, c: Formula) -> Formula:
    return Imp(Neg(Circ(a)), And(a, Neg(a)))


def _cf(a: Formula, b: Formula, c: Formula) -> Formula:
    return iff(Neg(Neg(a)), a)


def _co1(a: Formula, b: Formula, c: Formula) -> Formula:
    return iff(Or(Circ(a), Circ(b)), Circ(And(a, b)))


def _co2(a: Formula, b: Formula, c: Formula) -> Formula:
    return iff(Or(Circ(a), Circ(b)), Circ(Or(a, b)))


def _co3(a: Formula, b: Formula, c: Formula) -> Formula:
    return iff(Or(Circ(a), Circ(b)), Circ(Imp(a, b)))


#: The sixteen propositional schemata, in their customary order.
PROPOSITIONAL_SCHEMATA: dict[str, Callable[[Formula, Formula, Formula], Formula]] = {
    "Ax1": _ax1,
    "Ax2": _ax2,
    "Ax3": _ax3,
    "Ax4": _ax4,
    "Ax5": _ax5,
    "Ax6": _ax6,
    "Ax7": _ax7,
    "Ax8": _ax8,
    "Ax9": _ax9,
    "Ax10": _ax10,
    "bc1": _bc1,
    "ci": _ci,
    "cf": _cf,
    "co1": _co1,
    "co2": _co2,
    "co3": _co3,
}
