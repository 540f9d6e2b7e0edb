"""The signature stored on each formula node, against the walks over every
subformula and term that its readers made before it existed."""

import itertools
import random

import pytest

from ciore.errors import LogicError
from ciore.fo_prover import _check_fo_input
from ciore.fo_semantics import Structure, Triple
from ciore.matrix import VALUE_ORDER, sequent_atoms
from ciore.parsing import parse_formula, parse_sequent
from ciore.randgen import random_fo_formula, random_sequent
from ciore.sequents import Sequent
from ciore.syntax import And, Const, Exists, Forall, FreeVar, FunApp, Neg, Or, PredAtom, PropAtom, predicate_arities, signature

from helpers import (
    random_term_formula,
    reference_check_fo_input,
    reference_check_signature,
    reference_predicate_arities,
    reference_propositional,
    reference_sequent_atoms,
)


def _outcome(check, *args):
    """What check returns, or the message of the `LogicError` it raises."""
    try:
        return "value", check(*args)
    except LogicError as exc:
        return "error", str(exc)


def _random_structure(rng: random.Random) -> Structure:
    """A structure over two elements interpreting a random subset of the
    symbols `random_term_formula` uses, each at a random arity."""
    domain = ("m0", "m1")
    predicates, functions = {}, {}
    for name in ("P", "Q"):
        if rng.random() < 0.8:
            space = tuple(itertools.product(domain, repeat=rng.randint(1, 3)))
            predicates[name] = Triple.from_values(space, {row: rng.choice(VALUE_ORDER) for row in space})
    for name in ("f", "g"):
        if rng.random() < 0.8:
            rows = itertools.product(domain, repeat=rng.randint(1, 3))
            functions[name] = {row: rng.choice(domain) for row in rows}
    constants = {name: rng.choice(domain) for name in ("c", "d") if rng.random() < 0.8}
    return Structure(domain, predicates, functions, constants)


_HAND_MADE = [
    "p, P(a1) |- q",
    "P(c) |- Q(f(a1))",
    "P(a1, a1), Q(a1), Q(a1, a1), P(a1) |-",
    "P(a1) |- P(a1, a2) & p",
    "forall x. P(g(x, c)) & Q(d) |- exists y. R(f(f(y)), y)",
    "|- (p -> P(a1)) | o ~q",
    "P(f(c, g(d))), P(f(a1)) |- Q(g(a1, a2))",
    "o (forall x. P(x)), ~(exists y. Q(y, y)) |- P(a1)",
]


def _goals() -> list[Sequent]:
    goals = [parse_sequent(text) for text in _HAND_MADE]
    rng = random.Random(25)
    for _ in range(150):
        goals.append(random_sequent(rng, ("p", "q", "r", "s"), 4))
        phis = [random_fo_formula(rng, {"P": 1, "R": 2}, ("a1", "a2"), 3) for _ in range(2)]
        goals.append(Sequent.make(phis[:1], phis[1:]))
        phis = [random_term_formula(rng, 4) for _ in range(rng.randint(1, 4))]
        goals.append(Sequent.make(phis[: len(phis) // 2], phis[len(phis) // 2 :]))
    return goals


def test_readers_agree_with_the_walks():
    rng = random.Random(7)
    structures = [_random_structure(rng) for _ in range(12)]
    kinds = set()
    for s in _goals():
        assert s.propositional == reference_propositional(s), s
        assert sequent_atoms(s) == reference_sequent_atoms(s), s
        formulas = s.sorted_ante() + s.sorted_succ()
        assert _outcome(predicate_arities, formulas) == _outcome(reference_predicate_arities, formulas), s
        checked = _outcome(_check_fo_input, s)
        assert checked == _outcome(reference_check_fo_input, s), s
        kinds.add(checked[1] if checked[0] == "error" else "accepted")
        for st in structures:
            got = _outcome(st.check_signature, formulas)
            assert got == _outcome(reference_check_signature, st, formulas), (s, st)
            kinds.add(got[1].split(" '")[0] if got[0] == "error" else "interpreted")
    # every fault of both checks occurs among the goals
    assert {
        "accepted",
        "the first-order prover takes predicate atoms only",
        "the first-order prover does not handle function symbols",
        "the first-order prover does not handle constants",
        "interpreted",
        "structure does not interpret propositional atom",
        "structure does not interpret predicate",
        "structure does not interpret function",
        "structure does not interpret constant",
        "predicate",  # at another arity than the structure's
        "function",
    } <= kinds, kinds
    assert any(kind.startswith("predicate ") and kind.endswith("used with two arities") for kind in kinds)


def test_symbols_are_listed_at_their_first_occurrence():
    sig = signature(parse_formula("forall x. P(g(x, c), f(c)) & (q | P(d)) -> q & R(a1) & P(c, c)"))
    assert sig.formulas == (("P", 2), ("q", 0), ("P", 1), ("R", 1))
    assert sig.terms == (("g", 2), ("c", 0), ("f", 1), ("d", 0))
    assert sig.quantified
    assert signature(parse_formula("~o (p & ~p) | q")) == ((("p", 0), ("q", 0)), (), False)


def test_the_first_fault_is_the_first_occurrence():
    with pytest.raises(LogicError, match="predicate 'P' used with two arities"):
        predicate_arities([parse_formula("Q(a1) & (P(a1) | Q(a1))"), parse_formula("Q(a1) | P(a1, a1) | Q(a1, a1)")])
    with pytest.raises(LogicError, match="function symbols"):
        _check_fo_input(parse_sequent("P(f(c)) |-"))
    with pytest.raises(LogicError, match="constants"):
        _check_fo_input(parse_sequent("P(c, f(a1)) |-"))
    with pytest.raises(LogicError, match="predicate atoms only"):
        _check_fo_input(parse_sequent("P(c) & p |-"))


def test_equal_signatures_are_one_object():
    rng = random.Random(12)
    shared: dict = {}
    for _ in range(3000):
        sig = signature(random_term_formula(rng, 5))
        assert shared.setdefault(sig, sig) is sig
    # a connective over one body shares its body's signature
    phi = parse_formula("P(a1) & forall x. Q(x)")
    assert signature(Neg(phi)) is signature(phi)
    assert signature(And(phi, phi)) is signature(phi)
    assert signature(Or(phi, PredAtom("P", (FreeVar("a2"),)))) is signature(phi)


@pytest.mark.parametrize("shape", ["negations", "conjunctions"])
def test_deep_formulas_build_their_signature_without_recursion(shape):
    # built directly: the parser still recurses
    phi = PredAtom("P", (FunApp("f", (Const("c"),)),))
    for i in range(5000):
        if shape == "negations":
            phi = Neg(phi)
        else:
            phi = And(PropAtom(f"p{i % 7}"), Exists("x", phi) if i % 1000 == 0 else phi)
    sig = signature(phi)
    assert sig.terms == (("f", 1), ("c", 0))
    assert sig.quantified == (shape == "conjunctions")
    atoms = dict.fromkeys((f"p{i % 7}", 0) for i in reversed(range(5000))) if shape == "conjunctions" else {}
    assert sig.formulas == (*atoms, ("P", 1))
    assert not Sequent.make((), (phi,)).propositional
    assert signature(Forall("x", phi)).quantified
