import random

import pytest

from ciore.errors import LogicError
from ciore.parsing import parse_formula
from ciore.syntax import (
    And,
    BoundVar,
    Circ,
    Const,
    Exists,
    Forall,
    Formula,
    FreeVar,
    FunApp,
    Imp,
    Neg,
    Or,
    PredAtom,
    PropAtom,
    atoms,
    bind,
    bound_names,
    formula_key,
    free_variables,
    fresh_free_variable,
    instantiate,
    is_literal,
    is_propositional,
    subformulas,
    substitute,
)

from helpers import (
    Signature,
    complexity,
    gsub,
    random_term_formula,
    reference_bound_names,
    reference_formula_key,
    reference_free_variables,
    reference_subformulas,
    validate,
    weight,
)

p, q = PropAtom("p"), PropAtom("q")


def P(*terms):
    return PredAtom("P", terms)


def test_substitute_single_occurrence():
    assert substitute(P(FreeVar("a1")), "a1", Const("c")) == P(Const("c"))


def test_substitute_leaves_other_variables():
    phi = And(P(FreeVar("a1")), PredAtom("Q", (FreeVar("a2"),)))
    got = substitute(phi, "a1", FunApp("f", (FreeVar("a2"),)))
    assert got == And(P(FunApp("f", (FreeVar("a2"),))), PredAtom("Q", (FreeVar("a2"),)))


def test_substitute_identity():
    phi = Forall("x", PredAtom("P", (BoundVar("x"), FreeVar("a1"))))
    assert substitute(phi, "a1", FreeVar("a1")) == phi


def test_substitute_rejects_bound_terms():
    with pytest.raises(LogicError):
        substitute(P(FreeVar("a1")), "a1", BoundVar("x"))


def test_bind_forall():
    assert bind(P(FreeVar("a1")), "a1", "x", Forall) == Forall("x", P(BoundVar("x")))


def test_bind_exists_partial():
    phi = Imp(P(FreeVar("a1")), P(FreeVar("a2")))
    got = bind(phi, "a1", "x", Exists)
    assert got == Exists("x", Imp(P(BoundVar("x")), P(FreeVar("a2"))))


def test_bind_rejects_used_bound_name():
    phi = Forall("x", P(BoundVar("x")))
    with pytest.raises(LogicError):
        bind(phi, "a1", "x", Forall)


def test_bind_inverse_of_instantiate():
    phi = Or(P(FreeVar("a1")), Neg(P(FreeVar("a1"))))
    quantified = bind(phi, "a1", "x", Forall)
    assert instantiate(quantified, FreeVar("a1")) == phi


def test_complexity():
    assert complexity(p) == 0
    assert complexity(Neg(p)) == 1
    assert complexity(Circ(And(p, q))) == 2
    assert complexity(Forall("x", P(BoundVar("x")))) == 1


def test_weight_literal_is_zero():
    assert weight(p) == 0
    assert weight(Neg(p)) == 0


def test_weight_clauses():
    assert weight(Circ(p)) == 1
    assert weight(Neg(And(p, q))) == 2
    assert weight(Neg(Circ(p))) == 2
    assert weight(Neg(Neg(p))) == 1
    assert weight(And(p, q)) == 1


def test_weight_zero_iff_literal():
    pool = [parse_formula(t) for t in ["p", "~p", "o p", "~~p", "p & q", "~(p | q)", "~o p", "p -> q"]]
    for phi in pool:
        assert (weight(phi) == 0) == is_literal(phi)


def test_weight_rejects_quantifiers():
    with pytest.raises(LogicError):
        weight(Forall("x", P(BoundVar("x"))))


def test_gsub_atom():
    assert gsub(p) == frozenset({p})


def test_gsub_circ_includes_negation():
    assert {Circ(p), Neg(p), p} <= gsub(Circ(p))


def test_gsub_negated_disjunction():
    got = gsub(Neg(Or(p, q)))
    assert {Neg(Or(p, q)), Neg(p), Neg(q), p, q} <= got


def test_gsub_closure_clauses():
    # spot-check all five closure conditions on a compound formula
    phi = Neg(And(Circ(p), Neg(q)))
    g = gsub(phi)
    assert phi in g
    assert gsub(And(Circ(p), Neg(q))) <= g
    assert gsub(Neg(Circ(p))) <= g and gsub(Neg(Neg(q))) <= g
    assert gsub(Neg(p)) <= gsub(Circ(p))


def test_gsub_size_bound():
    for text in ["o (p & q)", "~(p -> o q)", "~~(p | ~q)", "o o p", "~(p & (q | p))"]:
        phi = parse_formula(text)
        occurrences = sum(1 for _ in subformulas(phi))
        assert len(gsub(phi)) <= 4 * occurrences


def test_free_variables_and_fresh():
    phi = Forall("x", PredAtom("P", (BoundVar("x"), FreeVar("a2"))))
    assert free_variables(phi) == {"a2"}
    assert fresh_free_variable({"a1", "a2"}) == "a3"
    assert fresh_free_variable(set()) == "a1"


def test_substitute_round_trip():
    phi = And(P(FreeVar("a1")), Neg(P(FreeVar("a1"))))
    fresh = fresh_free_variable(free_variables(phi))
    there = substitute(phi, "a1", FreeVar(fresh))
    assert substitute(there, fresh, FreeVar("a1")) == phi


def test_namespace_discipline():
    with pytest.raises(LogicError):
        FreeVar("x")
    with pytest.raises(LogicError):
        BoundVar("a1")
    with pytest.raises(LogicError):
        Forall("a1", P(FreeVar("a2")))


def test_validate_shadowing_and_scope():
    inner = Forall("x", P(BoundVar("x")))
    with pytest.raises(LogicError):
        validate(Forall("x", inner))
    with pytest.raises(LogicError):
        validate(P(BoundVar("x")))
    validate(Forall("x", Exists("y", PredAtom("R", (BoundVar("x"), BoundVar("y"))))))


def test_signature_invariants():
    with pytest.raises(LogicError):
        Signature(predicates={"P": 0})
    with pytest.raises(LogicError):
        Signature(predicates={"P": 1}, functions={"P": 1})
    sig = Signature(predicates={"P": 1}, functions={"f": 2}, constants=frozenset({"c"}))
    validate(P(FunApp("f", (Const("c"), FreeVar("a1")))), sig)
    with pytest.raises(LogicError):
        validate(P(FunApp("f", (Const("c"),))), sig)


def test_formula_key_total_order():
    pool: list[Formula] = [p, q, Neg(p), Circ(p), And(p, q), Or(p, q), Imp(p, q), Forall("x", P(BoundVar("x")))]
    keys = [formula_key(f) for f in pool]
    assert len(set(keys)) == len(keys)
    assert sorted(pool, key=formula_key) == sorted(pool, key=formula_key)


def test_walks_agree_with_the_recursive_references():
    rng = random.Random(11)
    for _ in range(3000):
        phi = random_term_formula(rng, 5)
        assert list(subformulas(phi)) == list(reference_subformulas(phi))
        assert formula_key(phi) == reference_formula_key(phi)
        assert free_variables(phi) == reference_free_variables(phi)
        assert bound_names(phi) == reference_bound_names(phi)


def test_walks_do_not_recurse():
    # built directly: the parser and the formula hash still recurse
    phi = PredAtom("P", (FreeVar("a1"),))
    for _ in range(5000):
        phi = Neg(phi)
    assert sum(1 for _ in subformulas(phi)) == 5001
    assert free_variables(phi) == frozenset({"a1"})
    assert bound_names(phi) == frozenset()
    assert atoms(phi) == frozenset()
    assert not is_propositional(phi)
