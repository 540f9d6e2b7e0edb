import copy
import itertools
import pickle
import random
import sys

import pytest

from ciore import syntax
from ciore.errors import LogicError
from ciore.parsing import format_formula, parse_formula
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
    fresh_free_variables,
    instantiate,
    is_literal,
    is_propositional,
    parts,
    quantifier_depth,
    subformulas,
    substitute,
    terms,
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


@pytest.mark.parametrize(
    "phi, expected",
    [
        (p, ()),
        (P(FreeVar("a1")), ()),
        (Neg(p), (p,)),
        (Circ(q), (q,)),
        (And(p, q), (p, q)),
        (Or(q, p), (q, p)),
        (Imp(p, Neg(q)), (p, Neg(q))),
        (Forall("x", P(BoundVar("x"))), (P(BoundVar("x")),)),
        (Exists("x", Circ(p)), (Circ(p),)),
    ],
    ids=["PropAtom", "PredAtom", "Neg", "Circ", "And", "Or", "Imp", "Forall", "Exists"],
)
def test_parts_are_the_immediate_subformulas_left_to_right(phi, expected):
    assert parts(phi) == expected


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
    assert next(fresh_free_variables({"a1", "a2"})) == "a3"
    assert next(fresh_free_variables(set())) == "a1"
    assert list(itertools.islice(fresh_free_variables({"a2", "a4"}), 3)) == ["a1", "a3", "a5"]


def test_substitute_round_trip():
    phi = And(P(FreeVar("a1")), Neg(P(FreeVar("a1"))))
    fresh = next(fresh_free_variables(free_variables(phi)))
    there = substitute(phi, "a1", FreeVar(fresh))
    assert substitute(there, fresh, FreeVar("a1")) == phi


def test_namespace_discipline():
    with pytest.raises(LogicError):
        FreeVar("x")
    with pytest.raises(LogicError):
        BoundVar("a1")
    for quantifier in (Forall, Exists):
        with pytest.raises(LogicError, match="quantified variable 'a1' must not use the free-variable namespace"):
            quantifier("a1", P(FreeVar("a2")))


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


def test_keys_share_their_pairs():
    rng = random.Random(12)
    shared: dict = {}
    for _ in range(3000):
        for pair in formula_key(random_term_formula(rng, 5)):
            assert shared.setdefault(pair, pair) is pair


def test_walks_do_not_recurse():
    # built directly: the parser still recurses
    phi = PredAtom("P", (FreeVar("a1"),))
    for _ in range(5000):
        phi = Neg(phi)
    assert hash(phi) == hash((phi.body,))
    assert len(formula_key(phi)) == 5002
    assert sum(1 for _ in subformulas(phi)) == 5001
    assert free_variables(phi) == frozenset({"a1"})
    assert bound_names(phi) == frozenset()
    assert atoms(phi) == frozenset()
    assert not is_propositional(phi)


def test_free_variables_are_stored_on_the_node():
    rng = random.Random(11)
    for _ in range(3000):
        phi = random_term_formula(rng, 5)
        for f in [phi, *subformulas(phi)]:  # the top first, then its parts
            free = free_variables(f)
            assert free == reference_free_variables(f)
            assert free_variables(f) is free
    deep = PredAtom("P", (FreeVar("a1"),))
    for _ in range(5000):
        deep = Neg(deep)
    free = free_variables(deep)
    assert free_variables(deep) is free
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 6000)  # the reference walk recurses once per level
    try:
        assert free == reference_free_variables(deep)
    finally:
        sys.setrecursionlimit(limit)
    for phi in (Neg(Neg(P(FreeVar("a1")))), Forall("x", P(BoundVar("x"), FunApp("f", (FreeVar("a2"),))))):
        free = free_variables(phi)
        for same in (copy.copy(phi), copy.deepcopy(phi), pickle.loads(pickle.dumps(phi))):
            assert same is phi and free_variables(same) is free


def _fields(node) -> tuple:
    return tuple(getattr(node, name) for name in node.__match_args__)


def _rebuild(x):
    """x constructed afresh, bottom up, from its fields."""
    if isinstance(x, tuple):
        return tuple(map(_rebuild, x))
    if isinstance(x, syntax._Node):
        return type(x)(*map(_rebuild, _fields(x)))
    return x


def test_equal_constructions_are_one_node_hashed_as_a_dataclass():
    rng = random.Random(23)
    for _ in range(3000):
        phi = random_term_formula(rng, 5)
        assert _rebuild(phi) is phi
        for node in [*subformulas(phi), *terms(phi)]:
            # the hash of the field tuple, which a frozen dataclass also gives,
            # so frozenset order does not change
            assert hash(node) == hash(_fields(node))
    a1 = FreeVar("a1")
    assert FreeVar(name="a1") is a1
    assert PredAtom("P", args=(a1,)) is PredAtom(name="P", args=(a1,)) is P(a1)
    assert Forall(var="x", body=p) is Forall("x", p)
    assert And(right=q, left=p) is And(p, q)


def test_invalid_constructions_raise_and_leave_no_node():
    for _ in range(2):  # a second attempt raises again: no node was kept
        with pytest.raises(LogicError):
            FreeVar("x")
        with pytest.raises(LogicError):
            PredAtom("P", ())
        with pytest.raises(LogicError):
            Forall("a1", p)
    phi = Forall("x", PredAtom("P", (FreeVar("a1"), BoundVar("x"))))
    assert format_formula(phi) == "forall x. P(a1, x)"


def test_copy_deepcopy_and_pickle_return_the_interned_node():
    both = And(p, q)
    for phi in (both, Forall("x", Imp(P(BoundVar("x"), FunApp("f", (Const("c"),))), Neg(both)))):
        assert copy.copy(phi) is phi
        assert copy.deepcopy(phi) is phi
        assert pickle.loads(pickle.dumps(phi)) is phi
    assert And(p, q) is both
    assert (both.left, both.right) == (p, q)
    assert format_formula(both) == "p & q"


NODE_CLASSES = (FreeVar, BoundVar, Const, FunApp, PropAtom, PredAtom, Neg, Circ, And, Or, Imp, Forall, Exists)


def test_every_node_class_is_made_once_by_the_metaclass():
    a1 = FreeVar("a1")
    samples = [a1, BoundVar("x"), Const("c"), FunApp("f", (a1,)), p, P(a1), Neg(p), Circ(p)]
    samples += [And(p, q), Or(p, q), Imp(p, q), Forall("x", p), Exists("x", p)]
    assert [type(node) for node in samples] == list(NODE_CLASSES)
    for kind, node in zip(NODE_CLASSES, samples):
        assert type(kind) is syntax._Interned
        assert kind.__slots__ == kind.__match_args__ == tuple(kind.__annotations__)
        assert kind.__bases__ == (syntax._Node,)
        assert not hasattr(node, "__dict__")


def test_a_new_node_class_interns_without_a_decorator():
    class Pair(syntax._Node):
        first: int
        second: int

    assert Pair(1, 2) is Pair(1, 2) is Pair(second=2, first=1)
    assert Pair(1, 2) is not Pair(2, 1)
    assert repr(Pair(1, 2)) == "Pair(first=1, second=2)"
    assert not hasattr(Pair(1, 2), "__dict__")
    with pytest.raises(AttributeError):
        Pair(1, 2).first = 3


def test_quantifier_depth():
    for text, depth in [
        ("P(a1) & q", 0),
        ("forall x. P(x)", 1),
        ("(forall x. exists y. R(x, y)) -> exists y. forall x. R(x, y)", 2),
        ("~o (forall x. P(x) | exists y. forall z. R(y, z))", 3),
        ("exists x. (forall y. P(y)) & P(x)", 2),
    ]:
        assert quantifier_depth(parse_formula(text)) == depth, text
    nested = "".join(f"forall y{i}. " for i in range(1, 91)) + "P(y1)"
    assert quantifier_depth(parse_formula(nested)) == 90
