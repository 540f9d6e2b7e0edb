import itertools
import random
import re
import tracemalloc

import pytest

from ciore.errors import LogicError
from ciore.fo_semantics import (
    Structure,
    Triple,
    denote,
    enumerate_structures,
    eval_term,
    falsifying_assignment,
    fo_sequent_satisfied,
    fo_sequent_valid_in,
    structure_from_json,
    structure_to_json,
)
from ciore.matrix import HALF, ONE, VALUE_ORDER, ZERO
from ciore.parsing import parse_formula, parse_sequent
from ciore.sequents import Sequent
from ciore.syntax import (
    And,
    BoundVar,
    Circ,
    Const,
    Exists,
    Forall,
    FreeVar,
    FunApp,
    Imp,
    Neg,
    Or,
    PredAtom,
    PropAtom,
)

from helpers import (
    AND_CELLS,
    IMP_CELLS,
    OR_CELLS,
    PROPOSITIONAL_SCHEMATA,
    all_unary_structures,
    binary_table,
    denote_components,
    kernel_triple,
    quantifier_axioms,
    structure_signature,
    tilde_exists,
    tilde_forall,
    tuple_space,
    valid_in,
    var_sorted,
)

p, q = PropAtom("p"), PropAtom("q")


def _value_at(phi, st, s):
    """phi's value at the assignment s, read off one-point sequent checks:
    0 where |- phi is falsified, else 1/2 where |- o phi is (o phi is 0
    exactly where phi is 1/2), else 1."""
    if not fo_sequent_satisfied(st, s, Sequent.make((), (phi,))):
        return ZERO
    if not fo_sequent_satisfied(st, s, Sequent.make((), (Circ(phi),))):
        return HALF
    return ONE


def _triple(universe, assign):
    return Triple.from_values(frozenset(universe), assign)


def test_triple_neg_and_circ_examples():
    r = _triple({"x", "y"}, {"x": ONE, "y": HALF})
    negated = kernel_triple(Neg(p), {"p": r})
    assert (negated.plus, negated.minus, negated.circ) == (frozenset(), frozenset({"x"}), frozenset({"y"}))
    consistent = kernel_triple(Circ(p), {"p": r})
    assert (consistent.plus, consistent.minus, consistent.circ) == (frozenset({"x"}), frozenset({"y"}), frozenset())
    assert consistent.circ == frozenset()


def test_triple_ops_pointwise_coherence():
    base = ("x", "y")
    tables = [(And, binary_table(AND_CELLS)), (Or, binary_table(OR_CELLS)), (Imp, binary_table(IMP_CELLS))]
    all_maps = [dict(zip(base, values)) for values in itertools.product(VALUE_ORDER, repeat=len(base))]
    for left_map in all_maps:
        r = _triple(base, left_map)
        for right_map in all_maps:
            u = _triple(base, right_map)
            for connective, table in tables:
                combined = kernel_triple(connective(p, q), {"p": r, "q": u})
                for x in base:
                    assert combined.value_at(x) is table[left_map[x], right_map[x]]


def test_triple_partition_enforced():
    with pytest.raises(LogicError):
        Triple(frozenset({"x"}), frozenset({"x"}), frozenset({"x"}), frozenset())
    with pytest.raises(LogicError):
        Triple(frozenset({"x", "y"}), frozenset({"x"}), frozenset(), frozenset())


def test_tilde_tables_exhaustive():
    # all seven nonempty value sets, values from the definition's cases
    expect_forall = {
        (ZERO,): ZERO, (HALF,): HALF, (ONE,): ONE,
        (ZERO, HALF): ZERO, (ZERO, ONE): ZERO, (HALF, ONE): ONE,
        (ZERO, HALF, ONE): ZERO,
    }
    expect_exists = {
        (ZERO,): ZERO, (HALF,): HALF, (ONE,): ONE,
        (ZERO, HALF): ONE, (ZERO, ONE): ONE, (HALF, ONE): ONE,
        (ZERO, HALF, ONE): ONE,
    }
    for subset, want in expect_forall.items():
        assert tilde_forall(set(subset)) is want
    for subset, want in expect_exists.items():
        assert tilde_exists(set(subset)) is want
    with pytest.raises(LogicError):
        tilde_forall(set())


def test_quantifier_fold_matches_value_functions():
    # one 3-element structure per nonempty value set, P taking exactly that set
    domain = ("m0", "m1", "m2")
    body = PredAtom("P", (BoundVar("x"),))
    for size in (1, 2, 3):
        for attained in itertools.combinations(VALUE_ORDER, size):
            values = {(m,): attained[i % size] for i, m in enumerate(domain)}
            st = Structure(domain=domain, predicates={"P": Triple.from_values(values, values)})
            assert denote(Forall("x", body), st).value_at(()) is tilde_forall(set(attained)), attained
            assert denote(Exists("x", body), st).value_at(()) is tilde_exists(set(attained)), attained


def test_nested_and_rebinding_quantifiers_match_component_formulas():
    x, y = BoundVar("x"), BoundVar("y")
    r = PredAtom("R", (x, y))
    formulas = [
        Forall("x", Exists("y", r)),
        Exists("y", Forall("x", r)),
        Forall("x", Exists("y", Forall("x", r))),
        # the constructors accept a binder that rebinds its name; the outer
        # binder takes the inner occurrences, as in `syntax.instantiate`
        Forall("x", Exists("x", PredAtom("P", (x,)))),
    ]
    for st in enumerate_structures(("m0", "m1"), {"R": 2, "P": 1}):
        for phi in formulas:
            assert denote(phi, st) == denote_components(phi, st, ()), (phi, structure_to_json(st))


def test_model_checking_substitutes_nothing(monkeypatch):
    # a quantifier evaluates its body under s[x -> m], and eval_term reads
    # the bound variable from the assignment; no instance of the body is built
    goal = parse_sequent("forall x. exists y. R(x, y), P(a1) |- exists y. forall x. R(x, y)")
    nested = parse_formula("forall x. exists y. o R(x, y) & P(y)")
    structures = list(enumerate_structures(("m0", "m1"), {"R": 2, "P": 1}))
    want = [(falsifying_assignment(st, goal), denote_components(nested, st, ())) for st in structures]
    assert any(assignment is not None for assignment, _ in want)
    assert any(assignment is None for assignment, _ in want)

    def substituted(*args):
        raise AssertionError("model checking substituted into a formula")

    monkeypatch.setattr("ciore.syntax._replace_var", substituted)
    for st, (assignment, triple) in zip(structures, want):
        assert falsifying_assignment(st, goal) == assignment
        assert fo_sequent_valid_in(st, goal) is (assignment is None)
        assert denote(nested, st) == triple
    st = _example_structure()
    assert eval_term(BoundVar("x"), st, {"x": "1"}) == "1"
    with pytest.raises(LogicError, match="dangling bound variable x"):
        eval_term(BoundVar("x"), st, {"a1": "1"})
    # a bound name among the caller's variables would be read as bound outside
    with pytest.raises(LogicError, match="free-variable namespace"):
        denote(parse_formula("forall x. P(x)"), st, ("x",))


def _example_structure():
    space = tuple_space(("0", "1"), 1)
    triple = Triple.from_values(space, {("0",): ONE, ("1",): HALF})
    return Structure(domain=("0", "1"), predicates={"P": triple})


def test_eval_term():
    table = {("0",): "1", ("1",): "0"}
    st = Structure(
        domain=("0", "1"),
        predicates={"P": Triple.from_values(tuple_space(("0", "1"), 1), {("0",): ONE, ("1",): ONE})},
        functions={"f": table},
        constants={"c": "1"},
    )
    assert eval_term(FreeVar("a1"), st, {"a1": "0"}) == "0"
    assert eval_term(Const("c"), st, {}) == "1"
    assert eval_term(FunApp("f", (FreeVar("a1"),)), st, {"a1": "0"}) == "1"


def test_function_used_with_another_arity_is_a_logic_error():
    st = Structure(
        domain=("0", "1"),
        predicates={"P": Triple.from_values(tuple_space(("0", "1"), 1), {("0",): ONE, ("1",): ONE})},
        functions={"f": {("0",): "1", ("1",): "0"}},
    )
    message = "function 'f' has arity 1 in the structure, used with 2 arguments"
    with pytest.raises(LogicError, match=message):
        eval_term(FunApp("f", (FreeVar("a1"), FreeVar("a1"))), st, {"a1": "0"})
    with pytest.raises(LogicError, match=message):
        falsifying_assignment(st, parse_sequent("|- P(f(a1, a1))"))
    with pytest.raises(LogicError, match=re.escape("function 'f' is not defined at ('2',)")):
        eval_term(FunApp("f", (FreeVar("a1"),)), st, {"a1": "2"})


@pytest.mark.parametrize("value", [ZERO, ONE], ids=["P=0", "P=1"])
def test_signature_is_checked_before_any_value(value):
    # with P = 0 the antecedent alone decides the sequent, before Q(a1) or
    # P(a1, a1) would be read; the signature is checked before any value
    space = tuple_space(("0", "1"), 1)
    st = Structure(domain=("0", "1"), predicates={"P": Triple.from_values(space, dict.fromkeys(space, value))})
    cases = [
        ("P(a1) |- Q(a1)", "structure does not interpret predicate 'Q'"),
        ("P(a1) |- P(a1, a1)", "predicate 'P' has arity 1 in the structure, used with 2 arguments"),
        ("P(a1) |- p", "structure does not interpret propositional atom 'p'"),
        ("P(a1) |- P(c)", "structure does not interpret constant 'c'"),
        ("P(a1) |- P(g(a1))", "structure does not interpret function 'g'"),
    ]
    for text, message in cases:
        goal = parse_sequent(text)
        with pytest.raises(LogicError, match=re.escape(message)):
            falsifying_assignment(st, goal)
        with pytest.raises(LogicError, match=re.escape(message)):
            denote(next(iter(goal.succ)), st)


def _counted_value_at(monkeypatch) -> list:
    reads = []
    value_at = Triple.value_at

    def counted(triple, x):
        reads.append(x)
        return value_at(triple, x)

    monkeypatch.setattr(Triple, "value_at", counted)
    return reads


def _unary_structure(size: int, values: dict) -> Structure:
    """P over m0 … m(size-1): the given values, 1 elsewhere."""
    domain = tuple(f"m{i}" for i in range(size))
    space = tuple_space(domain, 1)
    triple = Triple.from_values(space, {row: values.get(row[0], ONE) for row in space})
    return Structure(domain=domain, predicates={"P": triple})


def test_forall_stops_at_its_first_instance_that_is_0(monkeypatch):
    st = _unary_structure(5, {"m0": ZERO})
    reads = _counted_value_at(monkeypatch)
    assert falsifying_assignment(st, parse_sequent("|- forall x1. forall x2. forall x3. P(x1)")) == {}
    assert reads == [("m0",)]


def test_exists_stops_at_its_first_instance_that_is_1(monkeypatch):
    reads = _counted_value_at(monkeypatch)
    assert falsifying_assignment(_unary_structure(5, {}), parse_sequent("|- exists x1. exists x2. P(x2)")) is None
    assert reads == [("m0",)]
    reads.clear()
    # the instances are read up to the first that is 1
    st = _unary_structure(5, {"m0": ZERO, "m1": HALF})
    assert falsifying_assignment(st, parse_sequent("|- exists x. P(x)")) is None
    assert reads == [("m0",), ("m1",), ("m2",)]


def test_nested_quantifiers_hold_one_assignment_per_level():
    # 10 ** 6 assignments of the bound variables; the first instance decides
    st = _unary_structure(10, {"m0": ZERO})
    goal = parse_sequent("|- forall x1. forall x2. forall x3. forall x4. forall x5. forall x6. P(x1)")
    tracemalloc.start()
    try:
        assert falsifying_assignment(st, goal) == {}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


def test_denote_examples():
    st = _example_structure()
    forall_p = parse_formula("forall x. P(x)")
    assert denote(forall_p, st).value_at(()) is ONE
    exists_circ = parse_formula("exists x. o P(x)")
    assert denote(exists_circ, st).value_at(()) is ONE
    assert _value_at(parse_formula("P(a1)"), st, {"a1": "1"}) is HALF


def test_satisfaction_and_validity():
    st = _example_structure()
    assert fo_sequent_satisfied(st, {"a1": "0"}, Sequent.make((), (parse_formula("P(a1)"),)))
    assert valid_in(st, parse_formula("P(a1)"))
    assert not valid_in(st, parse_formula("o P(a1)"))

    instantiation = parse_sequent("forall x. P(x) |- P(a1)")
    for size in (1, 2):
        for candidate in all_unary_structures(size):
            assert fo_sequent_valid_in(candidate, instantiation)

    refuter = Structure(
        domain=("0", "1"),
        predicates={"P": Triple.from_values(tuple_space(("0", "1"), 1), {("0",): ONE, ("1",): ZERO})},
    )
    generalization = parse_sequent("exists x. P(x) |- forall x. P(x)")
    assert not fo_sequent_valid_in(refuter, generalization)
    assert not fo_sequent_satisfied(refuter, {}, generalization)

    # the first falsifying assignment: variables in index order (a2 before
    # a10), values in domain order
    assert falsifying_assignment(refuter, instantiation) is None
    assert falsifying_assignment(refuter, parse_sequent("|- P(a2) & P(a10)")) == {"a2": "0", "a10": "1"}


def test_quantifier_axioms_valid_everywhere():
    p_bound = PredAtom("P", (BoundVar("x"),))
    axioms = quantifier_axioms(Exists("x", p_bound), Forall("x", p_bound), FreeVar("a1"))
    assert set(axioms) == {"Ax11", "Ax12", "Ax13", "Ax14"}
    for size in (1, 2):
        for st in all_unary_structures(size):
            for name, phi in axioms.items():
                assert valid_in(st, phi), (name, structure_to_json(st))


def test_lifted_propositional_schemata_valid_everywhere():
    a, b, c = (PredAtom("P", (FreeVar(v),)) for v in ("a1", "a2", "a1"))
    for size in (1, 2):
        for st in all_unary_structures(size):
            for name, schema in PROPOSITIONAL_SCHEMATA.items():
                assert valid_in(st, schema(a, b, c)), name


def _small_fo_formulas():
    p1 = PredAtom("P", (FreeVar("a1"),))
    pool = [p1]
    for phi in list(pool):
        pool.extend([Neg(phi), Circ(phi), And(phi, phi), Or(phi, Neg(phi)), Imp(Circ(phi), phi)])
    from ciore.syntax import bind, free_variables

    quantified = []
    for phi in pool:
        if "a1" in free_variables(phi):
            quantified.append(bind(phi, "a1", "x", Forall))
            quantified.append(bind(phi, "a1", "x", Exists))
    out = pool + quantified + [Circ(q) for q in quantified] + [Neg(q) for q in quantified]
    out += [And(q, p1) for q in quantified[:4]]
    return out


def test_denotation_matches_component_formulas():
    from ciore.syntax import free_variables

    for st in all_unary_structures(2):
        for phi in _small_fo_formulas():
            variables = var_sorted(free_variables(phi))
            got = denote(phi, st, variables)
            want = denote_components(phi, st, variables)
            assert got == want


def test_value_at_one_assignment_matches_denotation():
    from ciore.randgen import random_fo_formula
    from ciore.syntax import free_variables

    for st in all_unary_structures(2):
        for phi in _small_fo_formulas():
            variables = var_sorted(free_variables(phi))
            want = denote_components(phi, st, variables)
            for point in itertools.product(st.domain, repeat=len(variables)):
                assert _value_at(phi, st, dict(zip(variables, point))) is want.value_at(point), (phi, point)
    rng = random.Random(11)
    domain = ("m0", "m1", "m2")
    for _ in range(40):
        predicates = {
            name: Triple.from_values(space, {row: rng.choice(VALUE_ORDER) for row in space})
            for name, space in (("P", tuple_space(domain, 1)), ("R", tuple_space(domain, 2)))
        }
        st = Structure(domain=domain, predicates=predicates)
        for _ in range(5):
            phi = random_fo_formula(rng, {"P": 1, "R": 2}, ["a1", "a2", "a3"], 3)
            variables = var_sorted(free_variables(phi))
            want = denote(phi, st, variables)
            for point in itertools.product(domain, repeat=len(variables)):
                assert _value_at(phi, st, dict(zip(variables, point))) is want.value_at(point), (phi, point)
    with pytest.raises(LogicError):
        fo_sequent_satisfied(_example_structure(), {"a1": "outside"}, parse_sequent("|- P(a1) | ~P(a1)"))


def test_denotation_ignores_padding_variables():
    st = _example_structure()
    phi = parse_formula("o P(a1) | ~P(a1)")
    core = denote(phi, st, ("a1",))
    padded = denote(phi, st, ("a1", "a2"))
    for combo in padded.universe:
        assert padded.value_at(combo) is core.value_at(combo[:1])


def test_quantifier_outputs_partition():
    for st in all_unary_structures(2):
        triple = denote(parse_formula("forall x. P(x)"), st)
        assert triple.plus | triple.minus | triple.circ == triple.universe


def test_structure_json_round_trip():
    st = Structure(
        domain=("0", "1"),
        predicates={"P": Triple.from_values(tuple_space(("0", "1"), 1), {("0",): ONE, ("1",): HALF})},
        functions={"f": {("0",): "1", ("1",): "1"}},
        constants={"c": "0"},
    )
    data = structure_to_json(st)
    assert data["predicates"]["P"]["plus"] == [["0"]]
    rebuilt = structure_from_json(data)
    assert rebuilt == st


def test_structure_json_validates_partition():
    data = {
        "domain": ["0", "1"],
        "predicates": {"P": {"plus": [["0"]], "minus": [], "circ": []}},
    }
    with pytest.raises(LogicError):
        structure_from_json(data)  # tuple ("1",) is not covered
    data["predicates"]["P"]["minus"] = [["0"], ["1"]]
    with pytest.raises(LogicError):
        structure_from_json(data)  # ("0",) now appears twice


def test_structure_signature():
    st = Structure(
        domain=("0", "1"),
        predicates={"R": Triple.from_values(tuple_space(("0", "1"), 2), {t: ZERO for t in tuple_space(("0", "1"), 2)})},
        functions={"f": {("0",): "0", ("1",): "0"}},
        constants={"c": "1"},
    )
    sig = structure_signature(st)
    assert sig.predicates == {"R": 2}
    assert sig.functions == {"f": 1}
    assert sig.constants == frozenset({"c"})


def test_structure_totality_checks():
    space = tuple_space(("0", "1"), 1)
    triple = Triple.from_values(space, {("0",): ONE, ("1",): ONE})
    with pytest.raises(LogicError):
        Structure(domain=(), predicates={})
    with pytest.raises(LogicError, match="distinct"):
        Structure(domain=("0", "0"), predicates={"P": triple})
    with pytest.raises(LogicError, match="full tuple space"):  # the row ("2",) is missing
        Structure(domain=("0", "1", "2"), predicates={"P": triple})
    with pytest.raises(LogicError):
        Structure(domain=("0", "1"), predicates={"P": triple}, functions={"f": {("0",): "1"}})
    with pytest.raises(LogicError):
        Structure(domain=("0", "1"), predicates={"P": triple}, constants={"c": "7"})


def test_enumerate_structures_count():
    import json

    structures = list(enumerate_structures(("0", "1"), {"P": 1}))
    assert len(structures) == 9
    assert len({json.dumps(structure_to_json(s), sort_keys=True) for s in structures}) == 9


def test_enumerate_structures_order():
    # one value per table row, predicates by name, the last row varying fastest
    domain = ("0", "1")
    rows = [("P", row) for row in itertools.product(domain, repeat=1)]
    rows += [("R", row) for row in itertools.product(domain, repeat=2)]
    structures = enumerate_structures(domain, {"R": 2, "P": 1})
    for st, values in zip(structures, itertools.product(VALUE_ORDER, repeat=len(rows)), strict=True):
        assert [st.predicates[name].value_at(row) for name, row in rows] == list(values)


def test_an_assignment_missing_a_free_variable_is_a_logic_error():
    st = Structure(
        domain=("0", "1"),
        predicates={"P": Triple.from_values((("0",), ("1",)), {("0",): ONE, ("1",): ZERO})},
    )
    goal = parse_sequent("|- P(a1)")
    with pytest.raises(LogicError, match="assignment does not cover variable a1"):
        fo_sequent_satisfied(st, {}, goal)
    with pytest.raises(LogicError, match="assignment does not cover variable a2"):
        fo_sequent_satisfied(st, {"a1": "0"}, parse_sequent("P(a1) |- P(a2)"))
    # extra variables are ignored, and the public callers, which assign
    # every free variable of the sequent, answer as before
    assert fo_sequent_satisfied(st, {"a1": "0", "a9": "1"}, goal)
    assert falsifying_assignment(st, goal) == {"a1": "1"}
    assert not fo_sequent_valid_in(st, goal)
    assert fo_sequent_valid_in(st, parse_sequent("forall x. P(x) |- P(a1)"))
