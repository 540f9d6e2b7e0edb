import random

import pytest

from ciore.errors import AtomCapExceeded, LogicError
from ciore.matrix import (
    DEFAULT_ATOM_CAP,
    HALF,
    ONE,
    VALUE_ORDER,
    ZERO,
    _POINT,
    _VALUE,
    eval_formula,
    find_countermodel,
    leaf_values,
    matrix_valid,
    sequent_atoms,
    sequent_satisfied,
    valuation_to_json,
    valuations,
)
from ciore.parsing import parse_formula, parse_sequent
from ciore.randgen import random_sequent
from ciore.sequents import Sequent
from ciore.syntax import And, Circ, FreeVar, Neg, PredAtom, PropAtom

from helpers import (
    AND_CELLS,
    CIRC_CELLS,
    IMP_CELLS,
    NEG_CELLS,
    OR_CELLS,
    NSequent,
    SignedFormula,
    binary_table,
    expressiveness_witnesses,
    formulas_of_complexity,
    nsequent_of_sequent,
    nsequent_satisfied,
    oracle_countermodel,
    signed_satisfied,
    unary_table,
    valuation_from_json,
    witnesses_hold,
)

p, q = PropAtom("p"), PropAtom("q")


@pytest.mark.parametrize("op,cells", [("&", AND_CELLS), ("|", OR_CELLS), ("->", IMP_CELLS)])
def test_binary_tables(op, cells):
    phi = parse_formula(f"p {op} q")
    for (left, right), expected in binary_table(cells).items():
        assert eval_formula(phi, {"p": left, "q": right}) is expected


def test_unary_tables():
    for value, expected in unary_table(NEG_CELLS).items():
        assert eval_formula(parse_formula("~p"), {"p": value}) is expected
    for value, expected in unary_table(CIRC_CELLS).items():
        assert eval_formula(parse_formula("o p"), {"p": value}) is expected


def test_eval_examples():
    assert eval_formula(parse_formula("p & q"), {"p": HALF, "q": ONE}) is ONE
    assert eval_formula(parse_formula("o p"), {"p": HALF}) is ZERO
    assert eval_formula(parse_formula("~p"), {"p": HALF}) is HALF
    assert eval_formula(parse_formula("p -> q"), {"p": ZERO, "q": ZERO}) is ONE


@pytest.mark.parametrize("value", VALUE_ORDER)
def test_value_of_a_kernel_pair_inverts_its_point(value):
    assert _VALUE[_POINT[value]] is value


def test_leaf_values_read_the_antecedent_atoms():
    r, s = PropAtom("r"), PropAtom("s")
    pa, pb = (PredAtom("P", (FreeVar(name),)) for name in ("a1", "a2"))
    ante = frozenset([p, q, Neg(q), Neg(r), Neg(And(p, s)), Circ(s), pa, pb, Neg(pb)])
    # p and P(a1) alone are 1, q and P(a2) with their negations 1/2; r, whose
    # negation alone is there, and s, inside compounds only, are absent (0)
    assert leaf_values(ante) == {p: ONE, q: HALF, pa: ONE, pb: HALF}


def test_eval_errors():
    with pytest.raises(LogicError):
        eval_formula(parse_formula("p & q"), {"p": ONE})
    with pytest.raises(LogicError):
        eval_formula(parse_formula("forall x. P(x)"), {})


def test_sequent_satisfaction():
    s = parse_sequent("p |- o p")
    assert not sequent_satisfied({"p": HALF}, s)
    assert sequent_satisfied({"p": ONE}, parse_sequent("p |- p"))
    assert sequent_satisfied({"p": HALF}, parse_sequent("p |- p"))
    assert sequent_satisfied({"p": ONE}, parse_sequent("|- p | ~p"))


def test_validity_and_countermodels():
    assert matrix_valid(parse_sequent("|- p | ~p"))
    assert find_countermodel(parse_sequent("p |- o p")) == {"p": HALF}
    assert matrix_valid(parse_sequent("|- o o p"))
    assert not matrix_valid(parse_sequent("|-"))


def test_first_countermodel_is_enumeration_least():
    # 0 < 1/2 < 1, last atom fastest; (0,0), (0,1/2) and (0,1) all satisfy
    # |- p->q, q, so the first falsifier is (1/2, 0) where 1/2 -> 0 = 0
    cm = find_countermodel(parse_sequent("|- p -> q, q"))
    assert cm == {"p": HALF, "q": ZERO}


def test_countermodel_matches_per_valuation_oracle():
    rng = random.Random(3)
    sequents = [Sequent.make((), ())]
    for n in range(1, 8):
        names = [f"v{i}" for i in range(n)]
        sequents += [random_sequent(rng, names, 3, 3) for _ in range(60)]
    assert {len(sequent_atoms(s)) for s in sequents} == set(range(8))
    for s in sequents:
        assert find_countermodel(s) == oracle_countermodel(s), s
    assert find_countermodel(Sequent.make((), ())) == {}


@pytest.mark.parametrize("text", ["P(a1) |- p", "p |- forall x. P(x)", "|- o exists x. P(x), p | ~p"])
def test_countermodel_search_is_propositional(text):
    with pytest.raises(LogicError):
        find_countermodel(parse_sequent(text))


def test_twelve_atoms_at_the_default_cap():
    excluded_middles = " & ".join(f"(v{i} | ~v{i})" for i in range(12))
    s = parse_sequent(f"v0, o v1 |- {excluded_middles}")
    assert len(sequent_atoms(s)) == DEFAULT_ATOM_CAP == 12
    assert matrix_valid(s)


def test_twenty_atoms_past_the_default_cap():
    names = [f"v{i:02}" for i in range(20)]
    s = parse_sequent("|- " + " | ".join(names))
    assert find_countermodel(s, atom_cap=20) == oracle_countermodel(s) == dict.fromkeys(names, ZERO)


def test_atom_cap():
    atoms = ", ".join(f"v{i}" for i in range(13))
    with pytest.raises(AtomCapExceeded):
        matrix_valid(parse_sequent(f"|- {atoms.replace(', ', ' | ')}"))
    assert matrix_valid(parse_sequent("|- p | ~p"), atom_cap=1)


def test_signed_formulas():
    assert signed_satisfied({"p": HALF}, SignedFormula(HALF, p))
    assert not signed_satisfied({"p": ONE}, SignedFormula(HALF, p))
    ns = NSequent(zero=frozenset({p}), half=frozenset({p}), one=frozenset())
    assert not nsequent_satisfied({"p": ONE}, ns)
    assert nsequent_satisfied({"p": HALF}, ns)


def test_nsequent_embedding_matches_sequent_satisfaction():
    pool = formulas_of_complexity(("p", "q"), 2)[:40]
    sequents = [Sequent.make((a,), (b,)) for a in pool[:12] for b in pool[:12]]
    sequents.append(Sequent.make((), ()))
    for s in sequents:
        ns = nsequent_of_sequent(s)
        names = tuple(sorted({n for phi in s.ante | s.succ for n in _atoms(phi)}))
        for v in valuations(names):
            assert sequent_satisfied(v, s) == nsequent_satisfied(v, ns)


def _atoms(phi):
    from ciore.syntax import atoms

    return atoms(phi)


def test_expressiveness_witnesses():
    w_half = expressiveness_witnesses(p, HALF)
    assert w_half == frozenset({(p, "D"), (Neg(p), "D")})
    assert expressiveness_witnesses(p, ZERO) == frozenset({(p, "N")})
    for t in VALUE_ORDER:
        conditions = expressiveness_witnesses(p, t)
        for v in valuations(("p",)):
            assert witnesses_hold(v, conditions) == (eval_formula(p, v) is t)


def test_valuation_json_round_trip():
    v = {"p": HALF, "q": ONE}
    data = valuation_to_json(v)
    assert data == {"p": "1/2", "q": "1"}
    assert valuation_from_json(data) == v


def test_double_enumeration_agreement():
    pool = formulas_of_complexity(("p", "q"), 2)
    for phi in pool[::7]:
        s = Sequent.make((), (phi,))
        assert matrix_valid(s) == (find_countermodel(s) is None)
