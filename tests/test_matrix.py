import pytest

from ciore.errors import AtomCapExceeded, LogicError
from ciore.matrix import (
    HALF,
    ONE,
    VALUE_ORDER,
    ZERO,
    eval_formula,
    find_countermodel,
    matrix_valid,
    sequent_satisfied,
    valuation_from_json,
    valuation_to_json,
    valuations,
)
from ciore.parsing import parse_formula, parse_sequent
from ciore.sequents import Sequent
from ciore.syntax import Neg, PropAtom

from helpers import (
    NSequent,
    SignedFormula,
    expressiveness_witnesses,
    formulas_of_complexity,
    nsequent_of_sequent,
    nsequent_satisfied,
    signed_satisfied,
    witnesses_hold,
)

p, q = PropAtom("p"), PropAtom("q")

# All 33 table cells, transcribed row-operand-first: 1, 1/2, 0.
AND_CELLS = "110 1h0 000"
OR_CELLS = "111 1h1 110"
IMP_CELLS = "110 1h0 111"
NEG_CELLS = "0h1"
CIRC_CELLS = "101"

_CHAR = {"1": ONE, "h": HALF, "0": ZERO}


def _binary_cells(op: str, cells: str):
    rows = cells.split()
    for i, left in enumerate(VALUE_ORDER[::-1]):
        for j, right in enumerate(VALUE_ORDER[::-1]):
            yield left, right, _CHAR[rows[i][j]]


@pytest.mark.parametrize("op,cells", [("&", AND_CELLS), ("|", OR_CELLS), ("->", IMP_CELLS)])
def test_binary_tables(op, cells):
    phi = parse_formula(f"p {op} q")
    for left, right, expected in _binary_cells(op, cells):
        assert eval_formula(phi, {"p": left, "q": right}) is expected


def test_unary_tables():
    for value, expected in zip(VALUE_ORDER[::-1], NEG_CELLS):
        assert eval_formula(parse_formula("~p"), {"p": value}) is _CHAR[expected]
    for value, expected in zip(VALUE_ORDER[::-1], CIRC_CELLS):
        assert eval_formula(parse_formula("o p"), {"p": value}) is _CHAR[expected]


def test_eval_examples():
    assert eval_formula(parse_formula("p & q"), {"p": HALF, "q": ONE}) is ONE
    assert eval_formula(parse_formula("o p"), {"p": HALF}) is ZERO
    assert eval_formula(parse_formula("~p"), {"p": HALF}) is HALF
    assert eval_formula(parse_formula("p -> q"), {"p": ZERO, "q": ZERO}) is ONE


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
