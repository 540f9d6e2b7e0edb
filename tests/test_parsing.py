import collections
import copy
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ciore import parsing, prop_prover
from ciore.errors import ParseError
from ciore.parsing import MAX_DEPTH, format_formula, format_sequent, parse_formula, parse_sequent
from ciore.randgen import random_formula
from ciore.sequents import Sequent
from ciore.serialize import proof_to_json
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
    subformulas,
)

from helpers import random_term_formula, reference_format, reference_subformulas

p, q, r = PropAtom("p"), PropAtom("q"), PropAtom("r")


def test_precedence_unary_tightest():
    assert parse_formula("~p & q") == And(Neg(p), q)
    assert parse_formula("o p | q") == Or(Circ(p), q)


def test_precedence_and_over_or_over_imp():
    assert parse_formula("p & q | r") == Or(And(p, q), r)
    assert parse_formula("p | q -> r") == Imp(Or(p, q), r)


def test_imp_right_associative():
    assert parse_formula("p -> q -> r") == Imp(p, Imp(q, r))


def test_quantifier_scope_to_end():
    got = parse_formula("forall x. P(x) & q")
    assert got == Forall("x", And(PredAtom("P", (BoundVar("x"),)), q))
    bounded = parse_formula("(forall x. P(x)) & q")
    assert bounded == And(Forall("x", PredAtom("P", (BoundVar("x"),))), q)


def test_term_kinds():
    got = parse_formula("R(a1, x0_c, f(c, a2))")
    assert got == PredAtom(
        "R",
        (FreeVar("a1"), Const("x0_c"), FunApp("f", (Const("c"), FreeVar("a2")))),
    )


def test_bound_variable_resolution():
    got = parse_formula("exists y. R(y, a1)")
    assert got == Exists("y", PredAtom("R", (BoundVar("y"), FreeVar("a1"))))


def test_sequent_forms():
    assert parse_sequent("p, q |- r") == Sequent.make((p, q), (r,))
    assert parse_sequent("|- p") == Sequent.make((), (p,))
    assert parse_sequent("p |-") == Sequent.make((p,), ())
    assert parse_sequent("|-") == Sequent.make((), ())


def test_parse_errors():
    bad = [
        "p & |-",
        "(p |-",
        "forall a1. P(a1) |-",
        "forall x. forall x. P(x) |-",
        "p ( |-",
        "P |- q",
        "p q |- r",
        "|- )",
    ]
    for text in bad:
        with pytest.raises(ParseError):
            parse_sequent(text)


def _accepted(text: str) -> bool:
    try:
        parse_formula(text)
    except ParseError as exc:
        assert f"nested deeper than {MAX_DEPTH} levels" in str(exc)
        return False
    return True


def _nested(d: int) -> dict[str, str]:
    """Formulas of nesting depth d, one per way of nesting."""
    return {
        "negation": "~" * d + "p",
        "consistency": "o " * d + "p",
        "parentheses": "(" * d + "p" + ")" * d,
        "conjunction chain": " & ".join(["p"] * (d + 1)),
        "implication chain": " -> ".join(["p"] * (d + 1)),
        "prefix then link": "~" * (d - 1) + "p | q",
        "link over a parenthesized operand": "(" + "~" * (d - 2) + "p) | q",
        "link over the last operand": "p | " + "~" * (d - 1) + "q",
        "quantifiers": "".join(f"forall x{i}. " for i in range(d)) + "P(x0)",
        "function applications": "P(" + "f(" * d + "a1" + ")" * d + ")",
    }


def test_nesting_depth_is_bounded():
    at, past = _nested(MAX_DEPTH), _nested(MAX_DEPTH + 1)
    for shape in at:
        assert _accepted(at[shape]), shape
        assert not _accepted(past[shape]), shape
    with pytest.raises(ParseError, match="nested deeper"):
        parse_sequent("p |- " + "~" * (MAX_DEPTH + 1) + "p")


def _height(phi) -> int:
    """Connectives, quantifiers and function applications on phi's longest path."""
    best, stack = 0, [(phi, 0)]
    while stack:
        node, level = stack.pop()
        best = max(best, level)
        if isinstance(node, (Neg, Circ, Forall, Exists)):
            stack.append((node.body, level + 1))
        elif isinstance(node, (And, Or, Imp)):
            stack += [(node.left, level + 1), (node.right, level + 1)]
        elif isinstance(node, (PredAtom, FunApp)):
            stack += [(t, level + isinstance(node, FunApp)) for t in node.args]
    return best


def test_accepted_formulas_are_no_deeper_than_the_bound():
    # random wrappings around one atom, printed and parsed back
    rng = random.Random(97)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        phi = PredAtom("P", (FreeVar("a1"),))
        for i in range(rng.randint(MAX_DEPTH // 2, MAX_DEPTH + 10)):
            shape = rng.randrange(6)
            if shape == 0:
                phi = rng.choice((Neg, Circ))(phi)
            elif shape == 1:
                phi = Forall(f"x{i}", phi)
            else:
                ctor = rng.choice((And, Or, Imp))
                phi = ctor(phi, q) if rng.random() < 0.5 else ctor(p, phi)
        text = format_formula(phi)
        accepted = _accepted(text)
        if accepted:
            assert _height(phi) <= MAX_DEPTH and parse_formula(text) == phi
        outcomes[accepted] += 1
    assert min(outcomes.values()) > 50, outcomes


def test_reserved_words():
    with pytest.raises(ParseError):
        parse_formula("o")
    with pytest.raises(ParseError):
        parse_formula("forall |- p")


def test_format_examples():
    assert format_formula(parse_formula("~(p & q) -> o p")) == "~(p & q) -> o p"
    assert format_formula(Imp(Imp(p, q), r)) == "(p -> q) -> r"
    assert format_formula(Neg(Circ(p))) == "~o p"
    assert format_sequent(parse_sequent("|-")) == "|-"


# hypothesis strategy for round-trip checking

_prop_atoms = st.sampled_from(["p", "q", "r", "ops", "q1"])


def _formulas(depth: int):
    if depth == 0:
        return st.builds(PropAtom, _prop_atoms)
    sub = _formulas(depth - 1)
    return st.one_of(
        st.builds(PropAtom, _prop_atoms),
        st.builds(Neg, sub),
        st.builds(Circ, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Imp, sub, sub),
    )


_fo_atom = st.sampled_from(
    [
        PredAtom("P", (FreeVar("a1"),)),
        PredAtom("R", (FreeVar("a1"), Const("c"))),
        PredAtom("P", (FunApp("f", (FreeVar("a2"),)),)),
    ]
)


def _fo_formulas(depth: int):
    if depth == 0:
        return _fo_atom
    sub = _fo_formulas(depth - 1)
    return st.one_of(_fo_atom, st.builds(Neg, sub), st.builds(Circ, sub), st.builds(And, sub, sub), st.builds(Imp, sub, sub))


@given(_formulas(4))
@settings(max_examples=300, deadline=None)
def test_roundtrip_propositional(phi):
    assert parse_formula(format_formula(phi)) == phi


@given(_fo_formulas(3), st.booleans())
@settings(max_examples=200, deadline=None)
def test_roundtrip_first_order(phi, use_forall):
    from ciore.syntax import bind, free_variables

    if "a1" in free_variables(phi):
        phi = bind(phi, "a1", "x", Forall if use_forall else Exists)
    assert parse_formula(format_formula(phi)) == phi


@given(st.lists(_formulas(3), max_size=3), st.lists(_formulas(3), max_size=3))
@settings(max_examples=150, deadline=None)
def test_roundtrip_sequent(ante, succ):
    s = Sequent.make(ante, succ)
    assert parse_sequent(format_sequent(s)) == s


# ---------------------------------------------------------------------------
# Each formula's text is formatted once and stored on its node


def _seeded_formulas():
    rng = random.Random(1111)
    for i in range(3000):
        if i % 2:
            yield random_formula(rng, ("p", "q", "r", "s"), rng.randint(0, 6))
        else:
            yield random_term_formula(rng, rng.randint(0, 5))


def test_format_formula_matches_the_recursive_recipe_on_every_subformula():
    for phi in _seeded_formulas():
        for f in reference_subformulas(phi):
            assert format_formula(f) == reference_format(f)


def test_format_formula_returns_the_stored_text():
    for phi in _seeded_formulas():
        assert format_formula(phi) is format_formula(phi)


def test_text_survives_copy_deepcopy_and_pickle():
    rng = random.Random(1112)
    for _ in range(200):
        phi = random_term_formula(rng, 4)
        text = format_formula(phi)
        for other in (copy.copy(phi), copy.deepcopy(phi), pickle.loads(pickle.dumps(phi))):
            assert other is phi
            assert format_formula(other) is text
    # in a fresh interpreter the unpickled node has no text yet and gets it anew
    phi = parse_formula("forall x. ~(P(x, f(a1)) -> o (q | r)) & exists y. R(y)")
    code = "import pickle, sys; from ciore.parsing import format_formula; print(format_formula(pickle.loads(sys.stdin.buffer.read())))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(phi), env=env, capture_output=True, check=True)
    assert out.stdout.decode().strip() == reference_format(phi)


def test_proof_json_formats_each_distinct_formula_once(monkeypatch):
    # an atom name no other test uses, so none of the goal's nodes has its text yet
    goal = parse_sequent("|- " + "o " * 100 + "formatted_once")
    formatted = collections.Counter()
    original = parsing._format

    def counting(phi):
        formatted[phi] += 1
        return original(phi)

    monkeypatch.setattr(parsing, "_format", counting)
    verdict = prop_prover.decide(goal)
    proof_to_json(verdict.proof)
    nodes = {f for proof in verdict.proof.nodes() for phi in proof.sequent.ante | proof.sequent.succ for f in subformulas(phi)}
    assert set(formatted) == nodes
    assert max(formatted.values()) == 1
