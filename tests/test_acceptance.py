"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible with `pytest -s` or on failure)
and asserts both the property and its runtime bound.
"""

import itertools
import random
import time

from ciore.fo_prover import (
    Proved as FoProved,
    Refuted as FoRefuted,
    decide_fo,
    fo_regression_suite,
)
from ciore.fo_semantics import (
    Triple,
    denote,
    fo_sequent_satisfied,
    fo_sequent_valid_in,
)
from ciore.matrix import HALF, ONE, VALUE_ORDER, ZERO, eval_formula, matrix_valid, sequent_satisfied
from ciore.parsing import parse_sequent
from ciore.prop_prover import Proved, Refuted, decide
from ciore.randgen import random_formula, random_sequent
from ciore.sequents import Calculus, Proof, RuleId, Sequent, check_proof
from ciore.syntax import (
    And,
    BoundVar,
    Circ,
    Exists,
    Forall,
    Formula,
    FreeVar,
    Imp,
    Neg,
    Or,
    PredAtom,
    PropAtom,
    bind,
    free_variables,
)

from helpers import (
    PROPOSITIONAL_SCHEMATA,
    PROP_LOGICAL_RULES,
    QUANTIFIER_RULES,
    all_unary_structures,
    contradiction_scan,
    denote_components,
    derived_quantifier_expansions,
    eliminate_cut,
    formulas_of_complexity,
    kernel_triple,
    proof_respects_gsub,
    quantifier_axioms,
    random_fo_rule_instance,
    random_structure,
    sides_upto,
    theorem_suite,
    var_sorted,
    with_ante,
    with_succ,
)

seq = parse_sequent


def _report(number: int, name: str, started: float, limit: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({elapsed:.2f}s)")


# 1 ------------------------------------------------------------------------

_CELLS = {
    "&": {"111": ONE, "11h": ONE, "110": ZERO, "1h1": ONE, "1hh": HALF, "1h0": ZERO, "101": ZERO, "10h": ZERO, "100": ZERO},
    "|": {"111": ONE, "11h": ONE, "110": ONE, "1h1": ONE, "1hh": HALF, "1h0": ONE, "101": ONE, "10h": ONE, "100": ZERO},
    ">": {"111": ONE, "11h": ONE, "110": ZERO, "1h1": ONE, "1hh": HALF, "1h0": ZERO, "101": ONE, "10h": ONE, "100": ONE},
}
_V = {"1": ONE, "h": HALF, "0": ZERO}
# (left, right) -> value, per binary connective
_BINARY_CELLS = {op: {(_V[key[1]], _V[key[2]]): want for key, want in cells.items()} for op, cells in _CELLS.items()}
_NEG_CELLS = {ONE: ZERO, HALF: HALF, ZERO: ONE}
_CIRC_CELLS = {ONE: ONE, HALF: ZERO, ZERO: ONE}
_P, _Q = PropAtom("p"), PropAtom("q")
_BINARY = {"&": And, "|": Or, ">": Imp}


def test_criterion_1_truth_tables():
    """All 33 matrix cells match the published tables exactly."""
    started = time.monotonic()
    checked = 0
    for op, connective in _BINARY.items():
        for (left, right), want in _BINARY_CELLS[op].items():
            assert eval_formula(connective(_P, _Q), {"p": left, "q": right}) is want, (op, left, right)
            checked += 1
    for unary, cells in ((Neg, _NEG_CELLS), (Circ, _CIRC_CELLS)):
        for value, want in cells.items():
            assert eval_formula(unary(_P), {"p": value}) is want
            checked += 1
    assert checked == 33
    _report(1, "truth-table conformance", started, 1.0)


# 2 ------------------------------------------------------------------------


def test_criterion_2_hilbert_axiom_validity():
    started = time.monotonic()
    rng = random.Random(160)
    atoms = ("p", "q", "r", "s")
    for name, schema in PROPOSITIONAL_SCHEMATA.items():
        for _ in range(100):
            instance = schema(*(random_formula(rng, atoms, 3) for _ in range(3)))
            assert matrix_valid(Sequent.make((), (instance,))), name
    _report(2, "Hilbert-axiom validity (16 x 100)", started, 10.0)


# 3 ------------------------------------------------------------------------


def _oracle_check(s: Sequent) -> None:
    verdict = decide(s)
    if isinstance(verdict, Proved):
        assert matrix_valid(s), s
    else:
        assert not matrix_valid(s), s
        assert not sequent_satisfied(verdict.valuation, s), s


def test_criterion_3_oracle_equivalence():
    started = time.monotonic()
    # (a) exhaustively: every sequent with at most two formulas per side over
    # the one-connective closure of {p, q}, plus every single-formula sequent
    # over the two-connective closure
    pool1 = formulas_of_complexity(("p", "q"), 1)
    sides = sides_upto(pool1, 2)
    for ante in sides:
        for succ in sides:
            _oracle_check(Sequent.make(ante, succ))
    pool2 = formulas_of_complexity(("p", "q"), 2)
    single = [()] + [(phi,) for phi in pool2]
    for ante in single:
        for succ in single:
            _oracle_check(Sequent.make(ante, succ))
    # (b) 1000 random sequents, up to 4 atoms, depth 4
    rng = random.Random(3141)
    for _ in range(1000):
        _oracle_check(random_sequent(rng, ("p", "q", "r", "s"), 4))
    _report(3, "decision procedure agrees with the matrix oracle", started, 120.0)


# 4 ------------------------------------------------------------------------


def test_criterion_4_theorem_regression():
    started = time.monotonic()
    suite = theorem_suite()
    assert len(suite) == 9
    for name, s in suite:
        verdict = decide(s)
        assert isinstance(verdict, Proved), name
        assert not verdict.proof.uses_cut(), name
        assert check_proof(verdict.proof, Calculus.GCIORE_PRIME, allow_cut=False), name
        assert proof_respects_gsub(verdict.proof), name
    _report(4, "nine theorem schemata proved cut-free", started, 10.0)


# 5 ------------------------------------------------------------------------


def test_criterion_5_cut_elimination():
    started = time.monotonic()
    rng = random.Random(271)
    done = 0
    while done < 100:
        s = random_sequent(rng, ("p", "q", "r"), 3)
        verdict = decide(s)
        if not isinstance(verdict, Proved):
            continue
        done += 1
        cut_formula = random_formula(rng, ("p", "q", "r"), 2)
        left = Proof(with_succ(s, cut_formula), RuleId.WEAKEN, premises=(verdict.proof,))
        right = Proof(with_ante(s, cut_formula), RuleId.WEAKEN, premises=(verdict.proof,))
        wrapped = Proof(s, RuleId.CUT, principal=cut_formula, premises=(left, right))
        assert check_proof(wrapped, Calculus.GCIORE_PRIME, allow_cut=True)
        rebuilt = eliminate_cut(wrapped)
        assert rebuilt.sequent == s
        assert not rebuilt.uses_cut()
        assert check_proof(rebuilt, Calculus.GCIORE_PRIME, allow_cut=False)
    _report(5, "cut elimination on 100 synthetic cut proofs", started, 60.0)


# 6 ------------------------------------------------------------------------


def test_criterion_6_no_contradictions():
    started = time.monotonic()
    rng = random.Random(6174)
    for _ in range(200):
        phi = random_formula(rng, ("p", "q", "r", "s"), 3)
        verdict = contradiction_scan(phi)
        assert isinstance(verdict, Refuted), phi
    assert isinstance(decide(Sequent.make((), ())), Refuted)
    _report(6, "no contradiction is provable (200 random)", started, 30.0)


# 7 ------------------------------------------------------------------------


def test_criterion_7_triple_algebra_coherence():
    started = time.monotonic()
    for size in (1, 2, 3):
        base = tuple(f"x{i}" for i in range(size))
        maps = [dict(zip(base, values)) for values in itertools.product(VALUE_ORDER, repeat=size)]
        triples = [Triple.from_values(base, m) for m in maps]
        for r, rm in zip(triples, maps):
            negated = kernel_triple(Neg(_P), {"p": r})
            consistent = kernel_triple(Circ(_P), {"p": r})
            for x in base:
                assert negated.value_at(x) is _NEG_CELLS[rm[x]]
                assert consistent.value_at(x) is _CIRC_CELLS[rm[x]]
            assert consistent.circ == frozenset()
            for u, um in zip(triples, maps):
                for op, connective in _BINARY.items():
                    combined = kernel_triple(connective(_P, _Q), {"p": r, "q": u})
                    for x in base:
                        assert combined.value_at(x) is _BINARY_CELLS[op][rm[x], um[x]]
    _report(7, "triple algebra is pointwise coherent (|X| <= 3)", started, 30.0)


# 8 ------------------------------------------------------------------------


def _fresh_bound_name(phi: Formula) -> str:
    from ciore.syntax import bound_names

    taken = bound_names(phi)
    if "x" not in taken:
        return "x"
    i = 1
    while f"x{i}" in taken:
        i += 1
    return f"x{i}"


def _fo_universe(max_connectives: int) -> list[Formula]:
    """Formulas over one unary predicate and the single free variable a1,
    closed under the connectives and quantification of a1."""
    atom = PredAtom("P", (FreeVar("a1"),))
    by_size: list[list[Formula]] = [[atom]]
    for size in range(1, max_connectives + 1):
        layer: list[Formula] = []
        for phi in by_size[size - 1]:
            layer.append(Neg(phi))
            layer.append(Circ(phi))
            if "a1" in free_variables(phi):
                name = _fresh_bound_name(phi)
                layer.append(bind(phi, "a1", name, Forall))
                layer.append(bind(phi, "a1", name, Exists))
        for left_size in range(size):
            for left in by_size[left_size]:
                for right in by_size[size - 1 - left_size]:
                    layer.extend((And(left, right), Or(left, right), Imp(left, right)))
        by_size.append(layer)
    seen: set[Formula] = set()
    out: list[Formula] = []
    for layer in by_size:
        for phi in layer:
            if phi not in seen:
                seen.add(phi)
                out.append(phi)
    return out


def test_criterion_8_denotation_equivalence():
    started = time.monotonic()
    universe = _fo_universe(3)
    assert len(universe) > 500
    structures = list(all_unary_structures(2))
    assert len(structures) == 9
    for st in structures:
        for phi in universe:
            variables = var_sorted(free_variables(phi))
            assert denote(phi, st, variables) == denote_components(phi, st, variables)
    _report(8, f"denotation equivalence ({len(universe)} formulas x 9 structures)", started, 60.0)


# 9 ------------------------------------------------------------------------


def test_criterion_9_quantifier_axiom_validity():
    started = time.monotonic()
    body = PredAtom("P", (BoundVar("x"),))
    axioms = quantifier_axioms(Exists("x", body), Forall("x", body), FreeVar("a1"))
    for size in (1, 2):
        for st in all_unary_structures(size):
            for name, phi in axioms.items():
                assert fo_sequent_valid_in(st, Sequent.make((), (phi,))), name
    _report(9, "quantifier axioms valid in all small structures", started, 30.0)


# 10 -----------------------------------------------------------------------


def test_criterion_10_rule_soundness():
    started = time.monotonic()
    rng = random.Random(1729)
    arities = {"P": 1, "Q": 1, "R": 2}
    for rule in sorted(Calculus.GQCIORE.rules, key=lambda r: r.value):
        for _ in range(200):
            if rule in QUANTIFIER_RULES or rule in PROP_LOGICAL_RULES:
                conclusion, premises, principal, var = random_fo_rule_instance(rng, rule)
            else:
                continue
            st = random_structure(rng, arities, max_size=3)
            if all(fo_sequent_valid_in(st, prem) for prem in premises):
                assert fo_sequent_valid_in(st, conclusion), (rule.value, conclusion)
    _report(10, "rule soundness (30 rules x 200 instances)", started, 120.0)


# 11 -----------------------------------------------------------------------


def test_criterion_11_fo_regression():
    started = time.monotonic()
    suite = fo_regression_suite()
    assert len(suite) == 4
    for name, s in suite:
        verdict = decide_fo(s)
        assert isinstance(verdict, FoProved), name
        assert not verdict.proof.uses_cut(), name
        assert check_proof(verdict.proof, Calculus.GQCIORE, allow_cut=False), name
    for name, proof in derived_quantifier_expansions():
        assert check_proof(proof, Calculus.GQCIORE, allow_cut=True), name
    _report(11, "first-order regression sequents proved cut-free", started, 60.0)


# 12 -----------------------------------------------------------------------


def test_criterion_12_fo_refutation():
    started = time.monotonic()
    goals = [
        seq("exists x. P(x) |- forall x. P(x)"),
        seq("|- (forall x. P(x) | Q(x)) -> (forall x. P(x)) | (forall x. Q(x))"),
    ]
    for goal in goals:
        verdict = decide_fo(goal)
        assert isinstance(verdict, FoRefuted), goal
        assert not fo_sequent_satisfied(verdict.structure, verdict.assignment, goal)
    _report(12, "first-order refutations verified against the goal", started, 60.0)
