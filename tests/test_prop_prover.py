import random

import pytest

from ciore import prop_prover
from ciore.errors import AtomCapExceeded, LogicError
from ciore.matrix import HALF, find_countermodel, matrix_valid, sequent_atoms, sequent_satisfied
from ciore.parsing import parse_formula, parse_sequent
from ciore.prop_prover import (
    Proved,
    Refuted,
    _next_reduction,
    decide,
)
from ciore.randgen import random_formula, random_sequent
from ciore.sequents import (
    LEFT,
    RIGHT,
    Calculus,
    Proof,
    RuleId,
    Sequent,
    check_proof,
    formula_key,
    premises_from_schema,
    rules_for,
)
from ciore.syntax import And, Circ, Formula, PropAtom, iff

from helpers import contradiction_scan, eliminate_cut, proof_respects_gsub, sequent_weight, theorem_suite, with_ante, with_succ

seq = parse_sequent
p, q = PropAtom("p"), PropAtom("q")


def test_decide_consistency_of_consistency():
    verdict = decide(seq("|- o o p"))
    assert isinstance(verdict, Proved)
    assert not verdict.proof.uses_cut()
    assert check_proof(verdict.proof, Calculus.GCIORE_PRIME, allow_cut=False)


def test_decide_excluded_middle_split():
    verdict = decide(seq("|- p, ~p"))
    assert isinstance(verdict, Proved)
    assert any(node.rule is RuleId.NEG_R2 for node in verdict.proof.nodes())


def test_decide_contradiction_refuted():
    verdict = decide(seq("|- p & ~p"))
    assert isinstance(verdict, Refuted)
    assert not sequent_satisfied(verdict.valuation, seq("|- p & ~p"))


def test_decide_consistency_not_entailed():
    verdict = decide(seq("p |- o p"))
    assert verdict == Refuted({"p": HALF})


def test_decide_empty_sequent():
    verdict = decide(seq("|-"))
    assert verdict == Refuted({})


def test_decide_rejects_quantifiers_and_caps_atoms():
    with pytest.raises(LogicError):
        decide(seq("|- forall x. P(x)"))
    with pytest.raises(AtomCapExceeded):
        decide(seq(f"|- {' | '.join(f'v{i}' for i in range(13))}"))


def test_decide_agrees_with_matrix_oracle():
    # 300 sequents of depth 3 with at most two formulas a side over 4 atoms,
    # and 300 over the 6 atoms of the prop benchmark's random goals
    for atoms, seed in ((("p", "q", "r", "s"), 2718), (tuple(f"p{i}" for i in range(6)), 6)):
        rng = random.Random(seed)
        for _ in range(300):
            s = random_sequent(rng, atoms, 3)
            verdict = decide(s)
            if isinstance(verdict, Proved):
                assert matrix_valid(s)
                assert not verdict.proof.uses_cut()
                assert check_proof(verdict.proof, Calculus.GCIORE_PRIME, allow_cut=False)
            else:
                assert not matrix_valid(s)
                assert not sequent_satisfied(verdict.valuation, s)
                assert set(verdict.valuation) == set(sequent_atoms(s))


def test_decide_is_deterministic():
    s = seq("o p | ~q |- ~(p -> q), o o q")
    first = decide(s)
    second = decide(s)
    assert first == second


@pytest.fixture
def reductions(monkeypatch):
    """Every (sequent, marks, step) at which `decide` chooses its next
    reduction, recorded around `prop_prover._next_reduction`."""
    seen = []

    def recording(s, marks):
        step = _next_reduction(s, marks)
        seen.append((s, marks, step))
        return step

    monkeypatch.setattr(prop_prover, "_next_reduction", recording)
    return seen


def test_step_measures(reductions):
    # every step either strictly lowers the sequent weight or is the
    # in-place negation rule, which marks a fresh formula and never repeats
    rng = random.Random(55)
    for _ in range(150):
        decide(random_sequent(rng, ("p", "q", "r"), 3))
    steps = [(s, marks, step) for s, marks, step in reductions if step is not None]
    assert steps
    for s, marks, (principal, rule) in steps:
        prems = premises_from_schema(s, rule, principal)
        assert marks <= s.succ
        if rule is RuleId.NEG_R2:
            assert principal not in marks
            assert principal in s.succ
        else:
            for prem in prems:
                assert sequent_weight(prem) < sequent_weight(s)


def test_neg_r2_on_negated_consistency_terminates():
    # the only weight-raising steps: a negated consistency formula on the
    # right has no weight-lowering rule of its own
    verdict = decide(seq("|- ~o p, o p"))
    assert isinstance(verdict, Proved)
    verdict = decide(seq("|- ~o p"))
    assert isinstance(verdict, Refuted)
    assert not sequent_satisfied(verdict.valuation, seq("|- ~o p"))


def _wrap_in_cut(proof: Proof, cut_formula) -> Proof:
    s = proof.sequent
    left = Proof(with_succ(s, cut_formula), RuleId.WEAKEN, premises=(proof,))
    right = Proof(with_ante(s, cut_formula), RuleId.WEAKEN, premises=(proof,))
    return Proof(s, RuleId.CUT, principal=cut_formula, premises=(left, right))


def test_eliminate_cut_simple():
    base = decide(seq("|- p -> p"))
    assert isinstance(base, Proved)
    cut_proof = _wrap_in_cut(base.proof, q)
    assert check_proof(cut_proof, Calculus.GCIORE_PRIME, allow_cut=True)
    assert not check_proof(cut_proof, Calculus.GCIORE_PRIME, allow_cut=False)
    rebuilt = eliminate_cut(cut_proof)
    assert rebuilt.sequent == cut_proof.sequent
    assert not rebuilt.uses_cut()


def test_eliminate_cut_idempotent_on_cut_free():
    base = decide(seq("o p |- o p"))
    assert isinstance(base, Proved)
    rebuilt = eliminate_cut(base.proof)
    assert rebuilt.sequent == base.proof.sequent
    assert not rebuilt.uses_cut()


def test_eliminate_cut_random_goals():
    rng = random.Random(31)
    done = 0
    while done < 30:
        s = random_sequent(rng, ("p", "q"), 3)
        verdict = decide(s)
        if not isinstance(verdict, Proved):
            continue
        done += 1
        wrapped = _wrap_in_cut(verdict.proof, random_formula(rng, ("p", "q"), 2))
        rebuilt = eliminate_cut(wrapped)
        assert rebuilt.sequent == s and not rebuilt.uses_cut()
        assert check_proof(rebuilt, Calculus.GCIORE_PRIME, allow_cut=False)


def test_eliminate_cut_rejects_garbage():
    bogus = Proof(seq("|- p"), RuleId.AXIOM)
    with pytest.raises(LogicError):
        eliminate_cut(bogus)


def test_contradiction_scan():
    for text in ["p", "o p & p", "~(p | ~p)", "p -> q"]:
        verdict = contradiction_scan(parse_formula(text))
        assert isinstance(verdict, Refuted)


def test_theorem_suite_contents():
    items = dict(theorem_suite())
    assert items["consistency-matches-negation"] == seq("|- (o p -> o ~p) & (o ~p -> o p)")
    assert items["consistency-propagates-and"] == Sequent.make((), (iff(parse_formula("o p | o q"), Circ(And(p, q))),))
    assert items["consistency-is-consistent"] == seq("|- o o p")
    assert len(items) == 9


def test_theorem_suite_all_proved_cut_free():
    for name, s in theorem_suite():
        verdict = decide(s)
        assert isinstance(verdict, Proved), name
        assert not verdict.proof.uses_cut(), name
        assert check_proof(verdict.proof, Calculus.GCIORE_PRIME, allow_cut=False), name
        assert proof_respects_gsub(verdict.proof), name


def test_refuted_valuation_covers_all_atoms_with_zero_default():
    verdict = decide(seq("|- p & q & r"))
    assert isinstance(verdict, Refuted)
    assert set(verdict.valuation) == {"p", "q", "r"}


# Every propositional shape with the GCiore' rule the prover reduces it by,
# on the left and on the right (None: it stays put).
_SHAPE_RULES = [
    ("p", None, None),
    ("~p", None, RuleId.NEG_R2),
    ("p & q", RuleId.AND_L, RuleId.AND_R),
    ("p | q", RuleId.OR_L, RuleId.OR_R),
    ("p -> q", RuleId.IMP_L, RuleId.IMP_R),
    ("~(p & q)", RuleId.NEG_AND_L, RuleId.NEG_AND_R2),
    ("~(p | q)", RuleId.NEG_OR_L, RuleId.NEG_OR_R2),
    ("~(p -> q)", RuleId.NEG_IMP_L, RuleId.NEG_IMP_R2),
    ("~~p", RuleId.NEG_NEG_L, RuleId.NEG_NEG_R),
    ("~o p", RuleId.NEG_CIRC_L, RuleId.NEG_R2),
    ("o p", RuleId.CIRC_L, RuleId.CIRC_R),
    ("o ~p", RuleId.CIRC_L, RuleId.CIRC_R),
    ("o o p", RuleId.CIRC_L, RuleId.CIRC_R),
    ("o (p & q)", RuleId.CIRC_L, RuleId.CIRC_R),
    ("o (p | q)", RuleId.CIRC_L, RuleId.CIRC_R),
    ("o (p -> q)", RuleId.CIRC_L, RuleId.CIRC_R),
]


@pytest.mark.parametrize("text, left, right", _SHAPE_RULES)
def test_each_shape_has_at_most_one_gciore_prime_rule(text, left, right):
    phi = parse_formula(text)
    for side, expected, sequent in ((LEFT, left, Sequent.make((phi,), ())), (RIGHT, right, Sequent.make((), (phi,)))):
        admitted = [rule for rule in rules_for(phi, side) if rule in Calculus.GCIORE_PRIME.rules]
        assert admitted == ([] if expected is None else [expected]), (text, side)
        step = _next_reduction(sequent, frozenset())
        assert step == (None if expected is None else (phi, expected)), (text, side)


@pytest.mark.parametrize("n", range(3, 9))
def test_excluded_middle_chain_has_linear_proof(n):
    # |- f | ~f with f = p0 | o p1 | ... | o p(n-1): taking the one-premise
    # rules first keeps the proof linear in n
    f = " | ".join(["p0"] + [f"o p{i}" for i in range(1, n)])
    s = seq(f"|- ({f}) | ~({f})")
    verdict = decide(s)
    assert isinstance(verdict, Proved)
    assert sum(1 for _ in verdict.proof.nodes()) == 22 * n - 18
    assert not verdict.proof.uses_cut()
    assert check_proof(verdict.proof, Calculus.GCIORE_PRIME, allow_cut=False)
    if n <= 7:
        assert find_countermodel(s) is None


def _decreasing_candidates(s: Sequent) -> list[tuple[tuple, Formula, RuleId]]:
    # every GCiore' step other than the in-place rule whose premises all
    # weigh less than s, keyed by (premise count, side, formula_key)
    out = []
    for rank, side in enumerate((LEFT, RIGHT)):
        for phi in s.side(side):
            for rule in rules_for(phi, side):
                if rule is RuleId.NEG_R2 or rule not in Calculus.GCIORE_PRIME.rules:
                    continue
                prems = premises_from_schema(s, rule, phi)
                assert all(sequent_weight(prem) < sequent_weight(s) for prem in prems)
                out.append(((len(prems), rank, formula_key(phi)), phi, rule))
    return out


def test_next_reduction_takes_fewest_premises_then_left_then_formula_key(reductions):
    rng = random.Random(4242)
    nodes = []
    for _ in range(60):
        s = random_sequent(rng, ("p", "q", "r"), 3, 3)
        nodes.append((s, frozenset()))
        decide(s)
    nodes += [(s, marks) for s, marks, _ in reductions]
    in_place = 0
    for s, marks in nodes:
        step = _next_reduction(s, marks)
        candidates = _decreasing_candidates(s)
        if candidates:
            _, phi, rule = min(candidates, key=lambda c: c[0])
            assert step == (phi, rule), s
        else:
            in_place += step is not None
            assert step is None or step[1] is RuleId.NEG_R2, s
    assert in_place > 0

