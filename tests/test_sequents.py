import collections
import random

import pytest

from ciore.errors import LogicError
from ciore.matrix import matrix_valid, sequent_atoms, sequent_satisfied, valuations
from ciore.parsing import parse_formula, parse_sequent
from ciore.prop_prover import Proved, decide
from ciore.sequents import (
    EIGEN_RULES,
    QUANTIFIER_RULES,
    RULE_TABLE,
    Calculus,
    Proof,
    RuleId,
    Sequent,
    check_proof,
    premises_from_schema,
    proof_error,
    rule_instance_error,
)
from ciore.syntax import And, Circ, Imp, Neg, Or, PropAtom

from helpers import EIGEN_RULES as LISTED_EIGEN_RULES
from helpers import QUANTIFIER_RULES as LISTED_QUANTIFIER_RULES
from helpers import (
    PROP_LOGICAL_RULES,
    BackwardApplication,
    DerivedRuleId,
    axiom,
    backward_applications,
    chained_premises,
    check_rule_instance,
    corrupted_proofs,
    expand_derived_rule,
    proof_respects_gsub,
    random_fo_rule_instance,
    random_prop_instance,
    reference_proof_error,
    sequent_weight,
    weight,
)

R = RuleId
p, q, r = PropAtom("p"), PropAtom("q"), PropAtom("r")
seq = parse_sequent


def test_circ_right_instance():
    conclusion = seq("r |- q, o p")
    premise = seq("r, p, ~p |- q")
    assert check_rule_instance(R.CIRC_R, conclusion, [premise], Circ(p))


def test_neg_imp_left_instance():
    conclusion = seq("r, ~(p -> q) |-")
    premises = [seq("r, p, ~q |- q"), seq("r, p, ~p, ~q |-")]
    assert check_rule_instance(R.NEG_IMP_L, conclusion, premises, Neg(Imp(p, q)))
    assert not check_rule_instance(R.NEG_IMP_L, conclusion, premises[::-1], Neg(Imp(p, q)))


def test_forall_right_eigencondition():
    forall_p = parse_formula("forall x. R(x, a1)")
    good = Sequent.make((), (forall_p,))
    premise = Sequent.make((), (parse_formula("R(a2, a1)"),))
    assert check_rule_instance(R.FORALL_R, good, [premise], forall_p, var="a2")
    # eigenvariable occurring in the conclusion is rejected
    assert not check_rule_instance(R.FORALL_R, good, [Sequent.make((), (parse_formula("R(a1, a1)"),))], forall_p, var="a1")


def test_axiom_and_weakening_shapes():
    assert check_rule_instance(R.AXIOM, seq("p |- p"), [])
    assert not check_rule_instance(R.AXIOM, seq("p, q |- p"), [])
    assert check_rule_instance(R.WEAK_L, seq("p, q |- r"), [seq("q |- r")], p)
    assert not check_rule_instance(R.WEAK_L, seq("p |- q, r"), [seq("p |- q")])
    assert check_rule_instance(R.WEAKEN, seq("p, q |- r, p"), [seq("q |- r")])


def test_cut_shape():
    conclusion = seq("p |- q")
    assert check_rule_instance(R.CUT, conclusion, [seq("p |- q, r"), seq("p, r |- q")], r)
    assert not check_rule_instance(R.CUT, conclusion, [seq("p, r |- q"), seq("p |- q, r")], r)


def _printed_consistency_of_consistency(alpha):
    """The printed two-premise derivation of |- o o alpha, replayed node by
    node: axioms weakened, then CircL, NegCircL and CircR."""
    na = Neg(alpha)
    ax1 = axiom(alpha)
    w1 = Proof(Sequent.make((na, alpha), (alpha,)), R.WEAK_L, premises=(ax1,))
    ax2 = axiom(na)
    w2 = Proof(Sequent.make((na, alpha), (na,)), R.WEAK_L, premises=(ax2,))
    circ_l = Proof(Sequent.make((Circ(alpha), alpha, na), ()), R.CIRC_L, principal=Circ(alpha), premises=(w1, w2))
    neg_circ = Proof(Sequent.make((Circ(alpha), Neg(Circ(alpha))), ()), R.NEG_CIRC_L, principal=Neg(Circ(alpha)), premises=(circ_l,))
    return Proof(Sequent.make((), (Circ(Circ(alpha)),)), R.CIRC_R, principal=Circ(Circ(alpha)), premises=(neg_circ,))


def test_replay_printed_derivation():
    proof = _printed_consistency_of_consistency(p)
    assert check_proof(proof, Calculus.GCIORE, allow_cut=False)
    assert check_proof(proof, Calculus.GQCIORE, allow_cut=False)


def test_replay_contradiction_iff_inconsistency_derivations():
    """Both halves of  (a & ~a) <-> ~o a, replayed as printed: weakened
    axioms feeding CircL / NegCircL, closed by NegR, AndL/AndR and ImpR."""
    a = p
    na = Neg(a)

    ax_a = axiom(a)
    w_a = Proof(Sequent.make((na, a), (a,)), R.WEAK_L, premises=(ax_a,))
    ax_na = axiom(na)
    w_na = Proof(Sequent.make((na, a), (na,)), R.WEAK_L, premises=(ax_na,))
    circ = Proof(Sequent.make((na, a, Circ(a)), ()), R.CIRC_L, principal=Circ(a), premises=(w_a, w_na))
    neg_r = Proof(Sequent.make((na, a), (Neg(Circ(a)),)), R.NEG_R, principal=Neg(Circ(a)), premises=(circ,))
    and_l = Proof(Sequent.make((And(na, a),), (Neg(Circ(a)),)), R.AND_L, principal=And(na, a), premises=(neg_r,))
    imp_r = Proof(
        Sequent.make((), (Imp(And(na, a), Neg(Circ(a))),)), R.IMP_R, principal=Imp(And(na, a), Neg(Circ(a))), premises=(and_l,)
    )
    assert check_proof(imp_r, Calculus.GCIORE, allow_cut=False)

    left_1 = Proof(Sequent.make((Neg(Circ(a)),), (a,)), R.NEG_CIRC_L, principal=Neg(Circ(a)), premises=(w_a,))
    left_2 = Proof(Sequent.make((Neg(Circ(a)),), (na,)), R.NEG_CIRC_L, principal=Neg(Circ(a)), premises=(w_na,))
    and_r = Proof(Sequent.make((Neg(Circ(a)),), (And(a, na),)), R.AND_R, principal=And(a, na), premises=(left_1, left_2))
    back = Proof(
        Sequent.make((), (Imp(Neg(Circ(a)), And(a, na)),)), R.IMP_R, principal=Imp(Neg(Circ(a)), And(a, na)), premises=(and_r,)
    )
    assert check_proof(back, Calculus.GCIORE, allow_cut=False)


def test_mutilated_proof_rejected():
    proof = _printed_consistency_of_consistency(p)
    broken = Proof(
        proof.sequent,
        proof.rule,
        proof.principal,
        premises=(
            Proof(
                proof.premises[0].sequent,
                proof.premises[0].rule,
                proof.premises[0].principal,
                premises=(
                    Proof(
                        proof.premises[0].premises[0].sequent,
                        R.CIRC_L,
                        proof.premises[0].premises[0].principal,
                        premises=proof.premises[0].premises[0].premises[:1],
                    ),
                ),
            ),
        ),
    )
    err = proof_error(broken, Calculus.GCIORE)
    assert err is not None and "premises[0].premises[0]" in err


def test_backward_applications_examples():
    apps = backward_applications(seq("|- p & q"), Calculus.GCIORE_PRIME)
    and_r = [a for a in apps if a.rule is R.AND_R]
    assert and_r == [BackwardApplication(R.AND_R, And(p, q), None, (seq("|- p"), seq("|- q")))]

    apps = backward_applications(seq("p | q |-"), Calculus.GCIORE_PRIME)
    or_l = [a for a in apps if a.rule is R.OR_L]
    assert or_l == [BackwardApplication(R.OR_L, Or(p, q), None, (seq("p |-"), seq("q |-")))]

    apps = backward_applications(seq("|- ~(p & q)"), Calculus.GCIORE_PRIME)
    got = [a for a in apps if a.rule is R.NEG_AND_R2]
    assert got == [
        BackwardApplication(
            R.NEG_AND_R2,
            Neg(And(p, q)),
            None,
            (seq("p, q |- ~p"), seq("p, q |- ~q")),
        )
    ]
    # the unprimed form is not part of the primed calculus
    assert not any(a.rule is R.NEG_AND_R for a in apps)


def test_backward_applications_enumeration_is_deterministic():
    s = seq("p | q, o p |- ~(p -> q), p & q")
    first = backward_applications(s, Calculus.GCIORE)
    second = backward_applications(s, Calculus.GCIORE)
    assert first == second
    rule_positions = [a.rule for a in first]
    assert rule_positions == sorted(rule_positions, key=lambda rule: list(RuleId).index(rule))


def test_calculus_rule_sets_match_the_listed_rules():
    # sequents reads these sets off RULE_TABLE; helpers lists them by hand
    assert QUANTIFIER_RULES == frozenset(LISTED_QUANTIFIER_RULES)
    assert EIGEN_RULES == frozenset(LISTED_EIGEN_RULES)
    gciore, prime = Calculus.GCIORE.rules, Calculus.GCIORE_PRIME.rules
    assert gciore | prime == frozenset(PROP_LOGICAL_RULES)
    assert prime - gciore == {R.NEG_OR_R2, R.NEG_AND_R2, R.NEG_IMP_R2, R.NEG_R2}
    assert gciore - prime == {R.NEG_OR_R, R.NEG_AND_R, R.NEG_IMP_R, R.NEG_R}
    assert Calculus.GQCIORE.rules == frozenset(RULE_TABLE)


def test_local_soundness_random_instances():
    rng = random.Random(1234)
    for rule in PROP_LOGICAL_RULES:
        for _ in range(40):
            conclusion, premises, _ = random_prop_instance(rng, rule)
            names = sequent_atoms(conclusion)
            if len(names) > 4:
                continue
            for v in valuations(names):
                if all(sequent_satisfied(v, prem) for prem in premises):
                    assert sequent_satisfied(v, conclusion), (rule, conclusion)


def test_inversion_gciore_prime():
    rng = random.Random(4321)
    for rule in Calculus.GCIORE_PRIME.rules:
        for _ in range(40):
            conclusion, premises, _ = random_prop_instance(rng, rule)
            if len(sequent_atoms(conclusion)) > 4:
                continue
            if matrix_valid(conclusion):
                for prem in premises:
                    assert matrix_valid(prem), (rule, conclusion, prem)


def test_weight_change_per_rule():
    # every primed-calculus rule strictly lowers the sequent weight except
    # the in-place right negation, which raises it by the weight of the
    # unnegated body (zero exactly on literals)
    rng = random.Random(99)
    for rule in Calculus.GCIORE_PRIME.rules:
        for _ in range(60):
            conclusion, premises, principal = random_prop_instance(rng, rule)
            for prem in premises:
                if rule is R.NEG_R2:
                    body = principal.body
                    expected = weight(body) if body not in conclusion.ante else 0
                    assert sequent_weight(prem) - sequent_weight(conclusion) == expected
                else:
                    assert sequent_weight(prem) < sequent_weight(conclusion)


def test_proofs_respect_gsub():
    rng = random.Random(7)
    from ciore.randgen import random_sequent

    checked = 0
    for _ in range(300):
        s = random_sequent(rng, ("p", "q", "r"), 3)
        verdict = decide(s)
        if isinstance(verdict, Proved):
            checked += 1
            assert proof_respects_gsub(verdict.proof)
    assert checked > 20


def test_expand_neg_and_prime():
    premise = decide(seq("p, q |- p")).proof
    conclusion = seq("|- p, ~(p & q)")
    proof = expand_derived_rule(DerivedRuleId.NEG_AND_R_PRIME, conclusion, [premise])
    assert proof.sequent == conclusion
    assert check_proof(proof, Calculus.GCIORE, allow_cut=False)
    assert not proof.uses_cut()


def test_expand_neg_or_prime():
    prem1 = decide(seq("p |- p")).proof
    prem2 = decide(seq("q |- p, q")).proof
    # wrong premise shapes are rejected
    with pytest.raises(LogicError):
        expand_derived_rule(DerivedRuleId.NEG_OR_R_PRIME, seq("|- ~(p | q)"), [prem1, prem2])
    prem1 = decide(seq("p |- p, q")).proof
    conclusion = seq("|- p, q, ~(p | q)")
    proof = expand_derived_rule(DerivedRuleId.NEG_OR_R_PRIME, conclusion, [prem1, prem2])
    assert check_proof(proof, Calculus.GCIORE, allow_cut=False)


def test_expand_neg_r_prime_is_subsumption():
    target = seq("|- p, ~p")
    prem2 = decide(target).proof
    prem1 = decide(seq("|- p, ~p")).proof  # first premise:  |- Delta, alpha  with Delta = {p}
    proof = expand_derived_rule(DerivedRuleId.NEG_R_PRIME, target, [prem1, prem2])
    assert proof == prem2


def test_check_proof_rejects_off_calculus_rules():
    verdict = decide(seq("|- ~(p & q), p"))
    assert isinstance(verdict, Proved)
    # decide emits primed rules when a negated compound sits on the right
    rules_used = {node.rule for node in verdict.proof.nodes()}
    if R.NEG_AND_R2 in rules_used:
        assert not check_proof(verdict.proof, Calculus.GCIORE)
    assert check_proof(verdict.proof, Calculus.GCIORE_PRIME)


def test_rule_instance_error_messages():
    err = rule_instance_error(R.AND_R, seq("|- p & q"), [seq("|- p")], And(p, q))
    assert err is not None and "schema" in err
    err = rule_instance_error(R.AND_R, seq("|- p | q"), [seq("|- p"), seq("|- q")], And(p, q))
    assert err is not None and "missing" in err
    assert rule_instance_error(R.AXIOM, seq("p |- p"), [seq("|- p")]) is not None
    assert rule_instance_error(R.CUT, seq("p |- q"), [seq("p |- q, r"), seq("p, r |- q")]) is not None
    assert rule_instance_error(R.WEAK_L, seq("p |- q"), [seq("p |-"), seq("|- q")]) is not None
    forall_p = parse_formula("forall x. P(x)")
    premise = Sequent.make((parse_formula("P(a1)"),), ())
    conclusion = Sequent.make((forall_p,), ())
    assert not check_rule_instance(R.FORALL_L, conclusion, [premise], forall_p, var=None)
    assert not check_rule_instance(R.FORALL_L, conclusion, [premise], forall_p, var="x")
    assert check_rule_instance(R.FORALL_L, conclusion, [premise], forall_p, var="a1")


def test_rule_instances_drop_or_keep_the_principal():
    conclusion = seq("r, p | q |- s")
    dropped = [seq("r, p |- s"), seq("r, q |- s")]
    kept = [seq("r, p | q, p |- s"), seq("r, p | q, q |- s")]
    for premises in (dropped, kept):
        assert rule_instance_error(R.OR_L, conclusion, premises, Or(p, q)) is None
    # one base serves every premise, and each premise must fit it
    mixed = [[dropped[0], kept[1]], [kept[0], dropped[1]]]
    off = [[dropped[0], seq("r, q |- s, p")], [kept[0], seq("p | q, q |- s")], dropped[:1], []]
    for wrong in mixed + off:
        assert rule_instance_error(R.OR_L, conclusion, wrong, Or(p, q)) == "premises do not match the rule schema at this principal"
    # NegR2 adds its principal back, so its premise fits both bases
    assert rule_instance_error(R.NEG_R2, seq("r |- ~p"), [seq("r, p |- ~p")], Neg(p)) is None
    assert rule_instance_error(R.NEG_R2, seq("r |- ~p"), [seq("r, p |-")], Neg(p)) is not None


# ---------------------------------------------------------------------------
# One sequent per premise, and a path built only for the failing node


def test_premises_from_schema_matches_the_chained_recipe():
    rng = random.Random(5050)
    for rule in RULE_TABLE:
        for _ in range(40):
            if rule in QUANTIFIER_RULES:
                conclusion, _, principal, var = random_fo_rule_instance(rng, rule)
            else:
                conclusion, _, principal = random_prop_instance(rng, rule)
                var = None
            got = premises_from_schema(conclusion, rule, principal, var)
            assert got is not None and got == chained_premises(conclusion, rule, principal, var)
            assert rule_instance_error(rule, conclusion, got, principal, var) is None
            # the checker also takes the premises with the principal kept
            kept = chained_premises(conclusion, rule, principal, var, keep_principal=True)
            assert rule_instance_error(rule, conclusion, kept, principal, var) is None
            # the None cases: principal missing from the conclusion, a
            # principal of the wrong shape, a missing or bound variable
            side = RULE_TABLE[rule].side
            missing = conclusion.without(side, principal)
            assert premises_from_schema(missing, rule, principal, var) is None
            assert chained_premises(missing, rule, principal, var) is None
            atom = PropAtom("p")
            assert premises_from_schema(Sequent.make((atom,), (atom,)), rule, atom, var) is None
            if rule in QUANTIFIER_RULES:
                for bad in (None, "x"):
                    assert premises_from_schema(conclusion, rule, principal, bad) is None


def test_proof_error_matches_the_recursive_recipe_on_corrupted_proofs():
    reasons = collections.Counter()
    for proof in corrupted_proofs():
        for calculus in Calculus:
            for allow_cut in (False, True):
                err = proof_error(proof, calculus, allow_cut)
                assert err == reference_proof_error(proof, calculus, allow_cut)
                if err is not None:
                    reasons[err.split(": ", 1)[1].split()[0]] += 1
    # swapped premises, changed principals, foreign rules and cuts all show
    assert {"premises", "principal", "rule", "cut"} <= set(reasons), reasons


def _recursive_preorder(proof: Proof):
    yield proof
    for p in proof.premises:
        yield from _recursive_preorder(p)


def _comb(depth: int, cut_at: int | None) -> Proof:
    """A proof `depth` levels deep whose every inner node has the deeper
    proof and an axiom as premises; the node `cut_at` levels above the
    bottom is a cut. The sequents need not follow the rules."""
    s = parse_sequent("p |- p")
    proof = Proof(s, RuleId.AXIOM)
    for level in range(depth):
        rule = RuleId.CUT if level == cut_at else RuleId.WEAK_L
        proof = Proof(s, rule, premises=(proof, Proof(s, RuleId.AXIOM)))
    return proof


def test_nodes_and_uses_cut_walk_a_deep_proof_in_preorder():
    small = _comb(30, 3)
    assert [id(n) for n in small.nodes()] == [id(n) for n in _recursive_preorder(small)]
    for cut_at, expected in ((None, False), (0, True), (4999, True)):
        proof = _comb(5000, cut_at)
        assert sum(1 for _ in proof.nodes()) == 10001
        assert proof.uses_cut() is expected
