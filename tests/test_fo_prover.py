import collections
import gc
import hashlib
import random
import re

import pytest

from ciore import fo_prover
from ciore.errors import LogicError, UsageError
from ciore.fo_prover import (
    DEFAULT_MAX_DEPTH,
    PHASES,
    REFUTER_STRUCTURES,
    Proved,
    ReductionNode,
    _indexed,
    _phase_principals,
    _saturated,
    Refuted,
    Unknown,
    build_reduction_tree,
    decide_fo,
    dump_tree,
    extract_countermodel,
    fo_regression_suite,
    refute_finitely,
)
from ciore.fo_semantics import Structure, fo_sequent_satisfied, fo_sequent_valid_in, structure_to_json
from ciore.parsing import format_formula, format_sequent, parse_formula, parse_sequent
from ciore.prop_prover import decide
from ciore.randgen import random_fo_formula, random_sequent
from ciore.sequents import (
    EIGEN_RULES,
    RULE_TABLE,
    Calculus,
    RuleId,
    Sequent,
    check_proof,
    formula_key,
    proof_error,
    rules_for,
)
from ciore.serialize import proof_to_json, verdict_to_json
from ciore.syntax import Exists, Forall, Neg, bind, free_variables, fresh_free_variables, predicate_arities

from helpers import (
    PROP_LOGICAL_RULES,
    QUANTIFIER_RULES,
    all_unary_structures,
    derived_quantifier_expansions,
    per_tuple_countermodel,
    random_fo_rule_instance,
)

seq = parse_sequent


def test_phase_cycle_shape():
    assert len(PHASES) == len(set(PHASES)) == 26
    assert all(rule in Calculus.GQCIORE.rules for rule in PHASES)
    assert PHASES[0] is RuleId.CIRC_L and PHASES[2] is RuleId.NEG_R


def test_tree_trivial_closure():
    tree = build_reduction_tree(seq("P(a1) |- P(a1)"))
    assert tree.status == "closed"
    assert tree.stages == 0 and tree.node_count == 1


def test_tree_closes_consistency_exists():
    tree = build_reduction_tree(seq("|- (o exists x. P(x)) -> exists x. o P(x)"))
    assert tree.status == "closed"


def test_tree_develops_open_branch():
    s = seq("exists x. P(x) |- forall x. P(x)")
    tree = build_reduction_tree(s)
    assert tree.status == "refuted"
    assert tree.countermodel is not None
    assert not fo_sequent_satisfied(*tree.countermodel, s)


def test_saturated_root_is_refuted_before_stage_1():
    tree = build_reduction_tree(seq("|- P(a1)"))
    assert (tree.status, tree.stages, tree.node_count) == ("refuted", 0, 1)


def test_leaf_is_refuted_at_the_stage_that_made_it():
    # ForallR (stage 19) and ExistsL (stage 20) make the one saturated leaf
    tree = build_reduction_tree(seq("exists x. P(x) |- forall x. P(x)"))
    assert (tree.status, tree.stages, tree.node_count) == ("refuted", 20, 3)


def _seeded_goals(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        pool = ["a1", "a2", "a3"][: rng.randint(1, 3)]
        yield Sequent.make((), (random_fo_formula(rng, {"P": 1, "R": 2}, pool, 3),))


def test_each_leaf_is_extracted_at_most_once(monkeypatch):
    extracted = []
    extract = fo_prover.extract_countermodel
    monkeypatch.setattr(
        fo_prover, "extract_countermodel", lambda leaf, goal, arities: extracted.append(leaf) or extract(leaf, goal, arities)
    )
    total = 0
    for goal in _seeded_goals(707, 150):
        extracted.clear()
        tree = build_reduction_tree(goal, max_nodes=200, max_depth=200)
        sequents = {id(node.sequent) for node in _nodes(tree.root)}
        assert len({id(leaf) for leaf in extracted}) == len(extracted), format_sequent(goal)
        assert {id(leaf) for leaf in extracted} <= sequents, format_sequent(goal)
        total += len(extracted)
    assert total > 100


def test_refuted_tree_stops_at_the_stage_that_made_its_leaf(monkeypatch):
    # the loop ends right after the expansion that made the countermodel's
    # leaf, or before stage 1 when the root is that leaf; stages counts the
    # deepest stage any branch reached
    expansions = []  # (stage, children) of each expansion, in order
    expand = fo_prover._expand_leaf

    def recorded(leaf, rule, reductions, stage):
        expansions.append((stage, expand(leaf, rule, reductions, stage)))
        return expansions[-1][1]

    monkeypatch.setattr(fo_prover, "_expand_leaf", recorded)
    refuted = 0
    for goal in _seeded_goals(808, 150):
        expansions.clear()
        tree = build_reduction_tree(goal, max_nodes=200, max_depth=200)
        if tree.status != "refuted":
            continue
        stage, made = expansions[-1] if expansions else (0, [tree.root])
        assert any(
            not leaf.closed
            and leaf.created_at_stage == stage
            and extract_countermodel(leaf.sequent, goal, tree.arities) == tree.countermodel
            for leaf in made
        ), format_sequent(goal)
        assert max(node.created_at_stage for node in _nodes(tree.root)) <= tree.stages, format_sequent(goal)
        assert tree.stages >= stage and (expansions or tree.stages == 0), format_sequent(goal)
        refuted += 1
    assert refuted > 100


def test_branches_grow_depth_first_from_the_left():
    # the left OrL branch is developed first and refutes the goal at stage
    # 20, so the right OrL leaf is never expanded and draws no eigenvariable
    tree = build_reduction_tree(seq("(exists x. P(x)) | (exists y. R(y, y)) |-"))
    assert dump_tree(tree) == "\n".join(
        [
            "status=refuted stages=20 nodes=4",
            "k=start (exists x. P(x)) | (exists y. R(y, y)) |-",
            "  k=OrL (exists x. P(x)) | (exists y. R(y, y)), exists x. P(x) |-",
            "    k=ExistsL P(a2), (exists x. P(x)) | (exists y. R(y, y)), exists x. P(x) |- "
            "[open; marks: ExistsL:exists x. P(x); OrL:(exists x. P(x)) | (exists y. R(y, y))]",
            "  k=OrL (exists x. P(x)) | (exists y. R(y, y)), exists y. R(y, y) |- "
            "[open; marks: OrL:(exists x. P(x)) | (exists y. R(y, y))]",
        ]
    )


def test_eigenvariables_skip_the_goals_variables():
    # the goal has a2 and a4: eigenvariables fill the gaps first, then go on
    # past a4, in the order branches are developed (the left branch first);
    # neither branch can be refuted, so both are developed
    tree = build_reduction_tree(
        seq("P(a2), ~(forall x. S(x)), forall x. S(x), (exists x. P(x)) | (exists y. Q(y)) |- forall z. R(z, a4)")
    )
    assert tree.status == "stalled"
    handed_out = [(red.rule, red.var) for node in _nodes(tree.root) for red in node.principals if red.rule in EIGEN_RULES]
    assert handed_out == [
        (RuleId.FORALL_R, "a1"),
        (RuleId.EXISTS_L, "a3"),
        (RuleId.FORALL_R, "a5"),
        (RuleId.EXISTS_L, "a6"),
    ]


def _nodes(node):
    yield node
    for child in node.children:
        yield from _nodes(child)


def test_candidate_index_matches_the_rule_table():
    # every node's bucket for a phase holds exactly the formulas of the
    # phase rule's side that rules_for assigns to the rule; no bucket is empty
    rng = random.Random(606)
    checked = 0
    for _ in range(100):
        pool = ["a1", "a2", "a3"][: rng.randint(1, 3)]
        side = lambda: [random_fo_formula(rng, {"P": 1, "R": 2}, pool, 3) for _ in range(rng.randint(0, 2))]
        goal = Sequent.make(side(), side() or [random_fo_formula(rng, {"P": 1, "R": 2}, pool, 3)])
        for node in _nodes(build_reduction_tree(goal, max_nodes=300, max_depth=120).root):
            assert all(node.candidates.values())
            assert set(node.candidates) <= set(range(len(PHASES)))
            for pos, rule in enumerate(PHASES):
                side_name = RULE_TABLE[rule].side
                expected = sorted(
                    (phi for phi in node.sequent.side(side_name) if rule in rules_for(phi, side_name)), key=formula_key
                )
                assert sorted(node.candidates.get(pos, ()), key=formula_key) == expected
            checked += 1
    assert checked > 1000


_SLOW_GOAL = "|- exists x2. forall x1. ~(P(x1) & P(x2) -> P(x2))"


def _tree_digest(tree) -> str:
    """A digest of every node in preorder: its phase, stage, closed flag,
    the formulas it adds to its parent's sequent and its principals. These
    determine `dump_tree`, which repeats each node's whole sequent and so
    grows with the square of a long branch (44 MB at 2,000 nodes below)."""
    h = hashlib.sha256(f"{tree.status} {tree.stages} {tree.node_count}".encode())
    stack = [(tree.root, Sequent.make((), ()))]
    while stack:
        node, parent = stack.pop()
        added = (node.sequent.ante - parent.ante, node.sequent.succ - parent.succ)
        line = [node.phase.value if node.phase else "start", str(node.created_at_stage), str(node.closed)]
        line += sorted(map(format_formula, added[0])) + ["|-"] + sorted(map(format_formula, added[1]))
        line += [f"{red.rule.value}:{format_formula(red.principal)}:{red.var}" for red in node.principals]
        h.update(("\n" + " ".join(line)).encode())
        stack += [(child, node.sequent) for child in reversed(node.children)]
    return h.hexdigest()[:16]


@pytest.mark.parametrize(
    "max_nodes, stages, nodes, digest",
    [(2000, 7477, 1999, "e8e506293e8e9b60"), (5000, 18621, 5000, "12af2a9ef2be731f")],
    ids=["2000-nodes", "5000-nodes"],
)
def test_slow_goal_trees_are_pinned(max_nodes, stages, nodes, digest):
    # the slowest known random goal, with a stage budget the node budget
    # ends the tree before: the loop's shortcuts (candidate index, phases a
    # leaf has no candidate for passed over, variable cursors) must keep
    # these trees node for node, and no expansion may take the tree past its
    # node budget
    tree = build_reduction_tree(seq(_SLOW_GOAL), max_nodes=max_nodes, max_depth=20_000)
    assert (tree.status, tree.stages, tree.node_count) == ("budget", stages, nodes)
    assert _tree_digest(tree) == digest


def test_slow_goal_ends_at_the_stage_budget_with_few_nodes():
    # at the CLI defaults one branch reaches stage 401 with 95 nodes made;
    # a loop that grew every open leaf at every stage made 20,001
    s = seq(_SLOW_GOAL)
    tree = build_reduction_tree(s)
    assert (tree.status, tree.stages) == ("budget", DEFAULT_MAX_DEPTH + 1)
    assert tree.node_count < 200
    verdict = decide_fo(s)
    assert isinstance(verdict, Refuted) and not fo_sequent_satisfied(verdict.structure, verdict.assignment, s)


def test_a_branch_at_the_stage_budget_ends_the_search():
    # the left OrL branch never saturates (every ExistsL instance is a new
    # ForallL instance), so it reaches the stage budget first and the right
    # branch, which saturates into a countermodel at stage 20, is never
    # developed; with the disjuncts swapped the loop refutes the goal there.
    # A loop that grew every open leaf at every stage refuted both.
    endless, finite = "forall x. exists y. R(x, y)", "exists y. P(y)"
    tree = build_reduction_tree(seq(f"({endless}) | ({finite}) |-"), max_nodes=200, max_depth=200)
    assert (tree.status, tree.stages) == ("budget", 201)
    assert not tree.root.children[1].children
    tree = build_reduction_tree(seq(f"({finite}) | ({endless}) |-"), max_nodes=200, max_depth=200)
    assert (tree.status, tree.stages, tree.node_count) == ("refuted", 20, 4)


_CAP_WITNESS = "|- exists x3. forall x2. exists x1. o R(x3, x2) & (R(x1, x2) | P(x1)) & (R(x2, x1) & R(x1, x2))"


@pytest.mark.parametrize("max_nodes", [200, 1000])
def test_node_budget_is_never_exceeded(max_nodes):
    # one expansion of this goal makes many children at once; the loop must
    # stop before it rather than overshoot the budget
    tree = build_reduction_tree(seq(_CAP_WITNESS), max_nodes=max_nodes)
    assert tree.status == "budget" and tree.node_count <= max_nodes


def test_small_budgets_bound_every_tree():
    # at 15 nodes, an expansion of several of these trees would overshoot
    statuses = collections.Counter()
    for goal in _seeded_goals(909, 300):
        tree = build_reduction_tree(goal, max_nodes=15, max_depth=60)
        assert tree.node_count <= 15 and tree.stages <= 61, format_sequent(goal)
        statuses[tree.status] += 1
    assert statuses["budget"] > 20 and statuses["refuted"] > 100, statuses


def test_tree_rejects_constants_functions_prop_atoms():
    with pytest.raises(LogicError):
        build_reduction_tree(seq("P(c) |- P(c)"))
    with pytest.raises(LogicError):
        build_reduction_tree(seq("P(f(a1)) |-"))
    with pytest.raises(LogicError):
        build_reduction_tree(seq("p |- p"))
    with pytest.raises(LogicError):
        build_reduction_tree(seq("P(a1), P(a1, a2) |-"))


def test_failed_saturated_leaf_does_not_block_other_branches():
    # the left disjunct saturates into a branch whose extracted structure
    # cannot falsify the goal (that needs the predicate inconsistent
    # everywhere); the right disjunct keeps generating variables until the
    # budget goes; the loop must give up without a countermodel either way
    s = seq("~(forall x. P(x)), (forall x. P(x)) | (forall x. exists y. R(x, y)) |-")
    tree = build_reduction_tree(s, max_nodes=800, max_depth=200)
    assert tree.status == "budget" and tree.countermodel is None
    # past the loop, the finite refuter finds a verified structure
    verdict = decide_fo(s, max_nodes=800, max_depth=200)
    assert isinstance(verdict, Refuted)
    assert not fo_sequent_satisfied(verdict.structure, verdict.assignment, s)


def test_regression_suite_proved_cut_free():
    for name, s in fo_regression_suite():
        verdict = decide_fo(s)
        assert isinstance(verdict, Proved), name
        assert not verdict.proof.uses_cut(), name
        err = proof_error(verdict.proof, Calculus.GQCIORE, allow_cut=False)
        assert err is None, (name, err)


def test_derived_expansions_need_cut():
    for name, proof in derived_quantifier_expansions():
        assert proof.uses_cut(), name
        assert check_proof(proof, Calculus.GQCIORE, allow_cut=True), name
        assert not check_proof(proof, Calculus.GQCIORE, allow_cut=False), name


def test_refutations_verified():
    verdict = decide_fo(seq("exists x. P(x) |- forall x. P(x)"))
    assert isinstance(verdict, Refuted)
    root = seq("exists x. P(x) |- forall x. P(x)")
    assert not fo_sequent_satisfied(verdict.structure, verdict.assignment, root)

    dist = seq("|- (forall x. P(x) | Q(x)) -> (forall x. P(x)) | (forall x. Q(x))")
    verdict = decide_fo(dist)
    assert isinstance(verdict, Refuted)
    assert not fo_sequent_satisfied(verdict.structure, verdict.assignment, dist)


def test_quantifier_swap_never_proved():
    s = seq("|- (forall x. exists y. R(x, y)) -> exists y. forall x. R(x, y)")
    verdict = decide_fo(s, max_nodes=2000, max_depth=120)
    assert isinstance(verdict, (Refuted, Unknown))
    if isinstance(verdict, Refuted):
        assert not fo_sequent_satisfied(verdict.structure, verdict.assignment, s)


def test_budget_exhaustion_reports_unknown():
    # valid, so no structure falsifies it, and its tree closes only at stage 22
    s = seq("|- (o forall x. P(x)) -> exists x. o P(x)")
    verdict = decide_fo(s, max_nodes=50, max_depth=20)
    assert isinstance(verdict, Unknown)
    assert "budget" in verdict.report or "stalled" in verdict.report
    assert f"no countermodel among {REFUTER_STRUCTURES} structures" in verdict.report
    # a refutable goal the loop gives up on comes back refuted
    swap = seq("|- (forall x. exists y. R(x, y)) -> exists y. forall x. R(x, y)")
    assert build_reduction_tree(swap, max_nodes=50, max_depth=30).status == "budget"
    verdict = decide_fo(swap, max_nodes=50, max_depth=30)
    assert isinstance(verdict, Refuted) and verdict.structure.domain == ("m0", "m1")
    assert not fo_sequent_satisfied(verdict.structure, verdict.assignment, swap)


@pytest.mark.parametrize(
    "goal, budget, kind",
    [
        ("|- (forall x. P(x)) -> P(a1)", {}, Proved),
        ("exists x. P(x) |- forall x. P(x)", {}, Refuted),
        # the loop gives up, and the finite refuter decides
        ("|- (forall x. exists y. R(x, y)) -> exists y. forall x. R(x, y)", {"max_nodes": 50, "max_depth": 30}, Refuted),
    ],
    ids=["closed", "loop-refuted", "finitely-refuted"],
)
def test_decisions_leave_no_reference_cycles(goal, budget, kind):
    # reference counting alone frees the tree and every structure checked
    s = seq(goal)
    decide_fo(s, **budget)  # first-call caches
    gc.disable()
    try:
        gc.collect()
        assert isinstance(decide_fo(s, **budget), kind)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_finite_refuter_takes_the_signature_from_the_input_check(monkeypatch):
    # every structure it tries interprets exactly the predicates the input
    # check read off the goal, so no structure's signature is checked
    checked = []
    monkeypatch.setattr(Structure, "check_signature", lambda st, formulas: checked.append(st.domain))
    swap = seq("|- (forall x. exists y. R(x, y)) -> exists y. forall x. R(x, y)")
    verdict = decide_fo(swap, max_nodes=50, max_depth=30)
    assert isinstance(verdict, Refuted) and verdict.structure.domain == ("m0", "m1")
    assert checked == []
    # the first-order prover's own input faults, not a structure's
    with pytest.raises(LogicError, match="^the first-order prover does not handle constants$"):
        refute_finitely(seq("P(c) |- P(a1)"))
    with pytest.raises(LogicError, match="^the first-order prover takes predicate atoms only$"):
        refute_finitely(seq("P(a1) |- p"))


def test_decide_fo_checks_its_input_once(monkeypatch):
    # the stage loop gives up on this goal, and the finite refuter takes the
    # arities the loop's input check read
    swap = seq("forall x. exists y. R(x,y) |- exists y. forall x. R(x,y)")
    assert build_reduction_tree(swap, max_nodes=200, max_depth=200).status == "budget"
    checked = []
    check = fo_prover._check_fo_input
    monkeypatch.setattr(fo_prover, "_check_fo_input", lambda s: checked.append(s) or check(s))
    verdict = decide_fo(swap, max_nodes=200, max_depth=200)
    assert isinstance(verdict, Refuted) and not fo_sequent_satisfied(verdict.structure, verdict.assignment, swap)
    assert checked == [swap]


def test_finite_refuter_bounds_the_points_of_a_structure():
    # valid goals whose trees close at stage 22. A domain of size n is tried
    # only while n ** (free variables + quantifier nesting) and n ** arity stay
    # within REFUTER_POINTS: the goal's own nesting is 1, and 30 nested
    # quantifiers would make 2 ** 30 points at the second domain
    goal = "|- (o forall x. P(x)) -> exists x. o P(x)"
    nested = "".join(f"forall y{i}. " for i in range(1, 31)) + "P(y1)"
    cases = [
        ("", 64, "4 elements"),
        ("P(a1), P(a2)", 64, "4 elements"),
        ("P(a1), P(a2), P(a3)", 12, "2 elements"),
        ("P(a1), P(a2), P(a3), P(a4), P(a5), P(a6)", 3, "1 element"),
        ("forall y1. forall y2. P(y1)", 64, "4 elements"),
        ("forall y1. forall y2. forall y3. forall y4. P(y1)", 12, "2 elements"),
        (nested, 3, "1 element"),
        ("Q(a1, a1, a1, a1, a1, a1)", 64, "2 elements"),
        ("Q(a1, a1, a1, a1, a1, a1, a1)", 9, "1 element"),
    ]
    for ante, tried, domain in cases:
        verdict = decide_fo(seq(f"{ante} {goal}"), max_depth=20)
        assert isinstance(verdict, Unknown), ante
        assert verdict.report.endswith(f"no countermodel among {tried} structures on domains of up to {domain}"), ante


def test_extract_countermodel_simple_cases():
    root = seq("|- P(a1)")
    extracted = extract_countermodel(root, root, {"P": 1})
    assert extracted is not None
    structure, assignment = extracted
    assert structure.domain == ("a1",)
    assert structure.predicates["P"].minus == frozenset({("a1",)})
    assert assignment == {"a1": "a1"}
    tree = build_reduction_tree(root)
    assert tree.status == "refuted" and tree.countermodel == extracted

    root = seq("P(a1), ~P(a1) |- Q(a1)")
    structure, assignment = extract_countermodel(root, root, {"P": 1, "Q": 1})
    assert structure.predicates["P"].circ == frozenset({("a1",)})
    assert structure.predicates["Q"].minus == frozenset({("a1",)})
    tree = build_reduction_tree(root)
    assert tree.status == "refuted" and tree.countermodel == (structure, assignment)

    leaf = seq("P(a2), exists x. P(x) |- forall x. P(x), P(a3)")
    structure, assignment = extract_countermodel(leaf, seq("exists x. P(x) |- forall x. P(x)"), {"P": 1})
    assert structure.domain == ("a2", "a3")
    assert structure.predicates["P"].plus == frozenset({("a2",)})
    assert structure.predicates["P"].minus == frozenset({("a3",)})


def test_extract_countermodel_rejects_unfaithful_branch():
    # a leaf that does not actually falsify the goal is rejected, not returned
    assert extract_countermodel(seq("|- P(a1)"), seq("P(a1) |-"), {"P": 1}) is None


def test_extract_countermodel_matches_the_per_tuple_recipe():
    # every open leaf of the trees of seeded random goals, saturated or not
    rng = random.Random(2029)
    found = {True: 0, False: 0}
    for _ in range(100):
        side = lambda: [random_fo_formula(rng, {"P": 1, "R": 2}, ["a1", "a2"], 3) for _ in range(rng.randint(0, 2))]
        goal = Sequent.make(side(), side())
        arities = predicate_arities(goal.ante | goal.succ)
        stack = [build_reduction_tree(goal, max_nodes=200, max_depth=200).root]
        while stack:
            node = stack.pop()
            stack += node.children
            if node.children or node.closed:
                continue
            got, want = extract_countermodel(node.sequent, goal, arities), per_tuple_countermodel(node.sequent, goal)
            assert (got is None) == (want is None), format_sequent(node.sequent)
            if got is not None:
                assert structure_to_json(got[0]) == structure_to_json(want[0])
                assert got[1] == want[1]
            found[got is not None] += 1
    assert found[True] > 50 and found[False] > 50, found


def test_determinism_of_trees_and_verdicts():
    s = seq("|- (o forall x. P(x)) -> exists x. o P(x)")
    first = decide_fo(s)
    second = decide_fo(s)
    assert isinstance(first, Proved) and proof_to_json(first.proof) == proof_to_json(second.proof)

    r = seq("exists x. P(x) |- forall x. P(x)")
    assert dump_tree(build_reduction_tree(r)) == dump_tree(build_reduction_tree(r))
    assert verdict_to_json(decide_fo(r)) == verdict_to_json(decide_fo(r))


def test_proved_sequents_valid_in_exhaustive_family():
    for name, s in fo_regression_suite():
        for size in (1, 2):
            for st in all_unary_structures(size):
                assert fo_sequent_valid_in(st, s), (name, structure_to_json(st))


def test_rule_soundness_on_random_structures():
    rng = random.Random(1009)
    rules = list(Calculus.GQCIORE.rules)
    rules.sort(key=lambda r: r.value)
    for rule in rules:
        for _ in range(25):
            if rule in QUANTIFIER_RULES:
                conclusion, premises, principal, var = random_fo_rule_instance(rng, rule)
            elif rule in PROP_LOGICAL_RULES:
                conclusion, premises, principal, var = (*random_fo_rule_instance(rng, rule)[:3], None)
            else:
                continue
            from helpers import random_structure

            st = random_structure(rng, {"P": 1, "Q": 1, "R": 2}, max_size=3)
            if all(fo_sequent_valid_in(st, prem) for prem in premises):
                assert fo_sequent_valid_in(st, conclusion), (rule, conclusion)


def test_dump_format():
    tree = build_reduction_tree(seq("exists x. P(x) |- forall x. P(x)"))
    text = dump_tree(tree)
    lines = text.splitlines()
    assert lines[0].startswith("status=refuted")
    assert all("k=" in line for line in lines[1:])
    assert any("[open" in line for line in lines)
    assert any("marks:" in line for line in lines)


def test_negated_disjunction_on_the_right_is_reduced_invertibly():
    # NEG_OR_R keeps one of a, ~a, b, ~b per premise, so a saturated branch
    # need not falsify ~(a | b) and this valid goal used to stall at 35
    # nodes; NEG_OR_R2 keeps the saturated branch a countermodel
    s = seq("|- forall x2. exists x1. ~(P(x1) | P(x2)) | P(x2)")
    tree = build_reduction_tree(s, max_nodes=200, max_depth=200)
    assert (tree.status, tree.node_count, tree.stages) == ("closed", 29, 63)
    verdict = decide_fo(s, max_nodes=200, max_depth=200)
    assert isinstance(verdict, Proved) and check_proof(verdict.proof, Calculus.GQCIORE)
    assert any(node.rule is RuleId.NEG_OR_R2 for node in verdict.proof.nodes())


def test_unverifiable_saturation_is_unknown_never_wrong():
    # no rule decomposes a negated universal on the left; the atom recipe
    # cannot express "P is 1/2 everywhere", so the only honest outcome of
    # the loop on this (refutable) goal is no countermodel, never an
    # unverified one
    s = seq("~(forall x. P(x)), forall x. P(x) |-")
    half = next(
        st for st in all_unary_structures(1) if st.predicates["P"].circ
    )
    assert not fo_sequent_valid_in(half, s)  # refutable in principle
    tree = build_reduction_tree(s, max_nodes=1500, max_depth=120)
    assert tree.status == "stalled" and tree.countermodel is None
    # the finite refuter finds that structure, and it is verified
    verdict = decide_fo(s, max_nodes=1500, max_depth=120)
    assert isinstance(verdict, Refuted)
    assert verdict.structure.predicates["P"].circ == frozenset({("m0",)})
    assert not fo_sequent_satisfied(verdict.structure, verdict.assignment, s)


def _drawn_variables(tree) -> list[str]:
    """The variables the loop made available: the goal's (or a1), then
    every eigenvariable a principal drew."""
    drawn = sorted(tree.root.sequent.free_variables()) or ["a1"]
    drawn += [red.var for node in _nodes(tree.root) for red in node.principals if red.rule in EIGEN_RULES]
    return drawn


@pytest.mark.parametrize(
    "goal, nodes, stages",
    [
        # the closed ExistsL branch draws a2 after the left leaf got stuck, so
        # that leaf goes back on the stack and applies ForallL at a2
        ("~(forall x. P(x)), forall x. P(x), ~~(S(a1) | exists y. T(a1)) |- T(a1)", 7, 70),
        ("~(forall x. P(x)), forall x. P(x) |-", 2, 44),
        ("~(forall x. P(x)), forall x. P(x) |- ~P(a1)", 3, 44),
        ("~(exists x. P(x)), exists x. P(x) |- ~P(a1)", 3, 46),
    ],
    ids=["drawn-on-a-closed-branch", "bare-witness", "forall-witness", "exists-witness"],
)
def test_stalled_tree_has_nothing_pending(goal, nodes, stages):
    # a search stalls only when every open leaf has gone a full cycle of its
    # own stages without a reduction, and then no open leaf has a reduction
    # left at any variable drawn
    tree = build_reduction_tree(seq(goal))
    assert (tree.status, tree.node_count, tree.stages) == ("stalled", nodes, stages)
    drawn = _drawn_variables(tree)
    open_leaves = [node for node in _nodes(tree.root) if not node.children and not node.closed]
    assert open_leaves and all(_saturated(leaf, drawn) for leaf in open_leaves)
    assert all(leaf.created_at_stage <= stages - len(PHASES) for leaf in open_leaves)


def _pushed_back(tree) -> bool:
    """Some node was expanded at a variable drawn on a branch to its right.
    Branches are developed leftmost first, so that node was set aside and
    put back on the stack after the variable was drawn."""
    nodes = list(_nodes(tree.root))
    position = {id(node): i for i, node in enumerate(nodes)}  # preorder
    end = {}  # one past the preorder position of a node's last descendant
    for node in reversed(nodes):
        end[id(node)] = end[id(node.children[-1])] if node.children else position[id(node)] + 1
    drawn_at = {red.var: position[id(node)] for node in nodes for red in node.principals if red.rule in EIGEN_RULES}
    return any(
        drawn_at.get(red.var, -1) >= end[id(node)]
        for node in nodes
        for red in node.principals
        if red.rule not in EIGEN_RULES
    )


def test_stalled_trees_of_the_swap_family_have_nothing_pending():
    # goals ~(Qz. phi), Qz. phi, G |- D: no rule reduces the negated
    # quantifier on the left, and the atom recipe cannot read a countermodel
    # off a leaf that holds both, so most of these trees stall
    rng = random.Random(4242)
    statuses, pushed_back = collections.Counter(), 0
    for _ in range(200):
        pool = ["a1", "a2"][: rng.randint(1, 2)]
        phi = random_fo_formula(rng, {"P": 1, "R": 2}, pool + ["a9"], 2, 0)
        quantifier = rng.choice((Forall, Exists))
        bound = bind(phi, "a9", "z", quantifier) if "a9" in free_variables(phi) else quantifier("z", phi)
        side = lambda: [random_fo_formula(rng, {"P": 1, "R": 2}, pool, 2) for _ in range(rng.randint(0, 1))]
        goal = Sequent.make([Neg(bound), bound, *side()], side())
        tree = build_reduction_tree(goal, max_nodes=300, max_depth=200)
        statuses[tree.status] += 1
        if tree.status == "stalled":
            drawn = _drawn_variables(tree)
            open_leaves = [node for node in _nodes(tree.root) if not node.children and not node.closed]
            assert open_leaves and all(_saturated(leaf, drawn) for leaf in open_leaves), format_sequent(goal)
            pushed_back += _pushed_back(tree)
    assert statuses["stalled"] > 100 and pushed_back >= 1, (statuses, pushed_back)


def test_open_leaf_gets_the_instance_at_a_variable_drawn_on_a_closed_branch():
    s = seq("~(forall x. P(x)), forall x. P(x), ~~(S(a1) | exists y. T(a1)) |- T(a1)")
    tree = build_reduction_tree(s)
    (leaf,) = [node for node in _nodes(tree.root) if not node.children and not node.closed]
    assert "a2" in _drawn_variables(tree) and parse_formula("P(a2)") in leaf.sequent.ante
    verdict = decide_fo(s)
    assert isinstance(verdict, Refuted) and not fo_sequent_satisfied(verdict.structure, verdict.assignment, s)


@pytest.mark.parametrize("budgets", [{"max_nodes": 0}, {"max_depth": 0}, {"max_nodes": -3, "max_depth": -1}])
def test_budgets_below_one_are_usage_errors(budgets):
    s = seq("|- P(a1) -> P(a1)")
    with pytest.raises(UsageError, match="budget must be a positive integer, got"):
        build_reduction_tree(s, **budgets)
    with pytest.raises(UsageError):
        decide_fo(s, **budgets)
    assert build_reduction_tree(s, max_nodes=1, max_depth=1).status == "budget"


def test_propositional_and_first_order_provers_agree():
    # each atom p becomes Qp(a1): the first-order rules on the translation
    # must decide what the propositional search decides
    rng = random.Random(2026)
    names = tuple(f"p{i}" for i in range(6))
    statuses = []
    for _ in range(300):
        s = random_sequent(rng, names, 3, 2)
        translated = seq(re.sub(r"\b(p\d)\b", r"Q\1(a1)", format_sequent(s)))
        status = decide(s).status
        assert decide_fo(translated).status == status, format_sequent(s)
        statuses.append(status)
    assert statuses.count("proved") > 20 and statuses.count("refuted") > 200


def test_negated_universal_left_still_refutable_when_recipe_fits():
    s = seq("~(forall x. P(x)) |-")
    verdict = decide_fo(s, max_nodes=1500, max_depth=120)
    assert isinstance(verdict, Refuted)
    assert not fo_sequent_satisfied(verdict.structure, verdict.assignment, s)


def test_eigenvariables_fresh_along_tree():
    tree = build_reduction_tree(seq("exists x. P(x), exists y. Q(y) |- forall x. P(x)"))

    def walk(node, seen_vars):
        if node.children:
            for red in node.principals:
                if red.rule.value in ("ForallR", "ExistsL", "CircExistsL"):
                    assert red.var not in node.sequent.free_variables()
        for child in node.children:
            walk(child, seen_vars)

    walk(tree.root, set())


# Every compound shape of the first-order language with the phase that
# reduces it on the left and on the right (None: no phase does).
_K = RuleId
_SHAPE_PHASES = [
    ("P(a1)", None, None),
    ("~P(a1)", None, _K.NEG_R),
    ("P(a1) & P(a2)", _K.AND_L, _K.AND_R),
    ("P(a1) | P(a2)", _K.OR_L, _K.OR_R),
    ("P(a1) -> P(a2)", _K.IMP_L, _K.IMP_R),
    ("forall x. P(x)", _K.FORALL_L, _K.FORALL_R),
    ("exists x. P(x)", _K.EXISTS_L, _K.EXISTS_R),
    ("~(P(a1) & P(a2))", _K.NEG_AND_L, _K.NEG_AND_R2),
    ("~(P(a1) | P(a2))", _K.NEG_OR_L, _K.NEG_OR_R2),
    ("~(P(a1) -> P(a2))", _K.NEG_IMP_L, _K.NEG_IMP_R2),
    ("~~P(a1)", _K.NEG_NEG_L, _K.NEG_NEG_R),
    ("~o P(a1)", _K.NEG_CIRC_L, _K.NEG_R),
    ("~(forall x. P(x))", None, _K.NEG_R),
    ("~(exists x. P(x))", None, _K.NEG_R),
    ("o P(a1)", _K.CIRC_L, _K.CIRC_R),
    ("o ~P(a1)", _K.CIRC_L, _K.CIRC_R),
    ("o o P(a1)", _K.CIRC_L, _K.CIRC_R),
    ("o (P(a1) & P(a2))", _K.CIRC_L, _K.CIRC_R),
    ("o (P(a1) | P(a2))", _K.CIRC_L, _K.CIRC_R),
    ("o (P(a1) -> P(a2))", _K.CIRC_L, _K.CIRC_R),
    ("o forall x. P(x)", _K.CIRC_FORALL_L, _K.CIRC_FORALL_R),
    ("o exists x. P(x)", _K.CIRC_EXISTS_L, _K.CIRC_EXISTS_R),
]


# Case ids keep the names the cases had when phases were a `PhaseKind`
# enum, whose negated-|, negated-& and negated--> right phases were
# NEG_OR_R, NEG_AND_R and NEG_IMP_R; the rules themselves are checked as
# `RuleId`s.
_PHASE_KIND_NAME = {_K.NEG_OR_R2: "NEG_OR_R", _K.NEG_AND_R2: "NEG_AND_R", _K.NEG_IMP_R2: "NEG_IMP_R"}


def _phase_id(rule):
    return "None" if rule is None else "PhaseKind." + _PHASE_KIND_NAME.get(rule, rule.name)


@pytest.mark.parametrize(
    "text, left, right",
    _SHAPE_PHASES,
    ids=[f"{text}-{_phase_id(left)}-{_phase_id(right)}" for text, left, right in _SHAPE_PHASES],
)
def test_each_shape_is_reduced_by_at_most_one_phase(text, left, right):
    phi = parse_formula(text)
    for expected, sequent in ((left, Sequent.make((phi,), ())), (right, Sequent.make((), (phi,)))):
        candidates = _indexed({}, sequent.ante, sequent.succ)
        node = ReductionNode(sequent=sequent, created_at_stage=0, candidates=candidates)
        available = ["a1", "a2"]
        reducing = [rule for rule in PHASES if _phase_principals(node, rule, available, fresh_free_variables(available))]
        assert reducing == ([] if expected is None else [expected]), (text, sequent)
