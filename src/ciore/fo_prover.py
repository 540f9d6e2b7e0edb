"""Bounded saturation prover for the first-order calculus.

The search tree grows in stages that cycle through ``PHASES``: the 26 rules
of the rule table the search applies, one per connective shape and side,
then one idle stage. Sequents only ever grow along a branch; formulas
already reduced are remembered by marks, and the left quantifier
instantiation rules come back to a formula once per available variable.
A tree whose leaves all share a formula across sides compiles to a cut-free
proof; a branch that a full cycle of stages leaves untouched yields a
candidate countermodel, which is only reported after it verifiably
falsifies the goal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Union

from .errors import InternalError, LogicError
from .fo_semantics import Structure, Triple, fo_sequent_satisfied
from .matrix import HALF, ONE, ZERO
from .parsing import format_formula, format_sequent
from .sequents import (
    EIGEN_RULES,
    QUANTIFIER_RULES,
    RULE_TABLE,
    Calculus,
    DerivedRuleId,
    Proof,
    Proved,
    RuleId,
    Sequent,
    axiom_proof,
    check_proof,
    expand_derived_rule,
    formula_key,
    rule_schema,
    rules_for,
)
from .syntax import (
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
    PredAtom,
    PropAtom,
    free_variables,
    fresh_free_variable,
    iff,
    subformulas,
    var_index,
)

R = RuleId

DEFAULT_MAX_NODES = 20_000
DEFAULT_MAX_DEPTH = 400

#: Cyclic stage order; stage k applies PHASES[k % 27], and None is the idle
#: stage that closes each cycle. A phase reduces exactly the formulas on its
#: rule's side that the rule table assigns that rule (``rules_for``).
PHASES: tuple[RuleId | None, ...] = (
    R.CIRC_L,
    R.CIRC_R,
    R.NEG_R,
    R.NEG_CIRC_L,
    R.AND_L,
    R.AND_R,
    R.OR_L,
    R.OR_R,
    R.IMP_L,
    R.IMP_R,
    R.NEG_OR_L,
    R.NEG_OR_R,
    R.NEG_AND_L,
    R.NEG_AND_R2,
    R.NEG_IMP_L,
    R.NEG_IMP_R2,
    R.NEG_NEG_L,
    R.NEG_NEG_R,
    R.FORALL_L,
    R.FORALL_R,
    R.EXISTS_L,
    R.EXISTS_R,
    R.CIRC_FORALL_L,
    R.CIRC_FORALL_R,
    R.CIRC_EXISTS_L,
    R.CIRC_EXISTS_R,
    None,
)
_CYCLE = len(PHASES)

ONCE, REPEAT, EIGEN = "once", "repeat", "eigen"

#: Side and mode of each phase's rule, read off the rule table once.
#: Eigenvariable rules fire once with fresh variables, the other quantifier
#: rules once per available variable, the rest once.
_PHASE_STEP: dict[RuleId, tuple[str, str]] = {
    rule: (RULE_TABLE[rule].side, EIGEN if rule in EIGEN_RULES else REPEAT if rule in QUANTIFIER_RULES else ONCE)
    for rule in PHASES
    if rule is not None
}

MarkKey = tuple[Formula, RuleId]


@dataclass(frozen=True, slots=True)
class PrincipalReduction:
    principal: Formula
    rule: RuleId
    var: str | None
    options: tuple[tuple[tuple[Formula, ...], tuple[Formula, ...]], ...]


@dataclass
class ReductionNode:
    sequent: Sequent
    created_at_stage: int
    phase: RuleId | None = None  # rule of the reduction that created this node
    marks: frozenset[MarkKey] = frozenset()
    used_vars: dict[MarkKey, frozenset[str]] = field(default_factory=dict)
    principals: tuple[PrincipalReduction, ...] = ()
    children: list["ReductionNode"] = field(default_factory=list)

    @property
    def closed(self) -> bool:
        return self.sequent.closed_by_axiom


@dataclass
class ReductionTree:
    root: ReductionNode
    status: str  # "closed" | "refuted" | "stalled" | "budget"
    stages: int
    node_count: int
    countermodel: tuple[Structure, dict[str, str]] | None = None  # set when refuted


def _check_fo_input(s: Sequent) -> None:
    arities: dict[str, int] = {}
    for phi in s.ante | s.succ:
        for f in subformulas(phi):
            if isinstance(f, PropAtom):
                raise LogicError("the first-order prover takes predicate atoms only")
            if isinstance(f, PredAtom):
                if arities.setdefault(f.name, len(f.args)) != len(f.args):
                    raise LogicError(f"predicate {f.name!r} used with two arities")
                stack = list(f.args)
                while stack:
                    t = stack.pop()
                    if isinstance(t, FunApp):
                        raise LogicError("the first-order prover does not handle function symbols")
                    if isinstance(t, Const):
                        raise LogicError("the first-order prover does not handle constants")
                    assert isinstance(t, (FreeVar, BoundVar))


def _phase_principals(leaf: ReductionNode, rule: RuleId, available: list[str]) -> list[PrincipalReduction]:
    side, mode = _PHASE_STEP[rule]
    found: list[PrincipalReduction] = []
    fresh_cursor = None
    reducible = [phi for phi in leaf.sequent.side(side) if rule in rules_for(phi, side)]
    for phi in sorted(reducible, key=formula_key):
        key: MarkKey = (phi, rule)
        if mode == REPEAT:
            used = leaf.used_vars.get(key, frozenset())
            var = next((v for v in available if v not in used), None)
            if var is None:
                continue
        elif key in leaf.marks:
            continue
        elif mode == EIGEN:  # the next variables beyond the available ones
            if fresh_cursor is None:
                fresh_cursor = set(available)
            var = fresh_free_variable(fresh_cursor)
            fresh_cursor.add(var)
        else:
            var = None
        schema = rule_schema(rule, phi, var)
        assert schema is not None
        found.append(PrincipalReduction(phi, rule, var, tuple(schema[1])))
    return found


def _expand_leaf(leaf: ReductionNode, rule: RuleId, reductions: list[PrincipalReduction], stage: int) -> list[ReductionNode]:
    new_marks = set(leaf.marks)
    new_used = dict(leaf.used_vars)
    for red in reductions:
        key: MarkKey = (red.principal, rule)
        if _PHASE_STEP[rule][1] == REPEAT:
            assert red.var is not None
            new_used[key] = new_used.get(key, frozenset()) | {red.var}
        else:
            new_marks.add(key)
    marks = frozenset(new_marks)

    leaf.principals = tuple(reductions)
    for choice in itertools.product(*(red.options for red in reductions)):
        seq = leaf.sequent
        for add_ante, add_succ in choice:
            seq = seq.with_ante(*add_ante).with_succ(*add_succ)
        leaf.children.append(ReductionNode(seq, stage, rule, marks, new_used))
    return leaf.children


def build_reduction_tree(
    s: Sequent,
    max_nodes: int = DEFAULT_MAX_NODES,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> ReductionTree:
    """Grow the staged reduction tree until it closes, a saturated branch
    refutes the goal, nothing can change anymore, or the budget runs out."""
    _check_fo_input(s)
    root = ReductionNode(sequent=s, created_at_stage=0)
    occurring = sorted(s.free_variables(), key=var_index)
    available: list[str] = occurring if occurring else ["a1"]

    # The open leaves, left to right; eigenvariables are handed out in this order.
    frontier = [] if root.closed else [root]
    node_count = 1
    stage = 0
    while True:
        if not frontier:
            return ReductionTree(root, "closed", stage, node_count)

        # Every stage is checked, so a leaf ends its first idle cycle at exactly
        # one of them and its countermodel is extracted once.
        for leaf in frontier:
            if stage - leaf.created_at_stage == _CYCLE:
                countermodel = extract_countermodel(leaf.sequent, s)
                if countermodel is not None:
                    return ReductionTree(root, "refuted", stage, node_count, countermodel)
        if all(stage - leaf.created_at_stage >= _CYCLE for leaf in frontier):
            return ReductionTree(root, "stalled", stage, node_count)

        stage += 1
        if stage > max_depth or node_count > max_nodes:
            return ReductionTree(root, "budget", stage, node_count)

        rule = PHASES[stage % _CYCLE]
        if rule is None:
            continue
        grown: list[ReductionNode] = []
        for leaf in frontier:
            reductions = _phase_principals(leaf, rule, available)
            if not reductions:
                grown.append(leaf)
                continue
            children = _expand_leaf(leaf, rule, reductions, stage)
            node_count += len(children)
            grown.extend(child for child in children if not child.closed)
            if _PHASE_STEP[rule][1] == EIGEN:
                available.extend(red.var for red in reductions)
            if node_count > max_nodes:
                return ReductionTree(root, "budget", stage, node_count)
        frontier = grown


# ---------------------------------------------------------------------------
# Countermodel extraction (from a saturated open leaf)


def extract_countermodel(leaf: Sequent, goal: Sequent) -> tuple[Structure, dict[str, str]] | None:
    """Recipe: domain = the leaf's free variables; a predicate holds (1)
    where only the atom sits on the left, is inconsistent (1/2) where atom
    and negated atom both do, and fails (0) elsewhere. The result is only
    returned if it verifiably falsifies the goal. Sequents only grow along
    a branch, so the leaf holds every formula of its branch."""
    variables: set[str] = set()
    arities: dict[str, int] = {}
    for phi in leaf.ante | leaf.succ:
        for f in subformulas(phi):
            if isinstance(f, PredAtom):
                if arities.setdefault(f.name, len(f.args)) != len(f.args):
                    raise LogicError(f"predicate {f.name!r} used with two arities")
        variables |= free_variables(phi)

    domain = tuple(sorted(variables, key=var_index)) or ("a1",)

    predicates: dict[str, Triple] = {}
    for name, arity in sorted(arities.items()):
        space = tuple(itertools.product(domain, repeat=arity))
        values = {}
        for combo in space:
            atom = PredAtom(name, tuple(FreeVar(v) for v in combo))
            if atom in leaf.ante:
                values[combo] = HALF if Neg(atom) in leaf.ante else ONE
            else:
                values[combo] = ZERO
        predicates[name] = Triple.from_values(space, values)

    structure = Structure(domain=domain, predicates=predicates)
    assignment = {v: v for v in domain}
    if fo_sequent_satisfied(structure, assignment, goal):
        return None
    return structure, assignment


# ---------------------------------------------------------------------------
# Proof assembly (from a closed tree)


def _assemble(node: ReductionNode) -> Proof:
    if not node.children:
        pivot = min(node.sequent.ante & node.sequent.succ, key=formula_key)
        return axiom_proof(pivot, node.sequent)

    child_by_choice = dict(
        zip(itertools.product(*(range(len(red.options)) for red in node.principals)), node.children)
    )

    def derive(i: int, prefix: tuple[int, ...], current: Sequent) -> Proof:
        if i == len(node.principals):
            child = child_by_choice[prefix]
            assert child.sequent == current
            return _assemble(child)
        red = node.principals[i]
        subs = []
        for ci, (add_ante, add_succ) in enumerate(red.options):
            premise = current.with_ante(*add_ante).with_succ(*add_succ)
            subs.append(derive(i + 1, prefix + (ci,), premise))
        return Proof(current, red.rule, principal=red.principal, var=red.var, premises=tuple(subs))

    return derive(0, (), node.sequent)


# ---------------------------------------------------------------------------
# Verdicts


@dataclass(frozen=True, slots=True)
class Refuted:
    structure: Structure
    assignment: dict[str, str]


@dataclass(frozen=True, slots=True)
class Unknown:
    report: str


FoVerdict = Union[Proved, Refuted, Unknown]


def decide_fo(s: Sequent, max_nodes: int = DEFAULT_MAX_NODES, max_depth: int = DEFAULT_MAX_DEPTH) -> FoVerdict:
    """Cut-free proof, verified finite countermodel, or Unknown on budget."""
    tree = build_reduction_tree(s, max_nodes=max_nodes, max_depth=max_depth)
    if tree.status == "closed":
        proof = _assemble(tree.root)
        if not check_proof(proof, Calculus.GQCIORE, allow_cut=False):
            raise InternalError("assembled proof failed checking")
        return Proved(proof)
    if tree.status == "refuted":
        assert tree.countermodel is not None
        return Refuted(*tree.countermodel)
    report = (
        f"search {tree.status}: {tree.node_count} nodes, {tree.stages} stages "
        f"(budget {max_nodes} nodes / {max_depth} stages); no closed tree and no verified countermodel"
    )
    return Unknown(report)


# ---------------------------------------------------------------------------
# Dump format


def dump_tree(tree: ReductionTree) -> str:
    lines = [f"status={tree.status} stages={tree.stages} nodes={tree.node_count}"]

    def walk(node: ReductionNode, indent: str) -> None:
        phase = node.phase.value if node.phase else "start"
        flags = []
        if not node.children:
            flags.append("closed" if node.closed else "open")
            if node.marks:
                shown = sorted(f"{rule.value}:{format_formula(f)}" for f, rule in node.marks)
                flags.append("marks: " + "; ".join(shown))
        suffix = f" [{'; '.join(flags)}]" if flags else ""
        lines.append(f"{indent}k={phase} {format_sequent(node.sequent)}{suffix}")
        for child in node.children:
            walk(child, indent + "  ")

    walk(tree.root, "")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Regression suite


def fo_regression_suite() -> list[tuple[str, Sequent]]:
    """Quantifier facts provable within the default budget."""
    p_free = PredAtom("P", (FreeVar("a1"),))
    p_bound = PredAtom("P", (BoundVar("x"),))
    forall_p = Forall("x", p_bound)
    exists_p = Exists("x", p_bound)
    exists_circ_p = Exists("x", Circ(p_bound))
    items = [
        ("exists-introduction", Imp(p_free, exists_p)),
        ("forall-elimination", Imp(forall_p, p_free)),
        ("consistency-exists-commute", iff(Circ(exists_p), exists_circ_p)),
        ("consistency-forall-via-exists", iff(Circ(forall_p), exists_circ_p)),
    ]
    return [(name, Sequent.make((), (phi,))) for name, phi in items]


def derived_quantifier_expansions() -> list[tuple[str, Proof]]:
    """The two quantifier-introduction derived rules, replayed on provable
    premises; the expansions go through a cut."""
    p_free = PredAtom("P", (FreeVar("a1"),))
    p_bound = PredAtom("P", (BoundVar("x"),))
    forall_p = Forall("x", p_bound)
    exists_p = Exists("x", p_bound)

    out = []
    premise = decide_fo(Sequent.make((), (Imp(forall_p, p_free),)))
    if not isinstance(premise, Proved):
        raise InternalError("forall-elimination premise should be provable")
    conclusion = Sequent.make((), (Imp(forall_p, forall_p),))
    out.append(
        ("forall-introduction", expand_derived_rule(DerivedRuleId.FORALL_INTRO, conclusion, [premise.proof]))
    )
    premise = decide_fo(Sequent.make((), (Imp(p_free, exists_p),)))
    if not isinstance(premise, Proved):
        raise InternalError("exists-introduction premise should be provable")
    conclusion = Sequent.make((), (Imp(exists_p, exists_p),))
    out.append(
        ("exists-introduction", expand_derived_rule(DerivedRuleId.EXISTS_INTRO, conclusion, [premise.proof]))
    )
    return out

