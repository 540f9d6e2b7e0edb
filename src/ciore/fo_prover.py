"""Bounded saturation prover for the first-order calculus.

The search tree grows in stages that cycle through ``PHASES``: the 26 rules
of the rule table the search applies, one per connective shape and side,
then one idle stage. Sequents only ever grow along a branch; formulas
already reduced are remembered by marks, and the left quantifier
instantiation rules come back to a formula once per available variable.
Each node indexes its candidate formulas by phase, so a stage reads one
bucket per open leaf, and a stage no open leaf has a candidate for is
passed over at once while still counted.
A tree whose leaves all share a formula across sides compiles to a cut-free
proof; a branch that a full cycle of stages leaves untouched yields a
candidate countermodel, which is only reported after it verifiably
falsifies the goal.
"""

from __future__ import annotations

import collections
import itertools
from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass, field
from typing import ClassVar, Union

from .errors import InternalError, LogicError
from .fo_semantics import Structure, Triple, fo_sequent_satisfied
from .matrix import HALF, ONE, ZERO
from .parsing import format_formula, format_sequent
from .sequents import (
    EIGEN_RULES,
    LEFT,
    QUANTIFIER_RULES,
    RIGHT,
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
    iff,
    predicate_arities,
    subformulas,
    terms,
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

#: Position in PHASES and mode of each phase's rule. Eigenvariable rules
#: fire once with fresh variables, the other quantifier rules once per
#: available variable, the rest once.
_PHASE_STEP: dict[RuleId, tuple[int, str]] = {
    rule: (pos, EIGEN if rule in EIGEN_RULES else REPEAT if rule in QUANTIFIER_RULES else ONCE)
    for pos, rule in enumerate(PHASES)
    if rule is not None
}

#: A phase's candidate index: phase position -> the formulas on that phase
#: rule's side that ``rules_for`` assigns to the rule; empty buckets are absent.
Candidates = dict[int, tuple[Formula, ...]]

#: A mark: the formula and the rule that reduced it. ONCE and EIGEN marks
#: are a set; a REPEAT mark counts the variables it has used, which are
#: always the first ones of the append-only ``available`` list.
MarkKey = tuple[Formula, RuleId]


def _indexed(candidates: Candidates, ante: Iterable[Formula], succ: Iterable[Formula]) -> Candidates:
    """The candidate index with the formulas of ante and succ added."""
    out = dict(candidates)
    for side, formulas in ((LEFT, ante), (RIGHT, succ)):
        for phi in formulas:
            for rule in rules_for(phi, side):
                step = _PHASE_STEP.get(rule)
                if step is not None:
                    out[step[0]] = out.get(step[0], ()) + (phi,)
    return out


def _fresh_names(taken: Collection[str]) -> Iterator[str]:
    """a1, a2, ... without the names in taken, in index order."""
    return (name for name in map("a{}".format, itertools.count(1)) if name not in taken)


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
    used_vars: dict[MarkKey, int] = field(default_factory=dict)  # REPEAT marks
    principals: tuple[PrincipalReduction, ...] = ()
    children: list["ReductionNode"] = field(default_factory=list)
    candidates: Candidates = field(default=None, repr=False)  # computed from the sequent when absent

    def __post_init__(self) -> None:
        if self.candidates is None:
            self.candidates = _indexed({}, self.sequent.ante, self.sequent.succ)

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
    formulas = s.ante | s.succ
    predicate_arities(formulas)  # raises on a predicate used with two arities
    for phi in formulas:
        if any(type(f) is PropAtom for f in subformulas(phi)):
            raise LogicError("the first-order prover takes predicate atoms only")
        for t in terms(phi):
            if type(t) is FunApp:
                raise LogicError("the first-order prover does not handle function symbols")
            if type(t) is Const:
                raise LogicError("the first-order prover does not handle constants")


def _phase_principals(
    leaf: ReductionNode, rule: RuleId, available: list[str], fresh: Iterator[str] | None = None
) -> list[PrincipalReduction]:
    """The reductions the phase of rule makes on leaf, in formula_key order.
    Eigenvariables are drawn from fresh, which the loop shares across all
    leaves; by default, the names missing from available."""
    pos, mode = _PHASE_STEP[rule]
    bucket = leaf.candidates.get(pos, ())
    if mode == REPEAT:
        pending = [phi for phi in bucket if leaf.used_vars.get((phi, rule), 0) < len(available)]
    else:
        pending = [phi for phi in bucket if (phi, rule) not in leaf.marks]
    if mode == EIGEN and fresh is None:
        fresh = _fresh_names(available)
    found: list[PrincipalReduction] = []
    for phi in sorted(pending, key=formula_key):
        if mode == REPEAT:
            var = available[leaf.used_vars.get((phi, rule), 0)]
        elif mode == EIGEN:
            var = next(fresh)
        else:
            var = None
        schema = rule_schema(rule, phi, var)
        assert schema is not None
        found.append(PrincipalReduction(phi, rule, var, tuple(schema[1])))
    return found


def _expand_leaf(leaf: ReductionNode, rule: RuleId, reductions: list[PrincipalReduction], stage: int) -> list[ReductionNode]:
    repeat = _PHASE_STEP[rule][1] == REPEAT
    new_marks = set(leaf.marks)
    new_used = dict(leaf.used_vars)
    for red in reductions:
        key: MarkKey = (red.principal, rule)
        if repeat:
            new_used[key] = new_used.get(key, 0) + 1
        else:
            new_marks.add(key)
    marks = frozenset(new_marks)

    leaf.principals = tuple(reductions)
    parent = leaf.sequent
    for choice in itertools.product(*(red.options for red in reductions)):
        seq = parent
        for add_ante, add_succ in choice:
            seq = seq.with_ante(*add_ante).with_succ(*add_succ)
        candidates = _indexed(leaf.candidates, seq.ante - parent.ante, seq.succ - parent.succ)
        leaf.children.append(ReductionNode(seq, stage, rule, marks, new_used, candidates=candidates))
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
    fresh = _fresh_names(frozenset(available))  # every name it yields is appended to available

    # The open leaves, left to right; eigenvariables are handed out in this order.
    frontier = [] if root.closed else [root]
    # Recomputed only when the frontier changes: the phase positions some
    # open leaf has candidates for, the newest leaf's stage, and the stages
    # that made leaves, oldest first.
    active = set(root.candidates)
    newest = 0
    grew_at = collections.deque([0])
    node_count = 1
    stage = 0
    while True:
        if not frontier:
            return ReductionTree(root, "closed", stage, node_count)

        # A leaf ends its first idle cycle exactly one cycle after the stage
        # that made it, so its countermodel is extracted once.
        if grew_at and stage - grew_at[0] == _CYCLE:
            grew_at.popleft()
            for leaf in frontier:
                if stage - leaf.created_at_stage == _CYCLE:
                    countermodel = extract_countermodel(leaf.sequent, s)
                    if countermodel is not None:
                        return ReductionTree(root, "refuted", stage, node_count, countermodel)
        if stage - newest >= _CYCLE:
            return ReductionTree(root, "stalled", stage, node_count)

        stage += 1
        if stage > max_depth or node_count > max_nodes:
            return ReductionTree(root, "budget", stage, node_count)

        pos = stage % _CYCLE
        if pos not in active:  # the idle phase, or no open leaf has a candidate
            continue
        rule = PHASES[pos]
        eigen = _PHASE_STEP[rule][1] == EIGEN
        counted = node_count
        grown: list[ReductionNode] = []
        for leaf in frontier:
            reductions = pos in leaf.candidates and _phase_principals(leaf, rule, available, fresh)
            if not reductions:
                grown.append(leaf)
                continue
            children = _expand_leaf(leaf, rule, reductions, stage)
            node_count += len(children)
            grown.extend(child for child in children if not child.closed)
            if eigen:
                available.extend(red.var for red in reductions)
            if node_count > max_nodes:
                return ReductionTree(root, "budget", stage, node_count)
        if node_count == counted:
            continue
        frontier = grown
        active = set().union(*(leaf.candidates for leaf in frontier))
        newest = max((leaf.created_at_stage for leaf in frontier), default=stage)
        grew_at.append(stage)


# ---------------------------------------------------------------------------
# Countermodel extraction (from a saturated open leaf)


def extract_countermodel(leaf: Sequent, goal: Sequent) -> tuple[Structure, dict[str, str]] | None:
    """Recipe: domain = the leaf's free variables; a predicate holds (1)
    where only the atom sits on the left, is inconsistent (1/2) where atom
    and negated atom both do, and fails (0) elsewhere. The result is only
    returned if it verifiably falsifies the goal. Sequents only grow along
    a branch, so the leaf holds every formula of its branch."""
    domain = tuple(sorted(leaf.free_variables(), key=var_index)) or ("a1",)

    predicates: dict[str, Triple] = {}
    for name, arity in sorted(predicate_arities(leaf.ante | leaf.succ).items()):
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
    status: ClassVar[str] = "refuted"
    structure: Structure
    assignment: dict[str, str]


@dataclass(frozen=True, slots=True)
class Unknown:
    status: ClassVar[str] = "unknown"
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

