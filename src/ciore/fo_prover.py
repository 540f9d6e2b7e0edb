"""Bounded saturation prover for the first-order calculus.

The search tree grows in stages that cycle through ``PHASES``: the 26 rules
of the rule table the search applies, one per connective shape and side.
Sequents only ever grow along a branch; formulas already reduced are
remembered by marks, and the left quantifier instantiation rules come back
to a formula once per available variable. Each node indexes its candidate
formulas by phase, so a stage reads one bucket per open leaf, and a stage no
open leaf has a candidate for is passed over at once while still counted.
A tree whose leaves all share a formula across sides compiles to a cut-free
proof; a leaf that is saturated when it is made (every candidate formula
reduced up to its limit) yields a candidate countermodel, which is only
reported after it verifiably falsifies the goal. The search stalls when a
full cycle of stages reduces nothing. When the loop runs out of budget or
stalls, ``decide_fo`` tries the first ``REFUTER_STRUCTURES`` finite
structures on growing domains (MACE-style) before it answers ``Unknown``.
"""

from __future__ import annotations

import collections
import itertools
from collections.abc import Iterable, Iterator
from typing import NamedTuple, Union

from .errors import InternalError, LogicError, UsageError
from .fo_semantics import Structure, Triple, enumerate_structures, fo_sequent_satisfied, unchecked_falsifying_assignment
from .matrix import HALF, ONE, leaf_values
from .parsing import format_formula, format_sequent, parse_sequent
from .sequents import (
    EIGEN_RULES,
    LEFT,
    QUANTIFIER_RULES,
    RIGHT,
    Calculus,
    Proof,
    Proved,
    RuleId,
    Sequent,
    axiom_proof,
    check_proof,
    formula_key,
    premise_sequents,
    rule_schema,
    rules_for,
)
from .syntax import (
    Formula,
    fresh_free_variables,
    predicate_arities,
    quantifier_depth,
    signature,
    var_index,
)

R = RuleId

DEFAULT_MAX_NODES = 20_000
DEFAULT_MAX_DEPTH = 400

#: Finite structures the refuter tries after the stage loop gives up, and a
#: bound on the work of each: a domain size is tried only while a predicate's
#: table (size ** arity rows) and the goal's evaluations (size ** (free
#: variables + quantifier nesting): each assignment, and under it each value
#: of the bound variables of nested quantifiers) stay within it. It limits
#: evaluations, not memory: a check holds one assignment per quantifier level.
REFUTER_STRUCTURES = 64
REFUTER_POINTS = 64

#: Cyclic stage order; stage k applies PHASES[k % 26]. A phase reduces exactly
#: the formulas on its rule's side that the rule table assigns that rule
#: (``rules_for``).
PHASES: tuple[RuleId, ...] = (
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
    R.NEG_OR_R2,
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
)

ONCE, REPEAT, EIGEN = "once", "repeat", "eigen"

#: Position in PHASES and mode of each phase's rule. Eigenvariable rules
#: fire once with fresh variables, the other quantifier rules once per
#: available variable, the rest once.
_PHASE_STEP: dict[RuleId, tuple[int, str]] = {
    rule: (pos, EIGEN if rule in EIGEN_RULES else REPEAT if rule in QUANTIFIER_RULES else ONCE)
    for pos, rule in enumerate(PHASES)
}

#: A phase's candidate index: phase position -> the formulas on that phase
#: rule's side that ``rules_for`` assigns to the rule; empty buckets are absent.
Candidates = dict[int, tuple[Formula, ...]]

#: A mark: the formula and the rule that reduced it, keyed to the number of
#: times the rule has reduced it on the branch. A REPEAT rule's count is the
#: number of variables it has used, always the first ones of the append-only
#: ``available`` list.
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


class PrincipalReduction(NamedTuple):
    principal: Formula
    rule: RuleId
    var: str | None
    options: tuple[tuple[tuple[Formula, ...], tuple[Formula, ...]], ...]


class ReductionNode:
    """A node of the reduction tree. ``phase`` is the rule of the reduction
    that created it; `_expand_leaf` sets its principals and appends its
    children."""

    __slots__ = ("sequent", "created_at_stage", "phase", "marks", "principals", "children", "candidates")

    def __init__(self, sequent: Sequent, created_at_stage: int, phase=None, marks=None, *, candidates: Candidates):
        self.sequent, self.created_at_stage, self.phase = sequent, created_at_stage, phase
        self.marks: dict[MarkKey, int] = {} if marks is None else marks
        self.principals: tuple[PrincipalReduction, ...] = ()
        self.children: list[ReductionNode] = []
        self.candidates = candidates

    @property
    def closed(self) -> bool:
        return self.sequent.closed_by_axiom


class ReductionTree(NamedTuple):
    root: ReductionNode
    status: str  # "closed" | "refuted" | "stalled" | "budget"
    stages: int
    node_count: int
    arities: dict[str, int]  # the goal's predicates, as the input check read them
    countermodel: tuple[Structure, dict[str, str]] | None = None  # set when refuted


def _check_fo_input(s: Sequent) -> dict[str, int]:
    """The arity of each predicate of s; raises on input the prover does not take."""
    formulas = s.sorted_ante() + s.sorted_succ()  # the first fault by formula_key, whatever the hash seed
    arities = predicate_arities(formulas)  # raises on a predicate used with two arities
    for phi in formulas:
        symbols, term_symbols, _ = signature(phi)
        if not all(arity for _, arity in symbols):
            raise LogicError("the first-order prover takes predicate atoms only")
        if term_symbols:  # the first is the first function or constant of phi's terms
            if term_symbols[0][1]:
                raise LogicError("the first-order prover does not handle function symbols")
            raise LogicError("the first-order prover does not handle constants")
    return arities


def _saturated(leaf: ReductionNode, available: list[str]) -> bool:
    """Every formula of leaf's candidate index is reduced up to its limit,
    the one `_phase_principals` applies."""
    marks = leaf.marks
    for pos, formulas in leaf.candidates.items():
        rule = PHASES[pos]
        limit = len(available) if _PHASE_STEP[rule][1] == REPEAT else 1
        for phi in formulas:
            if marks.get((phi, rule), 0) < limit:
                return False
    return True


def _phase_principals(
    leaf: ReductionNode, rule: RuleId, available: list[str], fresh: Iterator[str]
) -> list[PrincipalReduction]:
    """The reductions the phase of rule makes on leaf, in formula_key order.
    A formula is pending while its mark counts fewer reductions than its
    limit: one per available variable for a REPEAT rule, one otherwise.
    Eigenvariables are drawn from fresh, which the loop shares across all
    leaves, and appended to available as they are drawn."""
    pos, mode = _PHASE_STEP[rule]
    marks = leaf.marks
    limit = len(available) if mode == REPEAT else 1
    pending = [phi for phi in leaf.candidates.get(pos, ()) if marks.get((phi, rule), 0) < limit]
    found: list[PrincipalReduction] = []
    for phi in sorted(pending, key=formula_key):
        if mode == REPEAT:
            var = available[marks.get((phi, rule), 0)]
        elif mode == EIGEN:
            var = next(fresh)
            available.append(var)
        else:
            var = None
        schema = rule_schema(rule, phi, var)
        assert schema is not None
        found.append(PrincipalReduction(phi, rule, var, schema[1]))
    return found


def _expand_leaf(leaf: ReductionNode, rule: RuleId, reductions: list[PrincipalReduction], stage: int) -> list[ReductionNode]:
    marks = dict(leaf.marks)
    for red in reductions:
        key: MarkKey = (red.principal, rule)
        marks[key] = marks.get(key, 0) + 1

    leaf.principals = tuple(reductions)
    parent = leaf.sequent
    for choice in itertools.product(*(red.options for red in reductions)):
        seq = Sequent(parent.ante.union(*(da for da, _ in choice)), parent.succ.union(*(ds for _, ds in choice)))
        candidates = _indexed(leaf.candidates, seq.ante - parent.ante, seq.succ - parent.succ)
        leaf.children.append(ReductionNode(seq, stage, rule, marks, candidates=candidates))
    return leaf.children


def build_reduction_tree(
    s: Sequent,
    max_nodes: int = DEFAULT_MAX_NODES,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> ReductionTree:
    """Grow the staged reduction tree until it closes, a saturated leaf
    refutes the goal, a full cycle of stages makes no node (``stalled``), or
    the budget runs out. Each open leaf is checked once, when it is made: if
    it is saturated, its countermodel is extracted, and a verified one ends
    the loop at that stage. Extraction reads only the leaf's sequent, and a
    leaf not saturated when made has formulas pending, which a later phase
    reduces. ``available`` grows only when an eigenvariable rule makes a
    node, so after a full cycle that makes no node no leaf has anything
    pending. Raises `UsageError` for a budget below 1."""
    for name, budget in (("node", max_nodes), ("stage", max_depth)):
        if budget < 1:
            raise UsageError(f"the {name} budget must be a positive integer, got {budget}")
    arities = _check_fo_input(s)
    root = ReductionNode(sequent=s, created_at_stage=0, candidates=_indexed({}, s.ante, s.succ))
    occurring = sorted(s.free_variables(), key=var_index)
    available: list[str] = occurring if occurring else ["a1"]
    fresh = fresh_free_variables(frozenset(available))  # every name it yields is appended to available

    def countermodel_of(leaves: Iterable[ReductionNode]) -> tuple[Structure, dict[str, str]] | None:
        for leaf in leaves:
            if _saturated(leaf, available):
                countermodel = extract_countermodel(leaf.sequent, s, arities)
                if countermodel is not None:
                    return countermodel
        return None

    # The open leaves, left to right; eigenvariables are handed out in this order.
    frontier = [] if root.closed else [root]
    made = frontier  # the open leaves the last stage that made nodes made; at first the root
    # Recomputed only when the frontier changes: the phase positions some open leaf has candidates for.
    active = set(root.candidates)
    node_count, stage, idle = 1, 0, 0  # idle: the stages since the last one that made a node
    while True:
        if not idle:  # before stage 1, or after a stage that made nodes
            countermodel = countermodel_of(made)
            if countermodel is not None:
                return ReductionTree(root, "refuted", stage, node_count, arities, countermodel)
            if not frontier:
                return ReductionTree(root, "closed", stage, node_count, arities)
        elif idle == len(PHASES):
            return ReductionTree(root, "stalled", stage, node_count, arities)

        stage += 1
        if stage > max_depth:
            return ReductionTree(root, "budget", stage, node_count, arities)

        pos = stage % len(PHASES)
        idle += 1
        if pos not in active:  # no open leaf has a candidate
            continue
        rule, made, grown = PHASES[pos], [], []
        for leaf in frontier:
            reductions = pos in leaf.candidates and _phase_principals(leaf, rule, available, fresh)
            if not reductions:
                grown.append(leaf)
                continue
            children = _expand_leaf(leaf, rule, reductions, stage)
            node_count += len(children)
            if node_count > max_nodes:
                return ReductionTree(root, "budget", stage, node_count, arities)
            opened = [child for child in children if not child.closed]
            made += opened
            grown += opened
            idle = 0
        if not idle:
            frontier = grown
            active = set().union(*(leaf.candidates for leaf in frontier))


# ---------------------------------------------------------------------------
# Countermodel extraction (from a saturated open leaf)


def extract_countermodel(leaf: Sequent, goal: Sequent, arities: dict[str, int]) -> tuple[Structure, dict[str, str]] | None:
    """Recipe: domain = the leaf's free variables; each predicate's table
    holds the values `matrix.leaf_values` reads off the leaf's antecedent
    atoms (1 where only the atom sits on the left, 1/2 where atom and
    negated atom both do, 0 elsewhere). The result is only returned if it
    verifiably falsifies the goal. Sequents only grow along a branch, and
    every formula a reduction adds is an instance of a goal subformula, so
    the leaf holds the goal and has exactly its predicates, whose arities
    the caller passes in, and its atoms' arguments are free variables."""
    domain = tuple(sorted(leaf.free_variables(), key=var_index)) or ("a1",)

    rows = collections.defaultdict(lambda: {ONE: set(), HALF: set()})  # predicate -> value -> its rows
    for atom, value in leaf_values(leaf.ante).items():
        rows[atom.name][value].add(tuple(t.name for t in atom.args))

    predicates: dict[str, Triple] = {}
    for name, arity in sorted(arities.items()):
        space = frozenset(itertools.product(domain, repeat=arity))
        plus, circ = rows[name][ONE], rows[name][HALF]
        predicates[name] = Triple(space, frozenset(plus), space - plus - circ, frozenset(circ))

    structure = Structure(domain=domain, predicates=predicates)
    assignment = {v: v for v in domain}
    if fo_sequent_satisfied(structure, assignment, goal):
        return None
    return structure, assignment


# ---------------------------------------------------------------------------
# Proof assembly (from a closed tree)


def _assemble(node: ReductionNode) -> Proof:
    if not node.children:
        return axiom_proof(node.sequent)

    return _derive(node, iter(node.children), 0, node.sequent)


def _derive(node: ReductionNode, children: Iterator[ReductionNode], i: int, current: Sequent) -> Proof:
    """The proof of current from node's principals i, i+1, ...; its leaves
    take the next of node's children. `_expand_leaf` made the children in
    `itertools.product` order over the principals' options, which is the
    order this reaches its leaves."""
    if i == len(node.principals):
        child = next(children)
        assert child.sequent == current
        return _assemble(child)
    red = node.principals[i]
    subs = []
    for premise in premise_sequents(current, red.options):
        subs.append(_derive(node, children, i + 1, premise))
    return Proof(current, red.rule, principal=red.principal, var=red.var, premises=tuple(subs))


# ---------------------------------------------------------------------------
# Verdicts


class Refuted(NamedTuple):
    structure: Structure
    assignment: dict[str, str]
    status = "refuted"


class Unknown(NamedTuple):
    report: str
    status = "unknown"


FoVerdict = Union[Proved, Refuted, Unknown]


def refute_finitely(s: Sequent) -> tuple[tuple[Structure, dict[str, str]] | None, int, int]:
    """The first structure that some assignment of s's free variables
    falsifies, with that assignment (or None), the number of structures
    tried and the largest domain size tried. Structures interpret exactly
    s's predicates and come domain by domain, ``("m0",)``, ``("m0", "m1")``
    and so on, each domain in ``enumerate_structures`` order, at most
    ``REFUTER_STRUCTURES`` of them on domains of at most ``REFUTER_POINTS``
    points. Raises `LogicError` on input the prover does not take."""
    return _refute(s, _check_fo_input(s))


def _refute(s: Sequent, arities: dict[str, int]) -> tuple[tuple[Structure, dict[str, str]] | None, int, int]:
    """`refute_finitely` on input already checked, whose arities are given."""
    nesting = max(map(quantifier_depth, s.ante | s.succ), default=0)
    width = max(len(s.free_variables()) + nesting, *arities.values(), 0)
    sizes = itertools.takewhile(lambda size: size**width <= REFUTER_POINTS, itertools.count(1))
    structures = itertools.chain.from_iterable(
        enumerate_structures(tuple(f"m{i}" for i in range(size)), arities) for size in sizes
    )
    tried = size = 0
    for st in itertools.islice(structures, REFUTER_STRUCTURES):
        tried, size = tried + 1, len(st.domain)
        assignment = unchecked_falsifying_assignment(st, s)
        if assignment is not None:
            return (st, assignment), tried, size
    return None, tried, size


def decide_fo(s: Sequent, max_nodes: int = DEFAULT_MAX_NODES, max_depth: int = DEFAULT_MAX_DEPTH) -> FoVerdict:
    """Cut-free proof, verified finite countermodel, or Unknown when neither
    the stage loop under its budget nor the finite refuter finds one."""
    tree = build_reduction_tree(s, max_nodes=max_nodes, max_depth=max_depth)
    if tree.status == "closed":
        proof = _assemble(tree.root)
        if not check_proof(proof, Calculus.GQCIORE, allow_cut=False):
            raise InternalError("assembled proof failed checking")
        return Proved(proof)
    if tree.status == "refuted":
        assert tree.countermodel is not None
        return Refuted(*tree.countermodel)
    countermodel, tried, size = _refute(s, tree.arities)  # the tree checked the input
    if countermodel is not None:
        if fo_sequent_satisfied(*countermodel, s):
            raise InternalError("finite countermodel failed checking")
        return Refuted(*countermodel)
    report = (
        f"search {tree.status}: {tree.node_count} nodes, {tree.stages} stages "
        f"(budget {max_nodes} nodes / {max_depth} stages); no closed tree and no verified countermodel; "
        f"no countermodel among {tried} structures on domains of up to {size} element{'s' * (size > 1)}"
    )
    return Unknown(report)


# ---------------------------------------------------------------------------
# Dump format


def dump_tree(tree: ReductionTree) -> str:
    lines = [f"status={tree.status} stages={tree.stages} nodes={tree.node_count}"]
    stack = [(tree.root, "")]
    while stack:  # preorder
        node, indent = stack.pop()
        phase = node.phase.value if node.phase else "start"
        flags = []
        if not node.children:
            flags.append("closed" if node.closed else "open")
            shown = sorted(
                f"{rule.value}:{format_formula(f)}" for f, rule in node.marks if _PHASE_STEP[rule][1] != REPEAT
            )
            if shown:
                flags.append("marks: " + "; ".join(shown))
        suffix = f" [{'; '.join(flags)}]" if flags else ""
        lines.append(f"{indent}k={phase} {format_sequent(node.sequent)}{suffix}")
        stack += [(child, indent + "  ") for child in reversed(node.children)]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Regression suite


def fo_regression_suite() -> list[tuple[str, Sequent]]:
    """Quantifier facts provable within the default budget."""
    items = [
        ("exists-introduction", "|- P(a1) -> (exists x. P(x))"),
        ("forall-elimination", "|- (forall x. P(x)) -> P(a1)"),
        (
            "consistency-exists-commute",
            "|- (o (exists x. P(x)) -> (exists x. o P(x))) & ((exists x. o P(x)) -> o (exists x. P(x)))",
        ),
        (
            "consistency-forall-via-exists",
            "|- (o (forall x. P(x)) -> (exists x. o P(x))) & ((exists x. o P(x)) -> o (forall x. P(x)))",
        ),
    ]
    return [(name, parse_sequent(text)) for name, text in items]
