"""The three workloads: seeded inputs, the timed call per goal, and the checks.

Each workload class has
- `goals(rng)`: the inputs of one pass, made from the seeded generator only;
- `run(goal)`: the timed work, returning (verdict class, outcome);
- `check(goal, verdict, outcome, full)`: None, or what is wrong. Checks run
  outside the timed region. `full` is set on the first pass; the expensive
  cross-checks run only then, and later passes must repeat its verdicts.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

from ciore import fo_prover, fo_semantics, matrix, parsing, prop_prover, sequents, serialize
from ciore.fo_semantics import Structure, Triple
from ciore.randgen import random_fo_formula, random_sequent
from ciore.sequents import Calculus, Sequent
from ciore.syntax import And, Circ, Exists, Forall, Imp, Neg, Or, PredAtom, PropAtom

import reference

DECIDED = {"proved", "refuted", "valid", "invalid"}
PREDICATES = {"P": 1, "R": 2}
FREE_VARS = ["a1", "a2", "a3"]
# A node budget, not a time limit, keeps first-order verdicts deterministic.
FO_NODES, FO_STAGES = 200, 200

# How often each generator lands in each stratum, per 10,000 draws (counted
# once over 10,000-40,000 draws from a fixed seed). A stratum groups goals of
# about the same cost; see `stratified`.
PROP_STRATA = {  # (valid, min(nodes // 4, 5)) of a random 6-atom sequent
    (False, 0): 2340, (False, 1): 1269, (False, 2): 1640, (False, 3): 1240, (False, 4): 796, (False, 5): 973,
    (True, 0): 36, (True, 1): 196, (True, 2): 304, (True, 3): 362, (True, 4): 312, (True, 5): 532,
}
MATRIX_STRATA = {  # bit length of the valuations matrix search examines, over a 9-atom pool
    1: 3362, 2: 1171, 3: 1052, 4: 963, 5: 735, 6: 430, 7: 781, 8: 494,
    9: 220, 10: 425, 11: 44, 12: 221, 13: 85, 14: 2, 15: 15,
}
MODEL_STRATA = {  # min(bit length of the reference evaluator's evaluations, 15)
    0: 1092, 1: 230, 2: 402, 3: 1054, 4: 1042, 5: 1068, 6: 938, 7: 1025,
    8: 951, 9: 826, 10: 644, 11: 393, 12: 185, 13: 88, 14: 32, 15: 29,
}
FO_STRATA = {  # (min(quantifiers, 3), min(nodes // 4, 4)) of a random depth-3 formula
    (0, 0): 3180, (0, 1): 2169, (0, 2): 1355, (0, 3): 318,
    (1, 0): 1035, (1, 1): 661, (1, 2): 525, (1, 3): 146, (1, 4): 6,
    (2, 0): 96, (2, 1): 138, (2, 2): 207, (2, 3): 70, (2, 4): 5,
    (3, 1): 5, (3, 2): 45, (3, 3): 32, (3, 4): 5,
}


@dataclass
class Goal:
    id: int
    kind: str
    data: object
    expect: str | None = None  # verdict class known by construction


def child_env(root: Path) -> dict[str, str]:
    """Environment of the interpreters the benchmark starts: the package from
    `src/`, and the bytecode cache on, as users normally run it."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(root / "src")
    return env


def dump_verdict(verdict) -> str:
    return json.dumps(serialize.verdict_to_json(verdict))


def ranks(valuation) -> dict[str, int]:
    return {name: reference.RANK[value.value] for name, value in valuation.items()}


def chain_goal(names: list[str]) -> Sequent:
    """|- f | ~f with f = q0 | o q1 | ... | o q(n-1)."""
    f = PropAtom(names[0])
    for name in names[1:]:
        f = Or(f, Circ(PropAtom(name)))
    return Sequent.make((), (Or(f, Neg(f)),))


def spanning_formula(rng: random.Random, names: list[str]):
    """A formula with each atom once, joined in random order by random binary
    connectives, a third of the subformulas under ~ or o. Its size depends
    on the number of atoms only, so matrix search on it costs about the same
    from seed to seed."""
    parts = [PropAtom(name) for name in rng.sample(names, len(names))]
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        phi = rng.choice((And, Or, Imp))(parts[i], parts[i + 1])
        if rng.random() < 1 / 3:
            phi = rng.choice((Neg, Circ))(phi)
        parts[i:i + 2] = [phi]
    return parts[0]


def reference_countermodel(s: Sequent) -> dict[str, int] | None:
    """First falsifying valuation by the reference evaluator, or None."""
    names = reference.sequent_atoms(s)
    for combo in itertools.product((0, 1, 2), repeat=len(names)):
        v = dict(zip(names, combo))
        if reference.falsifies(v, s):
            return v
    return None


def shape(phi) -> tuple[int, int]:
    """(quantifiers, nodes) of a formula."""
    if isinstance(phi, (PropAtom, PredAtom)):
        return 0, 1
    if isinstance(phi, (Forall, Exists)):
        q, n = shape(phi.body)
        return q + 1, n + 1
    if isinstance(phi, (Neg, Circ)):
        q, n = shape(phi.body)
        return q, n + 1
    (ql, nl), (qr, nr) = shape(phi.left), shape(phi.right)
    return ql + qr, nl + nr + 1


def quotas(weights: dict, total: int) -> dict:
    """Split `total` in proportion to `weights`, largest remainders first."""
    share = {key: w * total / sum(weights.values()) for key, w in weights.items()}
    out = {key: int(x) for key, x in share.items()}
    for key in sorted(share, key=lambda key: out[key] - share[key])[: total - sum(out.values())]:
        out[key] += 1
    return out


def stratified(rng: random.Random, total: int, weights: dict, draw) -> list:
    """`total` items from `draw(rng) -> (stratum, item)`: each stratum gets its
    share of `weights`, and draws of a stratum that is already full are
    skipped. The weights are the generator's own stratum frequencies, so the
    set is still a fair sample of it, but the seed no longer moves its mix of
    cheap and costly goals, which plain draws leave to chance."""
    want = quotas(weights, total)
    out = []
    for _ in range(100 * total):
        if len(out) == total:
            return out
        key, item = draw(rng)
        if want.get(key, 0):
            want[key] -= 1
            out.append(item)
    raise RuntimeError(f"strata still short after {100 * total} draws: {want}")


def random_structure(rng: random.Random, size: int) -> Structure:
    domain = tuple(f"m{i}" for i in range(size))
    predicates = {}
    for name, arity in sorted(PREDICATES.items()):
        space = tuple(itertools.product(domain, repeat=arity))
        predicates[name] = Triple.from_values(space, {row: rng.choice(matrix.VALUE_ORDER) for row in space})
    return Structure(domain=domain, predicates=predicates)


def random_fo_sequent(rng: random.Random, depth: int) -> Sequent:
    side = lambda: [random_fo_formula(rng, PREDICATES, FREE_VARS, depth) for _ in range(rng.randint(0, 2))]
    return Sequent.make(side(), side())


def fo_class(verdict) -> str:
    return {fo_prover.Proved: "proved", fo_prover.Refuted: "refuted", fo_prover.Unknown: "unknown"}[type(verdict)]


def fo_countermodel_error(s: Sequent, structure, assignment) -> str | None:
    if fo_semantics.fo_sequent_satisfied(structure, assignment, s):
        return "reported countermodel satisfies the goal"
    if not reference.fo_falsifies(structure, assignment, s):
        return "reference evaluator says the countermodel satisfies the goal"
    return None


# ---------------------------------------------------------------------------


class Prop:
    """Random 6-atom sequents set the median; the chain family |- f | ~f sets
    the tail. Chains are a sixth of the goals, so p90 falls near the middle
    of the chains' own spread of times rather than at its edge."""

    RANDOM, DEPTH = 1200, 3
    CHAINS = {3: 245, 4: 2, 5: 1}

    def goals(self, rng: random.Random) -> list[Goal]:
        atoms = [f"p{i}" for i in range(6)]

        def draw(rng):
            s = random_sequent(rng, atoms, self.DEPTH, 2)
            valid = reference_countermodel(s) is None
            nodes = sum(shape(phi)[1] for phi in s.ante | s.succ)
            return (valid, min(nodes // 4, 5)), ("random", s, "proved" if valid else "refuted")

        out = stratified(rng, self.RANDOM, PROP_STRATA, draw)
        # Atom names are drawn in sorted order, so every chain of length n is
        # an order-preserving renaming of the others and costs the same search.
        pool = [f"p{i}" for i in range(10)]
        for n, count in self.CHAINS.items():
            out += [("chain", chain_goal(sorted(rng.sample(pool, n))), "proved") for _ in range(count)]
        rng.shuffle(out)
        return [Goal(i, kind, (parsing.format_sequent(s), s), expect) for i, (kind, s, expect) in enumerate(out)]

    def run(self, goal: Goal):
        s = parsing.parse_sequent(goal.data[0])
        verdict = prop_prover.decide(s)
        text = dump_verdict(verdict)
        if isinstance(verdict, prop_prover.Proved):
            return "proved", (s, verdict, sequents.check_proof(verdict.proof, Calculus.GCIORE_PRIME), text)
        return "refuted", (s, verdict, None, text)

    def check(self, goal: Goal, verdict: str, outcome, full: bool) -> str | None:
        s, v, checked, text = outcome
        if verdict != goal.expect:
            return f"{verdict}, the reference evaluator says {goal.expect}"
        if s != goal.data[1]:
            return "parsed goal differs from the generated one"
        if verdict == "proved":
            if not checked:
                return "proof fails check_proof in GCiore'"
            if v.proof.sequent != s:
                return "proof end-sequent is not the goal"
        elif not reference.falsifies(ranks(v.valuation), s):
            return "refuting valuation does not falsify the goal"
        if full and (matrix.find_countermodel(s) is None) != (verdict == "proved"):
            return "matrix semantics disagrees with the prover"
        return None


class Semantics:
    """Part 1: matrix search on valid-by-construction 7-9 atom goals, which
    enumerate all 3^n valuations, and on random 9-atom-pool goals, which
    mostly stop early. Part 2: model checking FO sequents in random
    structures over domains of 3-5 elements. The valid goals are a sixth
    of the total, so p90 falls near the middle of their spread of times and
    p50 among the random goals."""

    VALID = {7: 100, 8: 4, 9: 1}
    RANDOM_PROP, FO = 500, 60

    def goals(self, rng: random.Random) -> list[Goal]:
        out = []
        for n, count in self.VALID.items():
            names = [f"p{i}" for i in range(n)]
            for i in range(count):
                phi = spanning_formula(rng, names)
                if i % 2:
                    psi = spanning_formula(rng, names)
                    s = Sequent.make((Circ(phi), phi, Neg(phi)), (psi,))
                else:
                    s = Sequent.make((), (Or(phi, Neg(phi)),))
                out.append(("valid", s, "valid"))
        pool = [f"p{i}" for i in range(9)]

        def draw_random(rng):
            s = random_sequent(rng, pool, 3, 2)
            cm = reference_countermodel(s)
            examined = reference.valuations_examined(reference.sequent_atoms(s), cm)
            return examined.bit_length(), ("random", s, "valid" if cm is None else "invalid")

        def draw_model(rng):
            structure = random_structure(rng, 3 + rng.randrange(3))
            s = random_fo_sequent(rng, 2)
            tally = [0]
            valid = reference.fo_valid_in(structure, s, tally)
            return min(tally[0].bit_length(), 15), ("model", (structure, s), "valid" if valid else "invalid")

        out += stratified(rng, self.RANDOM_PROP, MATRIX_STRATA, draw_random)
        out += stratified(rng, self.FO, MODEL_STRATA, draw_model)
        rng.shuffle(out)
        return [Goal(i, kind, data, expect) for i, (kind, data, expect) in enumerate(out)]

    def run(self, goal: Goal):
        if goal.kind == "model":
            structure, s = goal.data
            return ("valid" if fo_semantics.fo_sequent_valid_in(structure, s) else "invalid"), None
        cm = matrix.find_countermodel(goal.data)
        return ("valid" if cm is None else "invalid"), cm

    def check(self, goal: Goal, verdict: str, outcome, full: bool) -> str | None:
        if verdict != goal.expect:
            return f"{verdict}, the reference evaluator says {goal.expect}"
        if outcome is not None and not reference.falsifies(ranks(outcome), goal.data):
            return "countermodel does not falsify the goal"
        return None


class FirstOrder:
    """decide_fo under a fixed node budget on seeded random goals, the
    regression suite and three fixed goals."""

    RANDOM, DEPTH = 2400, 3

    def goals(self, rng: random.Random) -> list[Goal]:
        def draw(rng):
            phi = random_fo_formula(rng, PREDICATES, FREE_VARS, self.DEPTH)
            q, n = shape(phi)
            return (min(q, 3), min(n // 4, 4)), ("random", Sequent.make((), (phi,)), None)

        out = stratified(rng, self.RANDOM, FO_STRATA, draw)
        out += [("suite", s, "proved") for _, s in fo_prover.fo_regression_suite()]
        out += [
            ("fixed", parsing.parse_sequent("exists x. P(x) |- forall x. P(x)"), "refuted"),
            ("fixed", parsing.parse_sequent("|- (forall x. P(x) | Q(x)) -> (forall x. P(x)) | (forall x. Q(x))"), "refuted"),
            ("fixed", parsing.parse_sequent("forall x. exists y. R(x,y) |- exists y. forall x. R(x,y)"), "not proved"),
        ]
        rng.shuffle(out)
        return [Goal(i, kind, s, expect) for i, (kind, s, expect) in enumerate(out)]

    def run(self, goal: Goal):
        verdict = fo_prover.decide_fo(goal.data, max_nodes=FO_NODES, max_depth=FO_STAGES)
        return fo_class(verdict), verdict

    def check(self, goal: Goal, verdict: str, outcome, full: bool) -> str | None:
        if goal.expect in ("proved", "refuted") and verdict != goal.expect:
            return f"{verdict}, expected {goal.expect}"
        if goal.expect == "not proved" and verdict == "proved":
            return "invalid goal proved"
        if verdict == "proved":
            if outcome.proof.sequent != goal.data:
                return "proof end-sequent is not the goal"
            return "proof uses cut" if outcome.proof.uses_cut() else None
        if verdict == "refuted":
            return fo_countermodel_error(goal.data, outcome.structure, outcome.assignment)
        return None


def make(name: str):
    return {"prop": Prop, "semantics": Semantics, "fo": FirstOrder}[name]()
