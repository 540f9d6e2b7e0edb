"""Pinned answers: sha256 digests of what the provers and the model checker
answer on fixed seeded inputs.

A change that is meant to keep every answer (a refactor, a speed-up) must
leave these digests as they are. A change that alters answers on purpose
recomputes them (run this file as a script with PYTHONPATH=src:tests; it
prints the digests as JSON) and says which answers changed and why.

The inputs:
- first-order goals ``|- phi`` over P/1 and R/2 and the variables a1-a3,
  depth 3, plus the first-order regression suite: the verdict JSON of
  ``decide_fo``, and the ``dump_tree`` text of every fourth goal, both at
  200 nodes / 200 stages;
- six-atom propositional sequents: the verdict JSON of ``decide``;
- first-order sequents checked in random finite structures: the result of
  ``falsifying_assignment``;
- proofs of both provers with one fault put in (``helpers.corrupted_proofs``):
  the ``proof_error`` message under each calculus, with and without cuts;
- ``prove --json`` on ``|- o o ... p`` with 60 ``o``: its standard output;
- texts read by ``parse_formula`` and ``parse_sequent``: printed random
  formulas and sequents, the same with characters deleted, inserted or
  swapped, and random nestings on either side of the depth bound, alone and
  as the succedent of a sequent. Each outcome is the printed result with its
  ``formula_key``, or the ``ParseError`` message with its column.

Every answer must also be independent of the hash seed, so the check is
repeated in a subprocess under a second ``PYTHONHASHSEED``.

Beside the pins, each first-order verdict is derived from its reduction tree
alone: ``decide_fo`` may only add the finite refuter's verified structures to
what the stage loop decides.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys

from helpers import corrupted_proofs, denote_components, random_structure, random_term_formula

from ciore.cli import main
from ciore.errors import ParseError
from ciore.fo_prover import Proved, Refuted, _assemble, build_reduction_tree, decide_fo, dump_tree, fo_regression_suite
from ciore.fo_semantics import falsifying_assignment
from ciore.matrix import ZERO
from ciore.parsing import format_formula, format_sequent, parse_formula, parse_sequent
from ciore.prop_prover import decide
from ciore.randgen import random_fo_formula, random_formula, random_sequent
from ciore.sequents import Calculus, Sequent, proof_error
from ciore.serialize import verdict_to_json
from ciore.syntax import formula_key, var_index

PINNED = {
    "falsifying_assignments": "3c7a5e434888a0c0846a9714c0873ba2a3b3aafca6a0157b3aa23f8ce6e48cc6",
    "fo_trees": "995d9ecc841f3b50c6ed45b2acd233376b6e602a95da96492d914217305fb0a6",
    "fo_verdicts": "d5dd07e440f36eab45bd8b538d4843bf125f2d42fa97f51eee3ac8119bc37b67",
    "parse_outcomes": "e806aa4a92e5b33cdfa537da3f547b636d51e2a954da714cca352e32a868c717",
    "proof_errors": "cc5cc56242d879aa0c9cb3ed78570d1f6ea0abd06b3a65d9d10f38262afc97b7",
    "prop_verdicts": "ad5f2c9e562fd1dad9b745eedcbf7049fe2c3b7172cb2d461fa3c3cd90805f35",
    "prove_json_deep_circ": "4ffddebce6a5ee7ad83e40e8eccc8c34eef9f7b0a498b2146800e86d5f37f3d0",
}

_ARITIES = {"P": 1, "R": 2}
_VARIABLES = ("a1", "a2", "a3")


def _fo_goals() -> list[Sequent]:
    rng = random.Random(1010)
    goals = [Sequent.make((), (random_fo_formula(rng, _ARITIES, _VARIABLES, 3),)) for _ in range(300)]
    return goals + [s for _, s in fo_regression_suite()]


def _model_checks():
    rng = random.Random(2020)
    for _ in range(120):
        st = random_structure(rng, _ARITIES)
        sides = [[random_fo_formula(rng, _ARITIES, _VARIABLES, 3) for _ in range(rng.randint(0, 2))] for _ in "ab"]
        yield st, Sequent.make(*sides)


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _json(data) -> str:
    return json.dumps(data, sort_keys=True)


def _proof_errors():
    for proof in corrupted_proofs():
        yield [proof_error(proof, calculus, allow_cut) for calculus in Calculus for allow_cut in (False, True)]


def _prove_json_stdout(goal: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["prove", "--json", goal]) == 0
    return out.getvalue()


def _valid_texts(rng: random.Random) -> list[str]:
    texts = []
    for _ in range(400):
        phi = random_term_formula(rng, 4)
        psi = random_fo_formula(rng, _ARITIES, _VARIABLES, 4)
        chi = random_formula(rng, ("p", "q", "r"), 5)
        texts += [format_formula(phi), format_formula(psi), format_formula(chi)]
        left = ", ".join(format_formula(random_formula(rng, ("p", "q"), 3)) for _ in range(rng.randint(0, 2)))
        texts.append(f"{left} |- {format_formula(psi)}")
    return texts


_PIECES = ("~", "o ", "(", ")", "&", "|", "->", "|-", ",", ".", " ", "forall ", "exists ", "x", "a1", "P(", "f(", "$", "-", "!", "\t")


def _mutated(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        move = rng.randrange(3)
        if move == 0:  # delete a character
            text = text[:i] + text[i + 1 :]
        elif move == 1:  # insert a piece of the grammar, or a stray character
            text = text[:i] + rng.choice(_PIECES) + text[i:]
        elif len(text) > 1:  # swap two characters
            j = rng.randrange(len(text))
            chars = list(text)
            chars[i % len(text)], chars[j] = chars[j], chars[i % len(text)]
            text = "".join(chars)
    return text


def _deep_text(rng: random.Random, levels: int) -> str:
    """A random nesting around one atom: prefixes, parentheses, quantifiers,
    chains and function applications, `levels` wrappings in all. Between 76
    and 100 wrappings reach depths on both sides of `MAX_DEPTH`."""
    text = "P(a1)"
    for i in range(levels):
        shape = rng.randrange(7)
        if shape == 0:
            text = rng.choice(("~", "o ")) + text
        elif shape == 1:
            text = f"({text})"
        elif shape == 2:
            text = f"forall x{i}. {text}"
        elif shape == 3:
            text = f"q {rng.choice(('&', '|', '->'))} {text}"
        elif shape == 4:
            text = f"({text}) {rng.choice(('&', '|', '->'))} q"
        elif shape == 5:
            text = f"{text} & q & r" if rng.random() < 0.5 else f"p -> {text} -> r"
        else:
            text = text.replace("a1", "g(a1)", 1)
    return text


def _parse_texts() -> list[str]:
    rng = random.Random(4040)
    valid = _valid_texts(rng)
    mutated = [_mutated(rng, rng.choice(valid)) for _ in range(1600)]
    deep = [rng.choice(("", "q |- ")) + _deep_text(rng, rng.randint(76, 100)) for _ in range(300)]
    return valid + mutated + deep


def _parse_outcome(parse, text: str):
    try:
        result = parse(text)
    except ParseError as exc:
        return ["error", str(exc), exc.position]
    if isinstance(result, Sequent):
        keys = [[repr(formula_key(f)) for f in side] for side in (result.sorted_ante(), result.sorted_succ())]
        return ["sequent", format_sequent(result), keys]
    return ["formula", format_formula(result), repr(formula_key(result))]


def answer_digests() -> dict[str, str]:
    fo_goals = _fo_goals()
    prop_rng = random.Random(3030)
    prop_goals = [random_sequent(prop_rng, ("p", "q", "r", "s", "t", "u"), 3) for _ in range(300)]
    return {
        "fo_verdicts": _digest(_json(verdict_to_json(decide_fo(s, 200, 200))) for s in fo_goals),
        "fo_trees": _digest(dump_tree(build_reduction_tree(s, 200, 200)) for s in fo_goals[::4]),
        "prop_verdicts": _digest(_json(verdict_to_json(decide(s))) for s in prop_goals),
        "falsifying_assignments": _digest(_json(falsifying_assignment(st, s)) for st, s in _model_checks()),
        "proof_errors": _digest(_json(errors) for errors in _proof_errors()),
        "prove_json_deep_circ": _digest([_prove_json_stdout("|- " + "o " * 60 + "p")]),
        "parse_outcomes": _digest(
            _json([_parse_outcome(parse_formula, text), _parse_outcome(parse_sequent, text)]) for text in _parse_texts()
        ),
    }


def _falsified_by_the_reference(verdict: Refuted, s: Sequent) -> bool:
    """Every antecedent formula designated and every succedent formula 0 at
    the verdict's assignment, by the component-set evaluator of the tests."""
    variables = tuple(sorted(s.free_variables(), key=var_index))
    point = tuple(verdict.assignment[v] for v in variables)

    def value(phi):
        return denote_components(phi, verdict.structure, variables).value_at(point)

    return all(value(phi) is not ZERO for phi in s.ante) and all(value(phi) is ZERO for phi in s.succ)


def test_fo_verdicts_follow_the_stage_loop():
    statuses = []
    for s in _fo_goals():
        tree = build_reduction_tree(s, 200, 200)
        verdict = decide_fo(s, 200, 200)
        statuses.append(tree.status)
        if tree.status == "closed":
            assert _json(verdict_to_json(verdict)) == _json(verdict_to_json(Proved(_assemble(tree.root)))), s
        elif tree.status == "refuted":
            assert verdict == Refuted(*tree.countermodel), s
        elif verdict.status == "refuted":
            assert _falsified_by_the_reference(verdict, s), s
        else:
            assert verdict.status == "unknown", s
    assert {"closed", "refuted", "budget"} <= set(statuses)


def test_answers_match_the_pins():
    assert answer_digests() == PINNED


def test_answers_match_the_pins_under_another_hash_seed():
    here = pathlib.Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "1" if env.get("PYTHONHASHSEED") == "0" else "0"
    env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
    out = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == PINNED


if __name__ == "__main__":
    print(json.dumps(answer_digests(), indent=4, sort_keys=True))
