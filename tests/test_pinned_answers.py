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
- ``prove --json`` on ``|- o o ... p`` with 60 ``o``: its standard output.

Every answer must also be independent of the hash seed, so the check is
repeated in a subprocess under a second ``PYTHONHASHSEED``.
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

from helpers import corrupted_proofs, random_structure

from ciore.cli import main
from ciore.fo_prover import build_reduction_tree, decide_fo, dump_tree, fo_regression_suite
from ciore.fo_semantics import falsifying_assignment
from ciore.prop_prover import decide
from ciore.randgen import random_fo_formula, random_sequent
from ciore.sequents import Calculus, Sequent, proof_error
from ciore.serialize import verdict_to_json

PINNED = {
    "falsifying_assignments": "3c7a5e434888a0c0846a9714c0873ba2a3b3aafca6a0157b3aa23f8ce6e48cc6",
    "fo_trees": "b989a2a0688ebddd9d0358ff1e7ab389bce856ab5463fea75c75615063be128e",
    "fo_verdicts": "075f5211fbae2efacfe627a6c7cea7e81495f6d5b0d7484d84b3f1be602f2318",
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
    }


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
