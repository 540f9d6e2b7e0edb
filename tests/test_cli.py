import contextlib
import io
import json
import os
import random
import tempfile

import pytest
from hypothesis import event, given, settings, strategies as st

from ciore import prop_prover
from ciore.cli import main
from ciore.errors import LogicError
from ciore.fo_semantics import Structure, Triple, structure_to_json
from ciore.matrix import HALF, ONE, ZERO, find_countermodel
from ciore.parsing import format_sequent, parse_sequent
from ciore.randgen import random_fo_formula, random_sequent
from ciore.sequents import Proved, Sequent
from ciore.serialize import proof_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_prove_consistency_of_consistency(capsys):
    code, out, _ = run(capsys, "prove", "|- o o p")
    assert code == 0 and "proved" in out


def test_prove_json_contains_cut_free_proof(capsys):
    code, out, _ = run(capsys, "prove", "--json", "|- o o p")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "proved"

    def rules(node):
        yield node["rule"]
        for prem in node["premises"]:
            yield from rules(prem)

    assert "Cut" not in set(rules(data["proof"]))


def test_countermodel_subcommand(capsys):
    code, out, _ = run(capsys, "countermodel", "p |- o p")
    assert code == 1
    assert json.loads(out) == {"p": "1/2"}
    code, out, _ = run(capsys, "countermodel", "|- o o p")
    assert code == 0 and "valid" in out


def test_fo_prove_refuted_with_structure(capsys):
    code, out, _ = run(capsys, "prove", "--fo", "--json", "exists x. P(x) |- forall x. P(x)")
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "refuted"
    assert "structure" in data and "assignment" in data


def test_validity_exit_codes(capsys):
    assert run(capsys, "validity", "|- p | ~p")[0] == 0
    assert run(capsys, "validity", "|- p & ~p")[0] == 1


def test_validity_in_structure(tmp_path, capsys):
    st = Structure(
        domain=("0", "1"),
        predicates={"P": Triple.from_values((("0",), ("1",)), {("0",): ONE, ("1",): ZERO})},
    )
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(structure_to_json(st)))
    code, out, _ = run(capsys, "validity", "--structure", str(path), "forall x. P(x) |- P(a1)")
    assert code == 0 and "valid" in out
    code, out, _ = run(capsys, "countermodel", "--structure", str(path), "|- P(a1)")
    assert code == 1
    assert json.loads(out) == {"assignment": {"a1": "1"}}


def test_validity_fo_routes_through_prover(capsys):
    code, out, _ = run(capsys, "validity", "--fo", "|- (o forall x. P(x)) -> exists x. o P(x)")
    assert code == 0 and "valid" in out
    code, out, _ = run(capsys, "validity", "--fo", "exists x. P(x) |- forall x. P(x)")
    assert code == 1 and "invalid" in out
    swap = "|- (forall x. exists y. R(x, y)) -> exists y. forall x. R(x, y)"
    code, out, _ = run(capsys, "validity", "--fo", "--nodes", "40", "--depth", "20", swap)
    assert code == 2 and "unknown" in out


def test_check_proof_json_output(tmp_path, capsys):
    code, out, _ = run(capsys, "prove", "--json", "|- p -> p")
    proof = json.loads(out)["proof"]
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(proof))
    code, out, _ = run(capsys, "check-proof", "--json", str(path))
    assert code == 0 and json.loads(out) == {"status": "pass", "error": None}


def test_reduction_tree_budget_exit(capsys):
    swap = "|- (forall x. exists y. R(x, y)) -> exists y. forall x. R(x, y)"
    code, out, _ = run(capsys, "reduction-tree", "--nodes", "40", "--depth", "20", swap)
    assert code == 2
    assert out.splitlines()[0].startswith("status=")


def test_quantified_without_fo_is_usage_error(capsys):
    code, _, err = run(capsys, "prove", "|- forall x. P(x)")
    assert code == 64 and "--fo" in err


def test_parse_error_exit(capsys):
    code, _, err = run(capsys, "prove", "p & |- q")
    assert code == 65 and "parse error" in err


def test_atom_cap_exit(capsys):
    goal = " | ".join(f"v{i}" for i in range(13))
    code, _, err = run(capsys, "prove", f"|- {goal}")
    assert code == 2 and "cap" in err


def test_atom_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CIORE_ATOM_CAP", "20")
    goal = " | ".join(f"v{i}" for i in range(13))
    code, _, _ = run(capsys, "prove", f"|- {goal}")
    assert code == 1  # now refutable instead of capped


def test_check_proof_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "prove", "--json", "|- o o p")
    proof = json.loads(out)["proof"]
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(proof))
    code, out, _ = run(capsys, "check-proof", str(path))
    assert code == 0 and "checked" in out

    proof["premises"] = []
    path.write_text(json.dumps(proof))
    code, out, _ = run(capsys, "check-proof", str(path))
    assert code == 1 and "rejected" in out


def test_check_proof_stdin(capsys, monkeypatch, tmp_path):
    import io

    code, out, _ = run(capsys, "prove", "--json", "|- p -> p")
    proof = json.loads(out)["proof"]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(proof)))
    code, out, _ = run(capsys, "check-proof")
    assert code == 0


def test_check_proof_calculus_choice(tmp_path, capsys):
    code, out, _ = run(capsys, "prove", "--json", "|- ~(p & q), p, q")
    proof = json.loads(out)["proof"]
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(proof))
    code, _, _ = run(capsys, "check-proof", "--calculus", "gciore-prime", str(path))
    assert code == 0


def test_reduction_tree_dump(capsys):
    code, out, _ = run(capsys, "reduction-tree", "P(a1) |- P(a1)")
    assert code == 0
    assert out.splitlines()[0].startswith("status=closed")
    code, out, _ = run(capsys, "reduction-tree", "exists x. P(x) |- forall x. P(x)")
    assert code == 1


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert out.count("ok") == 4


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "check-proof", "/nonexistent/proof.json")
    assert code == 65


@pytest.mark.parametrize(
    "flags",
    [
        ["--nodes", "-5"],
        ["--nodes", "0"],
        ["--depth", "0"],
        ["--depth", "-1"],
        ["--atom-cap", "-1"],
        ["--atom-cap", "0"],
        ["--nodes", "abc"],
    ],
)
def test_non_positive_budgets_and_caps_are_usage_errors(capsys, flags):
    code, _, err = run(capsys, "prove", *flags, "|- p")
    assert code == 64 and "positive integer" in err
    code, _, _ = run(capsys, "prove", "--fo", *flags, "|- P(a1)")
    assert code == 64


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
def test_bad_atom_cap_env_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("CIORE_ATOM_CAP", value)
    code, _, err = run(capsys, "prove", "|- p")
    assert code == 64 and "CIORE_ATOM_CAP" in err
    code, _, _ = run(capsys, "validity", "|- p | ~p")
    assert code == 64


def test_too_deep_input_is_internal_error_not_refutation(capsys):
    code, out, err = run(capsys, "prove", "|- " + "~" * 3000 + "p")
    assert code == 70 and out == "" and "internal error" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"domain": "ab", "predicates": {}}',
        '{"domain": {"m0": 1}}',
        '{"domain": ["m0"], "predicates": []}',
        '{"domain": ["m0"], "constants": "ab"}',
        '{"domain": ["m0"], "predicates": {"P": {"plus": [], "minus": [], "circ": []}}}',
        '{"domain": ["m0"], "functions": {"f": [[]]}}',
        '{"domain": ["m0"], "functions": {"f": [["m0", ["m0"]]]}}',
        '{"domain": ["m0"], "constants": {"c": ["m0"]}}',
        '{"domain": ',
    ],
)
def test_malformed_structure_is_input_error(tmp_path, capsys, text):
    path = tmp_path / "structure.json"
    path.write_text(text)
    for command in ("validity", "countermodel"):
        code, out, err = run(capsys, command, "--structure", str(path), "|- P(a1)")
        assert code == 65 and out == "", (command, err)


@pytest.mark.parametrize(
    "goal,field,value",
    [
        ("forall x. P(x) |- P(a1)", "side", 5),
        ("forall x. P(x) |- P(a1)", "side", ["a1"]),
        ("forall x. P(x) |- P(a1)", "side", []),
        ("p |- p", "ante", "p"),
        ("p |- p", "succ", "p"),
        ("p |- p", "premises", {}),
    ],
)
def test_malformed_proof_field_is_input_error(tmp_path, capsys, goal, field, value):
    # a field of the wrong JSON type is neither a crash nor read as a list
    # (a string's characters as formulas, an object's keys as premises)
    fo = ["--fo"] if "P(" in goal else []
    code, out, _ = run(capsys, "prove", "--json", *fo, goal)
    proof = json.loads(out)["proof"]
    (proof["sequent"] if field in ("ante", "succ") else proof)[field] = value
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(proof))
    code, out, err = run(capsys, "check-proof", *fo, str(path))
    assert code == 65 and out == "", err


def test_undecodable_json_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{")
    code, out, _ = run(capsys, "check-proof", str(path))
    assert code == 65 and out == ""
    code, out, _ = run(capsys, "validity", "--structure", str(path), "|- P(a1)")
    assert code == 65 and out == ""


# ---------------------------------------------------------------------------
# Exit code 1 means a negative answer and nothing else


_PREDICATES = {"P": 1, "R": 2}


def _prop_goal(seed: int) -> str:
    return format_sequent(random_sequent(random.Random(seed), ["p", "q"], 2))


def _fo_goal(seed: int) -> str:
    rng = random.Random(seed)
    side = lambda: [random_fo_formula(rng, _PREDICATES, ["a1", "a2"], 2) for _ in range(rng.randint(0, 2))]
    return format_sequent(Sequent.make(side(), side()))


# (goal text, whether it needs --fo)
_PROP_GOALS = st.integers(0, 10**6).map(lambda seed: (_prop_goal(seed), False))
_FO_GOALS = st.integers(0, 10**6).map(lambda seed: (_fo_goal(seed), True))
_GOALS = st.one_of(
    _PROP_GOALS,
    _PROP_GOALS,
    _FO_GOALS,
    _FO_GOALS,
    st.sampled_from(
        [
            ("|-", False),
            ("p |- p", False),
            ("|- " + "~" * 3000 + "p", False),
            ("forall x. P(x) |- P(a1)", True),
            ("P(c) |- P(c)", True),
            ("p &", False),
        ]
    ),
    st.text(alphabet="pqo~&|->(), PRxa1.", max_size=16).map(lambda text: (text, False)),
)

_STRUCTURE = json.dumps(
    structure_to_json(
        Structure(
            domain=("m0", "m1"),
            predicates={
                "P": Triple.from_values((("m0",), ("m1",)), {("m0",): ONE, ("m1",): HALF}),
                "R": Triple.from_values(
                    tuple((a, b) for a in ("m0", "m1") for b in ("m0", "m1")),
                    {("m0", "m0"): ONE, ("m0", "m1"): ZERO, ("m1", "m0"): HALF, ("m1", "m1"): ONE},
                ),
            },
        )
    )
)

_STRUCTURE_FILES = st.sampled_from(
    [
        _STRUCTURE,
        _STRUCTURE,
        _STRUCTURE,
        _STRUCTURE.replace('"m1"', '"m0"', 1),
        '{"domain": "ab"}',
        '{"domain": []}',
        '{"domain": ["m0"], "predicates": []}',
        '{"domain": ["m0"], "constants": "ab"}',
        '{"domain": ["m0"], "predicates": {"P": {"plus": [], "minus": [], "circ": []}}}',
        '{"domain": ["m0"], "functions": {"f": [[]]}}',
        '{"domain": ["m0"], "functions": {"f": [["m0", ["m0"]]]}}',
        '{"domain": ["m0"], "constants": {"c": ["m0"]}}',
        "[]",
        "{",
    ]
)

_PROOF_FILES = st.sampled_from(["proof", "proof", "mutated", "mutated", "{", "[]", '{"rule": "Bogus"}'])


def _proof_file(kind: str, goal: str) -> str:
    """A proof of the goal (of  |- o o p  if the goal has none), the same
    proof with its last rule changed, or malformed JSON."""
    if kind not in ("proof", "mutated"):
        return kind
    try:
        verdict = prop_prover.decide(parse_sequent(goal))
    except (LogicError, RecursionError):
        verdict = None
    if not isinstance(verdict, Proved):
        verdict = prop_prover.decide(parse_sequent("|- o o p"))
    data = proof_to_json(verdict.proof)
    if kind == "mutated":
        data["rule"] = "AndL" if data["rule"] == "OrL" else "OrL"
    return json.dumps(data)


def _shows_negative_answer(command: str, out: str) -> bool:
    if command == "countermodel":
        return out.startswith("{")  # a countermodel, as JSON
    if command == "check-proof":
        return "rejected" in out or '"fail"' in out
    if command == "reduction-tree":
        return out.startswith("status=refuted")
    return "refuted" in out or "invalid" in out


# at most one setting out of range per call
_BAD_SETTING = st.sampled_from(
    [None] * 24 + [("--nodes", "0"), ("--nodes", "-3"), ("--depth", "0"), ("--atom-cap", "-1"), ("env", "abc"), ("env", "0")]
)


@given(
    command=st.sampled_from(["prove", "validity", "countermodel", "reduction-tree", "check-proof"]),
    goal=_GOALS,
    flip_fo=st.sampled_from([False, False, False, True]),
    as_json=st.booleans(),
    nodes=st.sampled_from([40, 5]),
    depth=st.sampled_from([20, 3]),
    atom_cap=st.sampled_from([None, 12, 1]),
    atom_cap_env=st.sampled_from([None, "2"]),
    bad=_BAD_SETTING,
    structure=st.none() | st.none() | _STRUCTURE_FILES,
    proof=_PROOF_FILES,
)
@settings(max_examples=400, deadline=None)
def test_exit_one_only_for_negative_answers(
    command, goal, flip_fo, as_json, nodes, depth, atom_cap, atom_cap_env, bad, structure, proof
):
    goal, fo = goal[0], goal[1] != flip_fo
    argv = [command, "--nodes", str(nodes), "--depth", str(depth)]
    argv += ["--json"] if as_json else []
    argv += ["--fo"] if fo else []
    argv += ["--atom-cap", str(atom_cap)] if atom_cap is not None else []
    if bad is not None and bad[0] == "env":
        atom_cap_env = bad[1]
    elif bad is not None:
        argv += list(bad)
    proof_text = _proof_file(proof, goal) if command == "check-proof" else ""
    saved_env = os.environ.pop("CIORE_ATOM_CAP", None)
    if atom_cap_env is not None:
        os.environ["CIORE_ATOM_CAP"] = atom_cap_env
    out, err = io.StringIO(), io.StringIO()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            if command == "check-proof":
                argv.append(os.path.join(tmp, "proof.json"))
                with open(argv[-1], "w") as fh:
                    fh.write(proof_text)
            else:
                if structure is not None and command in ("validity", "countermodel"):
                    argv += ["--structure", os.path.join(tmp, "structure.json")]
                    with open(argv[-1], "w") as fh:
                        fh.write(structure)
                argv.append(goal)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
    finally:
        os.environ.pop("CIORE_ATOM_CAP", None)
        if saved_env is not None:
            os.environ["CIORE_ATOM_CAP"] = saved_env
    event(f"{command} exit {code}")
    assert code in (0, 1, 2, 64, 65, 70), (argv, code, err.getvalue())
    if code == 1:
        assert _shows_negative_answer(command, out.getvalue()), (argv, out.getvalue(), err.getvalue())
        if command in ("prove", "validity", "countermodel") and not fo and "--structure" not in argv:
            # the matrix, which shares no code with the prover, agrees
            assert find_countermodel(parse_sequent(goal), atom_cap=99) is not None, argv
