"""Command-line front end.

Subcommands: prove, validity, countermodel, check-proof, reduction-tree,
selftest. Exit codes: 0 proved/valid/check passed, 1 refuted/invalid/check
failed, 2 undetermined (budget or atom cap), 64 usage error, 65 parse or
input error, 70 internal error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import fo_prover, prop_prover
from .axioms import PROPOSITIONAL_SCHEMATA
from .errors import AtomCapExceeded, InternalError, LogicError, ParseError, UsageError
from .fo_semantics import falsifying_assignment, fo_sequent_valid_in, structure_from_json
from .matrix import (
    TruthValue,
    eval_formula,
    find_countermodel,
    matrix_valid,
    valuation_to_json,
)
from .parsing import format_sequent, parse_sequent
from .prop_prover import decide, theorem_suite
from .randgen import random_formula
from .sequents import Calculus, Sequent, proof_error
from .serialize import describe_verdict, proof_from_json, verdict_to_json
from .syntax import And, Circ, Imp, Neg, Or, PropAtom, is_propositional

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70

#: Exit code of each verdict status, shared by both provers' verdicts.
_VERDICT_EXIT = {"proved": EXIT_OK, "refuted": EXIT_NEGATIVE, "unknown": EXIT_UNKNOWN}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="ciore", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--fo", action="store_true", help="use the first-order prover")
        p.add_argument("--depth", type=_positive_int, default=fo_prover.DEFAULT_MAX_DEPTH, help="stage budget of the first-order search")
        p.add_argument("--nodes", type=_positive_int, default=fo_prover.DEFAULT_MAX_NODES, help="node budget of the first-order search")
        p.add_argument("--atom-cap", type=_positive_int, default=None, help="propositional atom cap (default 12, or CIORE_ATOM_CAP)")

    p = sub.add_parser("prove", help="prove a sequent or produce a countermodel")
    p.add_argument("sequent")
    common(p)

    p = sub.add_parser("validity", help="report valid/invalid")
    p.add_argument("sequent")
    p.add_argument("--structure", metavar="FILE", help="check validity inside this structure (JSON)")
    common(p)

    p = sub.add_parser("countermodel", help="print a countermodel if one exists")
    p.add_argument("sequent")
    p.add_argument("--structure", metavar="FILE", help="look for a falsifying assignment inside this structure")
    common(p)

    p = sub.add_parser("check-proof", help="check a proof object (JSON from FILE or '-')")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--allow-cut", action="store_true")
    p.add_argument(
        "--calculus",
        choices=["gciore", "gciore-prime", "gqciore"],
        default=None,
        help="calculus to check against (default: gqciore with --fo, else either propositional calculus)",
    )
    common(p)

    p = sub.add_parser("reduction-tree", help="dump the first-order search tree")
    p.add_argument("sequent")
    common(p)

    p = sub.add_parser("selftest", help="run the built-in regression suites")
    common(p)
    return parser


def _parse_goal(text: str, fo: bool) -> Sequent:
    s = parse_sequent(text)
    if not fo and not all(is_propositional(phi) for phi in s.ante | s.succ):
        raise UsageError("quantified or predicate input needs --fo (or --structure)")
    return s


def _emit(data, as_json: bool, text: str | None = None) -> None:
    if as_json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(text if text is not None else data)


def _read_json(path: str):
    """JSON from the file, or from standard input for '-'."""
    try:
        if path == "-":
            return json.loads(sys.stdin.read())
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def _cmd_prove(args) -> int:
    s = _parse_goal(args.sequent, args.fo)
    if args.fo:
        verdict = fo_prover.decide_fo(s, max_nodes=args.nodes, max_depth=args.depth)
    else:
        verdict = decide(s, atom_cap=args.atom_cap)
    _emit(verdict_to_json(verdict), args.json, describe_verdict(verdict))
    return _VERDICT_EXIT[verdict.status]


def _cmd_validity(args) -> int:
    s = _parse_goal(args.sequent, args.fo or bool(args.structure))
    if args.structure:
        st = structure_from_json(_read_json(args.structure))
        ok = fo_sequent_valid_in(st, s)
        _emit({"status": "valid" if ok else "invalid"}, args.json, "valid" if ok else "invalid")
        return EXIT_OK if ok else EXIT_NEGATIVE
    if args.fo:
        verdict = fo_prover.decide_fo(s, max_nodes=args.nodes, max_depth=args.depth)
        code = _VERDICT_EXIT[verdict.status]
        if code == EXIT_UNKNOWN:
            _emit(verdict_to_json(verdict), args.json, describe_verdict(verdict))
            return code
        ok = code == EXIT_OK
    else:
        ok = matrix_valid(s, atom_cap=args.atom_cap)
    _emit({"status": "valid" if ok else "invalid"}, args.json, "valid" if ok else "invalid")
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_countermodel(args) -> int:
    s = _parse_goal(args.sequent, args.fo or bool(args.structure))
    if args.structure:
        st = structure_from_json(_read_json(args.structure))
        assignment = falsifying_assignment(st, s)
        if assignment is not None:
            print(json.dumps({"assignment": assignment}, sort_keys=True))
            return EXIT_NEGATIVE
        print("valid in the given structure")
        return EXIT_OK
    if args.fo:
        verdict = fo_prover.decide_fo(s, max_nodes=args.nodes, max_depth=args.depth)
        code = _VERDICT_EXIT[verdict.status]
        if code == EXIT_NEGATIVE:
            print(json.dumps(verdict_to_json(verdict), indent=2, sort_keys=True))
        elif code == EXIT_UNKNOWN:
            print(describe_verdict(verdict))
        else:
            print("valid")
        return code
    cm = find_countermodel(s, atom_cap=args.atom_cap)
    if cm is None:
        print("valid")
        return EXIT_OK
    print(json.dumps(valuation_to_json(cm), sort_keys=True))
    return EXIT_NEGATIVE


def _cmd_check_proof(args) -> int:
    proof = proof_from_json(_read_json(args.file))

    chosen = {
        "gciore": [Calculus.GCIORE],
        "gciore-prime": [Calculus.GCIORE_PRIME],
        "gqciore": [Calculus.GQCIORE],
    }.get(args.calculus or ("gqciore" if args.fo else ""), [Calculus.GCIORE, Calculus.GCIORE_PRIME])

    errors = [proof_error(proof, calc, allow_cut=args.allow_cut) for calc in chosen]
    ok = any(err is None for err in errors)
    if args.json:
        print(json.dumps({"status": "pass" if ok else "fail", "error": None if ok else errors[0]}, indent=2))
    elif ok:
        print(f"proof checked: {format_sequent(proof.sequent)}")
    else:
        print(f"proof rejected: {errors[0]}")
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_reduction_tree(args) -> int:
    s = parse_sequent(args.sequent)
    tree = fo_prover.build_reduction_tree(s, max_nodes=args.nodes, max_depth=args.depth)
    print(fo_prover.dump_tree(tree))
    return {"closed": EXIT_OK, "refuted": EXIT_NEGATIVE}.get(tree.status, EXIT_UNKNOWN)


# ---------------------------------------------------------------------------
# Self test

# Expected truth tables, row operand first: 9 cells per binary connective,
# 3 each for negation and consistency.
_EXPECTED_CELLS = """
1&1=1 1&h=1 1&0=0 h&1=1 h&h=h h&0=0 0&1=0 0&h=0 0&0=0
1|1=1 1|h=1 1|0=1 h|1=1 h|h=h h|0=1 0|1=1 0|h=1 0|0=0
1>1=1 1>h=1 1>0=0 h>1=1 h>h=h h>0=0 0>1=1 0>h=1 0>0=1
~1=0 ~h=h ~0=1
o1=1 oh=0 o0=1
""".split()

_VAL = {"1": TruthValue.ONE, "h": TruthValue.HALF, "0": TruthValue.ZERO}
_P, _Q = PropAtom("p"), PropAtom("q")
_CELL_FORMULAS = {"&": And(_P, _Q), "|": Or(_P, _Q), ">": Imp(_P, _Q), "~": Neg(_P), "o": Circ(_P)}


def _selftest_truth_tables() -> list[str]:
    failures = []
    for cell in _EXPECTED_CELLS:
        lhs, want = cell.split("=")
        if lhs[0] in "~o":
            op, v = lhs[0], {"p": _VAL[lhs[1]]}
        else:
            op, v = lhs[1], {"p": _VAL[lhs[0]], "q": _VAL[lhs[2]]}
        got = eval_formula(_CELL_FORMULAS[op], v)
        if got is not _VAL[want]:
            failures.append(f"cell {cell}: got {got.value}")
    return failures


def _selftest_axioms() -> list[str]:
    rng = random.Random(20240)
    atoms = ["p", "q", "r", "s"]
    failures = []
    for name, schema in PROPOSITIONAL_SCHEMATA.items():
        for _ in range(100):
            inst = schema(*(random_formula(rng, atoms, 3) for _ in range(3)))
            if not matrix_valid(Sequent.make((), (inst,))):
                failures.append(f"axiom {name} instance refuted")
                break
    return failures


def _selftest_theorems() -> list[str]:
    failures = []
    for name, s in theorem_suite():
        verdict = decide(s)
        if not isinstance(verdict, prop_prover.Proved):
            failures.append(f"{name}: not proved")
            continue
        err = proof_error(verdict.proof, Calculus.GCIORE_PRIME, allow_cut=False)
        if err is not None:
            failures.append(f"{name}: {err}")
    return failures


def _selftest_fo() -> list[str]:
    failures = []
    for name, s in fo_prover.fo_regression_suite():
        verdict = fo_prover.decide_fo(s)
        if not isinstance(verdict, fo_prover.Proved):
            failures.append(f"{name}: not proved")
        elif verdict.proof.uses_cut():
            failures.append(f"{name}: proof uses cut")
    for name, proof in fo_prover.derived_quantifier_expansions():
        err = proof_error(proof, Calculus.GQCIORE, allow_cut=True)
        if err is not None:
            failures.append(f"derived {name}: {err}")
    return failures


def _cmd_selftest(args) -> int:
    suites = [
        ("truth-tables", _selftest_truth_tables),
        ("hilbert-axioms", _selftest_axioms),
        ("theorems", _selftest_theorems),
        ("fo-regression", _selftest_fo),
    ]
    failed = False
    for name, run in suites:
        failures = run()
        if failures:
            failed = True
            print(f"FAIL {name}: {failures[0]}")
        else:
            print(f"ok   {name}")
    return EXIT_NEGATIVE if failed else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "prove": _cmd_prove,
            "validity": _cmd_validity,
            "countermodel": _cmd_countermodel,
            "check-proof": _cmd_check_proof,
            "reduction-tree": _cmd_reduction_tree,
            "selftest": _cmd_selftest,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AtomCapExceeded as exc:
        print(f"unknown: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except LogicError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except RecursionError:
        print("internal error: input nested too deeply for the recursive traversals", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
