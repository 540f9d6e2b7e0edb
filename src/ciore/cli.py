"""Command-line front end.

Subcommands: prove, validity, countermodel, check-proof, reduction-tree.
A goal with a quantifier or a predicate goes to the first-order
prover, any other to the propositional one. Exit codes: 0 proved/valid/check
passed, 1 refuted/invalid/check failed, 2 undetermined (budget or atom cap),
64 usage error, 65 parse or input error, 70 internal error, 74 output error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys

from . import fo_prover
from .errors import AtomCapExceeded, InternalError, LogicError, ParseError, UsageError
from .fo_semantics import falsifying_assignment, structure_from_json
from .matrix import DEFAULT_ATOM_CAP, find_countermodel, valuation_to_json
from .parsing import format_sequent, parse_sequent
from .prop_prover import decide
from .sequents import Calculus, proof_error
from .serialize import describe_verdict, proof_from_json, verdict_to_json

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70
EXIT_IOERR = 74

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


def _emit(data, as_json: bool, text: str | None = None) -> None:
    if as_json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(text if text is not None else data)


def _emit_verdict(verdict, as_json: bool) -> int:
    _emit(verdict_to_json(verdict) if as_json else None, as_json, describe_verdict(verdict))
    return _VERDICT_EXIT[verdict.status]


def _read_json(path: str, convert):
    """convert applied to the JSON from the file, or from standard input for
    '-'. A file that cannot be opened or read is an input error. The JSON
    reader recurses once per nesting level, and `proof_from_json` once per
    proof level, so input nested past Python's recursion limit is one too."""
    if path == "-" and sys.stdin is None:  # Python started with descriptor 0 closed
        raise LogicError("standard input is closed")
    try:
        if path == "-":
            return convert(json.loads(sys.stdin.read()))
        with open(path, "r", encoding="utf-8") as fh:
            return convert(json.load(fh))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("JSON nested too deeply to read (past Python's recursion limit)") from None
    except OSError as exc:
        raise LogicError(str(exc)) from exc


def _cmd_prove(args) -> int:
    s = parse_sequent(args.sequent)
    if s.propositional:
        verdict = decide(s, atom_cap=args.atom_cap)
    else:
        verdict = fo_prover.decide_fo(s, max_nodes=args.nodes, max_depth=args.depth)
    return _emit_verdict(verdict, args.json)


def _search(args):
    """The countermodel of the goal that `validity` and `countermodel`
    report, None when the goal is valid: a falsifying assignment in the
    given structure (`{"assignment": ...}`) or a valuation, as JSON, or the
    first-order prover's `Refuted` or `Unknown` verdict."""
    s = parse_sequent(args.sequent)
    if args.structure:
        assignment = falsifying_assignment(_read_json(args.structure, structure_from_json), s)
        return None if assignment is None else {"assignment": assignment}
    if s.propositional:
        valuation = find_countermodel(s, atom_cap=args.atom_cap)
        return None if valuation is None else valuation_to_json(valuation)
    verdict = fo_prover.decide_fo(s, max_nodes=args.nodes, max_depth=args.depth)
    return None if verdict.status == "proved" else verdict


def _cmd_validity(args) -> int:
    found = _search(args)
    if getattr(found, "status", None) == "unknown":
        return _emit_verdict(found, args.json)
    ok = found is None
    _emit({"status": "valid" if ok else "invalid"}, args.json, "valid" if ok else "invalid")
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_countermodel(args) -> int:
    """The countermodel is printed as JSON with or without --json."""
    found = _search(args)
    if found is None:
        _emit({"status": "valid"}, args.json, "valid in the given structure" if args.structure else "valid")
        return EXIT_OK
    if isinstance(found, dict):
        print(json.dumps(found, sort_keys=True))
        return EXIT_NEGATIVE
    return _emit_verdict(found, args.json or found.status == "refuted")


_CALCULI = {
    "gciore": [Calculus.GCIORE],
    "gciore-prime": [Calculus.GCIORE_PRIME],
    "gqciore": [Calculus.GQCIORE],
}


def _cmd_check_proof(args) -> int:
    proof = _read_json(args.file, proof_from_json)
    default = "" if proof.sequent.propositional else "gqciore"
    chosen = _CALCULI.get(args.calculus or default, [Calculus.GCIORE, Calculus.GCIORE_PRIME])
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


#: Every argument of the command line; each subcommand takes those that
#: `_COMMANDS` names for it.
_ARGUMENTS = {
    "sequent": dict(help="the goal, a sequent in the text grammar"),
    "file": dict(nargs="?", default="-", help="proof object as JSON ('-', the default, for standard input)"),
    "--json": dict(action="store_true", help="machine-readable output"),
    "--depth": dict(type=_positive_int, default=fo_prover.DEFAULT_MAX_DEPTH, help="stage budget of the search on a first-order goal"),
    "--nodes": dict(type=_positive_int, default=fo_prover.DEFAULT_MAX_NODES, help="node budget of the search on a first-order goal"),
    "--atom-cap": dict(type=_positive_int, default=None, help=f"most atoms a propositional goal may have (default {DEFAULT_ATOM_CAP})"),
    "--structure": dict(metavar="FILE", help="decide the goal inside this finite structure (JSON)"),
    "--allow-cut": dict(action="store_true", help="accept proofs that use cut"),
    "--calculus": dict(
        choices=list(_CALCULI),
        help="calculus to check against (default: gqciore for a first-order end sequent, else either propositional calculus)",
    ),
}

_SEARCH_ARGUMENTS = ("sequent", "--json", "--depth", "--nodes", "--atom-cap")

#: Each subcommand: its handler, its help line and the arguments it reads.
_COMMANDS = {
    "prove": (_cmd_prove, "prove a sequent or produce a countermodel", _SEARCH_ARGUMENTS),
    "validity": (_cmd_validity, "report valid/invalid", _SEARCH_ARGUMENTS + ("--structure",)),
    "countermodel": (_cmd_countermodel, "print a countermodel if one exists", _SEARCH_ARGUMENTS + ("--structure",)),
    "check-proof": (_cmd_check_proof, "check a proof object", ("file", "--json", "--allow-cut", "--calculus")),
    "reduction-tree": (_cmd_reduction_tree, "dump the first-order search tree", ("sequent", "--depth", "--nodes")),
}


@functools.cache  # one parser per process: argparse builds reference cycles
def _build_parser() -> _Parser:
    parser = _Parser(prog="ciore", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for argument in arguments:
            p.add_argument(argument, **_ARGUMENTS[argument])
    return parser


def _discard(stream) -> None:
    """Point the stream's descriptor at the null device. Python flushes
    standard output and standard error once more at exit, and exits 120 if
    that fails, so output left unwritten goes there."""
    with contextlib.suppress(io.UnsupportedOperation):  # a stream with no descriptor
        fd, null = stream.fileno(), os.open(os.devnull, os.O_WRONLY)
        if null != fd:  # the descriptor was closed, and the null device took it
            os.dup2(null, fd)
            os.close(null)


def _report(code: int, message: str) -> int:
    """code, after message is written to standard error, when there is one
    (``print`` to a None stream would write to standard output) and it can
    be written."""
    if sys.stderr is not None:
        try:
            print(message, file=sys.stderr, flush=True)
        except OSError:
            _discard(sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if sys.stdout is None:  # Python started with descriptor 1 closed
            return _report(EXIT_IOERR, "output error: standard output is closed")
        code = _COMMANDS[args.command][0](args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        return _report(EXIT_USAGE, f"usage error: {exc}")
    except AtomCapExceeded as exc:
        return _report(EXIT_UNKNOWN, f"unknown: {exc}")
    except ParseError as exc:
        return _report(EXIT_DATA, f"parse error: {exc}")
    except LogicError as exc:
        return _report(EXIT_DATA, f"input error: {exc}")
    except OSError as exc:
        # Input files are read by `_read_json`, so this is a failed write.
        _discard(sys.stdout)
        return _report(EXIT_IOERR, f"output error: {exc}")
    except InternalError as exc:
        return _report(EXIT_INTERNAL, f"internal error: {exc}")
    except RecursionError:
        return _report(EXIT_INTERNAL, "internal error: input nested too deeply for the recursive traversals")
    except MemoryError:
        return _report(EXIT_INTERNAL, "internal error: out of memory")


if __name__ == "__main__":
    sys.exit(main())
