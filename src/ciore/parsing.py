"""Text syntax for formulas, sequents and terms.

Grammar: `~` and `o` are prefix and bind tightest, then the binary
connectives in the order and with the associativity that `_BINARY` states:
`&`, then `|`, then right-associative `->`. `forall x.` / `exists x.`
scope to the end of the enclosing parenthesis. Propositional atoms are
lowercase identifiers, predicates are capitalized and take a parenthesized
term list. Sequents are written `p, q |- r` with either side possibly empty.
"""

from __future__ import annotations

import functools
import re

from .errors import LogicError, ParseError
from .sequents import Sequent
from .syntax import (
    And,
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
    Or,
    PredAtom,
    PropAtom,
    Term,
    is_free_var_name,
    store_bottom_up,
)

#: The binary connectives, loosest first: each row is a token, its
#: constructor, and whether a chain of it folds to the right. This is the
#: one statement of precedence and associativity; the parser and the
#: printer both read it. A connective's level is its row number from 1, so
#: that quantifiers sit at level 0 and prefixes past the last row.
_BINARY = (("->", Imp, True), ("|", Or, False), ("&", And, False))
_BY_TOKEN = {token: (level, ctor, right) for level, (token, ctor, right) in enumerate(_BINARY, 1)}
_BY_CTOR = {ctor: (token, level, right) for level, (token, ctor, right) in enumerate(_BINARY, 1)}
_PREFIX_LEVEL = len(_BINARY) + 1

_RESERVED = {"o", "forall", "exists"}

# One token per match, whitespace skipped; group 2 is any other character.
_TOKEN_RE = re.compile(r"(\|-|->|[&|~().,]|[A-Za-z][A-Za-z0-9_]*)|(\S)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    """The (token, position) pairs of text, ending with ("", len(text))."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastindex == 2:
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.group(), m.start()))
    tokens.append(("", len(text)))
    return tokens


#: The deepest nesting the parser accepts; deeper input is a `ParseError`.
#: Parentheses, `~`, `o`, quantifiers and function applications each add
#: one level to what they enclose, and a chain of n binary connectives adds
#: n levels to each of its operands. The bound keeps the parser and every
#: recursive traversal of a parsed formula well inside Python's default
#: recursion limit.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.tok, self.pos = self.tokens[0]  # the current token
        self.depth = 0  # levels open at the current token
        self.peak = 0  # deepest level the current chain's operands have reached

    def advance(self) -> str:
        tok = self.tok
        self.i += 1
        self.tok, self.pos = self.tokens[self.i]
        return tok

    def expect(self, token: str, what: str) -> None:
        if self.tok != token:
            raise ParseError(f"expected {what}", self.pos)
        self.advance()

    def name(self, what: str) -> tuple[str, int]:
        """The identifier at the current token and its position."""
        tok, pos = self.tok, self.pos
        if not tok[:1].isalpha():
            raise ParseError(f"expected {what}", pos)
        self.advance()
        return tok, pos

    def reach(self, level: int) -> None:
        """Record that the parse has reached nesting level `level`."""
        if level > self.peak:
            if level > MAX_DEPTH:
                raise ParseError(f"input nested deeper than {MAX_DEPTH} levels", self.pos)
            self.peak = level

    def enter(self) -> None:
        """Open one more level; the caller closes it with ``depth -= 1``."""
        self.depth += 1
        self.reach(self.depth)

    def formula(self, scope: frozenset[str], floor: int = 1) -> Formula:
        """Chains of the connectives of level `floor` and tighter, by
        precedence climbing: each chain is collected as one list of operands
        of the next level, folded as its row of `_BINARY` says, and becomes
        the first operand of a looser chain. A chain's connectives add a
        level each to every operand."""
        outer, self.peak = self.peak, self.depth
        out = self.unary(scope)
        row = _BY_TOKEN.get(self.tok)
        while row is not None and row[0] >= floor:
            level, ctor, right = row
            token, operands = self.tok, [out]
            while self.tok == token:
                self.advance()
                operands.append(self.formula(scope, level + 1))
            self.reach(self.peak + len(operands) - 1)  # the deepest operand, plus the chain's links
            if right:
                out = operands.pop()
                while operands:
                    out = ctor(operands.pop(), out)
            else:
                out = functools.reduce(ctor, operands)
            row = _BY_TOKEN.get(self.tok)
        if self.peak < outer:
            self.peak = outer
        return out

    def unary(self, scope: frozenset[str]) -> Formula:
        tok = self.tok
        if tok == "~" or tok == "o":
            self.advance()
            self.enter()
            body = self.unary(scope)
            self.depth -= 1
            return Neg(body) if tok == "~" else Circ(body)
        if tok == "forall" or tok == "exists":
            return self.quantifier(scope)
        return self.primary(scope)

    def quantifier(self, scope: frozenset[str]) -> Formula:
        ctor = Forall if self.advance() == "forall" else Exists
        name, pos = self.name("a bound variable name")
        if name in _RESERVED:
            raise ParseError(f"{name!r} is reserved", pos)
        if is_free_var_name(name):
            raise ParseError("quantified variables must not use the free-variable namespace a1, a2, ...", pos)
        if name in scope:
            raise ParseError(f"nested quantifier rebinds {name!r}", pos)
        self.expect(".", "'.' after the quantified variable")
        self.enter()
        body = self.formula(scope | {name})  # scope runs to the enclosing ')'
        self.depth -= 1
        return ctor(name, body)

    def primary(self, scope: frozenset[str]) -> Formula:
        name, pos = self.tok, self.pos
        if name == "(":
            self.advance()
            self.enter()
            out = self.formula(scope)
            self.depth -= 1
            self.expect(")", "')'")
            return out
        if not name[:1].isalpha():
            raise ParseError("expected a formula", pos)
        if name in _RESERVED:
            raise ParseError(f"{name!r} is reserved", pos)
        self.advance()
        if name[0].isupper():
            self.expect("(", f"'(' after predicate {name!r}")
            return PredAtom(name, self.arguments(scope))
        if name in scope:
            raise ParseError(f"bound variable {name!r} used as a formula", pos)
        if self.tok == "(":
            raise ParseError(f"predicate names are capitalized; {name!r} is not", pos)
        return PropAtom(name)

    def arguments(self, scope: frozenset[str]) -> tuple[Term, ...]:
        """A comma-separated term list and the ')' that closes it."""
        args = [self.term(scope)]
        while self.tok == ",":
            self.advance()
            args.append(self.term(scope))
        self.expect(")", "')'")
        return tuple(args)

    def term(self, scope: frozenset[str]) -> Term:
        name, pos = self.name("a term")
        if name in _RESERVED or name[0].isupper():
            raise ParseError(f"invalid term {name!r}", pos)
        if self.tok == "(":
            self.advance()
            self.enter()
            args = self.arguments(scope)
            self.depth -= 1
            return FunApp(name, args)
        if name in scope:
            return BoundVar(name)
        if is_free_var_name(name):
            return FreeVar(name)
        return Const(name)

    def formula_list(self, stop: str) -> list[Formula]:
        if self.tok == stop:
            return []
        out = [self.formula(frozenset())]
        while self.tok == ",":
            self.advance()
            out.append(self.formula(frozenset()))
        return out


def _wrap(fn, text: str):
    parser = _Parser(text)
    try:
        result = fn(parser)
    except LogicError as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(str(exc)) from exc
    if parser.tok:
        raise ParseError("trailing input", parser.pos)
    return result


def parse_formula(text: str) -> Formula:
    return _wrap(lambda p: p.formula(frozenset()), text)


def parse_sequent(text: str) -> Sequent:
    def go(p: _Parser) -> Sequent:
        ante = p.formula_list("|-")
        p.expect("|-", "'|-'")
        succ = p.formula_list("")
        return Sequent.make(ante, succ)

    return _wrap(go, text)


# ---------------------------------------------------------------------------
# Printing. A subformula is parenthesized whenever its level is below the
# one its position asks for, which keeps parse(format(phi)) == phi.

_LEVEL = {Forall: 0, Exists: 0} | {ctor: level for ctor, (_, level, _) in _BY_CTOR.items()}


def format_term(t: Term) -> str:
    if isinstance(t, FunApp):
        return f"{t.name}({', '.join(format_term(a) for a in t.args)})"
    return t.name


def _fmt(phi: Formula, min_level: int) -> str:
    text = phi._text
    if _LEVEL.get(type(phi), _PREFIX_LEVEL) < min_level:
        return f"({text})"
    return text


def _format(phi: Formula) -> str:
    """The text of phi from its children's stored text. An operand on the
    side a chain folds to may be of the same level; the other one must bind
    tighter."""
    kind = type(phi)
    if kind is PropAtom:
        return phi.name
    if kind is PredAtom:
        return f"{phi.name}({', '.join(format_term(a) for a in phi.args)})"
    if kind is Neg:
        return f"~{_fmt(phi.body, _PREFIX_LEVEL)}"
    if kind is Circ:
        return f"o {_fmt(phi.body, _PREFIX_LEVEL)}"
    if kind in _BY_CTOR:
        token, level, right = _BY_CTOR[kind]
        return f"{_fmt(phi.left, level + right)} {token} {_fmt(phi.right, level + (not right))}"
    word = "forall" if kind is Forall else "exists"
    return f"{word} {phi.var}. {phi.body._text}"


def format_formula(phi: Formula) -> str:
    """The text of phi, formatted once per node and stored on it. A node's
    text does not depend on where it occurs (its parent adds any
    parentheses), so the nodes without text are formatted children first,
    each from its children's text, with no recursion."""
    try:
        return phi._text
    except AttributeError:
        return store_bottom_up(phi, "_text", _format)


def format_sequent(s: Sequent) -> str:
    left = ", ".join(format_formula(f) for f in s.sorted_ante())
    right = ", ".join(format_formula(f) for f in s.sorted_succ())
    return f"{left} |- {right}".strip()
