"""Text syntax for formulas, sequents and terms.

Grammar: `~` and `o` are prefix and bind tightest, then `&`, then `|`, then
right-associative `->`; `forall x.` / `exists x.` scope to the end of the
enclosing parenthesis. Propositional atoms are lowercase identifiers,
predicates are capitalized and take a parenthesized term list. Sequents are
written `p, q |- r` with either side possibly empty.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

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
)

_RESERVED = {"o", "forall", "exists"}

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<seq>\|-)
      | (?P<imp>->)
      | (?P<amp>&)
      | (?P<pipe>\|)
      | (?P<neg>~)
      | (?P<lp>\()
      | (?P<rp>\))
      | (?P<dot>\.)
      | (?P<comma>,)
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        assert kind is not None
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


#: The deepest nesting the parser accepts; deeper input is a `ParseError`.
#: Parentheses, `~`, `o`, quantifiers and function applications each add
#: one level to what they enclose, and a chain of n binary connectives adds
#: n levels to each of its operands. The bound keeps the parser and every
#: recursive traversal of a parsed formula well inside Python's default
#: recursion limit.
MAX_DEPTH = 100

# formula := imp ; imp := or ('->' or)*, right-associative ;
# or := and ('|' and)* ; and := unary ('&' unary)*
_CHAINS = (("imp", Imp), ("pipe", Or), ("amp", And))


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # levels open at the current token
        self.peak = 0  # deepest level the current chain's operands have reached

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        if self.cur.kind != kind:
            raise ParseError(f"expected {what}", self.cur.pos)
        return self.advance()

    def reach(self, level: int) -> None:
        """Record that the parse has reached nesting level `level`."""
        if level > self.peak:
            if level > MAX_DEPTH:
                raise ParseError(f"input nested deeper than {MAX_DEPTH} levels", self.cur.pos)
            self.peak = level

    def enter(self) -> None:
        """Open one more level; the caller closes it with ``depth -= 1``."""
        self.depth += 1
        self.reach(self.depth)

    def formula(self, scope: frozenset[str], level: int = 0) -> Formula:
        """A chain of the connective of `level` in `_CHAINS` over operands of
        the next level, folded to the right for `->` and to the left
        otherwise. The chain's connectives add a level each to every operand."""
        kind, ctor = _CHAINS[level]
        outer, self.peak = self.peak, self.depth
        out = self.formula(scope, level + 1) if level < 2 else self.unary(scope)
        if self.cur.kind != kind:  # one operand: nothing to fold or count
            if self.peak < outer:
                self.peak = outer
            return out
        parts = [out]
        while self.cur.kind == kind:
            self.advance()
            parts.append(self.formula(scope, level + 1) if level < 2 else self.unary(scope))
        reached, self.peak = self.peak, outer
        self.reach(reached + len(parts) - 1)
        if ctor is Imp:
            out = parts.pop()
            while parts:
                out = Imp(parts.pop(), out)
            return out
        return functools.reduce(ctor, parts)

    def unary(self, scope: frozenset[str]) -> Formula:
        tok = self.cur
        if tok.kind == "neg" or (tok.kind == "ident" and tok.text == "o"):
            self.advance()
            self.enter()
            body = self.unary(scope)
            self.depth -= 1
            return Neg(body) if tok.kind == "neg" else Circ(body)
        if tok.kind == "ident" and tok.text in ("forall", "exists"):
            return self.quantifier(scope)
        return self.primary(scope)

    def quantifier(self, scope: frozenset[str]) -> Formula:
        tok = self.advance()
        ctor = Forall if tok.text == "forall" else Exists
        name_tok = self.expect("ident", "a bound variable name")
        name = name_tok.text
        if name in _RESERVED:
            raise ParseError(f"{name!r} is reserved", name_tok.pos)
        if is_free_var_name(name):
            raise ParseError("quantified variables must not use the free-variable namespace a1, a2, ...", name_tok.pos)
        if name in scope:
            raise ParseError(f"nested quantifier rebinds {name!r}", name_tok.pos)
        self.expect("dot", "'.' after the quantified variable")
        self.enter()
        body = self.formula(scope | {name})  # scope runs to the enclosing ')'
        self.depth -= 1
        return ctor(name, body)

    def primary(self, scope: frozenset[str]) -> Formula:
        tok = self.cur
        if tok.kind == "lp":
            self.advance()
            self.enter()
            out = self.formula(scope)
            self.depth -= 1
            self.expect("rp", "')'")
            return out
        if tok.kind != "ident":
            raise ParseError("expected a formula", tok.pos)
        name = tok.text
        if name in _RESERVED:
            raise ParseError(f"{name!r} is reserved", tok.pos)
        self.advance()
        if name[0].isupper():
            self.expect("lp", f"'(' after predicate {name!r}")
            args = [self.term(scope)]
            while self.cur.kind == "comma":
                self.advance()
                args.append(self.term(scope))
            self.expect("rp", "')'")
            return PredAtom(name, tuple(args))
        if name in scope:
            raise ParseError(f"bound variable {name!r} used as a formula", tok.pos)
        if self.cur.kind == "lp":
            raise ParseError(f"predicate names are capitalized; {name!r} is not", tok.pos)
        return PropAtom(name)

    def term(self, scope: frozenset[str]) -> Term:
        tok = self.expect("ident", "a term")
        name = tok.text
        if name in _RESERVED or name[0].isupper():
            raise ParseError(f"invalid term {name!r}", tok.pos)
        if self.cur.kind == "lp":
            self.advance()
            self.enter()
            args = [self.term(scope)]
            while self.cur.kind == "comma":
                self.advance()
                args.append(self.term(scope))
            self.depth -= 1
            self.expect("rp", "')'")
            return FunApp(name, tuple(args))
        if name in scope:
            return BoundVar(name)
        if is_free_var_name(name):
            return FreeVar(name)
        return Const(name)

    def formula_list(self, stop_kinds: tuple[str, ...]) -> list[Formula]:
        if self.cur.kind in stop_kinds:
            return []
        out = [self.formula(frozenset())]
        while self.cur.kind == "comma":
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
    if parser.cur.kind != "eof":
        raise ParseError("trailing input", parser.cur.pos)
    return result


def parse_formula(text: str) -> Formula:
    return _wrap(lambda p: p.formula(frozenset()), text)


def parse_sequent(text: str) -> Sequent:
    def go(p: _Parser) -> Sequent:
        ante = p.formula_list(stop_kinds=("seq",))
        p.expect("seq", "'|-'")
        succ = p.formula_list(stop_kinds=("eof",))
        return Sequent.make(ante, succ)

    return _wrap(go, text)


# ---------------------------------------------------------------------------
# Printing. Levels: quantifier < imp < or < and < unary < atom; a subformula
# is parenthesized whenever its level is too low for its position, which
# keeps parse(format(phi)) == phi.

_ATOM, _UNARY, _AND, _OR, _IMP, _QUANT = 5, 4, 3, 2, 1, 0


def _level(phi: Formula) -> int:
    if isinstance(phi, (PropAtom, PredAtom)):
        return _ATOM
    if isinstance(phi, (Neg, Circ)):
        return _UNARY
    if isinstance(phi, And):
        return _AND
    if isinstance(phi, Or):
        return _OR
    if isinstance(phi, Imp):
        return _IMP
    return _QUANT


def format_term(t: Term) -> str:
    if isinstance(t, FunApp):
        return f"{t.name}({', '.join(format_term(a) for a in t.args)})"
    return t.name


def _fmt(phi: Formula, min_level: int) -> str:
    text = phi._text
    if _level(phi) < min_level:
        return f"({text})"
    return text


def _format(phi: Formula) -> str:
    """The text of phi from its children's stored text."""
    if isinstance(phi, PropAtom):
        return phi.name
    if isinstance(phi, PredAtom):
        return f"{phi.name}({', '.join(format_term(a) for a in phi.args)})"
    if isinstance(phi, Neg):
        return f"~{_fmt(phi.body, _UNARY)}"
    if isinstance(phi, Circ):
        return f"o {_fmt(phi.body, _UNARY)}"
    if isinstance(phi, And):
        return f"{_fmt(phi.left, _AND)} & {_fmt(phi.right, _AND + 1)}"
    if isinstance(phi, Or):
        return f"{_fmt(phi.left, _OR)} | {_fmt(phi.right, _OR + 1)}"
    if isinstance(phi, Imp):
        return f"{_fmt(phi.left, _IMP + 1)} -> {_fmt(phi.right, _IMP)}"
    word = "forall" if isinstance(phi, Forall) else "exists"
    return f"{word} {phi.var}. {phi.body._text}"


def _children(phi: Formula) -> tuple[Formula, ...]:
    kind = type(phi)
    if kind is And or kind is Or or kind is Imp:
        return phi.left, phi.right
    if kind is PropAtom or kind is PredAtom:
        return ()
    return (phi.body,)


def format_formula(phi: Formula) -> str:
    """The text of phi, formatted once per node and stored on it. A node's
    text does not depend on where it occurs (its parent adds any
    parentheses), so the nodes without text are formatted children first,
    each from its children's text, with no recursion."""
    try:
        return phi._text
    except AttributeError:
        pass
    stack = [phi]
    while stack:
        f = stack[-1]
        missing = [c for c in _children(f) if not hasattr(c, "_text")]
        if missing:
            stack += missing
            continue
        stack.pop()
        if not hasattr(f, "_text"):  # a node listed twice is formatted once
            object.__setattr__(f, "_text", _format(f))
    return phi._text


def format_sequent(s: Sequent) -> str:
    left = ", ".join(format_formula(f) for f in s.sorted_ante())
    right = ", ".join(format_formula(f) for f in s.sorted_succ())
    return f"{left} |- {right}".strip()
