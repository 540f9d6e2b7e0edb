"""Abstract syntax for the propositional and first-order languages.

Terms and formulas are immutable; free and bound variables live in disjoint
namespaces (free variables are ``a1, a2, ...``, bound variables are anything
else, conventionally ``x, y, x1, ...``), so substitution never needs capture
avoidance beyond the preconditions enforced here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Union

from .errors import LogicError

_FREE_VAR_RE = re.compile(r"a[0-9]+\Z")


def is_free_var_name(name: str) -> bool:
    return _FREE_VAR_RE.match(name) is not None


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True, slots=True)
class FreeVar:
    name: str

    def __post_init__(self):
        if not is_free_var_name(self.name):
            raise LogicError(f"free variable names look like a1, a2, ...: {self.name!r}")


@dataclass(frozen=True, slots=True)
class BoundVar:
    name: str

    def __post_init__(self):
        if is_free_var_name(self.name):
            raise LogicError(f"bound variable name {self.name!r} clashes with the free-variable namespace")


@dataclass(frozen=True, slots=True)
class Const:
    name: str


@dataclass(frozen=True, slots=True)
class FunApp:
    name: str
    args: tuple[Term, ...]

    def __post_init__(self):
        if not self.args:
            raise LogicError(f"function {self.name!r} applied to no arguments; use a constant")


Term = Union[FreeVar, BoundVar, Const, FunApp]


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True, slots=True)
class PropAtom:
    name: str


@dataclass(frozen=True, slots=True)
class PredAtom:
    name: str
    args: tuple[Term, ...]

    def __post_init__(self):
        if not self.args:
            raise LogicError(f"predicate {self.name!r} needs at least one argument")


@dataclass(frozen=True, slots=True)
class Neg:
    body: Formula


@dataclass(frozen=True, slots=True)
class Circ:
    """Consistency connective: marks a formula as behaving classically."""

    body: Formula


@dataclass(frozen=True, slots=True)
class And:
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or:
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Imp:
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Forall:
    var: str
    body: Formula

    def __post_init__(self):
        if is_free_var_name(self.var):
            raise LogicError(f"quantified variable {self.var!r} must not use the free-variable namespace")


@dataclass(frozen=True, slots=True)
class Exists:
    var: str
    body: Formula

    def __post_init__(self):
        if is_free_var_name(self.var):
            raise LogicError(f"quantified variable {self.var!r} must not use the free-variable namespace")


Formula = Union[PropAtom, PredAtom, Neg, Circ, And, Or, Imp, Forall, Exists]

BINARY_TYPES = (And, Or, Imp)
QUANTIFIER_TYPES = (Forall, Exists)


def iff(a: Formula, b: Formula) -> Formula:
    """a <-> b, spelled out as (a -> b) & (b -> a)."""
    return And(Imp(a, b), Imp(b, a))


# ---------------------------------------------------------------------------
# Traversals: one preorder walk over formulas and one over terms, which every
# structural query below reads. The formula classes have no subclasses.


def subformulas(phi: Formula) -> Iterator[Formula]:
    """Yield phi and every subformula occurrence, preorder."""
    stack = [phi]
    while stack:
        f = stack.pop()
        yield f
        kind = type(f)
        if kind is And or kind is Or or kind is Imp:
            stack += (f.right, f.left)
        elif kind is Neg or kind is Circ or kind is Forall or kind is Exists:
            stack.append(f.body)


def subterms(t: Term) -> Iterator[Term]:
    """Yield t and every term occurrence inside it, preorder."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        if type(t) is FunApp:
            stack += reversed(t.args)


def terms(phi: Formula) -> Iterator[Term]:
    """Yield every term occurrence in phi's atoms, preorder."""
    for f in subformulas(phi):
        if type(f) is PredAtom:
            for t in f.args:
                if type(t) is FunApp:
                    yield from subterms(t)
                else:
                    yield t


def is_propositional(phi: Formula) -> bool:
    return all(isinstance(f, (PropAtom, Neg, Circ, And, Or, Imp)) for f in subformulas(phi))


def is_literal(phi: Formula) -> bool:
    """Atom or negated atom."""
    if isinstance(phi, (PropAtom, PredAtom)):
        return True
    return isinstance(phi, Neg) and isinstance(phi.body, (PropAtom, PredAtom))


def atoms(phi: Formula) -> frozenset[str]:
    """Names of the propositional atoms occurring in phi."""
    return frozenset(f.name for f in subformulas(phi) if isinstance(f, PropAtom))


def free_variables(phi: Formula) -> frozenset[str]:
    return frozenset(t.name for t in terms(phi) if type(t) is FreeVar)


def predicate_arities(formulas: Iterable[Formula]) -> dict[str, int]:
    """Arity of each predicate occurring in the formulas."""
    arities: dict[str, int] = {}
    for phi in formulas:
        for f in subformulas(phi):
            if type(f) is PredAtom and arities.setdefault(f.name, len(f.args)) != len(f.args):
                raise LogicError(f"predicate {f.name!r} used with two arities")
    return arities


def var_index(name: str) -> int:
    """Index i of the free variable a_i; sort key of variable lists."""
    return int(name[1:])


def fresh_free_variable(avoid: frozenset[str] | set[str]) -> str:
    """Least-indexed a_i not in avoid; deterministic."""
    i = 1
    while f"a{i}" in avoid:
        i += 1
    return f"a{i}"


def bound_names(phi: Formula) -> frozenset[str]:
    """All bound-variable names occurring in phi, binders included."""
    out: set[str] = set()
    for f in subformulas(phi):
        kind = type(f)
        if kind is Forall or kind is Exists:
            out.add(f.var)
        elif kind is PredAtom:
            out.update(t.name for t in terms(f) if type(t) is BoundVar)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Substitution


def _contains_bound(t: Term) -> bool:
    return any(type(s) is BoundVar for s in subterms(t))


def _replace_in_term(t: Term, old: FreeVar | BoundVar, new: Term) -> Term:
    if type(t) is type(old) and t.name == old.name:
        return new
    if isinstance(t, FunApp):
        return FunApp(t.name, tuple(_replace_in_term(a, old, new) for a in t.args))
    return t


def _replace_var(phi: Formula, old: FreeVar | BoundVar, new: Term) -> Formula:
    """phi with every occurrence of the variable ``old`` replaced by ``new``;
    the one term-mapping walk behind substitution, binding and instantiation."""
    if isinstance(phi, PredAtom):
        return PredAtom(phi.name, tuple(_replace_in_term(a, old, new) for a in phi.args))
    if isinstance(phi, (Neg, Circ)):
        return type(phi)(_replace_var(phi.body, old, new))
    if isinstance(phi, BINARY_TYPES):
        return type(phi)(_replace_var(phi.left, old, new), _replace_var(phi.right, old, new))
    if isinstance(phi, QUANTIFIER_TYPES):
        return type(phi)(phi.var, _replace_var(phi.body, old, new))
    return phi


def substitute(phi: Formula, name: str, t: Term) -> Formula:
    """Replace every occurrence of the free variable ``name`` by the term t.

    All occurrences are replaced simultaneously; t must not contain bound
    variables, so no capture is possible.
    """
    if _contains_bound(t):
        raise LogicError("cannot substitute a term containing bound variables")
    return _replace_var(phi, FreeVar(name), t)


def bind(phi: Formula, name: str, x: str, quantifier: type) -> Formula:
    """Quantify phi over the free variable ``name`` using bound name x.

    Inverse of instantiation. x must not already occur in phi.
    """
    if quantifier not in QUANTIFIER_TYPES:
        raise LogicError("quantifier must be Forall or Exists")
    if x in bound_names(phi):
        raise LogicError(f"bound variable {x!r} already occurs in the formula")
    return quantifier(x, _replace_var(phi, FreeVar(name), BoundVar(x)))


def instantiate(phi: Formula, t: Term) -> Formula:
    """Strip the outermost quantifier of phi, plugging t in for its variable."""
    if not isinstance(phi, QUANTIFIER_TYPES):
        raise LogicError("instantiate expects a quantified formula")
    if _contains_bound(t):
        raise LogicError("instantiating term must not contain bound variables")
    return _replace_var(phi.body, BoundVar(phi.var), t)


# ---------------------------------------------------------------------------
# Canonical ordering (structural: constructor tag, then the parts in
# preorder), used for every deterministic enumeration in the package.

_TERM_TAGS = {FreeVar: 0, BoundVar: 1, Const: 2, FunApp: 3}
_FORMULA_TAGS = {PropAtom: 0, PredAtom: 1, Neg: 2, Circ: 3, And: 4, Or: 5, Imp: 6, Forall: 7, Exists: 8}


@lru_cache(maxsize=None)
def formula_key(phi: Formula) -> tuple:
    """Total order key on formulas; preorder flattening of the syntax tree."""
    out: list = []
    for f in subformulas(phi):
        kind = type(f)
        tag = _FORMULA_TAGS[kind]
        if kind is PredAtom:
            out.append((tag, f.name))
            out += [(_TERM_TAGS[type(t)], t.name) for t in terms(f)]
        elif kind is PropAtom:
            out.append((tag, f.name))
        elif kind is Forall or kind is Exists:
            out.append((tag, f.var))
        else:
            out.append((tag, ""))
    return tuple(out)
