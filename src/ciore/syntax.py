"""Abstract syntax for the propositional and first-order languages.

Terms and formulas are immutable; free and bound variables live in disjoint
namespaces (free variables are ``a1, a2, ...``, bound variables are anything
else, conventionally ``x, y, x1, ...``), so substitution never needs capture
avoidance beyond the preconditions enforced here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Union

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


@dataclass(frozen=True, slots=True)
class Signature:
    """Predicate/function/constant symbols with their arities.

    Names must be unique across the three kinds, arities positive.
    """

    predicates: dict[str, int] = field(default_factory=dict)
    functions: dict[str, int] = field(default_factory=dict)
    constants: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        names = list(self.predicates) + list(self.functions) + list(self.constants)
        if len(names) != len(set(names)):
            raise LogicError("signature names must be unique across predicates, functions and constants")
        for name, arity in list(self.predicates.items()) + list(self.functions.items()):
            if arity < 1:
                raise LogicError(f"arity of {name!r} must be positive, got {arity}")


def iff(a: Formula, b: Formula) -> Formula:
    """a <-> b, spelled out as (a -> b) & (b -> a)."""
    return And(Imp(a, b), Imp(b, a))


# ---------------------------------------------------------------------------
# Traversals


def subformulas(phi: Formula) -> Iterator[Formula]:
    """Yield phi and every subformula occurrence, preorder."""
    yield phi
    if isinstance(phi, (Neg, Circ)):
        yield from subformulas(phi.body)
    elif isinstance(phi, BINARY_TYPES):
        yield from subformulas(phi.left)
        yield from subformulas(phi.right)
    elif isinstance(phi, QUANTIFIER_TYPES):
        yield from subformulas(phi.body)


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


def term_free_variables(t: Term) -> frozenset[str]:
    if isinstance(t, FreeVar):
        return frozenset((t.name,))
    if isinstance(t, FunApp):
        out: frozenset[str] = frozenset()
        for arg in t.args:
            out |= term_free_variables(arg)
        return out
    return frozenset()


def free_variables(phi: Formula) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for f in subformulas(phi):
        if isinstance(f, PredAtom):
            for t in f.args:
                out |= term_free_variables(t)
    return out


def predicate_symbols(phi: Formula) -> dict[str, int]:
    return {f.name: len(f.args) for f in subformulas(phi) if isinstance(f, PredAtom)}


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
        if isinstance(f, QUANTIFIER_TYPES):
            out.add(f.var)
        elif isinstance(f, PredAtom):
            stack = list(f.args)
            while stack:
                t = stack.pop()
                if isinstance(t, BoundVar):
                    out.add(t.name)
                elif isinstance(t, FunApp):
                    stack.extend(t.args)
    return frozenset(out)


def validate(phi: Formula, sig: Signature | None = None) -> None:
    """Check bound-variable discipline and, given a signature, arities.

    Every BoundVar must sit under a binder of the same name and the same
    name must not be rebound by a nested quantifier.
    """

    def term_ok(t: Term, scope: frozenset[str]) -> None:
        if isinstance(t, BoundVar) and t.name not in scope:
            raise LogicError(f"bound variable {t.name!r} occurs outside any {t.name}-binder")
        if isinstance(t, FunApp):
            if sig is not None:
                if t.name not in sig.functions:
                    raise LogicError(f"unknown function symbol {t.name!r}")
                if sig.functions[t.name] != len(t.args):
                    raise LogicError(f"function {t.name!r} expects {sig.functions[t.name]} arguments")
            for arg in t.args:
                term_ok(arg, scope)
        if isinstance(t, Const) and sig is not None and t.name not in sig.constants:
            raise LogicError(f"unknown constant {t.name!r}")

    def walk(f: Formula, scope: frozenset[str]) -> None:
        if isinstance(f, PredAtom):
            if sig is not None:
                if f.name not in sig.predicates:
                    raise LogicError(f"unknown predicate symbol {f.name!r}")
                if sig.predicates[f.name] != len(f.args):
                    raise LogicError(f"predicate {f.name!r} expects {sig.predicates[f.name]} arguments")
            for t in f.args:
                term_ok(t, scope)
        elif isinstance(f, (Neg, Circ)):
            walk(f.body, scope)
        elif isinstance(f, BINARY_TYPES):
            walk(f.left, scope)
            walk(f.right, scope)
        elif isinstance(f, QUANTIFIER_TYPES):
            if f.var in scope:
                raise LogicError(f"nested quantifiers rebind {f.var!r}")
            walk(f.body, scope | {f.var})

    walk(phi, frozenset())


# ---------------------------------------------------------------------------
# Substitution


def _contains_bound(t: Term) -> bool:
    if isinstance(t, BoundVar):
        return True
    if isinstance(t, FunApp):
        return any(_contains_bound(a) for a in t.args)
    return False


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
# Measures


@lru_cache(maxsize=None)
def weight(phi: Formula) -> int:
    """Termination measure driving the propositional decision procedure.

    Literals weigh 0; a binary compound weighs one more than its parts; the
    consistency and negation cases charge for the negated copies they will
    spawn when decomposed:

      w(b # c)    = w(b) + w(c) + 1
      w(o b)      = w(b) + w(~b) + 1
      w(~~b)      = w(~b) + 1
      w(~o b)     = w(o b) + 1
      w(~(b # c)) = w(b) + w(~b) + w(c) + w(~c) + 2
    """
    if not is_propositional(phi):
        raise LogicError("weight is defined for propositional formulas only")
    if is_literal(phi):
        return 0
    if isinstance(phi, BINARY_TYPES):
        return weight(phi.left) + weight(phi.right) + 1
    if isinstance(phi, Circ):
        return weight(phi.body) + weight(Neg(phi.body)) + 1
    # phi is a negation of a non-atom
    inner = phi.body
    if isinstance(inner, Neg):
        return weight(inner) + 1
    if isinstance(inner, Circ):
        return weight(inner) + 1
    return weight(inner.left) + weight(Neg(inner.left)) + weight(inner.right) + weight(Neg(inner.right)) + 2


@lru_cache(maxsize=None)
def gsub(phi: Formula) -> frozenset[Formula]:
    """Generalized subformulas: the closure that bounds cut-free proofs.

    Least set with: phi in gsub(phi); gsub(b) within gsub(~b); subformulas of
    a binary compound; negations of the parts under a negated binary
    compound; gsub(~b) within gsub(o b).
    """
    if isinstance(phi, (PropAtom, PredAtom)):
        return frozenset((phi,))
    if isinstance(phi, BINARY_TYPES):
        return frozenset((phi,)) | gsub(phi.left) | gsub(phi.right)
    if isinstance(phi, Circ):
        return frozenset((phi,)) | gsub(Neg(phi.body))
    if isinstance(phi, Neg):
        inner = phi.body
        out = frozenset((phi,)) | gsub(inner)
        if isinstance(inner, BINARY_TYPES):
            out |= gsub(Neg(inner.left)) | gsub(Neg(inner.right))
        return out
    raise LogicError("gsub is defined for propositional formulas only")


# ---------------------------------------------------------------------------
# Canonical ordering (structural: constructor tag, then recursive), used for
# every deterministic enumeration in the package.

_TERM_TAGS = {FreeVar: 0, BoundVar: 1, Const: 2, FunApp: 3}
_FORMULA_TAGS = {PropAtom: 0, PredAtom: 1, Neg: 2, Circ: 3, And: 4, Or: 5, Imp: 6, Forall: 7, Exists: 8}


def _key_term(t: Term, out: list) -> None:
    out.append((_TERM_TAGS[type(t)], getattr(t, "name", "")))
    if isinstance(t, FunApp):
        for a in t.args:
            _key_term(a, out)


@lru_cache(maxsize=None)
def formula_key(phi: Formula) -> tuple:
    """Total order key on formulas; preorder flattening of the syntax tree."""
    out: list = []

    def walk(f: Formula) -> None:
        tag = _FORMULA_TAGS[type(f)]
        if isinstance(f, PropAtom):
            out.append((tag, f.name))
        elif isinstance(f, PredAtom):
            out.append((tag, f.name))
            for t in f.args:
                _key_term(t, out)
        elif isinstance(f, (Neg, Circ)):
            out.append((tag, ""))
            walk(f.body)
        elif isinstance(f, BINARY_TYPES):
            out.append((tag, ""))
            walk(f.left)
            walk(f.right)
        else:
            out.append((tag, f.var))
            walk(f.body)

    walk(phi)
    return tuple(out)
