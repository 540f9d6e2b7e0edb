"""Abstract syntax for the propositional and first-order languages.

Terms and formulas are immutable and interned (one node per distinct
term or formula, see `_Interned`); free and bound variables live in disjoint
namespaces (free variables are ``a1, a2, ...``, bound variables are anything
else, conventionally ``x, y, x1, ...``), so substitution never needs capture
avoidance beyond the preconditions enforced here.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Callable, Collection, Iterable, Iterator
from typing import NamedTuple, Union

from .errors import LogicError

_FREE_VAR_RE = re.compile(r"a[0-9]+\Z")


def is_free_var_name(name: str) -> bool:
    return _FREE_VAR_RE.match(name) is not None


# ---------------------------------------------------------------------------
# Hash-consing (Filliâtre & Conchon, "Type-safe modular hash-consing", 2006):
# the metaclass `_Interned` gives each node class one table, so equal
# constructions return one node, lookups on formulas resolve by identity, and
# no hash, key, text or signature walks a subtree twice. The tables hold
# every node and the attributes it caches for the life of the process.
# Cached values are shared where they repeat: one copy of each free-variable
# set (`_FREE_SETS`), of each signature (`_SIGNATURES`) and of each (tag,
# name) pair of a key (`_PAIRS`).


class _Interned(type):
    """Metaclass of the term and formula nodes. It makes each class an
    immutable slotted class, its fields named by its annotations, whose
    constructor returns the one node with the given fields. A new node is
    validated (``__post_init__``) before it enters the table, so an invalid
    construction leaves no entry. The stored hash is the hash of the field
    tuple, so frozenset order is that of uninterned nodes. Equality is
    identity, which interning makes structural."""

    def __new__(meta, class_name, bases, namespace):
        names, nodes = tuple(namespace.get("__annotations__", ())), {}
        post_init = namespace.get("__post_init__")

        def __new__(kind, *fields, **named):
            if named:
                fields += tuple(named.pop(name) for name in names[len(fields) :] if name in named)
                if named:
                    raise TypeError(f"{kind.__name__}() got unexpected keyword arguments {sorted(named)}")
            node = nodes.get(fields)
            if node is None:
                if len(fields) != len(names):
                    raise TypeError(f"{kind.__name__}() takes the fields {', '.join(names)}")
                node = object.__new__(kind)
                for name, value in zip(names, fields):
                    object.__setattr__(node, name, value)
                if post_init is not None:
                    post_init(node)
                object.__setattr__(node, "_hash", hash(fields))
                node = nodes.setdefault(fields, node)  # a node another thread built first wins
            return node

        # __new__ sets the fields, and object.__init__ ignores the arguments.
        namespace.setdefault("__slots__", names)
        namespace.update(__match_args__=names, __new__=__new__)
        return super().__new__(meta, class_name, bases, namespace)


class _Node(metaclass=_Interned):
    """What every term and formula node holds besides its fields: its hash,
    set at construction, and its formula_key, free variables, signature
    and text (`parsing.format_formula`), each set on first request. Nodes
    are immutable: the package writes the cached attributes with
    ``object.__setattr__``."""

    __slots__ = ("_hash", "_key", "_free", "_sig", "_text")

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor, so they
        # return the interned node and never overwrite it
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


# ---------------------------------------------------------------------------
# Terms


class FreeVar(_Node):
    name: str

    def __post_init__(self):
        if not is_free_var_name(self.name):
            raise LogicError(f"free variable names look like a1, a2, ...: {self.name!r}")


class BoundVar(_Node):
    name: str

    def __post_init__(self):
        if is_free_var_name(self.name):
            raise LogicError(f"bound variable name {self.name!r} clashes with the free-variable namespace")


class Const(_Node):
    name: str


class FunApp(_Node):
    name: str
    args: tuple[Term, ...]

    def __post_init__(self):
        if not self.args:
            raise LogicError(f"function {self.name!r} applied to no arguments; use a constant")


Term = Union[FreeVar, BoundVar, Const, FunApp]


# ---------------------------------------------------------------------------
# Formulas


class PropAtom(_Node):
    name: str


class PredAtom(_Node):
    name: str
    args: tuple[Term, ...]

    def __post_init__(self):
        if not self.args:
            raise LogicError(f"predicate {self.name!r} needs at least one argument")


class Neg(_Node):
    body: Formula


class Circ(_Node):
    """Consistency connective: marks a formula as behaving classically."""

    body: Formula


class And(_Node):
    left: Formula
    right: Formula


class Or(_Node):
    left: Formula
    right: Formula


class Imp(_Node):
    left: Formula
    right: Formula


def _check_bound_name(quantifier) -> None:
    if is_free_var_name(quantifier.var):
        raise LogicError(f"quantified variable {quantifier.var!r} must not use the free-variable namespace")


class Forall(_Node):
    var: str
    body: Formula

    __post_init__ = _check_bound_name


class Exists(_Node):
    var: str
    body: Formula

    __post_init__ = _check_bound_name


Formula = Union[PropAtom, PredAtom, Neg, Circ, And, Or, Imp, Forall, Exists]

BINARY_TYPES = (And, Or, Imp)
QUANTIFIER_TYPES = (Forall, Exists)


def iff(a: Formula, b: Formula) -> Formula:
    """a <-> b, spelled out as (a -> b) & (b -> a)."""
    return And(Imp(a, b), Imp(b, a))


# ---------------------------------------------------------------------------
# Traversals: `parts` is the one list of a formula's immediate subformulas.
# Every walk over formulas reads it: the preorder walk below, which the
# structural queries read, the children-first walk that stores the signature
# and the printed text, and substitution. One more preorder walk covers
# terms. The formula classes have no subclasses.


def parts(phi: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas of phi, left to right."""
    kind = type(phi)
    if kind is And or kind is Or or kind is Imp:
        return phi.left, phi.right
    if kind is PropAtom or kind is PredAtom:
        return ()
    return (phi.body,)


def subformulas(phi: Formula) -> Iterator[Formula]:
    """Yield phi and every subformula occurrence, preorder."""
    stack = [phi]
    while stack:
        f = stack.pop()
        yield f
        stack += parts(f)[::-1]


def store_bottom_up(phi: Formula, attr: str, compute: Callable[[Formula], object]):
    """Store attr on phi and on every node under it that lacks it, children
    first, each value computed from the node by compute, which reads its
    parts' stored values; returns phi's. No node is computed twice, and
    nothing recurses."""
    stack = [phi]
    while stack:
        f = stack[-1]
        missing = [c for c in parts(f) if not hasattr(c, attr)]
        if missing:
            stack += missing
            continue
        stack.pop()
        if not hasattr(f, attr):  # a node listed twice is computed once
            object.__setattr__(f, attr, compute(f))
    return getattr(phi, attr)


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


def is_literal(phi: Formula) -> bool:
    """Atom or negated atom."""
    if isinstance(phi, (PropAtom, PredAtom)):
        return True
    return isinstance(phi, Neg) and isinstance(phi.body, (PropAtom, PredAtom))


#: One copy of each distinct free-variable set that nodes store; a few sets
#: cover most nodes.
_FREE_SETS: dict[frozenset[str], frozenset[str]] = {}


def free_variables(phi: Formula) -> frozenset[str]:
    """Names of the free variables occurring in phi, computed once per node."""
    try:
        return phi._free
    except AttributeError:
        pass
    free = frozenset(t.name for t in terms(phi) if type(t) is FreeVar)
    free = _FREE_SETS.setdefault(free, free)
    object.__setattr__(phi, "_free", free)
    return free


class Signature(NamedTuple):
    """The symbols a formula uses, each as a (name, arity) pair listed at
    its first occurrence in preorder: ``formulas`` holds the propositional
    atoms (arity 0) and predicates, ``terms`` the constants (arity 0) and
    functions, in the order of `syntax.terms`. First occurrences compose,
    so the first symbol of a list that meets a condition is the first
    occurrence that meets it."""

    formulas: tuple[tuple[str, int], ...]
    terms: tuple[tuple[str, int], ...]
    quantified: bool


#: One copy of each distinct signature that nodes store.
_SIGNATURES: dict[Signature, Signature] = {}


def _union(first: tuple, second: tuple) -> tuple:
    """The symbols of first, then those of second that first lacks."""
    return tuple(dict.fromkeys(first + second)) if first and second else first or second


def _signature(f: Formula) -> Signature:
    """The shared signature of f from its parts' stored signatures."""
    kind = type(f)
    if kind is Neg or kind is Circ:
        return f.body._sig
    if kind is Forall or kind is Exists:
        body = f.body._sig
        if body.quantified:
            return body
        sig = Signature(body.formulas, body.terms, True)
    elif kind is PropAtom:
        sig = Signature(((f.name, 0),), (), False)
    elif kind is PredAtom:
        used = (t for arg in f.args for t in subterms(arg) if type(t) is FunApp or type(t) is Const)
        symbols = dict.fromkeys((t.name, len(t.args)) if type(t) is FunApp else (t.name, 0) for t in used)
        sig = Signature(((f.name, len(f.args)),), tuple(symbols), False)
    else:
        left, right = f.left._sig, f.right._sig
        if left is right:
            return left
        sig = Signature(
            _union(left.formulas, right.formulas), _union(left.terms, right.terms), left.quantified or right.quantified
        )
    return _SIGNATURES.setdefault(sig, sig)


def signature(phi: Formula) -> Signature:
    """The symbols phi uses and whether it has a quantifier, computed once
    per node."""
    try:
        return phi._sig
    except AttributeError:
        return store_bottom_up(phi, "_sig", _signature)


def is_propositional(phi: Formula) -> bool:
    """True unless phi has a quantifier or a predicate."""
    symbols, _, quantified = signature(phi)
    return not quantified and not any(arity for _, arity in symbols)


def atoms(phi: Formula) -> frozenset[str]:
    """Names of the propositional atoms occurring in phi."""
    return frozenset(name for name, arity in signature(phi).formulas if not arity)


def predicate_arities(formulas: Iterable[Formula]) -> dict[str, int]:
    """Arity of each predicate occurring in the formulas; raises on the
    first predicate occurrence, in the order given, at a second arity."""
    arities: dict[str, int] = {}
    for phi in formulas:
        for name, arity in signature(phi).formulas:
            if arity and arities.setdefault(name, arity) != arity:
                raise LogicError(f"predicate {name!r} used with two arities")
    return arities


def quantifier_depth(phi: Formula) -> int:
    """The most quantifiers on one path from phi's root to a leaf."""
    deepest, stack = 0, [(phi, 0)]
    while stack:
        f, depth = stack.pop()
        if type(f) is Forall or type(f) is Exists:
            depth += 1
            deepest = max(deepest, depth)
        for g in parts(f):
            stack.append((g, depth))
    return deepest


def var_index(name: str) -> tuple[int, str]:
    """Sort key of variable lists: the index i of a_i, then the name (a01 before a1)."""
    return int(name[1:]), name


def fresh_free_variables(taken: Collection[str]) -> Iterator[str]:
    """a1, a2, ... without the names in taken, in index order."""
    return (name for name in map("a{}".format, itertools.count(1)) if name not in taken)


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
    kind = type(phi)
    if kind is PredAtom:
        return PredAtom(phi.name, tuple(_replace_in_term(a, old, new) for a in phi.args))
    if kind is PropAtom:
        return phi
    replaced = [_replace_var(f, old, new) for f in parts(phi)]
    return kind(phi.var, *replaced) if kind is Forall or kind is Exists else kind(*replaced)


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

#: One copy of each distinct (tag, name) pair that keys hold, so a key costs
#: one pointer per element; a few dozen pairs cover most runs.
_PAIRS: dict[tuple[int, str], tuple[int, str]] = {}


def formula_key(phi: Formula) -> tuple:
    """Total order key on formulas; preorder flattening of the syntax tree,
    computed once per node."""
    try:
        return phi._key
    except AttributeError:
        pass
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
    pair = _PAIRS.setdefault
    key = tuple([pair(p, p) for p in out])
    object.__setattr__(phi, "_key", key)
    return key
