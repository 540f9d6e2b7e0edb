"""Seeded random generation of formulas and sequents.

Shared by the benchmark and the test suite; everything is driven by
an explicit random.Random so runs are reproducible.
"""

from __future__ import annotations

import random
from typing import Callable, Mapping, Sequence

from .sequents import Sequent
from .syntax import (
    BINARY_TYPES,
    Circ,
    Exists,
    Forall,
    Formula,
    FreeVar,
    Neg,
    PredAtom,
    PropAtom,
    bind,
    bound_names,
    free_variables,
)


_CONNECTIVES = (Neg, Circ, *BINARY_TYPES)


def _random_tree(rng: random.Random, depth: int, leaf_chance: float, leaf: Callable[[], Formula]) -> Formula:
    """Connective tree of nesting depth at most `depth`: a leaf from `leaf`
    at depth 0 and with chance `leaf_chance` above it, else one of the five
    connectives, equally likely, over subtrees built left to right."""
    if depth == 0 or rng.random() < leaf_chance:
        return leaf()
    ctor = _CONNECTIVES[rng.randrange(len(_CONNECTIVES))]
    arity = 2 if ctor in BINARY_TYPES else 1
    return ctor(*[_random_tree(rng, depth - 1, leaf_chance, leaf) for _ in range(arity)])


def random_formula(rng: random.Random, atom_names: Sequence[str], max_depth: int) -> Formula:
    """Quantifier-free formula of nesting depth at most max_depth."""
    return _random_tree(rng, max_depth, 0.25, lambda: PropAtom(rng.choice(list(atom_names))))


def random_sequent(
    rng: random.Random,
    atom_names: Sequence[str],
    max_depth: int,
    max_side: int = 2,
) -> Sequent:
    ante = [random_formula(rng, atom_names, max_depth) for _ in range(rng.randint(0, max_side))]
    succ = [random_formula(rng, atom_names, max_depth) for _ in range(rng.randint(0, max_side))]
    return Sequent.make(ante, succ)


def random_fo_formula(
    rng: random.Random,
    predicates: Mapping[str, int],
    variables: Sequence[str],
    max_depth: int,
    quantifier_chance: float = 0.3,
) -> Formula:
    """Formula over predicate atoms with free variables drawn from the given
    pool; some free variables end up quantified away."""

    def atom() -> Formula:
        name = rng.choice(sorted(predicates))
        args = tuple(FreeVar(rng.choice(list(variables))) for _ in range(predicates[name]))
        return PredAtom(name, args)

    phi = _random_tree(rng, max_depth, 0.3, atom)
    while rng.random() < quantifier_chance:
        free = sorted(free_variables(phi))
        if not free:
            break
        name = rng.choice(free)
        taken = bound_names(phi)
        i = 1
        while f"x{i}" in taken:
            i += 1
        quant = Forall if rng.random() < 0.5 else Exists
        phi = bind(phi, name, f"x{i}", quant)
    return phi
