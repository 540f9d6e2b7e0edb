"""Seeded random generation of formulas and sequents.

Shared by the benchmark and the test suite; everything is driven by
an explicit random.Random so runs are reproducible.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

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


def random_formula(rng: random.Random, atom_names: Sequence[str], max_depth: int) -> Formula:
    """Quantifier-free formula of nesting depth at most max_depth."""
    if max_depth == 0 or rng.random() < 0.25:
        return PropAtom(rng.choice(list(atom_names)))
    shape = rng.randrange(5)
    if shape == 0:
        return Neg(random_formula(rng, atom_names, max_depth - 1))
    if shape == 1:
        return Circ(random_formula(rng, atom_names, max_depth - 1))
    ctor = BINARY_TYPES[shape - 2]
    return ctor(
        random_formula(rng, atom_names, max_depth - 1),
        random_formula(rng, atom_names, max_depth - 1),
    )


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

    def build(depth: int) -> Formula:
        if depth == 0 or rng.random() < 0.3:
            return atom()
        shape = rng.randrange(5)
        if shape == 0:
            return Neg(build(depth - 1))
        if shape == 1:
            return Circ(build(depth - 1))
        ctor = BINARY_TYPES[shape - 2]
        return ctor(build(depth - 1), build(depth - 1))

    phi = build(max_depth)
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
