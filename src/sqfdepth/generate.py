"""Seeded random instance generation for fuzzing and scans.

J is always assembled from proper multiples of I's generators, so every
generated pair validates, keeps d equal to the minimal generator degree of
I, and satisfies the standing degree hypothesis on J by construction.
"""

from __future__ import annotations

import random

from .errors import InputError
from .monomials import QuotientInstance, check_variable_count, minimalize, validate_pair


def default_params(n: int) -> int:
    """The generator's ambient variable count n, checked by the ``monomials`` rule."""
    check_variable_count(n)
    return n


def random_instance(n: int, rng: random.Random) -> QuotientInstance:
    """Draw one validated instance in n variables; deterministic given the rng state.

    I has 1..min(4, n) generators, each of degree 1..max(1, n-1).  J has
    0..4 draws, each a multiple of a random minimal generator g of I of
    degree deg g + 1..n; a draw on a g of degree n is skipped.  An n outside
    the ``monomials`` rule, or an rng that is not a :class:`random.Random`,
    raises :class:`InputError` before the first draw.
    """
    check_variable_count(n)
    if not isinstance(rng, random.Random):
        raise InputError(f"rng must be a random.Random, got {rng!r}")
    variables = range(1, n + 1)
    gens_i = []
    for _ in range(rng.randint(1, min(4, n))):
        deg = rng.randint(1, max(1, n - 1))
        gens_i.append(sum(1 << (j - 1) for j in rng.sample(variables, deg)))
    gens_i = minimalize(gens_i)

    gens_j = []
    for _ in range(rng.randint(0, 4)):
        g = gens_i[rng.randrange(len(gens_i))]
        lo = g.bit_count() + 1
        if lo > n:
            continue
        deg = rng.randint(lo, n)
        outside = [j for j in variables if not g >> (j - 1) & 1]
        gens_j.append(g | sum(1 << (j - 1) for j in rng.sample(outside, deg - g.bit_count())))

    return validate_pair(n, gens_i, gens_j)
