"""Seeded random instance generation for fuzzing and scans.

J is always assembled from proper multiples of I's generators, so every
generated pair validates, keeps d equal to the minimal generator degree of
I, and satisfies the standing degree hypothesis on J by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InputError
from .monomials import Monomial, QuotientInstance, minimalize, validate_pair


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs for the random instance generator.

    Ranges are inclusive (lo, hi) pairs; degree ranges are clipped to what
    the ambient n allows.  ``degree_j`` bounds the degrees of J's generators,
    which are additionally forced above the degree of the I-generator they
    multiply.
    """

    n: int
    gen_count_i: tuple[int, int] = (1, 4)
    gen_count_j: tuple[int, int] = (0, 4)
    degree_i: tuple[int, int] = (1, 3)
    degree_j: tuple[int, int] = (2, 6)

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"need n >= 1, got {self.n}")
        for lo, hi in (self.gen_count_i, self.gen_count_j, self.degree_i, self.degree_j):
            if lo > hi or lo < 0:
                raise InputError(f"bad range ({lo}, {hi})")
        if self.gen_count_i[0] < 1:
            raise InputError("I needs at least one generator")


def default_params(n: int) -> GeneratorParams:
    return GeneratorParams(
        n=n,
        gen_count_i=(1, min(4, n)),
        gen_count_j=(0, 4),
        degree_i=(1, max(1, n - 1)),
        degree_j=(2, n),
    )


def random_instance(params: GeneratorParams, rng: random.Random) -> QuotientInstance:
    """Draw one validated instance; deterministic given the rng state."""
    n = params.n
    deg_lo = min(params.degree_i[0], n)
    deg_hi = min(params.degree_i[1], n)
    gens_i = []
    for _ in range(rng.randint(*params.gen_count_i)):
        deg = rng.randint(deg_lo, deg_hi)
        gens_i.append(Monomial.from_support(n, rng.sample(range(1, n + 1), deg)))
    ideal_i = minimalize(n, gens_i)

    gens_j = []
    for _ in range(rng.randint(*params.gen_count_j)):
        g = ideal_i.generators[rng.randrange(len(ideal_i.generators))]
        lo = max(params.degree_j[0], g.degree + 1)
        hi = min(params.degree_j[1], n)
        if lo > hi:
            continue
        deg = rng.randint(lo, hi)
        outside = [j for j in range(1, n + 1) if not g.mask >> (j - 1) & 1]
        extra = rng.sample(outside, deg - g.degree)
        gens_j.append(Monomial.from_support(n, tuple(g.support) + tuple(extra)))

    return validate_pair(n, list(ideal_i.generators), gens_j)
