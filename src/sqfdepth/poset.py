"""Degree-stratified enumeration of the monomials in I but not in J.

The monomials of I \\ J form a finite poset under divisibility.  Everything
downstream (counting, strand bases, interval partitions) consumes the same
stratified enumeration.  It is not cached: each computation enumerates the
poset once and passes the resulting :class:`PosetLayers`, which carries its
instance, to every function it calls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .monomials import Monomial, QuotientInstance


@dataclass(frozen=True)
class PosetLayers:
    """Per-degree layers of the quotient poset, for degrees d..n.

    Within a layer, monomials are in canonical order (lexicographic on
    support, degree being fixed).  Layers past the last nonempty one are
    present and empty.
    """

    instance: QuotientInstance
    layers: tuple[tuple[Monomial, ...], ...]

    def layer(self, t: int) -> tuple[Monomial, ...]:
        d = self.instance.d
        if t < d or t > self.instance.n:
            return ()
        return self.layers[t - d]

    def elements(self) -> tuple[Monomial, ...]:
        """All poset elements in canonical order (degree ascending, then support)."""
        return tuple(m for row in self.layers for m in row)

    def rho(self, t: int) -> int:
        """Number of degree-t elements; zero outside the range [d, n]."""
        return len(self.layer(t))

    def alpha_table(self) -> RhoTable:
        """rho and alpha for all degrees d..n."""
        n, d = self.instance.n, self.instance.d
        rho_pairs = tuple((j, self.rho(j)) for j in range(d, n + 1))
        counts = dict(rho_pairs)
        alpha_pairs = []
        for j in range(d, n + 1):
            a = sum((-1) ** (j - d + i) * counts[d + i] for i in range(j - d + 1))
            alpha_pairs.append((j, a))
        return RhoTable(d=d, rho=rho_pairs, alpha=tuple(alpha_pairs))


@dataclass(frozen=True)
class RhoTable:
    """Layer sizes rho[t] and their alternating sums alpha[j].

    alpha[d] = rho[d] and alpha[j] = rho[j] - alpha[j-1] for j > d; the
    closed form is the alternating sum of rho[d..j].
    """

    d: int
    rho: tuple[tuple[int, int], ...]
    alpha: tuple[tuple[int, int], ...]


def enumerate_quotient(inst: QuotientInstance) -> PosetLayers:
    """Exactly enumerate {m square-free : m in I, m not in J}, stratified by degree.

    Walks all supports of each size in lexicographic order as bitmasks and
    keeps those that some generator of I divides (g & ~mask == 0) and no
    generator of J does; at desk scale this is at most 2^n subsets and needs
    no duplicate handling.  Only the kept supports become monomials.
    """
    n, d = inst.n, inst.d
    gens_i = [g.mask for g in inst.ideal_i.generators]
    gens_j = [g.mask for g in inst.ideal_j.generators]
    bits = [1 << j for j in range(n)]
    rows = []
    for t in range(d, n + 1):
        row = []
        for combo in itertools.combinations(bits, t):
            mask = sum(combo)
            if any(g & ~mask == 0 for g in gens_i) and not any(g & ~mask == 0 for g in gens_j):
                row.append(Monomial(n, mask))
        rows.append(tuple(row))
    return PosetLayers(inst, tuple(rows))
