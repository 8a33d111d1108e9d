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

from .monomials import QuotientInstance


@dataclass(frozen=True)
class PosetLayers:
    """Per-degree layers of the quotient poset, for degrees d..n.

    Elements are support bitmasks (bit j-1 set iff x_j divides the
    monomial).  Within a layer they are in canonical order (lexicographic
    on support, degree being fixed).  Layers past the last nonempty one are
    present and empty.
    """

    instance: QuotientInstance
    layers: tuple[tuple[int, ...], ...]

    def layer(self, t: int) -> tuple[int, ...]:
        d = self.instance.d
        if t < d or t > self.instance.n:
            return ()
        return self.layers[t - d]

    def elements(self) -> tuple[int, ...]:
        """All poset elements in canonical order (degree ascending, then support)."""
        return tuple(m for row in self.layers for m in row)

    def rho(self, t: int) -> int:
        """Number of degree-t elements; zero outside the range [d, n]."""
        return len(self.layer(t))

    def rho_table(self) -> dict[int, int]:
        """rho[t] for all degrees d..n."""
        return {t: len(row) for t, row in enumerate(self.layers, start=self.instance.d)}

    def alpha_table(self) -> dict[int, int]:
        """alpha[j] for all degrees d..n: the alternating sum of rho[d..j].

        Equivalently alpha[d] = rho[d] and alpha[j] = rho[j] - alpha[j-1]
        for j > d.
        """
        d = self.instance.d
        rho = self.rho_table()
        return {j: sum((-1) ** (j - t) * rho[t] for t in range(d, j + 1)) for j in rho}


def enumerate_quotient(inst: QuotientInstance) -> PosetLayers:
    """Exactly enumerate {m square-free : m in I, m not in J}, stratified by degree.

    Walks all supports of each size in lexicographic order as bitmasks and
    keeps those that some generator of I divides (g & ~mask == 0) and no
    generator of J does; at desk scale this is at most 2^n subsets and needs
    no duplicate handling.
    """
    n, d = inst.n, inst.d
    gens_i, gens_j = inst.gens_i, inst.gens_j
    bits = [1 << j for j in range(n)]
    rows = []
    for t in range(d, n + 1):
        row = []
        for combo in itertools.combinations(bits, t):
            mask = sum(combo)
            if any(g & ~mask == 0 for g in gens_i) and not any(g & ~mask == 0 for g in gens_j):
                row.append(mask)
        rows.append(tuple(row))
    return PosetLayers(inst, tuple(rows))
