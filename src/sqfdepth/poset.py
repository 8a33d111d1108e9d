"""Degree-stratified enumeration of the monomials in I but not in J.

The monomials of I \\ J form a finite poset under divisibility.  Everything
downstream (counting, strand bases, interval partitions) consumes the same
stratified enumeration.  It is not cached: each computation enumerates the
poset once and passes the resulting :class:`PosetLayers` to the functions it
calls (their ``poset`` argument); a function called without one enumerates
its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .monomials import Monomial, QuotientInstance, ideal_contains


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

    def alpha_table(self, t: int | None = None) -> RhoTable:
        """rho for all degrees d..n and alpha for degrees d..t (default t = n)."""
        n, d = self.instance.n, self.instance.d
        if t is None:
            t = n
        rho_pairs = tuple((j, self.rho(j)) for j in range(d, n + 1))
        counts = dict(rho_pairs)
        alpha_pairs = []
        for j in range(d, t + 1):
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

    def alpha_at(self, j: int) -> int:
        return dict(self.alpha)[j]


def enumerate_quotient(inst: QuotientInstance) -> PosetLayers:
    """Exactly enumerate {m square-free : m in I, m not in J}, stratified by degree.

    Walks all supports of each size in lexicographic order and filters by
    ideal membership; at desk scale this is at most 2^n subsets and needs no
    duplicate handling.
    """
    n, d = inst.n, inst.d
    rows = []
    for t in range(d, n + 1):
        row = []
        for combo in itertools.combinations(range(1, n + 1), t):
            m = Monomial.from_support(n, combo)
            if ideal_contains(inst.ideal_i, m) and not ideal_contains(inst.ideal_j, m):
                row.append(m)
        rows.append(tuple(row))
    return PosetLayers(inst, tuple(rows))


def rho(inst: QuotientInstance, t: int) -> int:
    """Number of degree-t monomials in I \\ J; zero outside the range [d, n]."""
    return enumerate_quotient(inst).rho(t)


def alpha_table(inst: QuotientInstance, t: int | None = None) -> RhoTable:
    """rho for all degrees d..n and alpha for degrees d..t (default t = n)."""
    return enumerate_quotient(inst).alpha_table(t)


def poset_elements(inst: QuotientInstance) -> tuple[Monomial, ...]:
    return enumerate_quotient(inst).elements()
