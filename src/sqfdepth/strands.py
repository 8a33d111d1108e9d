"""Multidegree strands of the Koszul complex on a quotient of square-free ideals.

For a square-free multidegree a, the strand's chain group in homological
degree i is spanned by the basis elements m * e_F where m runs over the
quotient-poset monomials dividing a and F = supp(a) \\ supp(m) has size i.
The differential drops one variable j from F, sending m * e_F to
(m * x_j) * e_(F minus j) with sign (-1)^(p+1), where p is the 1-based
position of j inside supp(a) \\ supp(m) listed in increasing index order
(wedge factors are always taken in increasing order).  Dropped targets that
land in J simply vanish.

Depth is read off the scan over all square-free multidegrees: it equals
n minus the largest homological degree carrying nonzero strand homology.
No other multidegree carries homology.  The strand at a computes
Tor_i(K, I/J)_a, and 0 -> J -> I -> I/J -> 0 gives the exact piece
Tor_i(I)_a -> Tor_i(I/J)_a -> Tor_(i-1)(J)_a.  The Taylor resolutions of I
and J have their basis elements in the multidegrees of lcms of
generators, so Tor_i(I/J)_a vanishes unless a is an lcm of generators of I
or of J; an lcm of square-free monomials is square-free.  The argument
holds over Z, so over every field.  The brute-force multidegree oracle in
the test suite checks the same fact on small instances, and another test
checks the finer bound: H_i at a needs i + 1 generators of I, or i of J,
with lcm a.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable, Sequence

from .errors import InputError, InternalConsistencyError
from .linalg import GF2, FieldSpec, rank_bareiss, rank_gf2, rank_mod_p
from .monomials import ideal_supports
from .poset import PosetLayers, RankCache


Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class StrandComplex:
    """The slice of the Koszul complex at one square-free multidegree.

    The multidegree and the basis elements are support bitmasks.
    ``bases[i]`` lists the chain-degree-i basis monomials (the monomials of
    the quotient poset of degree deg(a) - i dividing a) in canonical order.
    The differentials are not stored up front: ``entries(i)`` builds the
    one leaving chain degree i the first time it is asked for and keeps it
    on this strand.  Outside the populated range it degrades to empty shapes.
    ``ranks`` is the rank memo of the poset the strand was built from.
    """

    multidegree: int
    bases: tuple[tuple[int, ...], ...]
    ranks: RankCache = dc_field(repr=False, compare=False)
    _rows: dict[int, Rows] = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def basis(self, i: int) -> tuple[int, ...]:
        if 0 <= i < len(self.bases):
            return self.bases[i]
        return ()

    @property
    def is_empty(self) -> bool:
        return all(not row for row in self.bases)

    def chain_degrees(self) -> range:
        return range(len(self.bases))

    def entries(self, i: int) -> Rows:
        """Rows of the differential leaving chain degree i (unchecked), one per target basis element."""
        rows = self._rows.get(i)
        if rows is None:
            rows = self._rows[i] = _boundary_rows(self.multidegree, self.basis(i), self.basis(i - 1))
        return rows


def _boundary_rows(a: int, source: tuple[int, ...], target: tuple[int, ...]) -> Rows:
    target_index = {m: k for k, m in enumerate(target)}
    rows = [[0] * len(source) for _ in target]
    for q, f in enumerate(source):
        comp = a & ~f
        below = 0
        rem = comp
        while rem:
            bit = rem & -rem
            rem ^= bit
            k = target_index.get(f | bit)
            if k is not None:
                rows[k][q] = 1 if below % 2 == 0 else -1
            below += 1
    return tuple(map(tuple, rows))


def build_strand(poset: PosetLayers, a: int) -> StrandComplex:
    """Assemble the strand at the multidegree with support mask a.

    The chain-degree-i basis consists exactly of the quotient-poset monomials
    of degree deg(a) - i dividing a.  An empty strand (all bases empty) is a
    valid result.  Only the bases are built here; see
    :meth:`StrandComplex.entries` for the differentials.  The strand shares
    the poset's rank memo, so its ranks are computed once per poset.  An
    ``a`` that is not an int in 0..2^n - 1 (bools included) raises
    :class:`InputError`.
    """
    n = PosetLayers.require(poset).instance.n
    if isinstance(a, bool) or not isinstance(a, int) or not 0 <= a < 1 << n:
        raise InputError(f"multidegree {a!r} is not a support mask below 2^{n}")
    size = a.bit_count()
    bases = tuple(
        tuple(m for m in poset.layer(size - i) if m & ~a == 0)
        for i in range(size + 1)
    )
    return StrandComplex(multidegree=a, bases=bases, ranks=poset.ranks)


def strand_rank(strand: StrandComplex, i: int, field: FieldSpec) -> int:
    """Rank over ``field`` of the map d_i leaving chain degree i, memoized in ``strand.ranks``.

    GF(2) ranks use the bitset route and odd primes modular elimination.  A
    map with an empty source or target has rank 0 and its rows are never
    built.  Over Q the rank is certified from GF(2) ranks wherever it can be,
    and fraction-free Bareiss runs only on the maps that are left:

    * Reducing an integer matrix mod 2 creates no nonzero minor, so
      rank_2(d) <= rank_Q(d) <= min(rows, cols) for every map d.  A GF(2)
      rank equal to min(rows, cols) is therefore the rational rank.
    * d_j o d_(j+1) = 0 gives rank_Q(d_j) + rank_Q(d_(j+1)) <= dim C_j.  If
      chain degree j is exact mod 2, i.e. dim C_j = rank_2(d_j) +
      rank_2(d_(j+1)), the two inequalities squeeze both rational ranks down
      to their GF(2) values.
    * So rank_Q(d_i) = rank_2(d_i) whenever the GF(2) homology vanishes at
      chain degree i or at chain degree i - 1, the two ends of d_i.  Bareiss
      runs only when both carry GF(2) homology; the 2-torsion of the RP^2
      cone is one such map.

    The certificate reads only GF(2) ranks of d_(i-1), d_i and d_(i+1), which
    the depth scan has usually computed already.
    """
    key = (strand.multidegree, i, field.p)
    r = strand.ranks.get(key)
    if r is not None:
        return r
    short = min(len(strand.basis(i - 1)), len(strand.basis(i)))
    if short == 0:
        r = 0
    elif field.p == 2:
        r = rank_gf2(strand.entries(i))
    elif field.p is not None:
        r = rank_mod_p(strand.entries(i), field.p)
    else:
        r = strand_rank(strand, i, GF2)
        if r < short and homology_dim(strand, i, GF2) and homology_dim(strand, i - 1, GF2):
            r = rank_bareiss(strand.entries(i))
    strand.ranks[key] = r
    return r


def homology_dim(strand: StrandComplex, i: int, field: FieldSpec) -> int:
    """Dimension over ``field`` of the strand's homology at chain degree i; never negative.

    Raises :class:`InternalConsistencyError` when the two ranks around chain
    degree i exceed its dimension, which d o d = 0 rules out.
    """
    dim = len(strand.basis(i)) - strand_rank(strand, i, field) - strand_rank(strand, i + 1, field)
    if dim < 0:
        raise InternalConsistencyError(
            f"negative homology dimension {dim} at mask {strand.multidegree:#b}, chain degree {i}"
        )
    return dim


def exact_depth_multi(poset: PosetLayers, fields: Sequence[FieldSpec]) -> dict[FieldSpec, int]:
    """Exact depth over several fields in one scan of the square-free multidegrees.

    For each field, depth = n - max{i : some strand has nonzero homology in
    chain degree i}.  A strand at multidegree a has chain degrees at most
    deg(a) - d, which prunes the scan: once every field's running maximum
    reaches that bound, the remaining (smaller) multidegrees cannot raise it.
    Only multidegrees in I carry a strand, so a strand is built for those
    alone.

    Multidegrees are visited by decreasing size and, within a size, in
    canonical order; each size's supports in I come from
    :func:`ideal_supports` as the scan reaches it.
    Within a strand only the chain degrees above the field's running maximum
    can matter; they are visited from the top down and the first one with
    nonzero homology ends the strand for that field.  Over Q a degree that is
    exact over GF(2) certifies the rational ranks of both maps at its ends
    (see :func:`strand_rank`), so it comes out exact over Q without any
    rational elimination.  Odd primes are ranked directly by modular
    elimination.

    Every rank computed is stored in ``poset.ranks``, so a later
    :func:`check_rank_split` on the same poset reuses the ranks of the full
    strand instead of eliminating them again.  ``fields`` that is not an
    iterable of :class:`FieldSpec`, or is empty, raises :class:`InputError`.
    """
    if not isinstance(fields, Iterable):
        raise InputError(f"fields must be an iterable of FieldSpec, got {fields!r}")
    field_list = list(fields)
    for f in field_list:
        if not isinstance(f, FieldSpec):
            raise InputError(f"field {f!r} is not a FieldSpec")
    field_list = list(dict.fromkeys(field_list))
    if not field_list:
        raise InputError("need at least one field")
    inst = PosetLayers.require(poset).instance
    n, d = inst.n, inst.d
    best = {f: -1 for f in field_list}
    for size in range(n, 0, -1):
        bound = size - d
        if bound <= min(best.values()):
            break
        for mask in ideal_supports(n, size, inst.gens_i, ()):
            strand = build_strand(poset, mask)
            if strand.is_empty:
                continue
            for f in field_list:
                for i in range(bound, best[f], -1):
                    if not strand.basis(i):
                        continue
                    if homology_dim(strand, i, f):
                        best[f] = i
                        break
    for f, top in best.items():
        if top < 0:
            raise InternalConsistencyError("empty homology scan on a validated instance")
    return {f: n - top for f, top in best.items()}
