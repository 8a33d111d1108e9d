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
Restricting the scan to square-free multidegrees relies on homology of such
quotients being concentrated there; the brute-force multidegree oracle in
the test suite validates that assumption empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InputError, InternalConsistencyError
from .linalg import GF2, FieldSpec, SignMatrix, rank_bareiss, rank_gf2, rank_mod_p
from .poset import PosetLayers


Rows = tuple[tuple[int, ...], ...]

# Strand ranks of one computation, keyed by (multidegree mask, chain degree, field).
RankCache = dict[tuple[int, int, FieldSpec], int]


@dataclass(frozen=True)
class StrandComplex:
    """The slice of the Koszul complex at one square-free multidegree.

    The multidegree and the basis elements are support bitmasks.
    ``bases[i]`` lists the chain-degree-i basis monomials (the monomials of
    the quotient poset of degree deg(a) - i dividing a) in canonical order.
    ``matrices[i]`` holds the differential from chain degree i to i - 1 as
    bare rows of ints, one tuple per target basis element; ``entries(i)`` and
    ``boundary(i)`` degrade to empty shapes outside the populated range.
    """

    multidegree: int
    bases: tuple[tuple[int, ...], ...]
    matrices: tuple[Rows, ...]

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
        """Rows of the differential leaving chain degree i (unchecked, hot path)."""
        if 1 <= i < len(self.matrices):
            return self.matrices[i]
        return tuple(() for _ in self.basis(i - 1))

    def boundary(self, i: int) -> SignMatrix:
        """The differential leaving chain degree i as a checked SignMatrix."""
        return SignMatrix(rows=len(self.basis(i - 1)), cols=len(self.basis(i)), entries=self.entries(i))


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
    valid result.  Matrices are bare int rows; labels are made by callers
    that print them, from the bases.
    """
    size = a.bit_count()
    bases = tuple(
        tuple(m for m in poset.layer(size - i) if m & ~a == 0)
        for i in range(size + 1)
    )
    matrices = ((),) + tuple(_boundary_rows(a, bases[i], bases[i - 1]) for i in range(1, size + 1))
    return StrandComplex(multidegree=a, bases=bases, matrices=matrices)


def strand_rank(strand: StrandComplex, i: int, field: FieldSpec, ranks: RankCache) -> int:
    """Rank over ``field`` of the differential leaving chain degree i, memoized in ``ranks``.

    GF(2) ranks use the bitset route and odd primes modular elimination.
    Over Q the GF(2) rank is taken first.  Reducing an integer matrix mod p
    cannot create a nonzero minor, so rank over GF(p) <= rank over Q <=
    min(rows, cols); a GF(2) rank equal to min(rows, cols) is therefore the
    rank over Q as well, and Bareiss runs only on the maps where it falls
    short.
    """
    key = (strand.multidegree, i, field)
    r = ranks.get(key)
    if r is not None:
        return r
    rows = strand.entries(i)
    short = min(len(rows), len(strand.basis(i)))
    if short == 0:
        r = 0
    elif field.p == 2:
        r = rank_gf2(rows)
    elif field.p is not None:
        r = rank_mod_p(rows, field.p)
    else:
        r = strand_rank(strand, i, GF2, ranks)
        if r < short:
            r = rank_bareiss(rows)
    ranks[key] = r
    return r


def _homology_dim(strand: StrandComplex, i: int, field: FieldSpec, ranks: RankCache) -> int:
    dim = len(strand.basis(i)) - strand_rank(strand, i, field, ranks) - strand_rank(strand, i + 1, field, ranks)
    if dim < 0:
        raise InternalConsistencyError(
            f"negative homology dimension {dim} at mask {strand.multidegree:#b}, chain degree {i}"
        )
    return dim


def exact_depth_multi(
    poset: PosetLayers,
    fields: Sequence[FieldSpec],
    ranks: RankCache | None = None,
) -> dict[FieldSpec, int]:
    """Exact depth over several fields in one scan of the square-free multidegrees.

    For each field, depth = n - max{i : some strand has nonzero homology in
    chain degree i}.  A strand at multidegree a has chain degrees at most
    deg(a) - d, which prunes the scan: once every field's running maximum
    reaches that bound, the remaining (smaller) multidegrees cannot raise it.
    Only multidegrees in I carry a strand, and membership is read off the
    generator masks; a strand is built for those alone.

    Within a strand only the chain degrees above the field's running maximum
    can matter; they are visited from the top down and the first one with
    nonzero homology ends the strand for that field.  Over Q each candidate
    degree is screened over GF(2) first: rank over GF(2) <= rank over Q for
    every map (see :func:`strand_rank`), so dim H_i over Q <= dim H_i over
    GF(2), and a degree with zero GF(2) homology is exact over Q without any
    rational elimination.  Odd primes are ranked directly by modular
    elimination.

    Every rank computed is stored in ``ranks`` (a fresh dict when omitted),
    so a caller that passes the same dict to :func:`check_rank_split` reuses
    the ranks of the full strand instead of eliminating them again.
    """
    field_list = list(dict.fromkeys(fields))
    if not field_list:
        raise InputError("need at least one field")
    if ranks is None:
        ranks = {}
    inst = poset.instance
    n, d = inst.n, inst.d
    gens_i = [g.mask for g in inst.ideal_i.generators]
    best = {f: -1 for f in field_list}
    by_size: dict[int, list[int]] = {}
    for mask in range(1 << n):
        by_size.setdefault(mask.bit_count(), []).append(mask)
    for size in range(n, 0, -1):
        bound = size - d
        if bound <= min(best.values()):
            break
        for mask in by_size.get(size, ()):
            if not any(g & ~mask == 0 for g in gens_i):
                continue
            strand = build_strand(poset, mask)
            if strand.is_empty:
                continue
            for f in field_list:
                for i in range(bound, best[f], -1):
                    if not strand.basis(i):
                        continue
                    if f.is_rationals and not _homology_dim(strand, i, GF2, ranks):
                        continue
                    if _homology_dim(strand, i, f, ranks):
                        best[f] = i
                        break
    for f, top in best.items():
        if top < 0:
            raise InternalConsistencyError("empty homology scan on a validated instance")
    return {f: n - top for f, top in best.items()}
