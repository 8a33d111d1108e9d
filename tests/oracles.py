"""Independent brute-force oracles and shared instance families, for the test suite only.

The multidegree and partition oracles deliberately avoid the package's
strand builder and partition search: the multidegree oracle works on
arbitrary exponent vectors (not just square-free ones) and the partition
oracle enumerates every interval partition outright.  The unscreened depth
scan is the reference route for the package's screened scan.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from sqfdepth import Monomial, QuotientInstance, ValidationError, all_strands, poset_elements, validate_pair
from sqfdepth.linalg import FieldSpec, rank_bareiss, rank_gf2, rank_mod_p


def general_member(gens: list[Monomial], exponents: tuple[int, ...]) -> bool:
    """Membership of the (possibly non-square-free) monomial x^exponents."""
    support = 0
    for j, e in enumerate(exponents):
        if e:
            support |= 1 << j
    return any(g.mask & ~support == 0 for g in gens)


def brute_quotient_member(inst: QuotientInstance, exponents: tuple[int, ...]) -> bool:
    return general_member(list(inst.ideal_i.generators), exponents) and not general_member(
        list(inst.ideal_j.generators), exponents
    )


def _raw_rank(entries, field: FieldSpec) -> int:
    if field.is_rationals:
        return rank_bareiss(entries)
    if field.p == 2:
        return rank_gf2(entries)
    return rank_mod_p(entries, field.p)


def brute_multidegree_homology(
    inst: QuotientInstance, exponents: tuple[int, ...], field: FieldSpec
) -> dict[int, int]:
    """Strand homology at an arbitrary exponent vector, built from scratch.

    The chain-degree-i basis consists of the wedge index sets F (subsets of
    the positions where the exponent is positive, |F| = i) whose residual
    monomial x^(a - chi_F) lies in I but not in J.  The differential drops
    one index j from F with sign (-1)^(p+1), p the position of j in sorted F,
    and lands on F minus j when the augmented monomial stays outside J.
    """
    n = inst.n
    positive = [j for j in range(n) if exponents[j] > 0]

    def residual(fset: frozenset[int]) -> tuple[int, ...]:
        return tuple(exponents[j] - (1 if j in fset else 0) for j in range(n))

    bases: list[list[frozenset[int]]] = []
    for i in range(len(positive) + 1):
        row = [
            frozenset(fs)
            for fs in combinations(positive, i)
            if brute_quotient_member(inst, residual(frozenset(fs)))
        ]
        bases.append(row)

    def boundary_entries(i: int) -> list[list[int]]:
        source, target = bases[i], bases[i - 1]
        target_index = {fs: kk for kk, fs in enumerate(target)}
        rows = [[0] * len(source) for _ in target]
        for q, fs in enumerate(source):
            ordered = sorted(fs)
            for p, j in enumerate(ordered, start=1):
                k = target_index.get(fs - {j})
                if k is not None:
                    rows[k][q] = 1 if p % 2 else -1
        return rows

    ranks = [0] * (len(bases) + 1)
    for i in range(1, len(bases)):
        if bases[i] and bases[i - 1]:
            ranks[i] = _raw_rank(boundary_entries(i), field)
    dims = {}
    for i, row in enumerate(bases):
        if row:
            dim = len(row) - ranks[i] - ranks[i + 1]
            assert dim >= 0, f"negative homology dim at exponents={exponents}, i={i}"
            dims[i] = dim
    return dims


def unscreened_depth_multi(inst: QuotientInstance, fields) -> dict[FieldSpec, int]:
    """Depth per field with every map of every nonempty strand ranked in that field.

    Bareiss over Q, the bitset route over GF(2), modular elimination over odd
    primes: no GF(2) screen, no shared rank cache and no pruning of the scan.
    """
    best = {f: -1 for f in fields}
    for strand in all_strands(inst):
        top = len(strand.bases) - 1
        for f in fields:
            ranks = [0] * (top + 2)
            for i in range(1, top + 1):
                m = strand.boundary(i)
                if m.rows and m.cols:
                    ranks[i] = _raw_rank(m.entries, f)
            for i in range(top + 1):
                if strand.basis(i) and len(strand.basis(i)) - ranks[i] - ranks[i + 1] > 0:
                    best[f] = max(best[f], i)
    return {f: inst.n - top for f, top in best.items()}


def brute_depth_all_multidegrees(
    inst: QuotientInstance, max_exponent: int, field: FieldSpec
) -> int:
    """Depth via the full multidegree scan with exponents in 0..max_exponent."""
    top = -1
    for exponents in product(range(max_exponent + 1), repeat=inst.n):
        dims = brute_multidegree_homology(inst, exponents, field)
        for i, dim in dims.items():
            if dim:
                top = max(top, i)
    assert top >= 0
    return inst.n - top


def brute_stanley_depth(inst: QuotientInstance) -> int:
    """Stanley depth by exhaustive enumeration of all interval partitions."""
    elements = poset_elements(inst)
    count = len(elements)
    full = (1 << count) - 1
    interval_bits: dict[tuple[int, int], int] = {}
    for u_idx, u in enumerate(elements):
        for v_idx, v in enumerate(elements):
            if u.mask & ~v.mask == 0:
                bits = 0
                for w_idx, w in enumerate(elements):
                    if u.mask & ~w.mask == 0 and w.mask & ~v.mask == 0:
                        bits |= 1 << w_idx
                interval_bits[(u_idx, v_idx)] = bits

    best = -1

    def recurse(cover: int, current_min: int) -> None:
        nonlocal best
        if cover == full:
            best = max(best, current_min)
            return
        free = ~cover & full
        u_idx = (free & -free).bit_length() - 1
        for (uu, vv), bits in interval_bits.items():
            if uu != u_idx or bits & cover:
                continue
            recurse(cover | bits, min(current_min, elements[vv].degree))

    recurse(0, inst.n + 1)
    assert best >= inst.d
    return best


def hypothesis_violating_instances(count=250, seed=404) -> list[QuotientInstance]:
    """Pairs where J may contain generators of I itself (degree <= d)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 5)
        gens_i = [
            Monomial.from_support(n, rng.sample(range(1, n + 1), rng.randint(1, n)))
            for _ in range(rng.randint(2, 4))
        ]
        gens_j = []
        for g in gens_i:
            roll = rng.random()
            if roll < 0.3:
                gens_j.append(g)
            elif roll < 0.6 and g.degree < n:
                outside = [j for j in range(1, n + 1) if j not in g.support]
                extra = rng.sample(outside, rng.randint(1, len(outside)))
                gens_j.append(Monomial.from_support(n, tuple(g.support) + tuple(extra)))
        try:
            inst = validate_pair(n, gens_i, gens_j)
        except ValidationError:
            continue
        out.append(inst)
    return out


# The 6-vertex triangulation of the real projective plane; all 15 edges are faces.
RP2_FACETS = (
    (1, 2, 4), (1, 2, 6), (1, 3, 5), (1, 3, 6), (1, 4, 5),
    (2, 3, 4), (2, 3, 5), (2, 5, 6), (3, 4, 6), (4, 5, 6),
)


def rp2_cone_instance() -> QuotientInstance:
    """(x7) / x7*J, J the Stanley-Reisner ideal of the 6-vertex RP^2.

    The quotient is K[x1..x7]/J shifted by one degree, so its depth is one
    more than that of the face ring: RP^2 is Cohen-Macaulay over Q and over
    GF(3) but not over GF(2), and the depths are 4, 4 and 3.  GF(2) homology
    is nonzero in a chain degree where rational homology vanishes, so the
    GF(2) screen flags a degree that Bareiss must clear.
    """
    faces = set(RP2_FACETS)
    gens_j = [
        Monomial.from_support(7, t + (7,)) for t in combinations(range(1, 7), 3) if t not in faces
    ]
    return validate_pair(7, [Monomial.from_support(7, [7])], gens_j)
