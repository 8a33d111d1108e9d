"""Independent brute-force oracles, reference routes and shared instance families, for the test suite only.

The multidegree and partition oracles deliberately avoid the package's
strand builder and partition search: the multidegree oracle works on
arbitrary exponent vectors (not just square-free ones) and the partition
oracle enumerates every interval partition outright.  The unscreened depth
scan is the reference route for the package's screened scan, the
untruncated exact-cover search the reference route for its Stanley search,
and Gaussian elimination on Fractions the reference route for Bareiss.
The small helpers at the top (per-instance rho/alpha/elements, supports of
masks, interval members, single-field depth, divisibility of monomials, the
instance dump, the field GF(3), the checked SignMatrix with its ranks and
products, a strand's boundary as a SignMatrix, boundary signs) are
conveniences that only the tests use; each enumerates its own poset.  The
package's core works on support bitmasks; these helpers turn them into
monomials where a test compares monomials.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Iterator, Sequence

from sqfdepth import (
    GF2,
    RATIONALS,
    FieldSpec,
    InputError,
    InternalConsistencyError,
    Interval,
    IntervalPartition,
    Monomial,
    QuotientInstance,
    StrandComplex,
    ValidationError,
    build_strand,
    enumerate_quotient,
    exact_depth_multi,
    ideal_contains,
    instance_to_json,
    validate_pair,
)
from sqfdepth.linalg import rank_bareiss, rank_gf2, rank_mod_p
from sqfdepth.strands import strand_rank


GF3 = FieldSpec(3)


def rho(inst: QuotientInstance, t: int) -> int:
    """Number of degree-t monomials in I \\ J; zero outside the range [d, n]."""
    return enumerate_quotient(inst).rho(t)


def alpha_table(inst: QuotientInstance) -> dict[int, int]:
    """alpha for all degrees d..n."""
    return enumerate_quotient(inst).alpha_table()


def supports(n: int, masks: Sequence[int]) -> list[tuple[int, ...]]:
    """The 1-based supports of the given support masks, in order."""
    return [Monomial(n, m).support for m in masks]


def poset_elements(inst: QuotientInstance) -> tuple[Monomial, ...]:
    return tuple(Monomial(inst.n, m) for m in enumerate_quotient(inst).elements())


def interval_members(interval: Interval, inst: QuotientInstance) -> tuple[Monomial, ...]:
    """All poset monomials between the interval's bottom and top, canonical order."""
    return tuple(
        m
        for m in poset_elements(inst)
        if interval.bottom.mask & ~m.mask == 0 and m.mask & ~interval.top.mask == 0
    )


def exact_depth(inst: QuotientInstance, field: FieldSpec = RATIONALS) -> int:
    """Exact depth of the quotient over one field, from its own enumeration."""
    return exact_depth_multi(enumerate_quotient(inst), (field,))[field]


def divides(a: Monomial, b: Monomial) -> bool:
    """True iff support(a) is contained in support(b); a partial order."""
    if a.n != b.n:
        raise InputError(f"ambient mismatch: n={a.n} vs n={b.n}")
    return a.mask & ~b.mask == 0


def serialize_instance(inst: QuotientInstance) -> str:
    return json.dumps(instance_to_json(inst), sort_keys=True)


@dataclass(frozen=True)
class SignMatrix:
    """A dense integer matrix with entries in {-1, 0, +1}, checked on construction."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise InputError(f"expected {self.rows} rows, got {len(self.entries)}")
        for r in self.entries:
            if len(r) != self.cols:
                raise InputError("ragged row")
            for e in r:
                if e not in (-1, 0, 1):
                    raise InputError(f"entry {e} outside {{-1, 0, +1}}")


def boundary(strand: StrandComplex, i: int) -> SignMatrix:
    """The differential leaving chain degree i of the strand as a checked SignMatrix."""
    return SignMatrix(rows=len(strand.basis(i - 1)), cols=len(strand.basis(i)), entries=strand.entries(i))


def from_rows(entries: Sequence[Sequence[int]], cols: int | None = None) -> SignMatrix:
    rows = len(entries)
    if cols is None:
        cols = len(entries[0]) if rows else 0
    return SignMatrix(rows=rows, cols=cols, entries=tuple(tuple(int(e) for e in r) for r in entries))


def transpose(m: SignMatrix) -> SignMatrix:
    flipped = tuple(tuple(m.entries[i][j] for i in range(m.rows)) for j in range(m.cols))
    return SignMatrix(m.cols, m.rows, flipped)


def _raw_rank(entries, field: FieldSpec) -> int:
    if field.is_rationals:
        return rank_bareiss(entries)
    if field.p == 2:
        return rank_gf2(entries)
    return rank_mod_p(entries, field.p)


def rank(m: SignMatrix, field: FieldSpec = RATIONALS) -> int:
    """The rank of m with entries reduced into the given field."""
    return _raw_rank(m.entries, field)


def boundary_sign(f: Monomial, b: Monomial, ambient: Monomial) -> int:
    """Transition coefficient from basis monomial f to b inside the given strand.

    Zero unless f divides b with deg b = deg f + 1; otherwise (-1)^(p+1)
    where p is the position of the new variable of b in the increasing
    enumeration of supp(ambient) \\ supp(f).
    """
    if f.n != b.n or f.n != ambient.n:
        raise InputError("ambient mismatch between monomials")
    if f.mask & ~ambient.mask or b.mask & ~ambient.mask:
        raise InputError("monomials must divide the strand multidegree")
    diff = b.mask & ~f.mask
    if f.mask & ~b.mask or diff.bit_count() != 1:
        return 0
    comp = ambient.mask & ~f.mask
    pos = (comp & (diff - 1)).bit_count() + 1
    return 1 if pos % 2 else -1


def rank_fraction_gauss(entries: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals by plain Gaussian elimination on exact Fractions.

    Independent of :func:`rank_bareiss`; used as the cross-validation route.
    """
    m = [[Fraction(e) for e in r] for r in entries]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    for col in range(nc):
        piv = None
        for r in range(rank, nr):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        mp = m[rank]
        inv = 1 / mp[col]
        for r in range(rank + 1, nr):
            f = m[r][col]
            if f:
                mult = f * inv
                mr = m[r]
                for c in range(col, nc):
                    mr[c] -= mult * mp[c]
        rank += 1
        if rank == nr:
            break
    return rank


def rank_pair_check(m: SignMatrix, field_a: FieldSpec = RATIONALS, field_b: FieldSpec = GF2) -> tuple[int, int]:
    """Ranks over the rationals and over a prime field, with the specialization check.

    A nonvanishing minor over GF(p) lifts to a nonvanishing minor over the
    rationals, so the modular rank can never exceed the rational one; a
    violation means an elimination bug.
    """
    if not field_a.is_rationals or field_b.is_rationals:
        raise InputError("rank_pair_check expects (rationals, prime field)")
    r_q = rank(m, field_a)
    r_p = rank(m, field_b)
    if r_p > r_q:
        raise InternalConsistencyError(
            f"rank over GF({field_b.p}) is {r_p} > rank over Q is {r_q}"
        )
    return r_q, r_p


def compose_is_zero(a: SignMatrix, b: SignMatrix) -> bool:
    """True iff the integer matrix product a*b is identically zero."""
    if a.cols != b.rows:
        raise InputError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    for i in range(a.rows):
        arow = a.entries[i]
        for j in range(b.cols):
            s = 0
            for t in range(a.cols):
                e = arow[t]
                if e:
                    s += e * b.entries[t][j]
            if s:
                return False
    return True


def all_strands(inst: QuotientInstance) -> Iterator[StrandComplex]:
    """All nonempty strands, by multidegree mask ascending.  Deterministic."""
    poset = enumerate_quotient(inst)
    for mask in range(1 << inst.n):
        if not ideal_contains(inst.ideal_i, Monomial(inst.n, mask)):
            continue
        strand = build_strand(poset, mask)
        if not strand.is_empty:
            yield strand


def _strand_homology(strand: StrandComplex, field: FieldSpec) -> dict[int, int]:
    ranks: dict = {}
    dims = {}
    for i in strand.chain_degrees():
        if strand.basis(i):
            dim = len(strand.basis(i)) - strand_rank(strand, i, field, ranks) - strand_rank(strand, i + 1, field, ranks)
            if dim < 0:
                raise InternalConsistencyError(
                    f"negative homology dimension {dim} at {strand.multidegree}, chain degree {i}"
                )
            dims[i] = dim
    return dims


def strand_homology(inst: QuotientInstance, a: Monomial, field: FieldSpec = RATIONALS) -> dict[int, int]:
    """Homology dimension per chain degree with nonempty basis: r - rank(in) - rank(out)."""
    return _strand_homology(build_strand(enumerate_quotient(inst), a.mask), field)


@dataclass(frozen=True)
class HomologyProfile:
    """Nonzero strand homology dimensions, keyed by (multidegree, chain degree)."""

    per_strand: tuple[tuple[Monomial, int, int], ...]
    max_nonzero: int


def homology_profile(inst: QuotientInstance, field: FieldSpec = RATIONALS) -> HomologyProfile:
    """Full (debug) scan: every nonzero homology dimension of every strand."""
    entries = []
    max_nonzero = -1
    for strand in all_strands(inst):
        for i, dim in sorted(_strand_homology(strand, field).items()):
            if dim:
                entries.append((Monomial(inst.n, strand.multidegree), i, dim))
                max_nonzero = max(max_nonzero, i)
    if max_nonzero < 0:
        raise InternalConsistencyError("no nonzero strand homology found; quotient should be nonzero")
    return HomologyProfile(per_strand=tuple(entries), max_nonzero=max_nonzero)


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
                m = boundary(strand, i)
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


def _untruncated_tables(inst: QuotientInstance):
    elements = poset_elements(inst)
    multiples: list[list[int]] = []
    for u in elements:
        ms = [v_idx for v_idx, v in enumerate(elements) if u.mask & ~v.mask == 0]
        ms.sort(key=lambda v_idx: (-elements[v_idx].degree, elements[v_idx].support))
        multiples.append(ms)
    interval_bits: dict[tuple[int, int], int] = {}
    for u_idx, u in enumerate(elements):
        for v_idx in multiples[u_idx]:
            v = elements[v_idx]
            bits = 0
            for w_idx, w in enumerate(elements):
                if u.mask & ~w.mask == 0 and w.mask & ~v.mask == 0:
                    bits |= 1 << w_idx
            interval_bits[(u_idx, v_idx)] = bits
    return elements, multiples, interval_bits


def untruncated_partition_exists(inst: QuotientInstance, k: int) -> IntervalPartition | None:
    """A partition of the whole poset with every top of degree >= k, if one exists.

    Recursive exact-cover backtracking over all elements, with every top of
    degree >= k as a candidate: no cut at degree k and no counting.
    """
    elements, multiples, interval_bits = _untruncated_tables(inst)
    count = len(elements)
    full = (1 << count) - 1
    candidates = [
        [v_idx for v_idx in multiples[u_idx] if elements[v_idx].degree >= k]
        for u_idx in range(count)
    ]
    if any(not c for c in candidates):
        return None

    failed: set[int] = set()

    def solve(cover: int) -> list[tuple[int, int]] | None:
        if cover == full:
            return []
        if cover in failed:
            return None
        free = ~cover & full
        u_idx = (free & -free).bit_length() - 1
        for v_idx in candidates[u_idx]:
            bits = interval_bits[(u_idx, v_idx)]
            if bits & cover:
                continue
            rest = solve(cover | bits)
            if rest is not None:
                return [(u_idx, v_idx)] + rest
        failed.add(cover)
        return None

    picks = solve(0)
    if picks is None:
        return None
    intervals = tuple(Interval(elements[u], elements[v]) for u, v in picks)
    value = min(iv.top.degree for iv in intervals)
    return IntervalPartition(intervals=intervals, sdepth_value=value)


def untruncated_stanley_depth(inst: QuotientInstance) -> tuple[int, IntervalPartition]:
    """Stanley depth by the untruncated search, descending from the top degree."""
    top_degree = max(m.degree for m in poset_elements(inst))
    for k in range(top_degree, inst.d - 1, -1):
        partition = untruncated_partition_exists(inst, k)
        if partition is not None:
            return k, partition
    raise AssertionError("unreachable: singleton partition at k = d always exists")


def counting_bound(inst: QuotientInstance) -> int:
    """The largest k whose interval counts n_a, forced by rho_t = sum_a n_a C(k-a, t-a), are all >= 0."""
    for k in range(inst.n, inst.d - 1, -1):
        quotas: list[int] = []
        for t in range(inst.d, k + 1):
            quotas.append(rho(inst, t) - sum(q * comb(k - a, t - a) for a, q in enumerate(quotas, start=inst.d)))
        if min(quotas) >= 0:
            return k
    raise AssertionError("unreachable: the counts at k = d are rho_d > 0")


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
