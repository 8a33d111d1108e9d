"""Stanley depth via interval partitions of the quotient poset.

An interval [u, v] collects every poset monomial w with u | w and w | v.
A partition of the whole poset into disjoint intervals witnesses the value
min over intervals of deg(top); the Stanley depth is the maximum of that
value over all partitions.

A target k (a partition with every top of degree >= k) is decided on P<=k,
the elements of degree at most k, which is a prefix of the canonical order:
sdepth >= k exactly when P<=k splits into intervals whose tops all have
degree k (Herzog-Vladoiu-Zheng, J. Algebra 2009).  Soundness:

* If P<=k has such a partition, adding one singleton interval for each
  element of degree > k gives a partition of P whose least top degree is k.
* Conversely, take a partition of P with every top of degree >= k and cut
  each interval [C, D] at rank k.  Nothing is left when deg C > k.
  Otherwise what is left is the Boolean lattice on D \\ C cut at rank
  r = k - deg C <= |D \\ C|, which splits into intervals whose tops have
  rank r, by induction on m = |D \\ C|: for r = m take the whole lattice,
  for r = 0 the bottom alone; for 0 < r < m the sets without the last
  element of D \\ C are the lattice on m - 1 elements cut at rank r, and
  the sets with it are the lattice on m - 1 elements cut at rank r - 1,
  with that element added to every member.
* P = I \\ J is convex: u in I and u | w give w in I, and w | v with v not
  in J gives w not in J.  So every [u, v] with u, v in P lies inside P,
  and its members are u joined with each submask of v \\ u.

Counting fixes the number n_a of intervals with bottom degree a in such a
partition of P<=k.  An interval from degree a to degree k has C(k-a, t-a)
members of degree t, so rho_t = sum_a n_a C(k-a, t-a) for t = d..k.  The
system is triangular with unit diagonal; forward substitution gives the
n_a, and a negative one proves k infeasible before any search
(the Hilbert-depth bound of Ichim-Katthan-Moyano-Fernandez, Math. Comp.
2017).  Within the search the quotas hold at every node without a check.
With p_b intervals placed from bottom degree b, all inside P by
convexity, the uncovered elements of degree t number
sum_b (n_b - p_b) C(k-b, t-b).  When the smallest uncovered element has
degree a, that is zero for each t < a, which gives p_b = n_b for every
b < a, degree by degree from d up; so the uncovered elements of degree a
number exactly n_a - p_a.

The search is exact-cover backtracking on an explicit stack: take the
canonically smallest uncovered element u as the next bottom, branch over
the tops v of degree k above u whose interval is fully uncovered, in
canonical order, and backtrack on dead ends; covers proven to fail are
remembered.  Returned witnesses are therefore reproducible.  The overall
value is found by descending k from the largest degree present; k = d is
always feasible via singleton intervals, so the search terminates with a
witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import InputError
from .monomials import Monomial, QuotientInstance
from .poset import PosetLayers, enumerate_quotient

_FAILED_STATES_CAP = 1 << 18  # bounds the failed-cover memo's memory (about 20 MB when full)


@dataclass(frozen=True)
class Interval:
    """A divisibility interval [bottom, top] inside the quotient poset."""

    bottom: Monomial
    top: Monomial


@dataclass(frozen=True)
class IntervalPartition:
    """A disjoint interval cover of the quotient poset and the value it witnesses."""

    intervals: tuple[Interval, ...]
    sdepth_value: int


@dataclass(frozen=True)
class PartitionCheck:
    ok: bool
    reason: str | None = None


def verify_partition(inst: QuotientInstance, partition: IntervalPartition) -> PartitionCheck:
    """Re-check a partition from scratch: interval validity, disjointness, coverage.

    Interval membership is re-derived over all square-free monomials between
    bottom and top, so a top or an inner point escaping the poset is caught
    even though valid endpoints make that impossible.  The poset is
    enumerated afresh from the instance, so the check does not rely on the
    enumeration the search was given.
    """
    elements = enumerate_quotient(inst).elements()
    poset_masks = set(elements)
    covered: set[int] = set()
    min_top = None
    for iv in partition.intervals:
        if iv.bottom.n != inst.n or iv.top.n != inst.n:
            return PartitionCheck(False, f"interval [{iv.bottom}, {iv.top}] has wrong ambient")
        if iv.bottom.mask & ~iv.top.mask:
            return PartitionCheck(False, f"bottom {iv.bottom} does not divide top {iv.top}")
        if iv.bottom.mask not in poset_masks:
            return PartitionCheck(False, f"bottom {iv.bottom} is not in the poset")
        if iv.top.mask not in poset_masks:
            return PartitionCheck(False, f"top {iv.top} is not in the poset")
        between = iv.top.mask & ~iv.bottom.mask
        sub = between
        while True:
            w = iv.bottom.mask | sub
            if w not in poset_masks:
                return PartitionCheck(
                    False, f"interval [{iv.bottom}, {iv.top}] leaves the poset at mask {w}"
                )
            if w in covered:
                return PartitionCheck(
                    False, f"intervals overlap at {Monomial(inst.n, w)}"
                )
            covered.add(w)
            if sub == 0:
                break
            sub = (sub - 1) & between
        top_deg = iv.top.degree
        min_top = top_deg if min_top is None else min(min_top, top_deg)
    if len(covered) != len(elements):
        missing = next(m for m in elements if m not in covered)
        return PartitionCheck(False, f"element {Monomial(inst.n, missing)} is not covered")
    if min_top != partition.sdepth_value:
        return PartitionCheck(
            False,
            f"recorded value {partition.sdepth_value} differs from min top degree {min_top}",
        )
    return PartitionCheck(True)


def _quotas_feasible(poset: PosetLayers, k: int) -> bool:
    """False when some forced interval count n_a (see the module docstring) is negative."""
    d = poset.instance.d
    quotas: list[int] = []
    for t in range(d, k + 1):
        n_t = poset.rho(t) - sum(n_a * comb(k - a, t - a) for a, n_a in enumerate(quotas, start=d))
        if n_t < 0:
            return False
        quotas.append(n_t)
    return True


def _search(masks: tuple[int, ...], index: dict[int, int], size: int, candidates: list[list[int]]):
    """Exact cover of positions 0..size-1 by intervals [u, v], v from ``candidates[u]``.

    Returns the (bottom, top) positions of the cover in placement order, or
    None.  Interval bitmasks are built on first use from the submasks of
    v \\ u; convexity puts every one of them in ``index``.
    """
    full = (1 << size) - 1
    intervals: dict[tuple[int, int], int] = {}
    failed: set[int] = set()
    stack: list[tuple[int, int, int, int]] = []  # (cover, u, next candidate position, chosen v)
    cover, u, pos = 0, 0, 0
    while True:
        cands = candidates[u]
        while pos < len(cands):
            v = cands[pos]
            pos += 1
            bits = intervals.get((u, v))
            if bits is None:
                low, between = masks[u], masks[v] & ~masks[u]
                bits, sub = 0, between
                while True:
                    bits |= 1 << index[low | sub]
                    if not sub:
                        break
                    sub = (sub - 1) & between
                intervals[(u, v)] = bits
            if bits & cover:
                continue
            grown = cover | bits
            if grown == full:
                return [(f[1], f[3]) for f in stack] + [(u, v)]
            if grown in failed:
                continue
            stack.append((cover, u, pos, v))
            cover = grown
            free = ~cover & full
            u = (free & -free).bit_length() - 1
            pos = 0
            cands = candidates[u]
        if len(failed) < _FAILED_STATES_CAP:
            failed.add(cover)
        if not stack:
            return None
        cover, u, pos, _ = stack.pop()


def partition_exists(poset: PosetLayers, k: int) -> IntervalPartition | None:
    """A partition with every top of degree >= k, if one exists.

    Rejects k at once when the counting quotas fail, then searches P<=k for
    a partition into intervals with tops of degree exactly k; the witness is
    those intervals followed by a singleton for each element of degree > k,
    in canonical order.  See the module docstring for why this is exact.
    A k that is not an int, or is below d, raises :class:`InputError`.
    """
    inst = PosetLayers.require(poset).instance
    if isinstance(k, bool) or not isinstance(k, int):
        raise InputError(f"target must be an int, got {k!r}")
    if k < inst.d:
        raise InputError(f"target {k} is below the minimal poset degree {inst.d}")
    if not _quotas_feasible(poset, k):
        return None
    masks = poset.elements()
    index = {mask: i for i, mask in enumerate(masks)}
    size = sum(poset.rho(t) for t in range(inst.d, k + 1))
    candidates: list[list[int]] = [[] for _ in range(size)]
    for v in range(size - poset.rho(k), size):
        bits = [1 << j for j in range(inst.n) if masks[v] >> j & 1]
        for drop in range(k - inst.d + 1):
            for removed in combinations(bits, drop):
                u = index.get(masks[v] - sum(removed))
                if u is not None:
                    candidates[u].append(v)
    if not all(candidates):
        return None
    picks = _search(masks, index, size, candidates)
    if picks is None:
        return None
    n = inst.n
    intervals = tuple(Interval(Monomial(n, masks[u]), Monomial(n, masks[v])) for u, v in picks)
    intervals += tuple(Interval(w, w) for w in (Monomial(n, m) for m in masks[size:]))
    return IntervalPartition(intervals=intervals, sdepth_value=k)


def stanley_depth(poset: PosetLayers) -> tuple[int, IntervalPartition]:
    """The largest feasible target together with a witness partition.

    Descends from the largest degree present in the poset, calling
    :func:`partition_exists` once per target; the floor k = d is always
    feasible (singleton intervals), so a witness always exists.
    """
    inst = PosetLayers.require(poset).instance
    top_degree = max(t for t in range(inst.d, inst.n + 1) if poset.layer(t))
    for k in range(top_degree, inst.d - 1, -1):
        partition = partition_exists(poset, k)
        if partition is not None:
            return k, partition
    raise AssertionError("unreachable: singleton partition at k = d always exists")
