"""Stanley depth via interval partitions of the quotient poset.

An interval [u, v] collects every poset monomial w with u | w and w | v.
A partition of the whole poset into disjoint intervals witnesses the value
min over intervals of deg(top); the Stanley depth is the maximum of that
value over all partitions.

Feasibility for a fixed target k (every top of degree >= k) is decided by
exact-cover backtracking: repeatedly take the canonically smallest uncovered
element u, branch over the candidate tops v (multiples of u in the poset
with deg v >= k whose interval is fully uncovered), and backtrack on dead
ends.  Candidate tops are tried by degree descending, then lexicographically,
so returned witnesses are reproducible.  The overall value is found by
descending k from the largest degree present; k = d is always feasible via
singleton intervals, so the search terminates with a witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .monomials import Monomial, QuotientInstance
from .poset import enumerate_quotient, poset_elements

_FAILED_STATES_CAP = 1 << 18


@dataclass(frozen=True)
class Interval:
    """A divisibility interval [bottom, top] inside the quotient poset."""

    bottom: Monomial
    top: Monomial

    def members(self, inst: QuotientInstance) -> tuple[Monomial, ...]:
        """All poset monomials between bottom and top, canonical order."""
        return tuple(
            m
            for m in poset_elements(inst)
            if self.bottom.mask & ~m.mask == 0 and m.mask & ~self.top.mask == 0
        )


@dataclass(frozen=True)
class IntervalPartition:
    """A disjoint interval cover of the quotient poset and the value it witnesses."""

    intervals: tuple[Interval, ...]
    sdepth_value: int

    def to_json_list(self) -> list[dict]:
        return [
            {"bottom": list(iv.bottom.support), "top": list(iv.top.support)}
            for iv in self.intervals
        ]


@dataclass(frozen=True)
class PartitionCheck:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_partition(inst: QuotientInstance, partition: IntervalPartition) -> PartitionCheck:
    """Re-check a partition from scratch: interval validity, disjointness, coverage.

    Interval membership is re-derived over all square-free monomials between
    bottom and top, so a top or an inner point escaping the poset is caught
    even though valid endpoints make that impossible.
    """
    poset = poset_elements(inst)
    poset_masks = {m.mask for m in poset}
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
    if len(covered) != len(poset):
        missing = next(m for m in poset if m.mask not in covered)
        return PartitionCheck(False, f"element {missing} is not covered")
    if min_top != partition.sdepth_value:
        return PartitionCheck(
            False,
            f"recorded value {partition.sdepth_value} differs from min top degree {min_top}",
        )
    return PartitionCheck(True)


def _search_tables(inst: QuotientInstance):
    elements = poset_elements(inst)
    index = {m.mask: i for i, m in enumerate(elements)}
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
    return elements, index, multiples, interval_bits


def partition_exists(inst: QuotientInstance, k: int) -> IntervalPartition | None:
    """A partition with every top of degree >= k, if one exists.

    Deterministic exact-cover backtracking over the poset elements; see the
    module docstring for the branch order.
    """
    if k < inst.d:
        raise InputError(f"target {k} is below the minimal poset degree {inst.d}")
    elements, _, multiples, interval_bits = _search_tables(inst)
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
        if len(failed) < _FAILED_STATES_CAP:
            failed.add(cover)
        return None

    picks = solve(0)
    if picks is None:
        return None
    intervals = tuple(Interval(elements[u], elements[v]) for u, v in picks)
    value = min(iv.top.degree for iv in intervals)
    return IntervalPartition(intervals=intervals, sdepth_value=value)


def stanley_depth(inst: QuotientInstance) -> tuple[int, IntervalPartition]:
    """The largest feasible target together with a witness partition.

    Descends from the largest degree present in the poset; the floor k = d
    is always feasible (singleton intervals), so a witness always exists.
    """
    layers = enumerate_quotient(inst)
    top_degree = max(t for t in range(inst.d, inst.n + 1) if layers.layer(t))
    for k in range(top_degree, inst.d - 1, -1):
        partition = partition_exists(inst, k)
        if partition is not None:
            return k, partition
    raise AssertionError("unreachable: singleton partition at k = d always exists")
