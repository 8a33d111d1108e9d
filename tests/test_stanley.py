"""Interval partitions: verification, feasibility search, and scans."""

from __future__ import annotations

import random
import re
import signal
import sys
from itertools import combinations

import pytest

from sqfdepth import (
    GF2,
    InputError,
    Interval,
    IntervalPartition,
    analyze,
    conjecture_scan,
    enumerate_quotient,
    parse_instance,
    partition_exists,
    random_instance,
    stanley_depth,
    validate_pair,
    verify_partition,
)

from oracles import (
    brute_stanley_depth,
    counting_bound,
    exact_depth,
    hypothesis_violating_instances,
    interval_members,
    mask,
    mono,
    paper_instance,
    poset_elements,
    pure_powers_instance,
    rho,
    untruncated_stanley_depth,
)


def fuzz_instances(n_values=(3, 4, 5), per_n=15, seed=55):
    out = []
    for n in n_values:
        rng = random.Random(seed + n)
        out.extend(random_instance(n, rng) for _ in range(per_n))
    return out


def test_verify_partition_accepts_hand_witness():
    inst = paper_instance()
    partition = IntervalPartition(
        intervals=(
            Interval(mono(4, 1), mono(4, 1, 2, 3)),
            Interval(mono(4, 3), mono(4, 2, 3, 4)),
        ),
        sdepth_value=3,
    )
    check = verify_partition(inst, partition)
    assert check.ok, check.reason
    assert len(interval_members(partition.intervals[0], inst)) == 4


@pytest.mark.parametrize("partition, message", [
    (None, "expected an IntervalPartition, got None"),
    ((), "expected an IntervalPartition, got ()"),
    (IntervalPartition(intervals=(None,), sdepth_value=3), "expected an Interval, got None"),
    (
        IntervalPartition(intervals=((mono(4, 1), mono(4, 1, 2, 3)),), sdepth_value=3),
        "expected an Interval, got (Monomial(n=4, mask=1), Monomial(n=4, mask=7))",
    ),
    # Interval and IntervalPartition check nothing when built; the checker does.
    (IntervalPartition(intervals=5, sdepth_value=3), "expected a sequence of Intervals, got 5"),
    (
        IntervalPartition(intervals=(Interval(1, 2),), sdepth_value=3),
        "expected an Interval with Monomial ends, got Interval(bottom=1, top=2)",
    ),
    (
        IntervalPartition(intervals=(Interval(mono(4, 1), 7),), sdepth_value=3),
        "expected an Interval with Monomial ends, got Interval(bottom=Monomial(n=4, mask=1), top=7)",
    ),
])
def test_verify_partition_rejects_what_is_not_a_partition_of_intervals(partition, message):
    with pytest.raises(InputError) as info:
        verify_partition(paper_instance(), partition)
    assert str(info.value) == message


def test_verify_partition_rejects_uncovered_element():
    inst = paper_instance()
    partition = IntervalPartition(
        intervals=(Interval(mono(4, 1), mono(4, 1, 2, 3)),), sdepth_value=3
    )
    check = verify_partition(inst, partition)
    assert not check.ok
    assert "not covered" in check.reason


def test_verify_partition_rejects_top_outside_poset():
    # Each endpoint check runs before the interval's members are walked: the
    # ambient, divisibility, then bottom and top in the poset.
    inst = paper_instance()
    witness = Interval(mono(4, 1), mono(4, 1, 2, 3))
    cases = [
        (Interval(mono(4, 1, 3), mono(4, 1, 2, 3, 4)), "top x1*x2*x3*x4 is not in the poset"),
        (Interval(mono(4, 2), mono(4, 2, 3)), "bottom x2 is not in the poset"),
        (Interval(mono(4, 1, 2), mono(4, 1, 3)), "bottom x1*x2 does not divide top x1*x3"),
        (Interval(mono(5, 3), mono(5, 2, 3, 4)), "interval [x3, x2*x3*x4] has wrong ambient"),
        (Interval(mono(4, 3), mono(5, 2, 3, 4)), "interval [x3, x2*x3*x4] has wrong ambient"),
    ]
    for interval, reason in cases:
        check = verify_partition(inst, IntervalPartition(intervals=(witness, interval), sdepth_value=3))
        assert not check.ok
        assert check.reason == reason


def test_verify_partition_rejects_overlap():
    inst = paper_instance()
    partition = IntervalPartition(
        intervals=(
            Interval(mono(4, 1), mono(4, 1, 2, 3)),
            Interval(mono(4, 1, 3), mono(4, 1, 2, 3)),
            Interval(mono(4, 3), mono(4, 2, 3, 4)),
        ),
        sdepth_value=3,
    )
    check = verify_partition(inst, partition)
    assert not check.ok
    assert "overlap" in check.reason


def test_verify_partition_rejects_wrong_recorded_value():
    inst = paper_instance()
    partition = IntervalPartition(
        intervals=(
            Interval(mono(4, 1), mono(4, 1, 2, 3)),
            Interval(mono(4, 3), mono(4, 2, 3, 4)),
        ),
        sdepth_value=2,
    )
    assert not verify_partition(inst, partition).ok


def test_partition_exists_golden():
    inst = paper_instance()
    found = partition_exists(enumerate_quotient(inst), 3)
    assert found is not None
    assert found.sdepth_value >= 3
    assert verify_partition(inst, found).ok
    assert partition_exists(enumerate_quotient(inst), 4) is None
    with pytest.raises(InputError):
        partition_exists(enumerate_quotient(inst), 0)


@pytest.mark.parametrize("k", [True, False, 2.5, "3", None])
def test_partition_exists_rejects_a_target_that_is_not_an_int(k):
    # k=True passed the degree check and came back as a witness of value True.
    with pytest.raises(InputError, match=f"^target must be an int, got {re.escape(repr(k))}$"):
        partition_exists(enumerate_quotient(paper_instance()), k)


def test_partition_exists_at_floor_is_always_feasible():
    for inst in fuzz_instances():
        found = partition_exists(enumerate_quotient(inst), inst.d)
        assert found is not None
        assert verify_partition(inst, found).ok


def test_stanley_depth_golden_values():
    value, witness = stanley_depth(enumerate_quotient(paper_instance()))
    assert value == 3
    assert verify_partition(paper_instance(), witness).ok

    value, witness = stanley_depth(enumerate_quotient(pure_powers_instance()))
    assert value == 1
    assert all(iv.bottom == iv.top for iv in witness.intervals)

    cone = validate_pair(2, [mask(2, 1)], [])
    value, witness = stanley_depth(enumerate_quotient(cone))
    assert value == 2
    assert len(witness.intervals) == 1


def test_full_variable_ideal_matches_known_values():
    # the ideal of all variables: sdepth is ceil(n/2), depth is 1
    for n in range(2, 7):
        gens = [mask(n, j) for j in range(1, n + 1)]
        inst = validate_pair(n, gens, [])
        value, witness = stanley_depth(enumerate_quotient(inst))
        assert value == -(-n // 2)
        assert verify_partition(inst, witness).ok
        assert exact_depth(inst) == 1
        assert exact_depth(inst, GF2) == 1


def test_monotone_feasibility():
    for inst in fuzz_instances(per_n=8):
        value, _ = stanley_depth(enumerate_quotient(inst))
        for k in range(inst.d, value + 1):
            assert partition_exists(enumerate_quotient(inst), k) is not None


def test_witnesses_always_verify():
    for inst in fuzz_instances(per_n=10, seed=91):
        value, witness = stanley_depth(enumerate_quotient(inst))
        assert witness.sdepth_value == value
        assert verify_partition(inst, witness).ok


def test_sdepth_capped_by_top_degree_and_gap_rule():
    for inst in fuzz_instances(per_n=10, seed=14):
        value, _ = stanley_depth(enumerate_quotient(inst))
        top = max(m.degree for m in poset_elements(inst))
        assert value <= top
        if rho(inst, inst.d + 2) == 0:
            assert value <= inst.d + 1


def test_backtracking_agrees_with_bruteforce_on_small_posets():
    checked = 0
    for inst in fuzz_instances(n_values=(3, 4), per_n=25, seed=33):
        if len(poset_elements(inst)) > 12:
            continue
        value, _ = stanley_depth(enumerate_quotient(inst))
        assert value == brute_stanley_depth(inst)
        checked += 1
    assert checked >= 20


def test_truncated_search_matches_untruncated_reference():
    instances = fuzz_instances(n_values=(3, 4, 5, 6), per_n=25, seed=61) + hypothesis_violating_instances()
    for inst in instances:
        value, witness = stanley_depth(enumerate_quotient(inst))
        assert value == untruncated_stanley_depth(inst)[0], inst
        check = verify_partition(inst, witness)
        assert check.ok, (inst, check.reason)
        assert counting_bound(inst) >= value, inst


def test_maximal_ideal_n8_has_sdepth_four():
    inst = validate_pair(8, [mask(8, j) for j in range(1, 9)], [])
    value, witness = stanley_depth(enumerate_quotient(inst))
    assert value == 4
    assert verify_partition(inst, witness).ok


def test_stanley_depth_needs_no_recursion():
    # One layer of 210 elements: the witness is 210 singletons, one search
    # level each, far past the lowered recursion limit.
    inst = validate_pair(
        10,
        [mask(10, *c) for c in combinations(range(1, 11), 4)],
        [mask(10, *c) for c in combinations(range(1, 11), 5)],
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        value, witness = stanley_depth(enumerate_quotient(inst))
    finally:
        sys.setrecursionlimit(limit)
    assert value == 4
    assert len(witness.intervals) == 210
    assert verify_partition(inst, witness).ok


# Draw 190 of random_instance(10, random.Random(1010)): |P| = 312,
# d = 2.  Counting allows target 8 and the search must refute it, which it
# does in under a second by skipping covers already proven to fail; without
# that memo the same search was still running after two and a half minutes.
FAILED_COVER_MEMO_N10 = (
    '{"n": 10, "I": [[6, 7], [1, 9, 10], [2, 3, 4, 5], [4, 5, 7, 8, 10]], '
    '"J": [[1, 5, 9, 10], [1, 2, 6, 7, 9], [2, 3, 4, 6, 7, 8, 9, 10], [1, 2, 3, 4, 5, 6, 7, 8, 10]]}'
)


def test_failed_cover_memo_keeps_a_refuted_target_fast():
    inst = parse_instance(FAILED_COVER_MEMO_N10)
    poset = enumerate_quotient(inst)
    assert len(poset.elements()) == 312

    def out_of_time(signum, frame):
        raise TimeoutError("stanley_depth used more than 10 s of CPU")

    handler = signal.signal(signal.SIGPROF, out_of_time)
    timer = signal.setitimer(signal.ITIMER_PROF, 10.0)
    try:
        value, witness = stanley_depth(poset)
    finally:
        signal.setitimer(signal.ITIMER_PROF, *timer)
        signal.signal(signal.SIGPROF, handler)
    assert value == 7
    assert verify_partition(inst, witness).ok


def test_conjecture_scan_empty():
    report = conjecture_scan(4, count=0, seed=1)
    assert report.records == []
    assert report.stanley_violations == []


@pytest.mark.parametrize("count", [-1, 2.5, True, "3", None])
def test_conjecture_scan_rejects_a_count_that_is_not_a_nonnegative_int(count):
    with pytest.raises(InputError, match=f"count must be a nonnegative int, got {re.escape(repr(count))}$"):
        conjecture_scan(3, count=count, seed=0)


@pytest.mark.parametrize("count", [0, 3])
@pytest.mark.parametrize("cap", [True, -1, 2.5, "40"])
def test_conjecture_scan_rejects_a_cap_that_is_not_a_nonnegative_int(cap, count):
    with pytest.raises(InputError, match=f"^sdepth_poset_cap must be a nonnegative int, got {re.escape(repr(cap))}$"):
        conjecture_scan(3, count=count, seed=0, sdepth_poset_cap=cap)


@pytest.mark.parametrize("count", [0, 3])
@pytest.mark.parametrize("seed", [[1], None, "abc", 2.5, True])
def test_conjecture_scan_rejects_a_seed_that_is_not_an_int(seed, count):
    with pytest.raises(InputError, match=f"^seed must be an int, got {re.escape(repr(seed))}$"):
        conjecture_scan(3, count=count, seed=seed)


def test_conjecture_scan_takes_a_negative_seed():
    report = conjecture_scan(3, count=3, seed=-7)
    assert report.seed == -7 and len(report.records) == 3


def test_conjecture_scan_zero_cap_skips_every_search():
    report = conjecture_scan(3, count=5, seed=0, sdepth_poset_cap=0)
    assert report.skipped_sdepth == [0, 1, 2, 3, 4]
    assert [r.sdepth for r in report.records] == [None] * 5


def test_conjecture_scan_small_run():
    report = conjecture_scan(4, count=50, seed=9, sdepth_poset_cap=None)
    assert len(report.records) == 50
    assert report.stanley_violations == []
    for record in report.records:
        assert record.sdepth is not None
        assert record.sdepth >= max(record.depth.values()) or record.index in report.stanley_violations


def test_conjecture_scan_deterministic():
    a = conjecture_scan(5, count=30, seed=4, sdepth_poset_cap=None)
    b = conjecture_scan(5, count=30, seed=4, sdepth_poset_cap=None)
    assert a == b


def test_conjecture_scan_records_hold_their_instances():
    # Each record carries the drawn instance itself, so analyzing it again
    # gives the record's own depths and Stanley depth.
    report = conjecture_scan(4, count=20, seed=3)
    assert len(report.records) == 20
    for record in report.records:
        again = analyze(record.instance)
        assert again.depth == record.depth
        assert again.sdepth == record.sdepth


def test_conjecture_scan_respects_poset_cap():
    report = conjecture_scan(6, count=40, seed=2, sdepth_poset_cap=5)
    for record in report.records:
        if record.index in report.skipped_sdepth:
            assert record.sdepth is None
        else:
            assert record.sdepth is not None
