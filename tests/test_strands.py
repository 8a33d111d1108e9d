"""Strand construction, boundary signs, homology, and exact depth."""

from __future__ import annotations

import itertools
import random
import re
from functools import reduce
from operator import or_

import pytest

import sqfdepth.certificates as certificates_module
import sqfdepth.strands as strands_module
from sqfdepth import (
    GF2,
    RATIONALS,
    analyze,
    check_rank_split,
    InputError,
    Monomial,
    build_strand,
    enumerate_quotient,
    exact_depth_multi,
    random_instance,
    validate_pair,
)
from sqfdepth.linalg import rank_bareiss, rank_gf2, rank_mod_p
from sqfdepth.monomials import support_of
from sqfdepth.strands import strand_rank

from oracles import (
    GF3,
    all_strands,
    boundary,
    boundary_sign,
    brute_multidegree_homology,
    census_instances,
    compose_is_zero,
    exact_depth,
    from_rows,
    homology_profile,
    hypothesis_violating_instances,
    local_cohomology_depth,
    mask,
    mono,
    paper_instance,
    paper_instance_jprime,
    patch_everywhere,
    pure_powers_instance,
    rank,
    rp2_cone_instance,
    strand_homology,
    supports,
    unscreened_depth_multi,
)


def fuzz_instances(n_values=(3, 4, 5), per_n=15, seed=31):
    out = []
    for n in n_values:
        rng = random.Random(seed * 10 + n)
        out.extend(random_instance(n, rng) for _ in range(per_n))
    return out


FULL4 = Monomial(4, 0b1111)


def test_boundary_sign_examples():
    assert boundary_sign(mono(4, 1), mono(4, 1, 2), FULL4) == 1
    assert boundary_sign(mono(4, 1), mono(4, 1, 3), FULL4) == -1
    assert boundary_sign(mono(4, 1), mono(4, 2, 3), FULL4) == 0
    # same degree or degree gap > 1 contribute nothing
    assert boundary_sign(mono(4, 1), mono(4, 1), FULL4) == 0
    assert boundary_sign(mono(4, 1), mono(4, 1, 2, 3), FULL4) == 0


def test_paper_full_strand_layout():
    strand = build_strand(enumerate_quotient(paper_instance()), FULL4.mask)
    assert supports(4, strand.basis(3)) == [(1,), (3,)]
    assert supports(4, strand.basis(2)) == [(1, 2), (1, 3), (2, 3), (3, 4)]
    assert supports(4, strand.basis(1)) == [(1, 2, 3), (2, 3, 4)]
    assert strand.basis(0) == ()
    assert boundary(strand, 3).entries == ((1, 0), (-1, 1), (0, -1), (0, 1))
    assert boundary(strand, 2).entries == ((1, 1, 1, 0), (0, 0, -1, -1))
    assert boundary(strand, 4).cols == 0


def test_strand_at_multidegree_x1x4():
    strand = build_strand(enumerate_quotient(paper_instance()), mono(4, 1, 4).mask)
    assert supports(4, strand.basis(1)) == [(1,)]
    assert strand.basis(0) == ()
    b = boundary(strand, 1)
    assert (b.rows, b.cols) == (0, 1)


def test_empty_multidegree_strand_is_empty():
    strand = build_strand(enumerate_quotient(paper_instance()), 0)
    assert not any(strand.bases)


def test_paper_full_strand_is_exact_but_x1x3_carries_homology():
    inst = paper_instance()
    assert strand_homology(inst, FULL4, RATIONALS) == {1: 0, 2: 0, 3: 0}
    assert strand_homology(inst, mono(4, 1, 3), RATIONALS) == {0: 0, 1: 1}
    profile = homology_profile(inst, RATIONALS)
    assert profile.max_nonzero == 1


def test_homology_profile_jprime_peaks_at_full_multidegree():
    profile = homology_profile(paper_instance_jprime(), RATIONALS)
    assert profile.max_nonzero == 2
    assert (FULL4, 2, 1) in profile.per_strand


def test_boundary_sign_requires_divisors_of_ambient():
    with pytest.raises(InputError):
        boundary_sign(mono(4, 1), mono(4, 1, 2), mono(4, 1, 3))


def test_free_module_strand_has_homology_only_at_bottom():
    inst = validate_pair(2, [mask(2, 1, 2)], [])
    dims = strand_homology(inst, mono(2, 1, 2), RATIONALS)
    assert dims[0] == 1
    assert all(v == 0 for i, v in dims.items() if i > 0)
    assert exact_depth(inst, RATIONALS) == 2


def test_exact_depth_golden_values():
    assert exact_depth(paper_instance(), RATIONALS) == 3
    assert exact_depth(paper_instance(), GF2) == 3
    assert exact_depth(paper_instance_jprime(), RATIONALS) == 2
    assert exact_depth(paper_instance_jprime(), GF2) == 2
    assert exact_depth(pure_powers_instance(), RATIONALS) == 1


def test_exact_depth_multi_matches_single_field():
    inst = paper_instance_jprime()
    multi = exact_depth_multi(enumerate_quotient(inst), (RATIONALS, GF2, GF3))
    assert multi == {RATIONALS: 2, GF2: 2, GF3: 2}


def test_boundary_squares_to_zero_everywhere():
    for inst in fuzz_instances():
        for strand in all_strands(inst):
            for i in strand.chain_degrees():
                assert compose_is_zero(boundary(strand, i), boundary(strand, i + 1))


def test_boundary_matrices_match_boundary_sign():
    for inst in fuzz_instances(n_values=(3, 4), per_n=6):
        for strand in all_strands(inst):
            a = Monomial(inst.n, strand.multidegree)
            for i in strand.chain_degrees():
                if i == 0:
                    continue
                mat = boundary(strand, i)
                for k, b in enumerate(strand.basis(i - 1)):
                    for q, f in enumerate(strand.basis(i)):
                        assert mat.entries[k][q] == boundary_sign(Monomial(inst.n, f), Monomial(inst.n, b), a)


def test_depth_within_bounds_on_fuzz():
    for inst in fuzz_instances(n_values=(3, 4, 5, 6, 7), per_n=6):
        assert inst.hypothesis_flag
        for field in (RATIONALS, GF2):
            depth = exact_depth(inst, field)
            assert inst.d <= depth <= inst.n


def test_ranks_invariant_under_random_resigning():
    rng = random.Random(12)
    for inst in fuzz_instances(per_n=5):
        for strand in all_strands(inst):
            for i in strand.chain_degrees():
                m = boundary(strand, i)
                if not (m.rows and m.cols):
                    continue
                row_signs = [rng.choice((1, -1)) for _ in range(m.rows)]
                col_signs = [rng.choice((1, -1)) for _ in range(m.cols)]
                resigned = from_rows(
                    [
                        [row_signs[r] * col_signs[c] * m.entries[r][c] for c in range(m.cols)]
                        for r in range(m.rows)
                    ]
                )
                for f in (RATIONALS, GF2, GF3):
                    assert rank(m, f) == rank(resigned, f)


def _restrict(inst, a):
    """The instance cut down to the variables of a, renumbered increasingly."""
    positions = {j: k + 1 for k, j in enumerate(a.support)}
    k = len(positions)
    gens_i = [mask(k, *(positions[j] for j in support_of(g))) for g in inst.gens_i if g & ~a.mask == 0]
    gens_j = [mask(k, *(positions[j] for j in support_of(g))) for g in inst.gens_j if g & ~a.mask == 0]
    return validate_pair(k, gens_i, gens_j)


def test_strand_locality_against_restricted_instance():
    checked = 0
    for inst in fuzz_instances(n_values=(4, 5), per_n=10):
        for mask in range(1, 1 << inst.n):
            a = Monomial(inst.n, mask)
            strand = build_strand(enumerate_quotient(inst), mask)
            if not any(strand.bases) or mask == (1 << inst.n) - 1:
                continue
            try:
                sub = _restrict(inst, a)
            except InputError:
                continue
            sub_strand = build_strand(enumerate_quotient(sub), (1 << sub.n) - 1)
            assert [len(strand.basis(i)) for i in strand.chain_degrees()] == [
                len(sub_strand.basis(i)) for i in sub_strand.chain_degrees()
            ]
            for i in strand.chain_degrees():
                assert boundary(strand, i).entries == boundary(sub_strand, i).entries
            checked += 1
    assert checked > 20


def test_square_free_strands_agree_with_multidegree_oracle():
    for inst in fuzz_instances(n_values=(3, 4), per_n=8):
        for mask in range(1, 1 << inst.n):
            a = Monomial(inst.n, mask)
            exponents = tuple(1 if mask >> j & 1 else 0 for j in range(inst.n))
            for field in (RATIONALS, GF2):
                expected = brute_multidegree_homology(inst, exponents, field)
                got = strand_homology(inst, a, field)
                assert {i: v for i, v in got.items() if v} == {
                    i: v for i, v in expected.items() if v
                }


SCREEN_FIELDS = (RATIONALS, GF2, GF3)


def test_screened_depth_matches_unscreened_reference():
    instances = fuzz_instances() + hypothesis_violating_instances() + [rp2_cone_instance()]
    for inst in instances:
        assert exact_depth_multi(enumerate_quotient(inst), SCREEN_FIELDS) == unscreened_depth_multi(inst, SCREEN_FIELDS), inst


def test_depth_matches_the_local_cohomology_oracle():
    # Hochster's formula on relative links shares no enumeration, strand or
    # elimination code with the package's depth scan.
    instances = (
        [inst for n in (1, 2, 3) for inst in census_instances(n)]
        + hypothesis_violating_instances()
        + [rp2_cone_instance()]
    )
    for inst in instances:
        depths = exact_depth_multi(enumerate_quotient(inst), SCREEN_FIELDS)
        assert {f: local_cohomology_depth(inst, f) for f in SCREEN_FIELDS} == depths, inst
    assert [local_cohomology_depth(rp2_cone_instance(), f) for f in SCREEN_FIELDS] == [4, 3, 4]


def test_depth_matches_the_local_cohomology_oracle_on_every_quotient_in_four_variables():
    instances = census_instances(4)
    assert len(instances) == 7246
    for inst in instances:
        assert exact_depth(inst, GF2) == local_cohomology_depth(inst, GF2), inst


def test_certified_rational_ranks_match_bareiss():
    # Every Q rank strand_rank returns, whether certified from GF(2) ranks or
    # eliminated, must equal the rank by Bareiss on the same rows: the ranks
    # an analysis computes through the poset's memo, and on the smaller
    # instances every map of every strand.
    instances = (
        fuzz_instances(n_values=(3, 4, 5, 6, 7, 8), per_n=40)
        + hypothesis_violating_instances()
        + [rp2_cone_instance()]
    )
    checked = 0
    for inst in instances:
        poset = enumerate_quotient(inst)
        exact_depth_multi(poset, (RATIONALS, GF2))
        check_rank_split(poset, RATIONALS)
        for (mask, i, p), r in poset.ranks.items():
            if p is None:
                assert r == rank(boundary(build_strand(poset, mask), i), RATIONALS), (inst, mask, i)
                checked += 1
        if inst.n > 6:
            continue
        for strand in all_strands(inst):
            for i in strand.chain_degrees():
                assert strand_rank(strand, i, RATIONALS) == rank(boundary(strand, i), RATIONALS), (inst, i)
                checked += 1
    assert checked > 30000


def test_torsion_instance_separates_q_from_gf2():
    # GF(2) homology is nonzero where rational homology vanishes: the screen
    # must hand that degree to Bareiss rather than conclude from GF(2).
    inst = rp2_cone_instance()
    assert exact_depth_multi(enumerate_quotient(inst), SCREEN_FIELDS) == {RATIONALS: 4, GF2: 3, GF3: 4}
    assert exact_depth(inst, RATIONALS) == 4


def test_each_poset_owns_its_rank_memo():
    inst = paper_instance()
    p, q = enumerate_quotient(inst), enumerate_quotient(inst)
    assert p == q and p.ranks is not q.ranks
    assert all(build_strand(p, a).ranks is p.ranks for a in range(1 << inst.n))
    exact_depth_multi(p, SCREEN_FIELDS)
    assert p.ranks and q.ranks == {}
    assert p == q and "ranks" not in repr(p)


def _fresh_results(inst, fields):
    poset = enumerate_quotient(inst)
    depths = exact_depth_multi(poset, fields)
    return depths, [c for f in fields for c in check_rank_split(poset, f)]


def test_a_run_on_one_poset_leaves_the_next_one_fresh(monkeypatch):
    # A rank memo keyed by multidegree alone, once filled on one instance and
    # handed to the next, made that one read ranks of the wrong strands.  Each
    # poset now carries its own memo: analyze runs on the first poset of each
    # pair, and the second must still get the results of a fresh enumeration.
    first = validate_pair(4, [mask(4, 2), mask(4, 1, 3)], [mask(4, 2, 4), mask(4, 1, 2, 3), mask(4, 1, 3, 4)])
    second = validate_pair(4, [mask(4, 3)], [mask(4, 1, 2, 3)])
    pairs = [(first, second)]
    rng = random.Random(5)
    for n in (3, 4, 5, 6):
        for _ in range(25):
            pairs.append((random_instance(n, rng), random_instance(n, rng)))
    for inst_a, inst_b in pairs:
        expected = _fresh_results(inst_b, SCREEN_FIELDS)
        poset_a = enumerate_quotient(inst_a)
        with monkeypatch.context() as m:
            m.setattr(certificates_module, "enumerate_quotient", lambda inst: poset_a)
            assert analyze(inst_a, SCREEN_FIELDS, sdepth_poset_cap=0).consistent
        assert poset_a.ranks
        poset_b = enumerate_quotient(inst_b)
        depths = exact_depth_multi(poset_b, SCREEN_FIELDS)
        splits = [c for f in SCREEN_FIELDS for c in check_rank_split(poset_b, f)]
        assert (depths, splits) == expected, (inst_a, inst_b)
    depths, splits = _fresh_results(second, (RATIONALS, GF2))
    assert depths == {RATIONALS: 3, GF2: 3}
    assert [c.conclusions for c in splits] == [()] * 6


def _taylor_allows(inst, a, i, slack=0):
    """H_i at multidegree a needs a Taylor basis element there: a is the join
    of i+1 generators of I, or of i generators of J.  ``slack`` lowers both
    caps, to show the check can fail."""
    below_i = [g for g in inst.gens_i if g & ~a == 0]
    below_j = [g for g in inst.gens_j if g & ~a == 0]
    return (reduce(or_, below_i, 0) == a and i <= len(below_i) - 1 - slack) or (
        reduce(or_, below_j, 0) == a and i <= len(below_j) - slack
    )


def test_strand_homology_lies_in_the_taylor_allowance():
    # The argument in the strands module docstring, checked strand by strand:
    # Tor_i(I/J)_a sits between Tor_i(I)_a and Tor_(i-1)(J)_a, and the Taylor
    # resolutions place those in lcms of i+1 generators of I and i of J.
    rng = random.Random(61)
    instances = (
        census_instances(3)
        + hypothesis_violating_instances()
        + [rp2_cone_instance(), paper_instance(), paper_instance_jprime()]
        + [random_instance(n, rng) for n in (3, 4, 5, 6) for _ in range(20)]
    )
    nonzero = [
        (inst, a.mask, i)
        for inst in instances
        for field in SCREEN_FIELDS
        for a, i, _ in homology_profile(inst, field).per_strand
    ]
    assert [x for x in nonzero if not _taylor_allows(*x)] == []
    assert len(nonzero) == 4316
    assert sum(not _taylor_allows(*x, slack=1) for x in nonzero) == 4203


def test_rank_split_same_with_shared_or_fresh_cache():
    for inst in fuzz_instances(per_n=10) + hypothesis_violating_instances(count=60) + [rp2_cone_instance()]:
        poset = enumerate_quotient(inst)
        exact_depth_multi(poset, SCREEN_FIELDS)
        for f in SCREEN_FIELDS:
            shared = check_rank_split(poset, f)
            fresh = check_rank_split(enumerate_quotient(inst), f)
            assert shared == fresh, (inst, f)


def _spy_on_bareiss(monkeypatch) -> list[int]:
    """Replace rank_bareiss throughout the package; return the list of call sizes.

    Each call's rows must be hashable tuples.
    """
    calls: list[int] = []

    def spy(entries):
        assert all(isinstance(row, tuple) for row in entries)
        hash(tuple(entries))
        calls.append(len(entries))
        return rank_bareiss(entries)

    patch_everywhere(monkeypatch, rank_bareiss, spy)
    return calls


def test_bareiss_call_count_gate(monkeypatch):
    # Six 8-variable instances from seed 7: analyze over Q and GF(2)
    # made 1536 Bareiss calls before the GF(2) screen and the shared rank
    # cache, 20 with them, and none once a Q rank is certified from GF(2)
    # wherever either end of its map is exact mod 2.
    rng = random.Random(7)
    instances = [random_instance(8, rng) for _ in range(6)]
    calls = _spy_on_bareiss(monkeypatch)
    for inst in instances:
        assert analyze(inst, fields=(RATIONALS, GF2), sdepth_poset_cap=0).consistent
    assert len(calls) == 0


def band_instance(n, low, high):
    """I_{n,low}/I_{n,high}: all square-free monomials of degree low..high-1."""
    def layer(k):
        return [mask(n, *c) for c in itertools.combinations(range(1, n + 1), k)]

    return validate_pair(n, layer(low), layer(high))


def test_band_quotient_rank_split_needs_no_bareiss(monkeypatch):
    # The full strand of I_{10,3}/I_{10,6} carries homology in its degree-3
    # and degree-5 layers and is exact mod 2 in the degree-4 layer between
    # them.  The two maps at that layer fall short of full GF(2) rank; they
    # went to Bareiss (a 210x120 and a 252x210 matrix) until the exact layer
    # certified their Q ranks.
    inst = band_instance(10, 3, 6)
    calls = _spy_on_bareiss(monkeypatch)
    report = analyze(inst, fields=(RATIONALS, GF2), sdepth_poset_cap=0)
    assert report.consistent
    assert report.depth == {"q": 3, "gf:2": 3}
    assert calls == []


def test_torsion_instance_reaches_bareiss(monkeypatch):
    calls = _spy_on_bareiss(monkeypatch)
    assert exact_depth(rp2_cone_instance(), RATIONALS) == 4
    assert calls


def test_boundary_rows_are_built_once_and_only_for_a_rank(monkeypatch):
    # Building every map of every visited strand up front made 4,160 row
    # builds, 1,634 of them with an empty side, for 3,709 rank calls here.
    rng = random.Random(11)
    instances = [random_instance(n, rng) for n in (5, 6, 7, 8) for _ in range(8)]
    builds: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    rank_calls: list[str] = []
    build = strands_module._boundary_rows

    def build_spy(a, source, target):
        assert source and target  # a map with an empty side has rank 0 without rows
        builds.append((source, target))
        return build(a, source, target)

    def rank_spy(fn):
        def spy(*args):
            rank_calls.append(fn.__name__)
            return fn(*args)
        return spy

    monkeypatch.setattr(strands_module, "_boundary_rows", build_spy)
    for fn in (rank_bareiss, rank_gf2, rank_mod_p):
        patch_everywhere(monkeypatch, fn, rank_spy(fn))
    for inst in instances:
        assert analyze(inst, fields=(RATIONALS, GF2, GF3), sdepth_poset_cap=0).consistent
    # Nonempty bases are fresh tuples of one strand, and ``builds`` keeps them
    # alive, so the pair of their ids names one (strand, chain degree).
    keys = [(id(source), id(target)) for source, target in builds]
    assert len(set(keys)) == len(keys)
    assert 0 < len(builds) <= len(rank_calls)


@pytest.mark.parametrize("a", [-3, -7, 1 << 4, 0b11111, 2.5, True, "15", None])
def test_build_strand_rejects_a_multidegree_that_is_not_a_support_mask(a):
    # The paper instance has n = 4.  Unchecked, a negative mask sends the
    # boundary rows of its strand into an endless loop and a mask of 2^4 or
    # more builds a shifted strand, so only build_strand is called here.
    poset = enumerate_quotient(paper_instance())
    with pytest.raises(InputError, match=f"^multidegree {re.escape(repr(a))} is not a support mask below 2\\^4$"):
        build_strand(poset, a)
    assert build_strand(poset, 0).bases == ((),)
    assert build_strand(poset, 0b1111).multidegree == 0b1111
