"""Acceptance suite: one test per criterion, one PASS line each.

The heavy criteria (soundness, rank identity, chain validity, sandwich,
cross-field sanity) share a single seeded sweep of 500 instances at each
n in {4, 5, 6, 7}, evaluated once per session.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import combinations, product

import pytest

from sqfdepth import (
    ALTERNATING_DROP,
    GF2,
    RANK_SPLIT,
    RATIONALS,
    Monomial,
    analyze,
    conjecture_scan,
    enumerate_quotient,
    exact_depth_multi,
    parse_instance,
    random_instance,
    stanley_depth,
    validate_pair,
    verify_partition,
)
from sqfdepth.generate import default_params
from sqfdepth.linalg import rank_bareiss, rank_gf2, rank_mod_p

from oracles import (
    GF3,
    all_strands,
    boundary,
    brute_multidegree_homology,
    brute_stanley_depth,
    compose_is_zero,
    poset_elements,
    rank_fraction_gauss,
    rho,
    supports,
)

PAPER = '{"n":4,"I":[[1],[3]],"J":[[1,4]]}'
PAPER_JPRIME = '{"n":4,"I":[[1],[3]],"J":[[1,4],[2,3,4]]}'

SWEEP_PER_N = 500
SWEEP_NS = (4, 5, 6, 7)
FIELD_LABELS = ("q", "gf:2", "gf:3")


def mono(n, *indices):
    return Monomial.from_support(n, indices)


@dataclass
class SweepData:
    instances: int = 0
    fired_certificates: int = 0
    analyze_elapsed: float = 0.0
    strand_elapsed: float = 0.0
    strands_checked: int = 0
    matrices_checked: int = 0
    rank_split_checks: int = 0
    sandwich_checks: int = 0
    inconsistencies: list = field(default_factory=list)
    rank_split_failures: list = field(default_factory=list)
    sandwich_failures: list = field(default_factory=list)
    compose_failures: list = field(default_factory=list)
    route_mismatches: list = field(default_factory=list)
    crossfield_failures: list = field(default_factory=list)
    depth_recheck_failures: list = field(default_factory=list)


def _independent_strand_pass(inst, data: SweepData, depths: dict[str, int]) -> None:
    """Re-derive depth from scratch per field while checking every matrix."""
    best = {label: -1 for label in FIELD_LABELS}
    for strand in all_strands(inst):
        data.strands_checked += 1
        top = len(strand.bases) - 1
        ranks = {label: [0] * (top + 2) for label in FIELD_LABELS}
        for i in range(1, top + 1):
            mat = boundary(strand, i)
            if mat.rows and mat.cols:
                data.matrices_checked += 1
                rq = rank_bareiss(mat.entries)
                if rq != rank_fraction_gauss(mat.entries):
                    data.route_mismatches.append(f"{inst} strand {strand.multidegree} i={i}")
                r2 = rank_gf2(mat.entries)
                r3 = rank_mod_p(mat.entries, 3)
                if r2 > rq or r3 > rq:
                    data.crossfield_failures.append(f"{inst} strand {strand.multidegree} i={i}")
                ranks["q"][i], ranks["gf:2"][i], ranks["gf:3"][i] = rq, r2, r3
            if not compose_is_zero(boundary(strand, i), boundary(strand, i + 1)):
                data.compose_failures.append(f"{inst} strand {strand.multidegree} i={i}")
        for label in FIELD_LABELS:
            for i in range(top + 1):
                r_i = len(strand.basis(i))
                if r_i and r_i - ranks[label][i] - ranks[label][i + 1] > 0:
                    best[label] = max(best[label], i)
    for label in FIELD_LABELS:
        if inst.n - best[label] != depths[label]:
            data.depth_recheck_failures.append(
                f"{inst}: {label} scan gives {inst.n - best[label]}, engine gave {depths[label]}"
            )


@pytest.fixture(scope="module")
def sweep() -> SweepData:
    data = SweepData()
    for n in SWEEP_NS:
        params = default_params(n)
        rng = random.Random(20_000 + n)
        for _ in range(SWEEP_PER_N):
            inst = random_instance(params, rng)
            data.instances += 1

            t0 = time.monotonic()
            report = analyze(inst, fields=(RATIONALS, GF2, GF3), sdepth_poset_cap=0)
            data.analyze_elapsed += time.monotonic() - t0
            data.inconsistencies.extend(f"{inst}: {msg}" for msg in report.inconsistencies)
            data.fired_certificates += sum(1 for c in report.certificates if c.fired)

            # criterion 4: the rank identity at every offset the depth clears
            for cert in report.certificates:
                if cert.kind != RANK_SPLIT:
                    continue
                i = cert.numbers["i"]
                depth_f = report.depth[cert.field.label]
                if depth_f > inst.d + i:
                    data.rank_split_checks += 1
                    if not cert.fired or cert.numbers["r"] != (
                        cert.numbers["rank_in"] + cert.numbers["rank_out"]
                    ):
                        data.rank_split_failures.append(f"{inst}: {cert.numbers}")

            # criterion 7: both sandwich inequalities whenever depth >= d + 2
            r_d, r_d1, r_d2 = (rho(inst, inst.d + k) for k in (0, 1, 2))
            for label, depth_f in report.depth.items():
                if depth_f >= inst.d + 2:
                    data.sandwich_checks += 1
                    if not (r_d <= r_d1 <= r_d + r_d2) or (r_d2 == 0 and r_d != r_d1):
                        data.sandwich_failures.append(f"{inst} over {label}")

            t0 = time.monotonic()
            _independent_strand_pass(inst, data, report.depth)
            data.strand_elapsed += time.monotonic() - t0
    return data


def test_criterion_01_paper_example_golden():
    inst = parse_instance(PAPER)
    t0 = time.monotonic()
    report = analyze(inst, fields=(RATIONALS, GF2))
    elapsed = time.monotonic() - t0

    layers = enumerate_quotient(inst)
    assert supports(4, layers.layer(2)) == [(1, 2), (1, 3), (2, 3), (3, 4)]
    assert supports(4, layers.layer(3)) == [(1, 2, 3), (2, 3, 4)]
    assert report.rho[2] == 4 and report.rho[3] == 2
    assert report.depth == {"q": 3, "gf:2": 3}
    fired_drops = [c for c in report.certificates if c.kind == ALTERNATING_DROP and c.fired]
    assert not any(c.t < 3 for c in fired_drops)
    assert report.rho[3] == report.alpha[2]  # tight: no firing at t = 2
    assert report.consistent
    assert elapsed < 1.0
    print(f"\n[acceptance] criterion 1: PASS (rho_2=4, rho_3=2, depth 3/3, {elapsed:.3f}s)")


def test_criterion_02_paper_example_jprime_golden():
    inst = parse_instance(PAPER_JPRIME)
    t0 = time.monotonic()
    report = analyze(inst, fields=(RATIONALS, GF2))
    elapsed = time.monotonic() - t0

    assert report.rho[3] == 1
    drop_t2 = next(c for c in report.certificates if c.kind == ALTERNATING_DROP and c.t == 2)
    assert drop_t2.fired
    assert drop_t2.numbers == {"rho_t_plus_1": 1, "alpha_t": 2}
    assert report.depth == {"q": 2, "gf:2": 2}
    assert report.consistent
    assert elapsed < 1.0
    print(f"\n[acceptance] criterion 2: PASS (rho_3=1, drop fires at t=2, depth 2/2, {elapsed:.3f}s)")


def test_criterion_03_soundness_sweep(sweep: SweepData):
    assert sweep.instances == SWEEP_PER_N * len(SWEEP_NS)
    assert sweep.inconsistencies == [], sweep.inconsistencies[:5]
    assert sweep.analyze_elapsed < 300.0
    print(
        f"\n[acceptance] criterion 3: PASS ({sweep.instances} instances, "
        f"{sweep.fired_certificates} fired certificates, 0 violations, "
        f"{sweep.analyze_elapsed:.1f}s)"
    )


def test_criterion_04_rank_identity(sweep: SweepData):
    assert sweep.rank_split_checks > 0
    assert sweep.rank_split_failures == [], sweep.rank_split_failures[:5]
    print(
        f"\n[acceptance] criterion 4: PASS ({sweep.rank_split_checks} rank identities, 0 violations)"
    )


def test_criterion_05_chain_complex_validity(sweep: SweepData):
    assert sweep.strands_checked > 0
    assert sweep.compose_failures == [], sweep.compose_failures[:5]
    assert sweep.depth_recheck_failures == [], sweep.depth_recheck_failures[:5]
    print(
        f"\n[acceptance] criterion 5: PASS ({sweep.strands_checked} strands, "
        f"boundary^2 = 0 everywhere)"
    )


def _principal_instances(count: int, seed: int):
    """Principal-I instances with rho_{d+1} > rho_{d+2} + 1, by construction.

    Kill off some first-layer multiples outright (variables in E) and all but
    q chosen second-layer multiples among the surviving variables; the
    survivor counts are then exactly s and q.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(4, 7)
        d = rng.randint(1, n - 2)
        f_support = rng.sample(range(1, n + 1), d)
        outside = [j for j in range(1, n + 1) if j not in f_support]
        excl_count = rng.randint(0, len(outside) - 2)
        excluded = rng.sample(outside, excl_count)
        kept = [j for j in outside if j not in excluded]
        s = len(kept)
        pairs = list(combinations(kept, 2))
        q = rng.randint(0, min(len(pairs), s - 2))
        keep_pairs = set(rng.sample(pairs, q))
        gens_j = [mono(n, *f_support, e) for e in excluded]
        gens_j.extend(mono(n, *f_support, i, j) for (i, j) in pairs if (i, j) not in keep_pairs)
        inst = validate_pair(n, [mono(n, *f_support)], gens_j)
        assert rho(inst, d + 1) == s and rho(inst, d + 2) == q
        out.append(inst)
    return out


def test_criterion_06_principal_instances():
    golden = parse_instance('{"n":4,"I":[[1]],"J":[[1,2,3],[1,2,4],[1,3,4]]}')
    depths = exact_depth_multi(enumerate_quotient(golden), (RATIONALS, GF2))
    assert depths[RATIONALS] == 2 and depths[GF2] == 2

    checked = 0
    for inst in _principal_instances(50, seed=60):
        depths = exact_depth_multi(enumerate_quotient(inst), (RATIONALS, GF2))
        assert depths[RATIONALS] == inst.d + 1, f"{inst}"
        assert depths[GF2] == inst.d + 1, f"{inst}"
        checked += 1
    print(f"\n[acceptance] criterion 6: PASS ({checked} principal instances + q=0 branch, depth d+1)")


def test_criterion_07_layer_sandwich(sweep: SweepData):
    assert sweep.sandwich_checks > 0
    assert sweep.sandwich_failures == [], sweep.sandwich_failures[:5]
    print(
        f"\n[acceptance] criterion 7: PASS ({sweep.sandwich_checks} sandwich checks, 0 violations)"
    )


def test_criterion_08_stanley_engine():
    inst = parse_instance(PAPER)
    value, witness = stanley_depth(enumerate_quotient(inst))
    assert value == 3
    assert verify_partition(inst, witness).ok

    # brute-force equivalence on every generated instance with |P| <= 12
    rng = random.Random(81)
    small_checked = 0
    for n in (3, 4):
        params = default_params(n)
        for _ in range(60):
            cand = random_instance(params, rng)
            if len(poset_elements(cand)) <= 12:
                got, _ = stanley_depth(enumerate_quotient(cand))
                assert got == brute_stanley_depth(cand), f"{cand}"
                small_checked += 1
    assert small_checked >= 40

    findings = []
    total = 0
    for n, seed in ((5, 501), (6, 601)):
        report = conjecture_scan(default_params(n), count=500, seed=seed, max_sdepth_poset=None)
        total += len(report.records)
        for index in report.stanley_violations:
            findings.append((n, seed, index, report.records[index].to_json_dict()))
    assert total >= 1000
    for finding in findings:
        print(f"[acceptance] criterion 8 FINDING sdepth < depth: {finding}")
    print(
        f"\n[acceptance] criterion 8: PASS (sdepth=3 verified, {small_checked} brute-force matches, "
        f"{total} scanned, {len(findings)} conjecture findings)"
    )


def test_criterion_09_square_free_concentration():
    rng = random.Random(4040)
    checked_instances = 0
    checked_multidegrees = 0
    for n in (3, 4):
        params = default_params(n)
        for _ in range(100):
            inst = random_instance(params, rng)
            checked_instances += 1
            for exponents in product(range(3), repeat=n):
                if max(exponents) < 2:
                    continue
                checked_multidegrees += 1
                for fieldspec in (RATIONALS, GF2):
                    dims = brute_multidegree_homology(inst, exponents, fieldspec)
                    nonzero = {i: v for i, v in dims.items() if v}
                    assert not nonzero, (
                        f"nonzero homology {nonzero} at non-square-free {exponents} on {inst}"
                    )
    assert checked_instances >= 200
    print(
        f"\n[acceptance] criterion 9: PASS ({checked_instances} instances, "
        f"{checked_multidegrees} non-square-free multidegrees, all exact)"
    )


def test_criterion_10_cross_field_rank_sanity(sweep: SweepData):
    assert sweep.matrices_checked > 0
    assert sweep.route_mismatches == [], sweep.route_mismatches[:5]
    assert sweep.crossfield_failures == [], sweep.crossfield_failures[:5]
    print(
        f"\n[acceptance] criterion 10: PASS ({sweep.matrices_checked} matrices, "
        f"two rational routes agree, modular ranks bounded)"
    )
