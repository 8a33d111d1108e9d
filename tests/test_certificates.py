"""Bound certificates: golden cases and cross-checks against exact depth."""

from __future__ import annotations

import itertools
import random
import re

import pytest

from sqfdepth import (
    ALTERNATING_DROP,
    GF2,
    RATIONALS,
    FieldSpec,
    InputError,
    PosetLayers,
    analyze,
    check_alternating_drop,
    check_base_drop,
    check_layer_sandwich,
    check_lower_bound,
    check_principal_gap,
    check_rank_split,
    enumerate_quotient,
    exact_depth_multi,
    partition_exists,
    random_instance,
    validate_pair,
)
from sqfdepth.certificates import DEPTH_AT_MOST, DEPTH_EQUALS, Conclusion

from oracles import (
    all_ideals,
    census_instances,
    exact_depth,
    hypothesis_violating_instances,
    mask,
    paper_instance,
    paper_instance_jprime,
    pure_powers_instance,
    rho,
    rp2_cone_instance,
)


def fuzz_instances(n_values=(3, 4, 5), per_n=20, seed=77):
    out = []
    for n in n_values:
        rng = random.Random(seed + n)
        out.extend(random_instance(n, rng) for _ in range(per_n))
    return out


def test_lower_bound_fires_under_hypothesis():
    cert = check_lower_bound(paper_instance())
    assert cert.fired
    assert cert.conclusions[0].kind == "depth_at_least"
    assert cert.conclusions[0].value == 1


def test_lower_bound_warns_when_hypothesis_fails():
    inst = validate_pair(2, [mask(2, 1), mask(2, 2)], [mask(2, 2)])
    cert = check_lower_bound(inst)
    assert not cert.fired
    assert cert.warning


def test_base_drop_golden_cases():
    fired = check_base_drop(enumerate_quotient(pure_powers_instance()))
    assert fired.fired and fired.numbers == {"rho_d": 3, "rho_d_plus_1": 0}
    assert exact_depth(pure_powers_instance()) == 1

    assert not check_base_drop(enumerate_quotient(paper_instance())).fired

    one_var = validate_pair(1, [mask(1, 1)], [])
    cert = check_base_drop(enumerate_quotient(one_var))
    assert cert.fired
    assert exact_depth(one_var) == 1


def test_alternating_drop_golden_cases():
    # tight instance: rho_3 = alpha_2, no firing at t = 2
    certs = {c.t: c for c in check_alternating_drop(enumerate_quotient(paper_instance()))}
    assert not certs[2].fired
    assert certs[2].numbers == {"rho_t_plus_1": 2, "alpha_t": 2}
    assert not any(c.fired and c.t < 3 for c in certs.values())

    certs = {c.t: c for c in check_alternating_drop(enumerate_quotient(paper_instance_jprime()))}
    assert certs[2].fired
    assert certs[2].numbers == {"rho_t_plus_1": 1, "alpha_t": 2}
    kinds = {c.kind for c in certs[2].conclusions}
    assert kinds == {DEPTH_AT_MOST, DEPTH_EQUALS}
    assert exact_depth(paper_instance_jprime()) == 2


def test_alternating_drop_at_t_d_matches_base_drop():
    for inst in fuzz_instances():
        base = check_base_drop(enumerate_quotient(inst))
        drop_at_d = next(c for c in check_alternating_drop(enumerate_quotient(inst)) if c.t == inst.d)
        assert base.fired == drop_at_d.fired


def test_principal_gap_golden_cases():
    inst = validate_pair(
        4, [mask(4, 1)], [mask(4, 1, 2, 3), mask(4, 1, 2, 4), mask(4, 1, 3, 4)]
    )
    cert = check_principal_gap(enumerate_quotient(inst))
    assert cert.fired
    assert cert.numbers["s"] == 3 and cert.numbers["q"] == 0
    assert cert.conclusions[0].kind == DEPTH_EQUALS and cert.conclusions[0].value == 2
    assert exact_depth(inst) == 2

    thin = validate_pair(4, [mask(4, 1)], [mask(4, 1, 3), mask(4, 1, 4)])
    assert not check_principal_gap(enumerate_quotient(thin)).fired  # s = 1 <= q + 1

    assert not check_principal_gap(enumerate_quotient(paper_instance())).fired  # I not principal


def test_principal_gap_with_positive_q():
    # keep one degree-(d+2) monomial alive: s = 4, q = 1 at n = 5
    inst = validate_pair(
        5,
        [mask(5, 1)],
        [mask(5, 1, 2, 4), mask(5, 1, 2, 5), mask(5, 1, 3, 4), mask(5, 1, 3, 5), mask(5, 1, 4, 5)],
    )
    cert = check_principal_gap(enumerate_quotient(inst))
    assert cert.fired
    assert cert.numbers == {"s": 4, "q": 1, "generators_of_I": 1}
    assert exact_depth(inst) == 2
    assert exact_depth(inst, GF2) == 2


def test_layer_sandwich_golden_cases():
    # A holding sandwich concludes nothing; a failing one caps depth at d + 1.
    free = validate_pair(3, [mask(3, 1)], [])
    assert exact_depth(free) == 3
    cert = check_layer_sandwich(enumerate_quotient(free))
    assert not cert.fired and cert.field is None
    assert cert.numbers == {"rho_d": 1, "rho_d_plus_1": 2, "rho_d_plus_2": 1}

    inst = paper_instance()
    cert = check_layer_sandwich(enumerate_quotient(inst))
    assert not cert.fired  # 2 <= 4 <= 2 + 2, tight

    low = pure_powers_instance()
    cert = check_layer_sandwich(enumerate_quotient(low))
    assert cert.conclusions == (Conclusion(DEPTH_AT_MOST, 2),)  # 3 > 0
    assert exact_depth(low) == 1


def test_layer_sandwich_fails_exactly_where_a_drop_fires():
    # Synthetic layer counts: rho_d in 1..4 (d is the least degree present),
    # rho_{d+1} and rho_{d+2} in 0..4 where that degree is at most n, else 0.
    # Only the counts matter to the checkers, so the layers hold placeholders.
    cases = 0
    for n in range(1, 6):
        for d in range(1, n + 1):
            inst = validate_pair(n, [(1 << d) - 1], [])
            above = [range(5) if d + k <= n else (0,) for k in (1, 2)]
            for counts in itertools.product(range(1, 5), *above):
                layers = (tuple((0,) * c for c in counts) + ((),) * n)[: n - d + 1]
                poset = PosetLayers(inst, layers)
                drops = [check_base_drop(poset)] + [c for c in check_alternating_drop(poset) if c.t == d + 1]
                fails = any(c.fired for c in drops)
                expected = (Conclusion(DEPTH_AT_MOST, d + 1),) if fails else ()
                assert check_layer_sandwich(poset).conclusions == expected, (n, d, counts)
                cases += 1
    assert cases == 700


def test_rank_split_golden_cases():
    inst = paper_instance()
    certs = check_rank_split(enumerate_quotient(inst), RATIONALS)
    by_i = {c.numbers["i"]: c for c in certs}
    # depth 3 > d + i at i = 0, 1: no surplus, the layer splits as rank_in + rank_out
    assert not by_i[0].fired and by_i[0].numbers["r"] == 2
    assert by_i[0].numbers["rank_in"] == 0 and by_i[0].numbers["rank_out"] == 2
    assert not by_i[1].fired and by_i[1].numbers["r"] == 4
    assert by_i[1].numbers["rank_in"] == 2 and by_i[1].numbers["rank_out"] == 2
    assert not by_i[2].fired

    jp = paper_instance_jprime()
    certs = check_rank_split(enumerate_quotient(jp), RATIONALS)
    by_i = {c.numbers["i"]: c for c in certs}
    assert by_i[1].fired
    assert by_i[1].conclusions[0].kind == DEPTH_AT_MOST
    assert by_i[1].conclusions[0].value == 2


def test_rank_split_exactness_form():
    # whenever depth > d+i, ker(out) has dimension rank(in)
    for inst in fuzz_instances(per_n=10):
        for field in (RATIONALS, GF2):
            depth = exact_depth(inst, field)
            for cert in check_rank_split(enumerate_quotient(inst), field):
                if inst.d + cert.numbers["i"] < depth:
                    r, rank_in, rank_out = (
                        cert.numbers["r"],
                        cert.numbers["rank_in"],
                        cert.numbers["rank_out"],
                    )
                    assert r - rank_out == rank_in


def test_analyze_paper_instance_report():
    report = analyze(paper_instance(), fields=(RATIONALS, GF2))
    assert report.consistent
    assert report.depth == {"q": 3, "gf:2": 3}
    assert report.sdepth == 3
    assert report.rho == {1: 2, 2: 4, 3: 2, 4: 0}
    assert report.alpha == {1: 2, 2: 2, 3: 0, 4: 0}
    fired_drops = [c for c in report.certificates if c.kind == ALTERNATING_DROP and c.fired]
    assert not any(c.t < 3 for c in fired_drops)


def test_analyze_jprime_report():
    report = analyze(paper_instance_jprime(), fields=(RATIONALS, GF2))
    assert report.consistent
    assert report.depth == {"q": 2, "gf:2": 2}
    fired = [c.t for c in report.certificates if c.kind == ALTERNATING_DROP and c.fired]
    assert 2 in fired


def test_analyze_pure_powers_report():
    report = analyze(pure_powers_instance(), fields=(RATIONALS, GF2))
    assert report.consistent
    assert report.depth["q"] == 1
    base = next(c for c in report.certificates if c.kind == "base_drop")
    assert base.fired


def test_soundness_on_fuzz():
    for inst in fuzz_instances(n_values=(3, 4, 5), per_n=15, seed=123):
        report = analyze(inst, fields=(RATIONALS, GF2), sdepth_poset_cap=30)
        assert report.consistent, report.inconsistencies


def test_soundness_holds_without_degree_hypothesis():
    saw_flag_false = 0
    for inst in hypothesis_violating_instances():
        report = analyze(inst, fields=(RATIONALS, GF2), sdepth_poset_cap=0)
        assert report.consistent, (inst, report.inconsistencies)
        if not inst.hypothesis_flag:
            saw_flag_false += 1
            lower = next(c for c in report.certificates if c.kind == "lower_bound")
            assert not lower.fired
            assert any("lower bound" in f for f in report.findings)
    assert saw_flag_false >= 30


def test_alternating_drop_is_a_stanley_counting_obstruction():
    # alpha_{t+1} = rho_{t+1} - alpha_t is the top forced interval count for
    # target t + 1, so a firing drop makes it negative and the target infeasible.
    fired = 0
    for inst in fuzz_instances() + hypothesis_violating_instances():
        poset = enumerate_quotient(inst)
        for cert in check_alternating_drop(poset):
            if cert.fired and cert.t < inst.n:
                assert partition_exists(poset, cert.t + 1) is None, (inst, cert.t)
                fired += 1
    assert fired >= 100


def test_analyze_when_poset_sits_in_one_top_degree():
    # d = n leaves no room for rank-split offsets at all
    inst = validate_pair(2, [mask(2, 1, 2)], [])
    report = analyze(inst, fields=(RATIONALS, GF2))
    assert report.consistent
    assert report.depth == {"q": 2, "gf:2": 2}
    assert not any(c.kind == "rank_split" for c in report.certificates)
    drop = next(c for c in report.certificates if c.kind == ALTERNATING_DROP and c.t == 2)
    assert drop.fired


def test_analyze_single_prime_field():
    report = analyze(paper_instance(), fields=(GF2,))
    assert report.consistent
    assert report.depth == {"gf:2": 3}


def test_rho_zero_outside_poset_range():
    inst = paper_instance()
    assert rho(inst, inst.n + 1) == 0


def test_analyze_rejects_an_empty_field_list():
    with pytest.raises(InputError):
        analyze(paper_instance(), fields=())


@pytest.mark.parametrize("fields", [("q",), (None,), [FieldSpec(3), "gf:2"], ([2],)])
def test_analyze_rejects_a_field_that_is_not_a_field_spec(fields):
    bad = next(f for f in fields if not isinstance(f, FieldSpec))
    message = f"^field {re.escape(repr(bad))} is not a FieldSpec$"
    with pytest.raises(InputError, match=message):
        analyze(paper_instance(), fields=fields)
    with pytest.raises(InputError, match=message):
        check_rank_split(enumerate_quotient(paper_instance()), bad)


@pytest.mark.parametrize("fields", [GF2, FieldSpec(3), 3, None])
def test_a_field_list_that_is_not_iterable_is_rejected(fields):
    # A bare FieldSpec was iterated and died with a TypeError.
    message = f"^fields must be an iterable of FieldSpec, got {re.escape(repr(fields))}$"
    with pytest.raises(InputError, match=message):
        analyze(paper_instance(), fields=fields)
    with pytest.raises(InputError, match=message):
        exact_depth_multi(enumerate_quotient(paper_instance()), fields)


def test_a_field_generator_is_read_once():
    # The entry check used to exhaust a generator, which then read as no fields.
    poset = enumerate_quotient(paper_instance())
    assert exact_depth_multi(poset, (f for f in (RATIONALS, GF2, GF2))) == {RATIONALS: 3, GF2: 3}


@pytest.mark.parametrize("cap", [True, -1, 2.5, "40"])
def test_analyze_rejects_a_cap_that_is_not_a_nonnegative_int(cap):
    with pytest.raises(InputError, match=f"^sdepth_poset_cap must be a nonnegative int, got {re.escape(repr(cap))}$"):
        analyze(paper_instance(), sdepth_poset_cap=cap)


def test_analyze_accepts_no_cap_and_a_zero_cap():
    inst = paper_instance()
    size = len(enumerate_quotient(inst).elements())
    uncapped = analyze(inst, sdepth_poset_cap=None)
    assert uncapped.sdepth == 3
    capped = analyze(inst, sdepth_poset_cap=0)
    assert capped.sdepth is None and capped.witness is None
    assert capped.findings == [f"stanley depth skipped: poset has {size} elements, cap is 0"]


def test_analyze_ignores_repeated_fields():
    for inst in (paper_instance(), paper_instance_jprime(), rp2_cone_instance()):
        repeated = analyze(inst, fields=(GF2, GF2, RATIONALS))
        once = analyze(inst, fields=(GF2, RATIONALS))
        assert repeated == once


def test_every_quotient_in_at_most_four_variables():
    # Every J ⊊ I with 1 not in I, over the Dedekind-many ideals.  A depth
    # that differs between Q and GF(2), or a Stanley depth below the depth,
    # would be a finding about these small quotients, not a tolerance.
    for n, ideals, pairs in ((3, 20, 129), (4, 168, 7246)):
        assert len(all_ideals(n)) == ideals
        instances = census_instances(n)
        assert len(instances) == pairs
        for inst in instances:
            report = analyze(inst, (RATIONALS, GF2), sdepth_poset_cap=None)
            assert report.consistent, (inst, report.inconsistencies)
            assert report.depth["q"] == report.depth["gf:2"], inst
            assert report.sdepth >= report.depth["q"], inst
