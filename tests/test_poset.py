"""Quotient poset enumeration, layer counts, and alternating sums."""

from __future__ import annotations

import random

import pytest

from sqfdepth import (
    GF2,
    InputError,
    analyze,
    build_strand,
    canonical_key,
    check_alternating_drop,
    check_base_drop,
    check_layer_sandwich,
    check_principal_gap,
    check_rank_split,
    counting_certificates,
    enumerate_quotient,
    exact_depth_multi,
    partition_exists,
    random_instance,
    stanley_depth,
    validate_pair,
)

from oracles import alpha_table, ideal_contains, mask, paper_instance, paper_instance_jprime, rho, supports


def fuzz_instances(n_values=(3, 4, 5, 6), per_n=25, seed=7):
    out = []
    for n in n_values:
        rng = random.Random(seed * 100 + n)
        out.extend(random_instance(n, rng) for _ in range(per_n))
    return out


def test_paper_layers():
    layers = enumerate_quotient(paper_instance())
    assert supports(4, layers.layer(2)) == [(1, 2), (1, 3), (2, 3), (3, 4)]
    assert supports(4, layers.layer(3)) == [(1, 2, 3), (2, 3, 4)]
    assert layers.layer(4) == ()


def test_rho_values():
    inst = paper_instance()
    assert rho(inst, 1) == 2
    assert rho(inst, 2) == 4
    assert rho(inst, 3) == 2
    assert rho(inst, 5) == 0
    assert rho(inst, 0) == 0
    assert rho(paper_instance_jprime(), 3) == 1


def test_alpha_values():
    table = alpha_table(paper_instance())
    assert table[1] == 2
    assert table[2] == 2
    assert table[3] == 0


def test_alpha_cancellation_when_consecutive_layers_match():
    # rho_d = rho_{d+1} forces alpha_{d+1} = 0
    inst = validate_pair(3, [mask(3, 1)], [mask(3, 1, 3)])
    assert rho(inst, 1) == 1 and rho(inst, 2) == 1
    assert alpha_table(inst)[2] == 0


def test_membership_characterization_exhaustive():
    for inst in fuzz_instances(n_values=(4, 5, 6), per_n=10):
        layers = enumerate_quotient(inst)
        for mask in range(1 << inst.n):
            in_layer = mask in layers.layer(mask.bit_count())
            expected = ideal_contains(inst.gens_i, mask) and not ideal_contains(inst.gens_j, mask)
            assert in_layer == expected


def test_layers_are_canonically_sorted():
    for inst in fuzz_instances(per_n=10):
        layers = enumerate_quotient(inst)
        for t in range(inst.d, inst.n + 1):
            row = list(layers.layer(t))
            assert row == sorted(row, key=canonical_key)
            assert all(m.bit_count() == t for m in row)


def test_downward_closure_within_i():
    for inst in fuzz_instances(n_values=(4, 5, 6, 7, 8), per_n=8):
        members = set(enumerate_quotient(inst).elements())
        for mask in members:
            sub = mask
            while sub:
                sub = (sub - 1) & mask
                if ideal_contains(inst.gens_i, sub):
                    assert sub in members


def test_gap_freeness():
    for inst in fuzz_instances(n_values=(4, 5, 6, 7, 8), per_n=8):
        for t in range(inst.d, inst.n):
            if rho(inst, t) == 0:
                assert rho(inst, t + 1) == 0


def test_alpha_recurrence_agrees_with_closed_form():
    for inst in fuzz_instances():
        table = alpha_table(inst)
        previous = None
        for j in range(inst.d, inst.n + 1):
            closed = table[j]
            if previous is None:
                assert closed == rho(inst, j)
            else:
                assert closed == rho(inst, j) - previous
            previous = closed


@pytest.mark.parametrize("value", [None, 5, "x", {"n": 4, "I": [[1]], "J": []}])
def test_enumerate_quotient_and_analyze_reject_what_is_not_an_instance(value):
    for entry in (enumerate_quotient, analyze):
        with pytest.raises(InputError) as info:
            entry(value)
        assert str(info.value) == f"expected a QuotientInstance, got {value!r}"


# Each stage that takes a poset, called with its other arguments valid.
POSET_STAGES = {
    "build_strand": lambda p: build_strand(p, 0b1111),
    "exact_depth_multi": lambda p: exact_depth_multi(p, (GF2,)),
    "counting_certificates": counting_certificates,
    "check_base_drop": check_base_drop,
    "check_alternating_drop": check_alternating_drop,
    "check_principal_gap": check_principal_gap,
    "check_layer_sandwich": check_layer_sandwich,
    "check_rank_split": lambda p: check_rank_split(p, GF2),
    "partition_exists": lambda p: partition_exists(p, 2),
    "stanley_depth": stanley_depth,
}


@pytest.mark.parametrize("stage", list(POSET_STAGES))
def test_poset_stages_reject_what_is_not_a_poset(stage):
    inst = paper_instance()
    POSET_STAGES[stage](enumerate_quotient(inst))
    for value in (inst, None):
        with pytest.raises(InputError) as info:
            POSET_STAGES[stage](value)
        assert str(info.value) == f"expected a PosetLayers, got {value!r}"
