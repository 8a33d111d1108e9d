"""Monomial arithmetic, ideal minimalization, and pair validation."""

from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

from sqfdepth import (
    InputError,
    Monomial,
    canonical_key,
    conjecture_scan,
    instance_to_json,
    minimalize,
    parse_instance,
    random_instance,
    validate_pair,
)
from sqfdepth.monomials import MAX_VARIABLES, ideal_supports, support_of

from oracles import divides, hypothesis_violating_instances, ideal_contains, mask, mono, rp2_cone_instance


def test_divides_examples():
    assert divides(mono(4, 1), mono(4, 1, 2))
    assert divides(mono(4, 1, 3), mono(4, 1, 3))
    assert not divides(mono(4, 1, 4), mono(4, 2, 3, 4))


def test_divides_ambient_mismatch():
    with pytest.raises(InputError):
        divides(mono(3, 1), mono(4, 1))


def test_degree_and_support():
    m = mono(5, 4, 2)
    assert m.support == (2, 4)
    assert m.degree == 2
    assert str(m) == "x2*x4"
    assert str(Monomial(3, 0)) == "1"


def test_from_support_rejects_bad_indices():
    with pytest.raises(InputError):
        Monomial.from_support(3, [0])
    with pytest.raises(InputError):
        Monomial.from_support(3, [4])
    with pytest.raises(InputError):
        Monomial.from_support(3, [1, 1])


def test_minimalize_examples():
    out = minimalize([mono(3, 1).mask, mono(3, 1, 2).mask, mono(3, 3).mask])
    assert [support_of(g) for g in out] == [(1,), (3,)]
    out = minimalize([mono(4, 1, 4).mask])
    assert [support_of(g) for g in out] == [(1, 4)]
    out = minimalize([mono(3, 1, 2).mask, mono(3, 2, 1).mask])
    assert [support_of(g) for g in out] == [(1, 2)]


def test_minimalize_empty_is_zero_ideal():
    out = minimalize([])
    assert out == ()
    assert not ideal_contains(out, mono(3, 1, 2).mask)


def test_ideal_contains_examples():
    j = minimalize([mono(4, 1, 4).mask])
    assert ideal_contains(j, mono(4, 1, 2, 3, 4).mask)
    assert not ideal_contains(j, mono(4, 2, 3).mask)


def test_validate_pair_paper_instance():
    inst = validate_pair(4, [mask(4, 1), mask(4, 3)], [mask(4, 1, 4)])
    assert inst.d == 1
    assert inst.hypothesis_flag


def test_validate_pair_rejects_j_outside_i():
    with pytest.raises(InputError, match="x2\\*x4"):
        validate_pair(4, [mask(4, 1), mask(4, 3)], [mask(4, 2, 4)])


def test_validate_pair_zero_j():
    inst = validate_pair(3, [mask(3, 1, 2)], [])
    assert inst.d == 2
    assert inst.hypothesis_flag
    assert inst.gens_j == ()


def test_validate_pair_rejects_equal_ideals():
    with pytest.raises(InputError):
        validate_pair(3, [mask(3, 1)], [mask(3, 1)])
    with pytest.raises(InputError):
        validate_pair(3, [], [])


@pytest.mark.parametrize("gens_i, gens_j", [
    ([0b001], [0b1011]),
    ([0b001], [-1]),
    ([1.0], [0b011]),
    ([True], [0b011]),
    ([0b001], [mono(3, 1, 2)]),
    (["1"], []),
    ([None], []),
])
def test_validate_pair_rejects_generators_that_are_not_masks(gens_i, gens_j):
    with pytest.raises(InputError, match="is not a support mask below 2\\^3"):
        validate_pair(3, gens_i, gens_j)


# Every entry point that takes an ambient variable count applies the one rule
# of monomials.check_variable_count, with the same message.
N_ENTRY_POINTS = {
    "validate_pair": lambda n: validate_pair(n, [0b001], []),
    "Monomial": lambda n: Monomial(n, 0b001),
    "Monomial.from_support": lambda n: Monomial.from_support(n, [1]),
    "random_instance": lambda n: random_instance(n, random.Random(0)),
    "conjecture_scan": lambda n: conjecture_scan(n, count=0, seed=1),
    "parse_instance": lambda n: parse_instance(json.dumps({"n": n, "I": [[1]], "J": []})),
}


@pytest.mark.parametrize("entry", list(N_ENTRY_POINTS))
@pytest.mark.parametrize("n", [0, -2, 21, 3.0, 2.5, True, "3", None, {"n": 3}])
def test_every_entry_point_applies_the_n_rule(n, entry):
    message = "n = 21 exceeds the supported limit of 20" if n == 21 else "n must be a positive integer"
    location = "n" if entry == "parse_instance" else None
    with pytest.raises(InputError) as info:
        N_ENTRY_POINTS[entry](n)
    assert info.value.location == location
    assert str(info.value) == (message if location is None else f"n: {message}")


@pytest.mark.parametrize("rng", [5, None])
def test_random_instance_rejects_an_rng_that_is_not_a_random(rng):
    with pytest.raises(InputError) as info:
        random_instance(4, rng)
    assert str(info.value) == f"rng must be a random.Random, got {rng!r}"


def test_random_instance_takes_a_random_subclass():
    class Seeded(random.Random):
        pass

    assert random_instance(4, Seeded(5)) == random_instance(4, random.Random(5))


@pytest.mark.parametrize("entry", list(N_ENTRY_POINTS))
def test_every_entry_point_accepts_n_at_both_ends(entry):
    for n in (1, MAX_VARIABLES):
        N_ENTRY_POINTS[entry](n)


@pytest.mark.parametrize("value", [True, 1.0, -1, 1 << 3, "1", None])
def test_monomial_rejects_masks_that_are_not_supports(value):
    with pytest.raises(InputError, match="is not a support mask below 2\\^3"):
        Monomial(3, value)


def test_validate_pair_rejects_unit_ideal():
    with pytest.raises(InputError):
        validate_pair(2, [0], [mask(2, 1)])


def test_ideal_supports_match_a_filter_of_all_subsets():
    # Seeded generator lists, neither minimal nor nested, and an empty J each time.
    rng = random.Random(12)
    for n in range(1, 9):
        for _ in range(12):
            gens_i = [rng.randrange(1 << n) for _ in range(rng.randint(0, 4))]
            gens_j = [rng.randrange(1 << n) for _ in range(rng.randint(1, 4))]
            for t in range(n + 1):
                subsets = [mask(n, *c) for c in itertools.combinations(range(1, n + 1), t)]
                assert subsets == sorted(subsets, key=canonical_key)
                for js in (gens_j, []):
                    want = [m for m in subsets if ideal_contains(gens_i, m) and not ideal_contains(js, m)]
                    assert list(ideal_supports(n, t, gens_i, js)) == want, (n, t, gens_i, js)


def test_hypothesis_flag_false_when_j_has_degree_d_generator():
    inst = validate_pair(2, [mask(2, 1), mask(2, 2)], [mask(2, 2)])
    assert inst.d == 1
    assert not inst.hypothesis_flag


# -- property tests -----------------------------------------------------------

masks = st.integers(min_value=0, max_value=(1 << 6) - 1)


@st.composite
def gen_lists(draw, max_gens=5):
    count = draw(st.integers(0, max_gens))
    return [draw(masks.filter(lambda m: m != 0)) for _ in range(count)]


@given(masks, masks)
def test_divides_antisymmetric(a, b):
    x, y = Monomial(6, a), Monomial(6, b)
    if divides(x, y) and divides(y, x):
        assert x == y


@given(masks, masks, masks)
def test_divides_transitive(a, b, c):
    x, y, z = Monomial(6, a), Monomial(6, b), Monomial(6, c)
    if divides(x, y) and divides(y, z):
        assert divides(x, z)


@given(masks)
def test_divides_reflexive(a):
    x = Monomial(6, a)
    assert divides(x, x)


@given(gen_lists())
def test_minimalize_idempotent(gens):
    once = minimalize(gens)
    twice = minimalize(once)
    assert once == twice


@given(gen_lists())
def test_ideal_contains_matches_bruteforce_span(gens):
    ideal = minimalize(gens)
    for mask in range(1 << 6):
        expected = any(g & ~mask == 0 for g in gens)
        assert ideal_contains(ideal, mask) == expected


def _is_canonical_antichain(gens) -> bool:
    """A tuple of int masks, strictly increasing in canonical order, no one dividing another."""
    keys = [canonical_key(g) for g in gens]
    return (
        type(gens) is tuple
        and all(type(g) is int for g in gens)
        and all(a < b for a, b in zip(keys, keys[1:]))
        and not any(g & ~h == 0 for g in gens for h in gens if g != h)
    )


@given(gen_lists(max_gens=8))
def test_minimalize_output_is_a_canonical_antichain_with_the_same_span(gens):
    # QuotientInstance trusts minimalize for both invariants and checks nothing itself.
    ideal = minimalize(gens)
    assert _is_canonical_antichain(ideal)
    for mask in range(1 << 6):
        spanned = any(g & ~mask == 0 for g in gens)
        assert any(g & ~mask == 0 for g in ideal) == spanned


def test_instances_hold_canonical_generator_masks_and_round_trip():
    rng = random.Random(5)
    drawn = [random_instance(n, rng) for n in range(1, 9) for _ in range(25)]
    for inst in drawn + hypothesis_violating_instances() + [rp2_cone_instance()]:
        parsed = parse_instance(json.dumps(instance_to_json(inst)))
        assert parsed == inst
        for gens in (inst.gens_i, inst.gens_j, parsed.gens_i, parsed.gens_j):
            assert _is_canonical_antichain(gens)
