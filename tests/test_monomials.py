"""Monomial arithmetic, ideal minimalization, and pair validation."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from sqfdepth import (
    InputError,
    Monomial,
    ValidationError,
    ideal_contains,
    minimalize,
    validate_pair,
)

from oracles import divides


def mono(n, *indices):
    return Monomial.from_support(n, indices)


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
    out = minimalize(3, [mono(3, 1), mono(3, 1, 2), mono(3, 3)])
    assert [m.support for m in out.generators] == [(1,), (3,)]
    out = minimalize(4, [mono(4, 1, 4)])
    assert [m.support for m in out.generators] == [(1, 4)]
    out = minimalize(3, [mono(3, 1, 2), mono(3, 2, 1)])
    assert [m.support for m in out.generators] == [(1, 2)]


def test_minimalize_empty_is_zero_ideal():
    out = minimalize(3, [])
    assert out.generators == ()
    assert not ideal_contains(out, mono(3, 1, 2))


def test_ideal_contains_examples():
    j = minimalize(4, [mono(4, 1, 4)])
    assert ideal_contains(j, mono(4, 1, 2, 3, 4))
    assert not ideal_contains(j, mono(4, 2, 3))


def test_validate_pair_paper_instance():
    inst = validate_pair(4, [mono(4, 1), mono(4, 3)], [mono(4, 1, 4)])
    assert inst.d == 1
    assert inst.hypothesis_flag


def test_validate_pair_rejects_j_outside_i():
    with pytest.raises(ValidationError, match="x2\\*x4"):
        validate_pair(4, [mono(4, 1), mono(4, 3)], [mono(4, 2, 4)])


def test_validate_pair_zero_j():
    inst = validate_pair(3, [mono(3, 1, 2)], [])
    assert inst.d == 2
    assert inst.hypothesis_flag
    assert inst.ideal_j.generators == ()


def test_validate_pair_rejects_equal_ideals():
    with pytest.raises(ValidationError):
        validate_pair(3, [mono(3, 1)], [mono(3, 1)])
    with pytest.raises(ValidationError):
        validate_pair(3, [], [])


def test_validate_pair_rejects_unit_ideal():
    with pytest.raises(ValidationError):
        validate_pair(2, [Monomial(2, 0)], [mono(2, 1)])


def test_hypothesis_flag_false_when_j_has_degree_d_generator():
    inst = validate_pair(2, [mono(2, 1), mono(2, 2)], [mono(2, 2)])
    assert inst.d == 1
    assert not inst.hypothesis_flag


# -- property tests -----------------------------------------------------------

masks = st.integers(min_value=0, max_value=(1 << 6) - 1)


@st.composite
def gen_lists(draw, n=6, max_gens=5):
    count = draw(st.integers(0, max_gens))
    return [Monomial(n, draw(masks.filter(lambda m: m != 0))) for _ in range(count)]


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
    once = minimalize(6, gens)
    twice = minimalize(6, list(once.generators))
    assert once == twice


@given(gen_lists())
def test_ideal_contains_matches_bruteforce_span(gens):
    ideal = minimalize(6, gens)
    for mask in range(1 << 6):
        m = Monomial(6, mask)
        expected = any(g.mask & ~mask == 0 for g in gens)
        assert ideal_contains(ideal, m) == expected


@given(gen_lists(max_gens=8))
def test_minimalize_output_is_a_canonical_antichain_with_the_same_span(gens):
    # minimalize is the only constructor of MonomialIdeal, which checks nothing itself.
    ideal = minimalize(6, gens)
    keys = [g.sort_key() for g in ideal.generators]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    for k, g in enumerate(ideal.generators):
        for h in ideal.generators[k + 1:]:
            assert not divides(g, h) and not divides(h, g)
    for mask in range(1 << 6):
        spanned = any(g.mask & ~mask == 0 for g in gens)
        assert any(g.mask & ~mask == 0 for g in ideal.generators) == spanned
