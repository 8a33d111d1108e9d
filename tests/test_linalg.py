"""Exact rank routes, cross-field sanity, and matrix composition."""

from __future__ import annotations

import random

import pytest

from sqfdepth import GF2, RATIONALS, FieldSpec, InputError
from sqfdepth.linalg import rank_bareiss, rank_gf2, rank_mod_p

from oracles import GF3, SignMatrix, compose_is_zero, from_rows, rank, rank_fraction_gauss, rank_pair_check, transpose


def test_field_spec_labels_and_parse():
    assert RATIONALS.label == "q"
    assert GF2.label == "gf:2"
    assert FieldSpec.parse("q") == RATIONALS
    assert FieldSpec.parse("gf:7") == FieldSpec(7)
    with pytest.raises(InputError):
        FieldSpec.parse("gf:6")
    with pytest.raises(InputError):
        FieldSpec.parse("r")


@pytest.mark.parametrize("text", [None, 2, b"q", ["q"]])
def test_field_spec_parse_rejects_a_label_that_is_not_a_string(text):
    with pytest.raises(InputError) as info:
        FieldSpec.parse(text)
    assert str(info.value) == f"expected a field label string, got {text!r}"


@pytest.mark.parametrize("p", [3.0, 2.0, "3", True, False])
def test_field_spec_rejects_sizes_that_are_not_ints(p):
    with pytest.raises(InputError, match="field size must be an int"):
        FieldSpec(p)


def test_sign_matrix_validation():
    with pytest.raises(InputError):
        from_rows([[2, 0]])
    with pytest.raises(InputError):
        SignMatrix(rows=1, cols=2, entries=((1,),))


def test_rank_examples():
    m = from_rows([[1, 1], [1, -1]])
    assert rank(m, RATIONALS) == 2
    assert rank(m, GF2) == 1
    assert rank(from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
    assert rank(from_rows([[0, 0], [0, 0]])) == 0
    assert rank(SignMatrix(rows=0, cols=3, entries=())) == 0


def test_rank_of_paper_bottom_boundary():
    # 4x2 divisibility sign matrix between the degree-1 and degree-2 layers
    m = from_rows([[1, 0], [-1, 1], [0, -1], [0, 1]])
    assert rank(m, RATIONALS) == 2
    assert rank(m, GF2) == 2


def test_rank_pair_check_examples():
    m = from_rows([[1, 1], [1, -1]])
    assert rank_pair_check(m, RATIONALS, GF2) == (2, 1)
    zero = from_rows([[0, 0], [0, 0]])
    assert rank_pair_check(zero, RATIONALS, GF2) == (0, 0)
    eye = from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank_pair_check(eye, RATIONALS, FieldSpec(5)) == (3, 3)
    with pytest.raises(InputError):
        rank_pair_check(m, GF2, GF2)


def test_compose_is_zero_examples():
    eye = from_rows([[1, 0], [0, 1]])
    zero = from_rows([[0, 0], [0, 0]])
    assert not compose_is_zero(eye, eye)
    assert compose_is_zero(eye, zero)
    assert compose_is_zero(zero, eye)
    with pytest.raises(InputError):
        compose_is_zero(from_rows([[1, 0]]), from_rows([[1, 0]]))


def _random_pm_matrix(rng, rows, cols, lo=-1, hi=1):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_bareiss_agrees_with_fraction_route_up_to_60x60():
    rng = random.Random(2024)
    for _ in range(40):
        rows = rng.randint(1, 60)
        cols = rng.randint(1, 60)
        entries = _random_pm_matrix(rng, rows, cols)
        assert rank_bareiss(entries) == rank_fraction_gauss(entries)


def test_bareiss_agrees_with_fraction_route_on_wider_entries():
    rng = random.Random(99)
    for _ in range(30):
        rows = rng.randint(1, 20)
        cols = rng.randint(1, 20)
        entries = _random_pm_matrix(rng, rows, cols, lo=-5, hi=5)
        assert rank_bareiss(entries) == rank_fraction_gauss(entries)


def test_prime_field_rank_never_exceeds_rational_rank():
    rng = random.Random(5)
    for _ in range(60):
        rows = rng.randint(1, 25)
        cols = rng.randint(1, 25)
        entries = _random_pm_matrix(rng, rows, cols)
        rq = rank_bareiss(entries)
        assert rank_gf2(entries) <= rq
        assert rank_mod_p(entries, 3) <= rq
        assert rank_mod_p(entries, 5) <= rq


def test_field_rank_takes_the_route_of_its_field():
    rng = random.Random(23)
    for _ in range(40):
        entries = _random_pm_matrix(rng, rng.randint(1, 25), rng.randint(1, 25))
        assert RATIONALS.rank(entries) == rank_bareiss(entries)
        assert GF2.rank(entries) == rank_gf2(entries)
        assert FieldSpec(3).rank(entries) == rank_mod_p(entries, 3)


def test_rank_invariant_under_transpose():
    rng = random.Random(17)
    for _ in range(40):
        rows = rng.randint(1, 20)
        cols = rng.randint(1, 20)
        m = from_rows(_random_pm_matrix(rng, rows, cols))
        for f in (RATIONALS, GF2, GF3):
            assert rank(m, f) == rank(transpose(m), f)
