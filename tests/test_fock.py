import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from h3orbifold import fock
from h3orbifold.fock import (ALPHA, BETA, FockState, canonical, change_basis,
                             enumerate_basis, parse_state)
from h3orbifold.qseries import burnside_trace
from h3orbifold.scalars import Scalar


def mono(rank, modes, coeff=F(1), basis=ALPHA):
    return FockState.monomial(rank, modes, coeff, basis)


def series_dim(rank, weight):
    """q^weight coefficient of q^(rank/24) / (q;q)^rank."""
    ch = burnside_trace((1,) * rank, weight)
    return int(ch.coefficient(ch.offset + weight))


def rand_state(rng, basis=ALPHA, maxw=4, rank=3):
    out = FockState(rank, basis)
    for _ in range(rng.randint(1, 4)):
        w = rng.randint(0, maxw)
        out._add_term(rng.choice(enumerate_basis(rank, w)),
                      F(rng.randint(-8, 8), rng.randint(1, 5)))
    return out


def test_states_are_unhashable():
    # terms is a public dict, so a hashed state could change under its hash
    with pytest.raises(TypeError):
        hash(FockState.vacuum(3))


def test_creation_examples():
    vac = FockState.vacuum(3)
    assert vac.apply_creation(1, 1) == mono(3, [(1, 1)])
    two = mono(3, [(1, 1)]).apply_creation(1, 2)
    assert two == mono(3, [(2, 1), (1, 1)])
    assert list(two.terms) == [((2, 1), (1, 1))]  # canonical order
    v = mono(3, [(1, 1)]) + mono(3, [(1, 2)], F(3))
    assert v.apply_creation(3, 2) == (mono(3, [(2, 3), (1, 1)])
                                      + mono(3, [(2, 3), (1, 2)], F(3)))


def test_annihilation_examples():
    a11 = mono(3, [(1, 1)])
    assert a11.apply_annihilation(1, 1) == FockState.vacuum(3)
    assert mono(3, [(2, 1)]).apply_annihilation(1, 2) == FockState.vacuum(3).scale(2)
    assert a11.apply_annihilation(2, 1).is_zero()


def test_commutator_on_random_states():
    rng = random.Random(5)
    for _ in range(200):
        basis = rng.choice([ALPHA, BETA])
        v = rand_state(rng, basis)
        i = rng.randint(1, 3)
        j = rng.randint(1, 3)
        m = rng.randint(1, 3)
        created = v.apply_creation(j, m)
        lhs = created.apply_annihilation(i, m)
        rhs = v.apply_annihilation(i, m).apply_creation(j, m)
        if basis == ALPHA:
            bracket = m if i == j else 0
        else:
            bracket = m if {1: 1, 2: 3, 3: 2}[i] == j else 0
        expected = rhs + v.scale(bracket)
        assert lhs == expected


def test_weight():
    assert FockState.vacuum(3).weight() == 0
    assert mono(3, [(2, 1), (1, 1)]).weight() == 3
    mixed = mono(3, [(1, 1)]) + mono(3, [(2, 1)])
    assert mixed.weight() == "mixed"


def test_enumerate_counts_match_series_oracle():
    assert len(enumerate_basis(3, 0)) == 1
    assert len(enumerate_basis(3, 2)) == 9
    assert len(enumerate_basis(3, 4)) == 51
    for w in range(9):
        assert len(enumerate_basis(3, w)) == series_dim(3, w)
    for w in range(7):
        assert len(enumerate_basis(2, w)) == series_dim(2, w)


def test_enumerate_basis_returns_a_fresh_list():
    first = enumerate_basis(3, 3)
    expected = list(first)
    first.append(((9, 1),))
    first.reverse()
    del first[:5]
    assert enumerate_basis(3, 3) == expected
    assert enumerate_basis(3, 3) is not enumerate_basis(3, 3)
    with pytest.raises(ValueError):
        enumerate_basis(3, -1)


def test_enumerate_canonical_unique():
    for w in range(7):
        mons = enumerate_basis(3, w)
        assert len(set(mons)) == len(mons)
        assert all(canonical(m) == m for m in mons)


def test_basis_change_matrices_compose_to_three_times_the_identity():
    # _A_TO_B is the entry-wise conjugate of _B_TO_A
    for f in (1, 2, 3):
        composed = {}
        for j, w in fock._B_TO_A[f]:
            for g, v in fock._A_TO_B[j]:
                composed[g] = composed.get(g, 0) + w * v
        assert composed == {g: 3 if g == f else 0 for g in (1, 2, 3)}


def test_change_basis_round_trip():
    rng = random.Random(9)
    for _ in range(40):
        v = rand_state(rng, ALPHA)
        assert change_basis(change_basis(v, BETA), ALPHA) == v
        u = rand_state(rng, BETA)
        assert change_basis(change_basis(u, ALPHA), BETA) == u


def test_change_basis_even_length_exact():
    # b2(-1) b3(-1) expands with rational coefficients only
    s = mono(3, [(1, 2), (1, 3)], basis=BETA)
    sa = change_basis(s, ALPHA)
    assert all(isinstance(c, F) for c in sa.terms.values())
    expected = FockState(3, ALPHA)
    for i in (1, 2, 3):
        expected._add_term(((1, i), (1, i)), F(1, 3))
    for (i, j) in ((1, 2), (1, 3), (2, 3)):
        expected._add_term(((1, i), (1, j)), F(-1, 3))
    assert sa == expected


def test_change_basis_b1_convention():
    # one-mode conversions carry the documented extra 1/sqrt(3) as 1/3
    b1 = mono(3, [(1, 1)], basis=BETA)
    sa = change_basis(b1, ALPHA)
    expected = FockState(3, ALPHA)
    for i in (1, 2, 3):
        expected._add_term(((1, i),), F(1, 3))
    assert sa == expected


def test_change_basis_preserves_weight():
    rng = random.Random(3)
    for _ in range(20):
        v = rand_state(rng, ALPHA)
        assert change_basis(v, BETA).weight() == v.weight()


def test_change_basis_rejects_other_ranks():
    with pytest.raises(ValueError):
        change_basis(FockState.vacuum(2), BETA)


def test_rank_and_basis_mismatch():
    with pytest.raises(ValueError):
        FockState.vacuum(3) + FockState.vacuum(2)
    with pytest.raises(ValueError):
        FockState.vacuum(3) + FockState.vacuum(3, BETA)
    with pytest.raises(ValueError):
        FockState.vacuum(3).apply_creation(4, 1)
    with pytest.raises(ValueError):
        FockState.vacuum(3).apply_creation(1, 0)


def test_text_format():
    v = (mono(3, [(2, 1), (1, 1)], F(3, 2))
         + mono(3, [(1, 2)], F(-1)))
    assert str(v) == "-a2(-1) + 3/2*a1(-2)a1(-1)"
    u = mono(3, [(1, 2), (1, 3)], Scalar(1, 1), basis=BETA)
    assert str(u) == "(1 + z)*b2(-1)b3(-1)"


def test_parse_round_trip():
    rng = random.Random(21)
    for _ in range(30):
        v = rand_state(rng, rng.choice([ALPHA, BETA]))
        assert parse_state(str(v), basis=v.basis) == v
    # Scalar coefficients of both signs, with and without a rational part
    for a in (F(-3, 2), F(-1), F(0), F(1), F(2, 5)):
        for b in (F(-2), F(-1), F(-1, 3), F(1), F(7, 4)):
            for modes in ([], [(1, 1), (1, 2)]):
                v = mono(3, modes, Scalar(a, b), basis=BETA) + mono(3, [(2, 3)], F(-1), basis=BETA)
                assert parse_state(str(v), basis=BETA) == v, str(v)
    assert str(mono(3, [(1, 1)], Scalar(-1, 1), basis=BETA)) == "-(1 - z)*b1(-1)"
    w = parse_state("(3/2)*a1(-2)a1(-1) + 2*a2(-1)")
    assert w == mono(3, [(2, 1), (1, 1)], F(3, 2)) + mono(3, [(1, 2)], F(2))
    z = parse_state("(1+z)*b2(-1)b3(-1)")
    assert z.coefficient([(1, 2), (1, 3)]) == Scalar(1, 1)


def test_scalar_coefficients_normalize():
    v = FockState(3, ALPHA)
    v._add_term(((1, 1),), Scalar(F(1, 2), 0))
    assert isinstance(v.terms[((1, 1),)], F)
    v._add_term(((1, 1),), Scalar(F(-1, 2), 0))
    assert v.is_zero()


@settings(max_examples=40)
@given(st.integers(0, 6))
def test_dimension_oracle_agreement(w):
    # counting oracle equals the partition-product coefficient
    assert series_dim(3, w) == len(enumerate_basis(3, w))


@settings(max_examples=300)
@given(st.text(alphabet="ab0123z()+-*/ ", max_size=24) | st.text(max_size=24))
def test_parse_state_raises_only_value_error(text):
    try:
        state = parse_state(text)
    except ValueError:
        return
    assert isinstance(state, FockState)


def test_parse_state_rejects_malformed_input():
    for text in ["a1", "a1(", "3/0*a1(-1)", "(1/0)*a1(-1)", "a4(-1)", "a0(-1)",
                 "a1(-1", "c1(-1)", "a1(1)"]:
        with pytest.raises(ValueError):
            parse_state(text)
