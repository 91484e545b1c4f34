import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from h3orbifold.classical import (CPoly, cpoly_polarization, cpoly_relation,
                                  q0, RELATION_TERMS)


def test_polarization_examples():
    q1 = cpoly_polarization(1, (0,))
    expected = (CPoly.variable("x", 1, 0) + CPoly.variable("x", 2, 0)
                + CPoly.variable("x", 3, 0))
    assert q1 == expected
    q2 = cpoly_polarization(2, (0, 1))
    assert len(q2.terms) == 3
    with pytest.raises(ValueError):
        cpoly_polarization(2, (0,))
    with pytest.raises(ValueError):
        cpoly_polarization(1, (-1,))


def test_diagonal_family():
    assert q0(1, (3,)) == CPoly.variable("y", 1, 3)
    q2 = q0(2, (0, 1))
    assert len(q2.terms) == 2
    q3 = q0(3, (0, 0, 0))
    assert len(q3.terms) == 2


def test_cpoly_ring_ops():
    x = CPoly.variable("y", 2, 0)
    y = CPoly.variable("y", 3, 1)
    assert (x + y) * (x - y) == x * x - y * y
    assert (x * 0).is_zero()
    assert x * F(1, 2) + x * F(1, 2) == x


def test_relations_vanish_at_distinct_labels():
    # distinct formal labels make this a polynomial-identity proof
    assert cpoly_relation("D6C1", (0, 1, 2, 3, 4, 5)).is_zero()
    assert cpoly_relation("D6C2", (0, 1, 2, 3, 4, 5)).is_zero()
    assert cpoly_relation("D5C", (0, 1, 2, 3, 4)).is_zero()


def test_relations_vanish_on_random_indices():
    rng = random.Random(23)
    for _ in range(25):
        assert cpoly_relation("D6C1", [rng.randint(0, 3) for _ in range(6)]).is_zero()
        assert cpoly_relation("D6C2", [rng.randint(0, 3) for _ in range(6)]).is_zero()
        assert cpoly_relation("D5C", [rng.randint(0, 3) for _ in range(5)]).is_zero()


def test_arity_checks():
    with pytest.raises(ValueError):
        cpoly_relation("D5C", (0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        cpoly_relation("nope", (0,) * 6)


def test_printed_cubic_tail_defect_is_documented():
    """Freeze the source-display defect: the four-term half-integer tail does
    not cancel the mixed part of the cubic products.  The catalog's eight-term
    tail (three of whose terms coincide with the display) is what vanishes."""
    printed_tail = [
        (F(1, 2), [(2, (0, 2)), (2, (1, 5)), (2, (3, 4))]),
        (F(-1, 2), [(2, (0, 3)), (2, (1, 4)), (2, (2, 5))]),
        (F(1, 2), [(2, (0, 4)), (2, (1, 2)), (2, (3, 5))]),
        (F(-1, 2), [(2, (0, 4)), (2, (1, 3)), (2, (2, 5))]),
    ]
    idx = (0, 1, 2, 3, 4, 5)
    out = (q0(3, (0, 1, 2)) * q0(3, (3, 4, 5))
           - q0(3, (0, 1, 3)) * q0(3, (2, 4, 5)))
    for coeff, factors in printed_tail:
        term = CPoly.constant(coeff)
        for k, pos in factors:
            term = term * q0(k, tuple(idx[p] for p in pos))
        out = out + term
    assert not out.is_zero()
    # and three of the four printed pairings appear in the corrected tail
    corrected_pairings = {tuple(pos for _, pos in factors)
                          for _, factors in RELATION_TERMS["D6C2"][2:]}
    printed_pairings = {tuple(pos for _, pos in factors)
                        for _, factors in printed_tail}
    assert len(printed_pairings & corrected_pairings) == 3


def _q0_products(k: int, slots) -> CPoly:
    """The diagonalized generators as ``CPoly`` products of variables: the
    definition ``q0`` had before it was read from a code table."""
    y = lambda i, m: CPoly.variable("y", i, m)
    if k == 1:
        return y(1, slots[0])
    if k == 2:
        a, b = slots
        return y(2, a) * y(3, b) + y(3, a) * y(2, b)
    a, b, c = slots
    return y(2, a) * y(2, b) * y(2, c) + y(3, a) * y(3, b) * y(3, c)


def test_q0_equals_the_variable_products():
    for k in (1, 2, 3):
        for slots in itertools.product(range(4), repeat=k):
            assert _typed(q0(k, slots)) == _typed(_q0_products(k, slots))
            assert repr(q0(k, list(slots))) == repr(_q0_products(k, slots))
    for k, slots in [(2, (0,)), (1, (-1,)), (3, (0, -2, 1)), (4, (0,) * 4),
                     (0, ())]:
        with pytest.raises(ValueError):
            q0(k, slots)


def test_q0_has_the_monomials_of_the_diagonal_generator():
    # classical._q0_codes reads the field patterns of symmetry.FAMILIES; q0
    # must be the commutative shadow of the generator gen builds: y_f(m) for
    # each mode of level m + 1 on field f of omega{k}_0, with the same
    # coefficients
    from h3orbifold.symmetry import gen
    for k in (1, 2, 3):
        for slots in itertools.product(range(4), repeat=k):
            state = gen(f"omega{k}_0", *slots)
            shadow = CPoly()
            for mon, c in state.terms.items():
                term = CPoly.constant(c)
                for level, field in mon:
                    term = term * CPoly.variable("y", field, level - 1)
                shadow = shadow + term
            assert q0(k, slots) == shadow, (k, slots)


def test_polarization_has_the_monomials_of_the_standard_generator():
    # cpoly_polarization reads the field patterns of symmetry.FAMILIES: it
    # must be the commutative shadow of omega{k}, x_f(m) for each mode of
    # level m + 1 on field f, with the same coefficients and their types
    from h3orbifold.symmetry import gen
    for k in (1, 2, 3):
        for slots in itertools.product(range(4), repeat=k):
            state = gen(f"omega{k}", *slots)
            shadow = CPoly()
            for mon, c in state.terms.items():
                term = CPoly.constant(c)
                for level, field in mon:
                    term = term * CPoly.variable("x", field, level - 1)
                shadow = shadow + term
            got = cpoly_polarization(k, slots)
            assert _typed(got) == _typed(shadow), (k, slots)
            assert repr(got) == repr(shadow)
    for k in (0, 4):
        with pytest.raises(ValueError):
            cpoly_polarization(k, (0,) * k)


def _cpoly_product_relation(terms, idx) -> CPoly:
    """The relation as a sum of generator products formed by ``CPoly``: the
    expansion ``cpoly_relation`` replaces, kept as its oracle."""
    out = CPoly()
    for coeff, factors in terms:
        term = CPoly.constant(coeff)
        for k, pos in factors:
            term = term * _q0_products(k, tuple(idx[p] for p in pos))
        out = out + term
    return out


def _typed(poly: CPoly) -> dict:
    return {mon: (c, type(c)) for mon, c in poly.terms.items()}


_ARITY = {"D5C": 5, "D6C1": 6, "D6C2": 6}


@st.composite
def _perturbed_relations(draw):
    """(family, terms, multi-index): the family's terms as they are, with
    one term dropped, one sign flipped, one coefficient moved by 1/2, or
    the terms rotated so that integral ones follow fractional ones."""
    rel = draw(st.sampled_from(sorted(_ARITY)))
    terms = list(RELATION_TERMS[rel])
    kind = draw(st.sampled_from(["none", "drop", "sign", "half", "rotate"]))
    t = draw(st.integers(0, len(terms) - 1))
    coeff, factors = terms[t]
    if kind == "drop":
        del terms[t]
    elif kind == "sign":
        terms[t] = (-coeff, factors)
    elif kind == "half":
        terms[t] = (coeff + draw(st.sampled_from([F(1, 2), F(-1, 2)])), factors)
    elif kind == "rotate":
        terms = terms[t:] + terms[:t]
    idx = tuple(draw(st.lists(st.integers(0, 5), min_size=_ARITY[rel],
                              max_size=_ARITY[rel])))
    return rel, terms, idx


@settings(max_examples=300, deadline=None)
@given(_perturbed_relations())
def test_relation_expansion_equals_the_cpoly_products(case):
    rel, terms, idx = case
    want = _cpoly_product_relation(terms, idx)
    saved = RELATION_TERMS[rel]
    RELATION_TERMS[rel] = terms
    try:
        got = cpoly_relation(rel, idx)
    finally:
        RELATION_TERMS[rel] = saved
    assert got == want
    assert repr(got) == repr(want)
    assert _typed(got) == _typed(want)


def test_perturbed_relations_leave_typed_residuals():
    """The oracle test above sees nonzero residuals of both coefficient
    types: a D6C2 term dropped leaves half-integers, a D6C1 sign flip
    integers, and a tail term moved to an integer leaves Fractions of
    integral value."""
    d6c1, d6c2 = RELATION_TERMS["D6C1"], RELATION_TERMS["D6C2"]
    cases = [("D6C2", d6c2[:-1], (0, 1, 2, 3, 4, 5)),
             ("D6C1", [(-d6c1[0][0], d6c1[0][1])] + d6c1[1:],
              (0, 1, 2, 3, 4, 5)),
             ("D6C2", d6c2[:2] + [(F(1), d6c2[2][1])] + d6c2[3:],
              (0, 0, 1, 1, 2, 2))]
    kinds = set()
    for rel, terms, idx in cases:
        saved = RELATION_TERMS[rel]
        RELATION_TERMS[rel] = terms
        try:
            got = cpoly_relation(rel, idx)
        finally:
            RELATION_TERMS[rel] = saved
        assert not got.is_zero()
        assert _typed(got) == _typed(_cpoly_product_relation(terms, idx))
        kinds |= {(type(c), c.denominator) for c in got.terms.values()}
    assert {(int, 1), (F, 1), (F, 2)} <= kinds
