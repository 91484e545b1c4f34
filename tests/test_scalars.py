from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from h3orbifold.scalars import (MAX_DECIMAL_EXPONENT, Scalar, ZETA,
                                parse_rational, parse_scalar)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)
scalars = st.builds(Scalar, rationals, rationals)


def test_defining_relation():
    assert ZETA * ZETA == Scalar(-1, -1)
    assert ZETA * Scalar(-1, -1) == Scalar(1, 0)  # z^3 = 1
    assert Scalar(1, 1) + Scalar(-1, -1) == Scalar(0, 0)


def test_inverse_examples():
    assert ZETA.inverse() == Scalar(-1, -1)
    assert Scalar(2).inverse() == Scalar(F(1, 2))
    # (1+z)(-z) = -z - z^2 = 1
    inv = Scalar(1, 1).inverse()
    assert inv == Scalar(0, -1)
    assert Scalar(1, 1) * inv == Scalar(1)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Scalar(0).inverse()


def test_conjugation():
    assert ZETA.conjugate() == Scalar(-1, -1)
    assert Scalar(F(3, 7)).conjugate() == Scalar(F(3, 7))
    x = Scalar(1, 2)
    assert x.conjugate().conjugate() == x


@given(scalars, scalars, scalars)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == Scalar(0)


@given(scalars)
def test_inverse_round_trip(x):
    if x:
        assert x * x.inverse() == Scalar(1)


@given(scalars, scalars)
def test_norm_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@given(scalars, scalars)
def test_conjugation_is_ring_map(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()


def test_rational_interop():
    assert Scalar(F(1, 2)) == F(1, 2)
    assert F(1, 3) * ZETA == Scalar(0, F(1, 3))
    assert (ZETA + 1) * (ZETA + 1) == ZETA  # (1+z)^2 = 1 + 2z + z^2 = z


def test_reduced_after_many_operations():
    import random
    rng = random.Random(11)
    x = Scalar(1, 0)
    for _ in range(100):
        y = Scalar(F(rng.randint(-9, 9), rng.randint(1, 9)),
                   F(rng.randint(-9, 9), rng.randint(1, 9)))
        x = x * y + y if y else x + Scalar(1)
    assert x.a.denominator > 0 and x.b.denominator > 0
    # Fractions stay normalized by construction
    from math import gcd
    assert gcd(abs(x.a.numerator), x.a.denominator) == 1


def test_text_round_trip():
    for text in ["z", "1 + z", "-1 - z", "3/7", "2*z", "1/2 - 5/3*z", "-z"]:
        x = parse_scalar(text)
        assert parse_scalar(str(x)) == x
    for text in ["1/0", "1 + 2/0*z", "", "+", "q"]:
        with pytest.raises(ValueError):
            parse_scalar(text)


def test_str_forms():
    assert str(Scalar(1, 1)) == "1 + z"
    assert str(Scalar(0, 1)) == "z"
    assert str(Scalar(F(3, 2))) == "3/2"
    assert str(Scalar(F(1, 2), F(-2, 3))) == "1/2 - 2/3*z"


#: every form of rational text that ``parse_rational`` reads
RATIONAL_TEXTS = ["3/4", "-2E-1000", "1e0001000", "1_000", "1.5", "-7",
                  "1e1000", "2.5e+3", "-0"]


@pytest.mark.parametrize("text", RATIONAL_TEXTS)
def test_parse_rational_reads_as_fraction_does(text):
    assert parse_rational(text) == F(text)
    assert Scalar(text) == F(text)


@pytest.mark.parametrize("text, a, b", [
    ("1.5 - 3/4*z", "1.5", "-3/4"), ("1_000z", "0", "1_000"),
    ("1e0001000 + 2.5e3*z", "1e0001000", "2.5e3"), ("-z", "0", "-1"),
    ("1e-5 - 2E+1z", "1e-5", "-2E+1"),
])
def test_parse_scalar_reads_each_part_as_fraction_does(text, a, b):
    assert parse_scalar(text) == Scalar(F(a), F(b))


def test_parse_scalar_reads_a_signed_exponent():
    assert parse_scalar("2.5e+3*z") == Scalar(0, 2500)


# each text is cheap to expand, so a reader without the cap returns at once
@pytest.mark.parametrize("text", ["1e1001", "1E1_001", "2.5e2000", "1e+1001",
                                  "2.5e-2000"])
def test_scalar_readers_refuse_an_exponent_past_the_cap(text):
    assert MAX_DECIMAL_EXPONENT == 1000
    for read, arg in ((Scalar, text), (parse_scalar, text),
                      (parse_scalar, f"{text}*z"), (parse_scalar, f"1 - {text}z")):
        with pytest.raises(ValueError, match="exponent"):
            read(arg)
