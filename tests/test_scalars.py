from fractions import Fraction

import pytest

from plqo.scalars import (
    C_ONE,
    C_ZERO,
    ComplexScalar,
    RAD_ONE,
    RAD_ZERO,
    RadicalScalar,
    parse_radical,
    square_split,
)

from oracles import as_fraction


def rat(q):
    return RadicalScalar.rational(q)


def test_square_split():
    assert square_split(1) == (1, 1)
    assert square_split(8) == (2, 2)
    assert square_split(12) == (2, 3)
    assert square_split(49) == (7, 1)
    assert square_split(360) == (6, 10)


def test_sqrt_normalization():
    assert RadicalScalar.sqrt_of(4) == rat(2)
    assert RadicalScalar.sqrt_of(8) == RadicalScalar.make({2: 2})
    assert RadicalScalar.sqrt_of(Fraction(1, 2)) == RadicalScalar.make({2: Fraction(1, 2)})
    assert RadicalScalar.sqrt_of(0) == RAD_ZERO
    with pytest.raises(ValueError):
        RadicalScalar.sqrt_of(-1)


def test_product_closure():
    s2 = RadicalScalar.sqrt_of(2)
    s3 = RadicalScalar.sqrt_of(3)
    assert s2 * s2 == rat(2)
    assert s2 * s3 == RadicalScalar.sqrt_of(6)
    assert (s2 + s3) * (s2 - s3) == rat(-1)
    # (sqrt2 - 1)(sqrt2 + 1) = 1
    assert (s2 - 1) * (s2 + 1) == RAD_ONE


def test_zero_detection_is_structural():
    s2 = RadicalScalar.sqrt_of(2)
    assert (s2 - s2).is_zero()
    assert not (s2 - rat(Fraction(141421356, 100000000))).is_zero()


def test_exact_sign_and_order():
    s2 = RadicalScalar.sqrt_of(2)
    # very tight rational bounds around sqrt(2)
    below = rat(Fraction(141421356237309504, 100000000000000000))
    above = rat(Fraction(141421356237309505, 100000000000000000))
    assert below < s2 < above
    assert (s2 - below).sign() == 1
    assert (s2 - above).sign() == -1
    # sums of radicals: sqrt(2)+sqrt(3) vs sqrt(5+2*sqrt(6)) are equal,
    # so compare against nearby rationals instead
    lhs = s2 + RadicalScalar.sqrt_of(3)
    assert rat(Fraction(314, 100)) < lhs < rat(Fraction(315, 100))


def test_compares():
    half = RadicalScalar.sqrt_of(Fraction(1, 4))
    assert half.compares("=", Fraction(1, 2))
    assert half.compares("<", Fraction(3, 4))
    assert not half.compares("<", Fraction(1, 2))


def test_as_fraction():
    assert as_fraction(rat(Fraction(3, 4))) == Fraction(3, 4)
    with pytest.raises(ValueError):
        as_fraction(RadicalScalar.sqrt_of(2))


def test_complex_arithmetic():
    i = ComplexScalar(RAD_ZERO, RAD_ONE)
    assert i * i == ComplexScalar.real(-1)
    assert i.conjugate() == ComplexScalar(RAD_ZERO, -RAD_ONE)
    z = ComplexScalar(RadicalScalar.sqrt_of(Fraction(1, 2)), RadicalScalar.sqrt_of(Fraction(1, 2)))
    assert (z * z.conjugate()) == C_ONE
    assert C_ZERO + C_ONE == C_ONE


def test_parse_print_roundtrip():
    cases = [
        "3/4",
        "-1/2",
        "2",
        "0",
        "sqrt(2)",
        "-sqrt(3)",
        "1/2*sqrt(2)",
        "1/2+1/2*sqrt(2)",
        "-2/3*sqrt(6)+1",
    ]
    for text in cases:
        value = parse_radical(text)
        assert parse_radical(str(value)) == value


def test_parse_normalizes():
    assert parse_radical("sqrt(8)") == RadicalScalar.make({2: 2})
    assert parse_radical("1/2 + 1/2") == RAD_ONE
    assert parse_radical("sqrt(2)+sqrt(2)") == RadicalScalar.make({2: 2})


def test_parse_rejects_malformed():
    for bad in ["", "sqrt(2", "sqrt(-1)", "x+1", "2/sqrt(2)"]:
        with pytest.raises(ValueError):
            parse_radical(bad)


def test_float_conversion():
    s2 = RadicalScalar.sqrt_of(2)
    assert abs(float(s2) - 2**0.5) < 1e-12
    z = ComplexScalar(RAD_ONE, s2)
    assert abs(complex(z) - complex(1, 2**0.5)) < 1e-12
