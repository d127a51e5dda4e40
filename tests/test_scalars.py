import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from plqo.errors import BudgetExceeded
from plqo.scalars import (
    C_ONE,
    C_ZERO,
    MAX_TRIAL_DIVISOR,
    ComplexScalar,
    RAD_ONE,
    RAD_ZERO,
    RadicalScalar,
    parse_radical,
    parse_rational,
    square_split,
)

from oracles import (
    as_fraction,
    complex_add,
    complex_mul,
    complex_sub,
    is_canonical,
    radical_add,
    radical_mul,
    radical_sub,
    square_split_bruteforce,
)

# Two 30-digit primes; their product has no factor a bounded trial division finds.
P30 = 10**29 + 319
Q30 = 10**29 + 379


def rat(q):
    return RadicalScalar.rational(q)


def test_square_split():
    assert square_split(1) == (1, 1)
    assert square_split(8) == (2, 2)
    assert square_split(12) == (2, 3)
    assert square_split(49) == (7, 1)
    assert square_split(360) == (6, 10)


def test_square_split_matches_bruteforce():
    for n in range(1, 20001):
        assert square_split(n) == square_split_bruteforce(n), n


def _is_prime(n):
    return n > 1 and all(n % k for k in range(2, int(n**0.5) + 1))


def _primes_after(start, count):
    out = []
    while len(out) < count:
        start += 1
        if _is_prime(start):
            out.append(start)
    return out


def test_square_split_seeded_products():
    # n = s*s*d with d squarefree splits as (s, d); primes just above the
    # trial bound stay exact while the cofactor they leave is below its cube.
    small = [p for p in range(2, 200) if _is_prime(p)]
    big = _primes_after(MAX_TRIAL_DIVISOR, 3)
    rng = random.Random(5)
    for _ in range(300):
        s = 1
        for p in rng.sample(small, rng.randint(0, 4)):
            s *= p ** rng.randint(1, 3)
        d = 1
        for p in rng.sample(small, rng.randint(0, 4)):
            d *= p
        chosen = rng.sample(big, 2)
        case = rng.randrange(4)
        if case == 1:
            d *= chosen[0]
        elif case == 2:
            d *= chosen[0] * chosen[1]
        elif case == 3:
            s *= chosen[0]
        assert square_split(s * s * d) == (s, d)


def test_square_split_smooth_numbers_of_any_size():
    assert square_split(2**200 * 3**50) == (2**100 * 3**25, 1)
    assert square_split(2**201 * 3**51 * 7) == (2**100 * 3**25, 42)


def test_square_split_past_the_bound_is_a_budget_error():
    with pytest.raises(BudgetExceeded, match=str(MAX_TRIAL_DIVISOR)):
        square_split(P30 * Q30)
    with pytest.raises(BudgetExceeded):
        RadicalScalar.sqrt_of(Fraction(1, P30 * Q30))
    # numerator and denominator are split apart, so each 18-digit prime is in range
    p18, q18 = 100000000000000003, 100000000000000013
    assert RadicalScalar.sqrt_of(Fraction(p18, q18)) == RadicalScalar.make(
        {p18 * q18: Fraction(1, q18)}
    )


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
    s6 = RadicalScalar.sqrt_of(6)
    assert s6 * RadicalScalar.sqrt_of(10) == RadicalScalar.make({15: 2})
    assert s6 * s6 == rat(6)
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


def test_parse_rational_keeps_the_fraction_grammar():
    for text in ["3", "-3", "1/3", "0.5", "5e-1", " +.5 ", "1" + "0" * 999]:
        assert parse_rational(text) == Fraction(text)
    # Fraction reads underscores only from Python 3.11
    assert parse_rational("1_000") == Fraction(1000)
    assert parse_rational(Fraction(2, 3)) == Fraction(2, 3)
    assert parse_rational(7) == 7
    assert parse_rational("1e1000") == 10**1000
    with pytest.raises(ValueError):
        parse_rational("e5")
    # JSON true/false are not numbers, though Fraction(True) == 1
    for flag in (True, False):
        with pytest.raises(TypeError):
            parse_rational(flag)


@pytest.mark.parametrize(
    "text", ["1e10000000", "1e-10000000", "2.5E+1001", "1" * 1001, "1/" + "3" * 1001, "1e1_0_0_1"]
)
def test_parse_rational_budget(text):
    with pytest.raises(BudgetExceeded, match="budget 1000"):
        parse_rational(text)


@pytest.mark.parametrize("text", ["1e10000000", "1e10000000*sqrt(2)", "sqrt(2)+1e1001"])
def test_parse_radical_budget(text):
    with pytest.raises(BudgetExceeded, match="budget 1000"):
        parse_radical(text)


def test_float_conversion():
    s2 = RadicalScalar.sqrt_of(2)
    assert abs(float(s2) - 2**0.5) < 1e-12
    z = ComplexScalar(RAD_ONE, s2)
    assert abs(complex(z) - complex(1, 2**0.5)) < 1e-12


def _rational_text(rng):
    """A seeded text of the rational grammar: a sign, digit runs with
    single underscores, then a denominator or a decimal part and an
    exponent, which may carry its own sign."""

    def run(most):
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, most)))
        if len(digits) > 1 and rng.random() < 0.2:
            cut = rng.randint(1, len(digits) - 1)
            digits = digits[:cut] + "_" + digits[cut:]
        return digits

    sign = rng.choice(["", "+", "-"])
    form = rng.randrange(4)
    if form == 0:
        return sign + run(6)
    if form == 1:
        return f"{sign}{run(6)}/{rng.randint(1, 999)}"
    head = rng.choice([run(4) + ".", "." + run(4), run(4) + "." + run(4), run(4)])
    if form == 2:
        return sign + head
    return f"{sign}{head}{rng.choice('eE')}{rng.choice(['', '+', '-'])}{run(2)}"


def test_parse_radical_reads_the_rational_grammar():
    rng = random.Random(11)
    exponents = 0
    for _ in range(500):
        text = _rational_text(rng)
        assert parse_radical(text) == RadicalScalar.rational(parse_rational(text)), text
        exponents += "e-" in text.lower() or "e+" in text.lower()
    assert exponents > 20
    assert parse_radical("5e-1") == rat(Fraction(1, 2))
    assert parse_radical("-2.5E-1") == rat(Fraction(-1, 4))


def test_parse_radical_terms_with_exponents():
    assert parse_radical("2.5E+3*sqrt(2)") == RadicalScalar.make({2: 2500})
    assert parse_radical("1e-1*sqrt(8)-5e-1") == RadicalScalar.make(
        {1: Fraction(-1, 2), 2: Fraction(1, 5)}
    )
    assert parse_radical("sqrt(4e2)") == rat(20)
    for bad in ["sqrt(1/2)", "sqrt(0)", "sqrt(2.5)", "1+-2", "2*", "2sqrt(2)", "sqrt()"]:
        with pytest.raises(ValueError):
            parse_radical(bad)


def test_parse_print_roundtrip_seeded():
    rng = random.Random(13)
    for _ in range(200):
        radicands = rng.sample([1, 2, 3, 5, 6, 7, 10, 30], rng.randint(0, 4))
        value = RadicalScalar.make(
            {d: Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for d in radicands}
        )
        assert parse_radical(str(value)) == value


@pytest.mark.parametrize("text", ["١", "1/٢", "1e٩٩٩٩٩٩٩", "１", "1²"])
def test_non_ascii_digits_are_rejected_at_once(text):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        parse_rational(text)
    with pytest.raises(ValueError):
        parse_radical(text)
    with pytest.raises(ValueError):
        parse_radical(f"sqrt({text})")
    assert time.perf_counter() - start < 0.1


def test_radicand_budget():
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="1001 digits exceeds budget 1000"):
        parse_radical("sqrt(" + "7" * 1001 + ")")
    assert time.perf_counter() - start < 0.1


# -- fast paths against the general arithmetic -----------------------------------

_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_radicals = st.one_of(
    st.just(RAD_ZERO),
    st.just(RAD_ONE),
    _fractions.map(RadicalScalar.rational),
    st.dictionaries(st.sampled_from([1, 2, 3, 5, 6, 10, 15, 30]), _fractions, max_size=4).map(
        RadicalScalar.make
    ),
)
_complexes = st.one_of(
    st.sampled_from([C_ZERO, C_ONE]),
    _radicals.map(ComplexScalar.real),
    st.builds(ComplexScalar, _radicals, _radicals),
)


def _canonical_complex(z):
    return is_canonical(z.re) and is_canonical(z.im)


@given(_radicals, _radicals)
def test_radical_arithmetic_matches_the_general_loop(a, b):
    for got, want in ((a + b, radical_add(a, b)), (a - b, radical_sub(a, b)),
                      (a * b, radical_mul(a, b))):
        assert got == want
        assert is_canonical(got)


@given(_complexes, _complexes)
def test_complex_arithmetic_matches_the_general_loop(a, b):
    for got, want in ((a + b, complex_add(a, b)), (a - b, complex_sub(a, b)),
                      (a * b, complex_mul(a, b))):
        assert got == want
        assert _canonical_complex(got)


def test_fast_paths_return_canonical_values():
    s2 = RadicalScalar.sqrt_of(2)
    assert RAD_ZERO * s2 is RAD_ZERO and s2 * RAD_ZERO is RAD_ZERO
    assert RAD_ZERO + s2 is s2 and s2 + RAD_ZERO is s2
    assert rat(Fraction(2, 3)) * rat(Fraction(-3, 4)) == rat(Fraction(-1, 2))
    assert (rat(2) * rat(3)).terms == ((1, Fraction(6)),)
    assert isinstance((rat(2) * rat(3)).terms[0][1], Fraction)
    assert rat(Fraction(1, 2)) + rat(Fraction(-1, 2)) == RAD_ZERO
    assert RadicalScalar.make({1: 0, 2: Fraction(0), 3: 2}).terms == ((3, Fraction(2)),)
    assert C_ONE * ComplexScalar(RAD_ZERO, s2) == ComplexScalar(RAD_ZERO, s2)
    assert ComplexScalar.real(s2) * ComplexScalar.real(s2) == ComplexScalar.real(2)
    assert (C_ONE + C_ONE).im is RAD_ZERO
    assert ComplexScalar.real(s2).conjugate() == ComplexScalar.real(s2)
    assert not C_ZERO and C_ONE


_nonzero_fractions = _fractions.filter(bool)


@st.composite
def _single_terms_over_one_radicand(draw):
    """Two single-term radicals c1*sqrt(d) and c2*sqrt(d), with c2 = -c1
    and c2 = c1 drawn often, and d = 1 among the radicands."""
    d = draw(st.sampled_from([1, 1, 2, 3, 6, 30]))
    c1 = draw(_nonzero_fractions)
    c2 = draw(st.one_of(st.just(-c1), st.just(c1), _nonzero_fractions))
    return RadicalScalar.make({d: c1}), RadicalScalar.make({d: c2})


@given(_single_terms_over_one_radicand())
def test_single_terms_over_one_radicand_match_the_general_loop(pair):
    a, b = pair
    for got, want in ((a + b, radical_add(a, b)), (a - b, radical_sub(a, b)),
                      (a * b, radical_mul(a, b)), (b * a, radical_mul(b, a))):
        assert got == want
        assert is_canonical(got)
    for x, y in ((ComplexScalar.real(a), ComplexScalar.real(b)),
                 (ComplexScalar(a, b), ComplexScalar(b, a)),
                 (ComplexScalar(a, a), ComplexScalar(RAD_ZERO, b))):
        assert x * y == complex_mul(x, y) and _canonical_complex(x * y)
        assert x + y == complex_add(x, y) and _canonical_complex(x + y)


def test_single_terms_over_one_radicand_stay_canonical():
    s2 = RadicalScalar.sqrt_of(2)
    assert (s2 + -s2) is RAD_ZERO
    assert (s2 * s2).terms == ((1, Fraction(2)),)
    assert (rat(Fraction(1, 3)) * rat(3)).terms == ((1, Fraction(1)),)
    third = RadicalScalar.sqrt_of(Fraction(1, 3))  # sqrt(3)/3
    assert (third + third).terms == ((3, Fraction(2, 3)),)
    assert (third * third).terms == ((1, Fraction(1, 3)),)
    for x in (s2 + s2, s2 * s2, third * third, RadicalScalar.make({2: 3, 1: Fraction(1, 2), 5: 0})):
        assert is_canonical(x)
