"""Exact scalar arithmetic for the quantum semantics.

Real scalars are finite Q-linear combinations sum c_d*sqrt(d) over
squarefree positive integers d (d=1 is the rational part).  Square roots
of distinct squarefree integers are linearly independent over Q, so
equality testing is coefficient-wise, and the sign of a nonzero value can
be certified by refining rational bounds on each sqrt(d).

A value is canonical: its terms ascend by squarefree radicand, and each
coefficient is a nonzero Fraction.  Every operation returns canonical
values, so equal values have equal terms.

Complex scalars are pairs of real scalars.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import BudgetExceeded
from .parser import MAX_DIGITS

# Largest trial divisor square_split tries before it gives up on a radicand.
MAX_TRIAL_DIVISOR = 1 << 20


def square_split(n):
    """n = s*s*d with d squarefree; returns (s, d).  Requires n >= 1.  Trial
    division runs while p**3 <= n; every prime left is then at least p, so
    the rest is 1, a prime, a prime square or a product of two distinct
    primes, and one integer square root tells which."""
    s = d = 1
    p = 2
    while p * p * p <= n:
        if p > MAX_TRIAL_DIVISOR:
            raise BudgetExceeded(
                f"a {n.bit_length()}-bit radicand needs trial division past {MAX_TRIAL_DIVISOR}"
            )
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            d *= p
        p += 1 if p == 2 else 2
    r = isqrt(n)
    if r * r == n:
        return s * r, d
    return s, d * n


def _sqrt_bounds(d, prec):
    """Rational l <= sqrt(d) <= u with u - l = 2^-prec."""
    scale = 1 << prec
    root = isqrt(d * scale * scale)
    return Fraction(root, scale), Fraction(root + 1, scale)


@dataclass(frozen=True)
class RadicalScalar:
    """sum of c*sqrt(d) terms; ``terms`` is a sorted tuple of (d, c) pairs
    with squarefree d and nonzero rational c."""

    terms: tuple

    @staticmethod
    def make(coeffs):
        """From a {d: c} map; drops zeros, sorts, validates nothing else."""
        return RadicalScalar(tuple(
            (d, q) for d, c in sorted(coeffs.items())
            if (q := c if type(c) is Fraction else Fraction(c))
        ))

    @staticmethod
    def rational(q):
        return RadicalScalar.make({1: Fraction(q)})

    @staticmethod
    def sqrt_of(q):
        """Exact square root of a nonnegative rational."""
        q = Fraction(q)
        if q < 0:
            raise ValueError("square root of a negative rational")
        if q == 0:
            return RAD_ZERO
        s_num, d_num = square_split(q.numerator)
        s_den, d_den = square_split(q.denominator)
        # sqrt(a/b) = sqrt(a*b)/b, and coprime a, b make d_num*d_den squarefree
        return RadicalScalar.make({d_num * d_den: Fraction(s_num, s_den * d_den)})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        other = _coerce_real(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        if len(self.terms) == len(other.terms) == 1 and self.terms[0][0] == other.terms[0][0]:
            # c1*sqrt(d) + c2*sqrt(d) = (c1 + c2)*sqrt(d)
            (d, c1), (_, c2) = self.terms[0], other.terms[0]
            c = c1 + c2
            return RadicalScalar(((d, c),)) if c else RAD_ZERO
        out = dict(self.terms)
        for d, c in other.terms:
            out[d] = out.get(d, Fraction(0)) + c
        return RadicalScalar.make(out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return RadicalScalar(tuple((d, -c) for d, c in self.terms))

    def __sub__(self, other):
        return self + (-_coerce_real(other))

    def __rsub__(self, other):
        return _coerce_real(other) + (-self)

    def __mul__(self, other):
        other = _coerce_real(other)
        if not self.terms or not other.terms:
            return RAD_ZERO
        if len(self.terms) == len(other.terms) == 1 and self.terms[0][0] == other.terms[0][0]:
            # c1*sqrt(d) * c2*sqrt(d) = c1*c2*d, a nonzero rational
            (d, c1), (_, c2) = self.terms[0], other.terms[0]
            return RadicalScalar(((1, c1 * c2 if d == 1 else c1 * c2 * d),))
        out = {}
        for d1, c1 in self.terms:
            for d2, c2 in other.terms:
                # squarefree d1, d2: d1*d2 = g*g * (d1/g)*(d2/g), the last squarefree
                g = gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                out[d] = out.get(d, Fraction(0)) + c1 * c2 * g
        return RadicalScalar.make(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def sign(self):
        """-1, 0 or +1; exact.  Zero iff no terms (independence of square
        roots of distinct squarefree integers); otherwise rational sqrt
        bounds are refined until they separate the sum from zero."""
        if not self.terms:
            return 0
        prec = 16
        while True:
            lo = Fraction(0)
            hi = Fraction(0)
            for d, c in self.terms:
                l, u = _sqrt_bounds(d, prec)
                if c >= 0:
                    lo += c * l
                    hi += c * u
                else:
                    lo += c * u
                    hi += c * l
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2

    def __lt__(self, other):
        return (self - _coerce_real(other)).sign() < 0

    def __le__(self, other):
        return (self - _coerce_real(other)).sign() <= 0

    def __gt__(self, other):
        return (self - _coerce_real(other)).sign() > 0

    def __ge__(self, other):
        return (self - _coerce_real(other)).sign() >= 0

    def compares(self, cmp, q):
        """Apply a primitive comparison symbol against a rational."""
        if cmp == "=":
            return self == RadicalScalar.rational(q)
        if cmp == "<":
            return self < RadicalScalar.rational(q)
        raise ValueError(f"unknown comparison {cmp}")

    def __float__(self):
        out = 0.0
        for d, c in self.terms:
            out += float(c) * d**0.5
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for d, c in self.terms:
            if d == 1:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"sqrt({d})")
            elif c == -1:
                parts.append(f"-sqrt({d})")
            else:
                parts.append(f"{c}*sqrt({d})")
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def __repr__(self):
        return f"<RadicalScalar {self}>"


RAD_ZERO = RadicalScalar(())
RAD_ONE = RadicalScalar.rational(1)


def _coerce_real(x):
    if isinstance(x, RadicalScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return RadicalScalar.rational(x)
    raise TypeError(f"cannot treat {x!r} as an exact real scalar")


@dataclass(frozen=True)
class ComplexScalar:
    re: RadicalScalar
    im: RadicalScalar

    @staticmethod
    def real(x):
        return ComplexScalar(_coerce_real(x), RAD_ZERO)

    def conjugate(self):
        return ComplexScalar(self.re, -self.im) if self.im.terms else self

    def is_zero(self):
        return not (self.re.terms or self.im.terms)

    def __bool__(self):
        return bool(self.re.terms or self.im.terms)

    def __add__(self, other):
        other = coerce_complex(other)
        if not self.im.terms and not other.im.terms:
            return ComplexScalar(self.re + other.re, RAD_ZERO)
        return ComplexScalar(self.re + other.re, self.im + other.im)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return ComplexScalar(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-coerce_complex(other))

    def __mul__(self, other):
        other = coerce_complex(other)
        # the one that generic structures share multiplies for free
        if self is C_ONE:
            return other
        if other is C_ONE:
            return self
        if not self.im.terms and not other.im.terms:
            return ComplexScalar(self.re * other.re, RAD_ZERO)
        if not self.im.terms:
            return ComplexScalar(self.re * other.re, self.re * other.im)
        if not other.im.terms:
            return ComplexScalar(self.re * other.re, self.im * other.re)
        return ComplexScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        if self.im.is_zero():
            return str(self.re)
        return f"({self.re})+({self.im})i"

    def __repr__(self):
        return f"<ComplexScalar {self}>"


C_ZERO = ComplexScalar(RAD_ZERO, RAD_ZERO)
C_ONE = ComplexScalar(RAD_ONE, RAD_ZERO)


def coerce_complex(x):
    if isinstance(x, ComplexScalar):
        return x
    if isinstance(x, RadicalScalar):
        return ComplexScalar(x, RAD_ZERO)
    if isinstance(x, (int, Fraction)):
        return ComplexScalar.real(x)
    raise TypeError(f"cannot treat {x!r} as an exact complex scalar")


# -- string forms ------------------------------------------------------------
#
# One ASCII grammar reads every number in text.  A rational is a subset of
# Fraction's string grammar, in [0-9] only: digit runs joined by single
# underscores, then a denominator, or a decimal part and a signed exponent
# ("3", "-1/3", ".5", "5e-1", "1_000").  A real scalar, as __str__ writes
# it, is a sum of signed terms q, q*sqrt(n) or sqrt(n), n a positive integer.

_DIGITS = r"[0-9]+(?:_[0-9]+)*"
_RATIONAL = (
    rf"(?=\.?[0-9])({_DIGITS})?"
    rf"(?:/({_DIGITS})|(?:\.({_DIGITS})?)?(?:[eE]([-+]?)({_DIGITS}))?)"
)
_RATIONAL_RE = re.compile(rf"\s*([-+]?){_RATIONAL}\s*")
_TERM_RE = re.compile(rf"(?P<sign>[-+])(?P<q>{_RATIONAL})?(?:(?(q)\*)sqrt\((?P<n>[^()]*)\))?")


def parse_rational(value):
    """The rational a text of the grammar above names; any other value goes
    to ``Fraction``.  A digit run or an exponent past MAX_DIGITS is a budget
    error, since a few characters of exponent can name millions of digits.
    A bool (a JSON true/false) is not a number here."""
    if isinstance(value, bool):
        raise TypeError(f"not a rational: {value!r}")
    if not isinstance(value, str):
        return Fraction(value)
    m = _RATIONAL_RE.fullmatch(value)
    if m is None:
        raise ValueError(f"not a rational: {value!r}")
    sign, num, den, dec, exp_sign, exp = (run.replace("_", "") for run in m.groups(""))
    digits = max(map(len, (num, den, dec, exp)))
    if digits > MAX_DIGITS:
        raise BudgetExceeded(f"number text of {digits} digits exceeds budget {MAX_DIGITS}")
    if exp and int(exp) > MAX_DIGITS:
        raise BudgetExceeded(f"exponent {exp_sign}{exp} exceeds budget {MAX_DIGITS}")
    q = Fraction(int(num + dec), int(den or 1) * 10 ** len(dec))
    q *= Fraction(10) ** int(exp_sign + (exp or "0"))
    return -q if sign == "-" else q


def parse_radical(text):
    """Parse a real scalar string; raises ValueError on malformed input."""
    s = "".join(text.split())
    s = s if s.startswith(("+", "-")) else "+" + s
    total, pos = RAD_ZERO, 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if m is None or m["q"] is None and m["n"] is None:
            raise ValueError(f"malformed scalar {text!r}")
        term = RadicalScalar.rational(parse_rational(m["q"] or "1"))
        if m["n"] is not None:
            n = parse_rational(m["n"])
            if n <= 0 or n.denominator != 1:
                raise ValueError(f"sqrt argument must be a positive integer in {text!r}")
            term = term * RadicalScalar.sqrt_of(n)
        total = total + term if m["sign"] == "+" else total - term
        pos = m.end()
    return total
