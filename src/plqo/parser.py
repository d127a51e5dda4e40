"""Recursive-descent parser and printers for the surface grammar.

Classical formulas: atoms ``B1``, ``B2``, ...; ``T``; ``F``; ``!``, ``&``,
``|``, ``->`` (right-associative), ``<->``; parentheses.

Full formulas add the atomic forms ``O(alpha)`` and ``P(alpha) CMP term``
with CMP in ``= < <= > >=``; terms are integer literals, fractions ``n/m``,
variables ``x<k>``, ``+``, ``-``, ``*`` and parentheses.  ASCII only.
"""

from __future__ import annotations

import re

from .errors import BudgetExceeded, ParseError
from . import prop
from .prop import Atom, Impl, Neg, PropSymbol, Verum, VERUM, FALSUM
from . import syntax as sx
from .syntax import (
    Add,
    InvNumeral,
    Mul,
    NumVar,
    ObsAtom,
    PImpl,
    PNeg,
    ProbAtom,
    TNeg,
    numeral,
    match_numeral,
    fraction,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<sym>B\d+)
  | (?P<var>x\d+)
  | (?P<int>\d+)
  | (?P<op><->|->|<=|>=|[TFOP()!&|=<>+\-*/])
    """,
    re.VERBOSE,
)


# Longest digit run accepted in a numeral, symbol or variable index; it
# keeps every index and numeral below Python's int-conversion limit.
MAX_DIGITS = 1000


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind in ("sym", "var", "int"):
            digits = len(chunk) - (kind != "int")
            if digits > MAX_DIGITS:
                raise BudgetExceeded(
                    f"{line}:{col}: numeral of {digits} digits exceeds budget {MAX_DIGITS}"
                )
        if kind != "ws":
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def at(self, text):
        tok = self.peek()
        return tok.kind != "eof" and tok.text == text

    def accept(self, text):
        if self.at(text):
            self.pos += 1
            return True
        return False

    def expect(self, text):
        tok = self.peek()
        if tok.kind == "eof" or tok.text != text:
            got = "end of input" if tok.kind == "eof" else repr(tok.text)
            raise ParseError(
                f"expected {text!r}, got {got}", tok.line, tok.column, expected=(text,)
            )
        self.pos += 1
        return tok

    def fail(self, message, expected=()):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column, expected=expected)

    def expect_eof(self):
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(
                f"trailing input starting at {tok.text!r}", tok.line, tok.column
            )

    # -- classical formulas --------------------------------------------------

    def classical(self):
        f = self.c_impl()
        while self.accept("<->"):
            f = prop.iff(f, self.c_impl())
        return f

    def c_impl(self):
        f = self.c_or()
        if self.accept("->"):
            return Impl(f, self.c_impl())
        return f

    def c_or(self):
        # right-associative, matching the printer's flat rendering
        f = self.c_and()
        if self.accept("|"):
            return prop.disj(f, self.c_or())
        return f

    def c_and(self):
        f = self.c_unary()
        while self.accept("&"):
            f = prop.conj(f, self.c_unary())
        return f

    def c_unary(self):
        if self.accept("!"):
            return Neg(self.c_unary())
        return self.c_primary()

    def c_primary(self):
        tok = self.peek()
        if tok.kind == "sym":
            self.pos += 1
            return Atom(PropSymbol(int(tok.text[1:])))
        if self.accept("T"):
            return VERUM
        if self.accept("F"):
            return FALSUM
        if self.accept("("):
            f = self.classical()
            self.expect(")")
            return f
        self.fail(
            "expected a classical formula",
            expected=("B<j>", "T", "F", "!", "("),
        )

    # -- terms ---------------------------------------------------------------

    def term(self):
        t = self.t_prod()
        while True:
            if self.accept("+"):
                right = self.t_prod()
                n = match_numeral(t)
                # "n + 1" is the numeral n+1, so "1 + 1" and "2" make one atom
                t = numeral(n + 1) if n and right == sx.ONE else Add(t, right)
            elif self.accept("-"):
                t = Add(t, TNeg(self.t_prod()))
            else:
                return t

    def t_prod(self):
        t = self.t_unary()
        while self.accept("*"):
            t = Mul(t, self.t_unary())
        return t

    def t_unary(self):
        if self.accept("-"):
            return TNeg(self.t_unary())
        return self.t_primary()

    def t_primary(self):
        tok = self.peek()
        if tok.kind == "int":
            self.pos += 1
            n = int(tok.text)
            if self.accept("/"):
                den = self.peek()
                if den.kind != "int":
                    self.fail("expected a denominator", expected=("<int>",))
                self.pos += 1
                m = int(den.text)
                if m == 0:
                    raise ParseError("zero denominator", den.line, den.column)
                return fraction(n, m)
            return numeral(n)
        if tok.kind == "var":
            self.pos += 1
            return NumVar(int(tok.text[1:]))
        if self.accept("("):
            t = self.term()
            self.expect(")")
            return t
        self.fail("expected a term", expected=("<int>", "n/m", "x<k>", "-", "("))

    # -- full formulas -------------------------------------------------------

    def plqo(self):
        f = self.p_impl()
        while self.accept("<->"):
            f = sx.piff(f, self.p_impl())
        return f

    def p_impl(self):
        f = self.p_or()
        if self.accept("->"):
            return PImpl(f, self.p_impl())
        return f

    def p_or(self):
        # right-associative, matching the printer's flat rendering
        f = self.p_and()
        if self.accept("|"):
            return sx.pdisj(f, self.p_or())
        return f

    def p_and(self):
        f = self.p_unary()
        while self.accept("&"):
            f = sx.pconj(f, self.p_unary())
        return f

    def p_unary(self):
        if self.accept("!"):
            return PNeg(self.p_unary())
        return self.p_primary()

    def p_primary(self):
        if self.accept("O"):
            self.expect("(")
            alpha = self.classical()
            self.expect(")")
            return ObsAtom(alpha)
        if self.accept("P"):
            self.expect("(")
            alpha = self.classical()
            self.expect(")")
            return self.p_comparison(alpha)
        if self.accept("("):
            f = self.plqo()
            self.expect(")")
            return f
        self.fail("expected a formula", expected=("O(", "P(", "!", "("))

    def p_comparison(self, alpha):
        for cmp_text in ("<=", ">=", "<", ">", "="):
            if self.accept(cmp_text):
                t = self.term()
                if cmp_text == "=":
                    return ProbAtom(alpha, "=", t)
                if cmp_text == "<":
                    return ProbAtom(alpha, "<", t)
                if cmp_text == "<=":
                    return sx.prob_le(alpha, t)
                if cmp_text == ">=":
                    return sx.prob_ge(alpha, t)
                return sx.prob_gt(alpha, t)
        self.fail("expected a comparison", expected=("=", "<", "<=", ">", ">="))


def parse_classical(text):
    """Parse a classical formula; raises ParseError with position info."""
    p = _Parser(text)
    f = p.classical()
    p.expect_eof()
    return f


def parse_term(text):
    p = _Parser(text)
    t = p.term()
    p.expect_eof()
    return t


def parse_plqo(text):
    """Parse a full formula; raises ParseError with position info."""
    p = _Parser(text)
    f = p.plqo()
    p.expect_eof()
    return f


# -- printing ----------------------------------------------------------------

_T_SUM, _T_PROD, _T_NEG = range(3)


def _match_fraction(t):
    if isinstance(t, Mul) and isinstance(t.left, InvNumeral):
        n = match_numeral(t.right)
        if n is not None:
            return n, t.left.m
    return None


def _print_term(t, ctx):
    n = match_numeral(t)
    if n is not None:
        return str(n)
    frac = _match_fraction(t)
    if frac is not None:
        return f"{frac[0]}/{frac[1]}"
    if isinstance(t, InvNumeral):
        # no dedicated surface form; reparses to fraction(1, m)
        return f"1/{t.m}"
    if isinstance(t, NumVar):
        return f"x{t.k}"
    if isinstance(t, TNeg):
        s = f"-{_print_term(t.child, _T_NEG)}"
        return f"({s})" if ctx > _T_SUM else s
    if isinstance(t, Add):
        if isinstance(t.right, TNeg):
            s = f"{_print_term(t.left, _T_SUM)} - {_print_term(t.right.child, _T_PROD)}"
        else:
            s = f"{_print_term(t.left, _T_SUM)} + {_print_term(t.right, _T_PROD)}"
        return f"({s})" if ctx > _T_SUM else s
    if isinstance(t, Mul):
        s = f"{_print_term(t.left, _T_PROD)} * {_print_term(t.right, _T_NEG)}"
        return f"({s})" if ctx > _T_PROD else s
    raise TypeError(f"not a term node: {t!r}")


def print_term(t):
    return _print_term(t, _T_SUM)


_P_IFF, _P_IMPL, _P_OR, _P_AND, _P_NEG, _P_ATOM = range(6)

_FALSUM_ATOM = ProbAtom(VERUM, "<", numeral(1))


def _match_pconj(f):
    if isinstance(f, PNeg) and isinstance(f.child, PImpl) and isinstance(f.child.right, PNeg):
        return f.child.left, f.child.right.child
    return None


def _match_pdisj(f):
    if isinstance(f, PImpl) and isinstance(f.left, PNeg):
        return f.left.child, f.right
    return None


def _match_prob_le(f):
    pair = _match_pdisj(f)
    if pair is not None:
        a, b = pair
        if (
            isinstance(a, ProbAtom)
            and isinstance(b, ProbAtom)
            and a.cmp == "="
            and b.cmp == "<"
            and a.alpha == b.alpha
            and a.term == b.term
        ):
            return a.alpha, a.term
    return None


def _print_plqo(f, ctx, expand_negation):
    if isinstance(f, ObsAtom):
        return f"O({prop.print_prop(f.alpha)})"
    if isinstance(f, ProbAtom):
        s = f"P({prop.print_prop(f.alpha)}) {f.cmp} {print_term(f.term)}"
        return f"({s})" if ctx > _P_IMPL else s
    le = _match_prob_le(f)
    if le is not None:
        alpha, t = le
        s = f"P({prop.print_prop(alpha)}) <= {print_term(t)}"
        return f"({s})" if ctx > _P_IMPL else s
    if isinstance(f, PNeg) and not expand_negation:
        child = f.child
        if isinstance(child, ProbAtom) and child.cmp == "<":
            s = f"P({prop.print_prop(child.alpha)}) >= {print_term(child.term)}"
            return f"({s})" if ctx > _P_IMPL else s
        le = _match_prob_le(child)
        if le is not None:
            alpha, t = le
            s = f"P({prop.print_prop(alpha)}) > {print_term(t)}"
            return f"({s})" if ctx > _P_IMPL else s
    pair = _match_pconj(f)
    if pair is not None:
        a, b = pair
        s = (
            f"{_print_plqo(a, _P_AND, expand_negation)} & "
            f"{_print_plqo(b, _P_NEG, expand_negation)}"
        )
        return f"({s})" if ctx > _P_AND else s
    pair = _match_pdisj(f)
    if pair is not None:
        a, b = pair
        s = (
            f"{_print_plqo(a, _P_OR + 1, expand_negation)} | "
            f"{_print_plqo(b, _P_OR, expand_negation)}"
        )
        return f"({s})" if ctx > _P_OR else s
    if isinstance(f, PNeg):
        if expand_negation:
            return _print_plqo(PImpl(f.child, _FALSUM_ATOM), ctx, expand_negation)
        return f"!{_print_plqo(f.child, _P_NEG, expand_negation)}"
    if isinstance(f, PImpl):
        s = (
            f"{_print_plqo(f.left, _P_IMPL + 1, expand_negation)} -> "
            f"{_print_plqo(f.right, _P_IMPL, expand_negation)}"
        )
        return f"({s})" if ctx > _P_IMPL else s
    raise TypeError(f"not a formula node: {f!r}")


def print_plqo(f, expand_negation=False):
    """Render a formula; ``parse_plqo(print_plqo(f))`` equals ``f``.

    With ``expand_negation`` every native negation is emitted in the
    abbreviated implication form ``phi -> P(T) < 1`` instead of ``!phi``.
    """
    return _print_plqo(f, _P_IFF, expand_negation)
