"""Precedence-climbing parser and printers for the surface grammar.

Classical formulas: atoms ``B1``, ``B2``, ...; ``T``; ``F``; ``!``, ``&``,
``|``, ``->`` (right-associative), ``<->``; parentheses.

Full formulas add the atomic forms ``O(alpha)`` and ``P(alpha) CMP term``
with CMP in ``= < <= > >=``; terms are integer literals, fractions ``n/m``,
variables ``x<k>``, ``+``, ``-``, ``*`` and parentheses.  ASCII only.

Both sorts share one connective grammar: one precedence-climbing loop,
keyed by ``prop.PREC_IFF`` ... ``prop.PREC_AND``, parses them given the
sort's constructors, and ``prop.print_connectives`` prints them at the
same precedences given the sort's atoms.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import NamedTuple

from .errors import BudgetExceeded, ParseError
from . import prop
from .prop import Atom, Impl, Neg, PropSymbol, VERUM, FALSUM
from . import syntax as sx
from .syntax import Add, Const, Mul, NumVar, ObsAtom, PImpl, PNeg, ProbAtom, TNeg, fraction, numeral

# A token, or any other non-space character, which _tokenize rejects
_TOKEN_RE = re.compile(r"B[0-9]+|x[0-9]+|[0-9]+|<->|->|<=|>=|\S")
_OPERATORS = frozenset(("<->", "->", "<=", ">=", *"TFOP()!&|=<>+-*/"))
_DIGITS = frozenset("0123456789")


# Longest digit run accepted in a numeral, symbol or variable index; it
# keeps every index and numeral below Python's int-conversion limit.
MAX_DIGITS = 1000

# Deepest nesting accepted, both of constructs open while parsing and of
# the tree built; every later stage recurses a few frames per level.
MAX_DEPTH = 64

# Most nodes the built tree may unfold to.  A part shared by several
# parents (each operand of ``<->`` occurs twice) counts once per parent,
# so this bounds every later stage that walks the tree, not the DAG.
MAX_UNFOLDED = 1 << 16


# The classes of tree nodes, whose fields unfolded counts into a node's size
_NODE_CLASSES = (prop.PropFormula, sx.PlqoFormula, sx.RcofTerm)

# How tightly each binary connective binds, as prop.print_connectives
# prints it; the right operand of a right-grouping one opens a level
_BINDING = {"<->": prop.PREC_IFF, "->": prop.PREC_IMPL, "|": prop.PREC_OR, "&": prop.PREC_AND}
_GROUPS_RIGHT = frozenset(("->", "|"))


def _where(text, pos):
    """The 1-based (line, column) of offset ``pos`` in ``text``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _token_where(text, i):
    """The (line, column) of the i-th token of ``text``, or of its end past
    the last token; offsets are found only for the error that needs one."""
    m = next(islice(_TOKEN_RE.finditer(text), i, None), None)
    return _where(text, len(text) if m is None else m.start())


def _tokenize(text):
    """The token texts of ``text`` and ``""`` for its end.  A token that is
    no operator is a word, whose first character gives its kind: ``B`` a
    symbol, ``x`` a variable, a digit a numeral."""
    tokens = _TOKEN_RE.findall(text)
    for i, tok in enumerate(tokens):
        if tok in _OPERATORS:
            continue
        if tok[-1] not in _DIGITS:  # a lone character that is no token
            raise ParseError(f"unexpected character {tok!r}", *_token_where(text, i))
        digits = len(tok) - (tok[0] in "Bx")
        if digits > MAX_DIGITS:
            line, col = _token_where(text, i)
            raise BudgetExceeded(
                f"{line}:{col}: numeral of {digits} digits exceeds budget {MAX_DIGITS}"
            )
    tokens.append("")
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open = 0
        # id(node) -> (depth, unfolded size, node); holding the node keeps its id unique
        self.built = {}

    def accept(self, text):
        if self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text):
        tok = self.tokens[self.pos]
        if tok != text:
            self.fail(f"expected {text!r}, got {repr(tok) if tok else 'end of input'}")
        self.pos += 1

    def fail(self, message):
        raise ParseError(message, *_token_where(self.text, self.pos))

    def over_budget(self, message):
        line, col = _token_where(self.text, self.pos)
        raise BudgetExceeded(f"{line}:{col}: {message}")

    def within_depth(self, depth):
        if depth > MAX_DEPTH:
            self.over_budget(f"nesting depth {depth} exceeds budget {MAX_DEPTH}")
        return depth

    def nested(self, parse, *args):
        """``parse(*args)`` with one more construct open."""
        self.open = self.within_depth(self.open + 1)
        out = parse(*args)
        self.open -= 1
        return out

    def build(self, make, *parts):
        """``make(*parts)``, one level above its deepest part, within the
        unfolded-size budget."""
        depth = 0
        for p in parts:  # one or two
            known = self.built.get(id(p))
            if known is not None and known[0] > depth:
                depth = known[0]
        depth = self.within_depth(depth + 1)
        node = make(*parts)
        size = self.unfolded(node)
        if size > MAX_UNFOLDED:
            self.over_budget(f"formula unfolds to {size} nodes, budget {MAX_UNFOLDED}")
        self.built[id(node)] = (depth, size, node)
        return node

    def unfolded(self, node):
        """The node count of ``node`` as a tree; a built part counts its
        recorded size at each place it occurs."""
        known = self.built.get(id(node))
        if known is not None:
            return known[1]
        size = 1
        for name in node.__dataclass_fields__:
            part = getattr(node, name)
            if isinstance(part, _NODE_CLASSES):
                size += self.unfolded(part)
        return size

    def prefixed(self, op, make, operand, *args):
        """``operand(*args)`` under a run of prefix ``op``, each built by
        ``make``; the run opens no level, and ``build`` bounds the depth."""
        count = 0
        while self.accept(op):
            count += 1
        node = operand(*args)
        for _ in range(count):
            node = self.build(make, node)
        return node

    def expect_eof(self):
        tok = self.tokens[self.pos]
        if tok:
            self.fail(f"trailing input starting at {tok!r}")

    # -- formulas of either sort -------------------------------------------

    def formula(self, layer, prec=prop.PREC_IFF):
        """A formula of ``layer``'s sort whose binary connectives outside
        parentheses bind at ``prec`` or tighter, by precedence climbing:
        ``<->`` and ``&`` group to the left, ``->`` and ``|`` to the right."""
        f = self.prefixed("!", layer.neg, layer.primary, self)
        while True:
            op = self.tokens[self.pos]
            binding = _BINDING.get(op, -1)
            if binding < prec:
                return f
            self.pos += 1
            if op in _GROUPS_RIGHT:
                right = self.nested(self.formula, layer, binding)
            else:
                right = self.formula(layer, binding + 1)
            f = self.build(layer.connectives[op], f, right)

    def c_primary(self):
        tok = self.tokens[self.pos]
        if tok[:1] == "B":
            self.pos += 1
            return Atom(PropSymbol(int(tok[1:])))
        if self.accept("T"):
            return VERUM
        if self.accept("F"):
            return FALSUM
        if self.accept("("):
            f = self.nested(self.formula, CLASSICAL)
            self.expect(")")
            return f
        self.fail("expected a classical formula")

    def p_primary(self):
        head = self.tokens[self.pos]
        if head in ("O", "P"):
            self.pos += 1
            self.expect("(")
            alpha = self.nested(self.formula, CLASSICAL)
            self.expect(")")
            return self.build(ObsAtom, alpha) if head == "O" else self.p_comparison(alpha)
        if self.accept("("):
            f = self.nested(self.formula, PLQO)
            self.expect(")")
            return f
        self.fail("expected a formula")

    def p_comparison(self, alpha):
        make = _COMPARISONS.get(self.tokens[self.pos])
        if make is None:
            self.fail("expected a comparison")
        self.pos += 1
        return self.build(make, alpha, self.nested(self.term))

    # -- terms ---------------------------------------------------------------

    def term(self):
        t = self.t_prod()
        while True:
            if self.accept("+"):
                right = self.t_prod()
                n = t.q if isinstance(t, Const) and t.q.denominator == 1 else 0
                # "n + 1" is the constant n+1, so "1 + 1" and "2" make one atom
                t = numeral(n + 1) if n and right == sx.ONE else self.build(Add, t, right)
            elif self.accept("-"):
                t = self.build(Add, t, self.build(TNeg, self.t_prod()))
            else:
                return t

    def t_prod(self):
        t = self.t_unary()
        while self.accept("*"):
            t = self.build(Mul, t, self.t_unary())
        return t

    def t_unary(self):
        return self.prefixed("-", TNeg, self.t_primary)

    def t_primary(self):
        tok = self.tokens[self.pos]
        if tok[:1] in _DIGITS:
            self.pos += 1
            m = 1
            if self.accept("/"):
                den = self.tokens[self.pos]
                if den[:1] not in _DIGITS:
                    self.fail("expected a denominator")
                m = int(den)
                if m == 0:
                    self.fail("zero denominator")
                self.pos += 1
            return fraction(int(tok), m)
        if tok[:1] == "x":
            self.pos += 1
            return NumVar(int(tok[1:]))
        if self.accept("("):
            t = self.nested(self.term)
            self.expect(")")
            return t
        self.fail("expected a term")

_COMPARISONS = {
    "<=": sx.prob_le,
    ">=": sx.prob_ge,
    "<": lambda alpha, t: ProbAtom(alpha, "<", t),
    ">": sx.prob_gt,
    "=": lambda alpha, t: ProbAtom(alpha, "=", t),
}


class _Layer(NamedTuple):
    """How one formula sort is built: the constructor of each binary
    connective, by token, that of negation, and the parser method for
    its atoms."""

    connectives: dict
    neg: object
    primary: object


CLASSICAL = _Layer({"<->": prop.iff, "->": Impl, "|": prop.disj, "&": prop.conj}, Neg, _Parser.c_primary)
PLQO = _Layer({"<->": sx.piff, "->": PImpl, "|": sx.pdisj, "&": sx.pconj}, PNeg, _Parser.p_primary)


def parse_classical(text):
    """Parse a classical formula; raises ParseError with position info."""
    p = _Parser(text)
    f = p.formula(CLASSICAL)
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
    f = p.formula(PLQO)
    p.expect_eof()
    return f


# -- printing ----------------------------------------------------------------

_T_SUM, _T_PROD, _T_NEG = range(3)


def _print_term(t, ctx):
    if isinstance(t, Const):
        return str(t.q)
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


def _comparison(alpha, cmp, t, ctx):
    s = f"P({prop.print_prop(alpha)}) {cmp} {print_term(t)}"
    return f"({s})" if ctx > prop.PREC_IMPL else s


def _match_prob_le(f):
    """The ``=`` atom of ``f`` when ``f`` is ``prob_le(alpha, t)``, else None."""
    if isinstance(f, PImpl) and isinstance(f.left, PNeg):
        a = f.left.child
        if isinstance(a, ProbAtom) and a.cmp == "=" and f == sx.prob_le(a.alpha, a.term):
            return a
    return None


def _leaf(f, ctx):
    """Atoms and the derived comparisons ``<=``, ``>=`` and ``>``."""
    if isinstance(f, ObsAtom):
        return f"O({prop.print_prop(f.alpha)})"
    if isinstance(f, ProbAtom):
        return _comparison(f.alpha, f.cmp, f.term, ctx)
    le = _match_prob_le(f)
    if le is not None:
        return _comparison(le.alpha, "<=", le.term, ctx)
    if isinstance(f, PNeg):
        child = f.child
        if isinstance(child, ProbAtom) and child.cmp == "<":
            return _comparison(child.alpha, ">=", child.term, ctx)
        le = _match_prob_le(child)
        if le is not None:
            return _comparison(le.alpha, ">", le.term, ctx)
    return None


def print_plqo(f):
    """Render a formula; ``parse_plqo(print_plqo(f))`` equals ``f``."""
    return prop.print_connectives(f, prop.PREC_IFF, _leaf, PNeg, PImpl)
