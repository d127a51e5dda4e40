"""Abstract syntax for the observation logic: ordered-field terms,
formulas over observability and probability atoms, literals, and the
NNF/DNF machinery used by the decision procedure."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded
from .prop import MAX_VALUATION_SYMBOLS, PropFormula, node


# -- terms -------------------------------------------------------------------


class RcofTerm:
    __slots__ = ()

    def __add__(self, other):
        return Add(self, other)

    def __mul__(self, other):
        return Mul(self, other)

    def __neg__(self):
        return TNeg(self)

    def __str__(self):
        from .parser import print_term

        return print_term(self)

    def __repr__(self):
        return f"<RcofTerm {self}>"


@dataclass(frozen=True, repr=False, slots=True)
class Const(RcofTerm):
    """A nonnegative rational constant as one node, held by value so that
    its size is its digits, not its magnitude."""

    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))
        if self.q < 0:
            raise ValueError("constants are nonnegative; wrap in TNeg for negatives")


@dataclass(frozen=True, repr=False, slots=True)
class NumVar(RcofTerm):
    k: int


@dataclass(frozen=True, repr=False, slots=True)
class TNeg(RcofTerm):
    child: RcofTerm


@dataclass(frozen=True, repr=False, slots=True)
class Add(RcofTerm):
    left: RcofTerm
    right: RcofTerm


@dataclass(frozen=True, repr=False, slots=True)
class Mul(RcofTerm):
    left: RcofTerm
    right: RcofTerm


ZERO = Const(0)
ONE = Const(1)


def numeral(n):
    """The constant term of a nonnegative integer."""
    return Const(n)


def fraction(n, m):
    """The constant term n/m."""
    return Const(Fraction(n, m))


def term_of_fraction(q):
    """Canonical closed term denoting the rational ``q``."""
    q = Fraction(q)
    return TNeg(Const(-q)) if q < 0 else Const(q)


@dataclass(frozen=True)
class Assignment:
    """Rational values for the numeric variables; unmentioned default to 0."""

    numeric: dict

    def __init__(self, numeric=None):
        object.__setattr__(
            self,
            "numeric",
            {int(k): Fraction(v) for k, v in (numeric or {}).items()},
        )

    def value(self, k):
        return self.numeric.get(k, Fraction(0))


EMPTY_ASSIGNMENT = Assignment()


def eval_term(t, rho=EMPTY_ASSIGNMENT):
    """Exact rational denotation of ``t`` under assignment ``rho``."""
    if isinstance(t, Const):
        return t.q
    if isinstance(t, NumVar):
        return rho.value(t.k)
    if isinstance(t, TNeg):
        return -eval_term(t.child, rho)
    if isinstance(t, Add):
        return eval_term(t.left, rho) + eval_term(t.right, rho)
    if isinstance(t, Mul):
        return eval_term(t.left, rho) * eval_term(t.right, rho)
    raise TypeError(f"not a term node: {t!r}")


# -- formulas ----------------------------------------------------------------


class PlqoFormula:
    """Base class for formula nodes, each declared with ``prop.node``.

    A node keeps its hash in a private slot, computed from its own fields
    the first time it is asked, as ``prop.PropFormula`` keeps its facts; a
    copied or unpickled node starts with it unset."""

    __slots__ = ("_hash",)

    def __str__(self):
        from .parser import print_plqo

        return print_plqo(self)

    def __repr__(self):
        return f"<PlqoFormula {self}>"


@node
class ObsAtom(PlqoFormula):
    alpha: PropFormula


@node
class ProbAtom(PlqoFormula):
    """The atom asserting the probability of ``alpha`` compares to ``term``
    via ``cmp``, one of "=" or "<"."""

    alpha: PropFormula
    cmp: str
    term: RcofTerm

    def __post_init__(self):
        if self.cmp not in ("=", "<"):
            raise ValueError(f"primitive comparison must be = or <, got {self.cmp}")


@node
class PNeg(PlqoFormula):
    child: PlqoFormula


@node
class PImpl(PlqoFormula):
    left: PlqoFormula
    right: PlqoFormula


def pconj(a, b):
    return PNeg(PImpl(a, PNeg(b)))


def pdisj(a, b):
    return PImpl(PNeg(a), b)


def piff(a, b):
    return pconj(PImpl(a, b), PImpl(b, a))


def pconj_all(formulas):
    formulas = list(formulas)
    if not formulas:
        raise ValueError("empty conjunction has no canonical formula here")
    out = formulas[-1]
    for f in reversed(formulas[:-1]):
        out = pconj(f, out)
    return out


def prob_le(alpha, term):
    """P(alpha) <= p, expanded to (P(alpha) = p) | (P(alpha) < p)."""
    return pdisj(ProbAtom(alpha, "=", term), ProbAtom(alpha, "<", term))


def prob_ge(alpha, term):
    """P(alpha) >= p, expanded to !(P(alpha) < p)."""
    return PNeg(ProbAtom(alpha, "<", term))


def prob_gt(alpha, term):
    """P(alpha) > p, expanded to !(P(alpha) <= p)."""
    return PNeg(prob_le(alpha, term))


def is_atom(f):
    return isinstance(f, (ObsAtom, ProbAtom))


@dataclass(frozen=True)
class PlqoLiteral:
    positive: bool
    atom: PlqoFormula

    def __post_init__(self):
        if not is_atom(self.atom):
            raise ValueError("literal atom must be atomic")

    def complement(self):
        return PlqoLiteral(not self.positive, self.atom)

    def formula(self):
        return self.atom if self.positive else PNeg(self.atom)

    def __str__(self):
        sign = "+" if self.positive else "-"
        return f"{sign}{self.atom}"


def atoms_of(f):
    """Distinct atoms of ``f`` in first-occurrence order; a subformula
    shared by several parents is walked once."""
    found = {}  # atom -> None, in first-occurrence order
    walked = {}  # id(node) -> node; holding the node keeps its id unique

    def walk(node):
        if id(node) in walked:
            return
        walked[id(node)] = node
        if is_atom(node):
            found.setdefault(node)
        elif isinstance(node, PNeg):
            walk(node.child)
        elif isinstance(node, PImpl):
            walk(node.left)
            walk(node.right)
        else:
            raise TypeError(f"not a formula node: {node!r}")

    walk(f)
    return list(found)


def _join(candidates):
    """``candidates`` (literal lists) without repeated literals, keeping the
    first of each literal set and none with a complementary pair."""
    out = []
    seen = set()
    for raw in candidates:
        lits = list(dict.fromkeys(raw))
        key = frozenset(lits)
        if key in seen or any(lit.complement() in key for lit in lits):
            continue
        seen.add(key)
        out.append(lits)
    return out


def nnf_dnf_literals(f):
    """Disjunctive normal form of ``f`` over its atoms, as a list of
    literal conjunctions.  Disjuncts containing complementary literals
    are pruned; duplicate literals and duplicate disjuncts are dropped.
    Deterministic: syntax-directed expansion order.  Each subformula is
    expanded once per polarity, so a shared subformula costs its size,
    not the number of paths to it."""
    n_atoms = len(atoms_of(f))
    if n_atoms > MAX_VALUATION_SYMBOLS:
        raise BudgetExceeded(f"{n_atoms} distinct atoms exceeds DNF budget {MAX_VALUATION_SYMBOLS}")
    # (id(node), positive) -> (node, disjuncts); holding the node keeps its id unique
    memo = {}

    def expand(node, positive):
        key = (id(node), positive)
        if key in memo:
            return memo[key][1]
        if is_atom(node):
            out = [[PlqoLiteral(positive, node)]]
        elif isinstance(node, PNeg):
            out = expand(node.child, not positive)
        elif isinstance(node, PImpl) and positive:
            out = _join(expand(node.left, False) + expand(node.right, True))
        elif isinstance(node, PImpl):
            rights = expand(node.right, False)
            out = _join(a + b for a in expand(node.left, True) for b in rights)
        else:
            raise TypeError(f"not a formula node: {node!r}")
        memo[key] = (node, out)
        return out

    return expand(f, True)
