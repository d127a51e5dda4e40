"""Translation of formulas and literals into linear constraint systems
over tagged ordered-field variables: the observability system (pair
variables pinned to zero), the paper's probability-distribution system
``Q`` over valuation masses with consistent marginals, the smaller system
the decider solves in its place, and per-literal constraint disjunctions
consumed by the feasibility solver.

The decider's system (:class:`DecideSystem`) is that of Fagin, Halpern and
Megiddo ("A logic for reasoning about probabilities", 1990): one mass per
valuation of the symbols under ``P`` and each formula variable one sum of
masses, with no marginal rows and no pair variables.  It is
equisatisfiable with ``Q`` joined with any literal translations, because
no row of ``Q`` holds both a mass and a pair variable and a formula
variable only touches masses over its own symbols: a solution of ``Q``
marginalizes to the symbols under ``P``, and a solution over those
extends to all of ``B_phi`` with every other symbol false.  Of ``Q``'s
pair bounds only those a literal needs are kept, in the literal's own
translation: a pair variable occurs only pinned to zero or in a negative
observability literal's strict sum, whose disjunct bounds each of its
pairs.

Each variable is a tuple tagged by its kind's rank, ``(0, k)`` for a
numeric term variable, ``(1, key)`` for a formula variable and ``(2, i,
j)`` for a pair variable, and hashes, compares and orders as that tuple.
Every row is a :class:`LinConstraint` in one normal form, its terms in
that order.  The rows whose shape is fixed are written in it directly: a
pair variable pinned to zero (:func:`q_obs`) or nonnegative, a negative
observability literal's sum of pair variables, a mass bound and the
masses summing to one.  The rows read off arbitrary coefficient maps go
through :func:`constraint`, the one normalizer: probability comparisons,
their negations, formula rows and the marginal rows of ``Q``."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple

from .errors import BudgetExceeded, UNotSubset, UnsupportedNonlinear
from . import prop
from .prop import canonical_text
from . import syntax as sx
from .syntax import PNeg, PImpl, ProbAtom

# terms in the paper's Q, about 4^n over n symbols: 9 symbols fit, 10 do not
MAX_Q_TERMS = 1 << 19


# -- variables ---------------------------------------------------------------


class _Var(tuple):
    """A solver unknown: its kind's rank, then the fields it is rebuilt from."""

    __slots__ = ()

    def __getnewargs__(self):
        return self[1:]

    def __repr__(self):
        args = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self[1:]))
        return f"{type(self).__name__}({args})"


class NumericVar(_Var):
    """Solver unknown ``(0, k)`` for the surface term variable x_k."""

    __slots__ = ()
    _fields = ("k",)
    k = property(itemgetter(1))

    def __new__(cls, k):
        return tuple.__new__(cls, (0, k))

    def __str__(self):
        return f"xn[{self.k}]"


class ProbVar(_Var):
    """Probability-of-formula variable ``(1, key)``, keyed by canonical formula text."""

    __slots__ = ()
    _fields = ("key",)
    key = property(itemgetter(1))

    def __new__(cls, key):
        return tuple.__new__(cls, (1, key))

    @staticmethod
    def of(alpha):
        return ProbVar(canonical_text(alpha))

    def __str__(self):
        return f"x[{self.key}]"


class PairVar(_Var):
    """Compatibility variable ``(2, i, j)`` for the pair of symbols i < j."""

    __slots__ = ()
    _fields = ("i", "j")
    i = property(itemgetter(1))
    j = property(itemgetter(2))

    def __new__(cls, i, j):
        if i >= j:
            raise ValueError("pair must be stored with ascending indices")
        return tuple.__new__(cls, (2, i, j))

    @staticmethod
    def of(s1, s2):
        i, j = s1.index, s2.index
        return PairVar(i, j) if i < j else PairVar(j, i)

    def __str__(self):
        return f"xp[B{self.i},B{self.j}]"


# -- constraints -------------------------------------------------------------


class LinConstraint(NamedTuple):
    """Normalized linear constraint: sum of coeff*var REL rhs with REL in
    {=, <=, <}, its terms ordered by variable, as tuples order them.  Built
    via :func:`constraint`, which flips > and >=, or directly for a row of
    fixed shape.  Each coefficient and the right side is an exact rational:
    an ``int`` when it is integral, else a ``Fraction``."""

    terms: tuple
    rel: str
    rhs: int | Fraction

    def coeffs(self):
        return dict(self.terms)

    def holds(self, values):
        # a variable missing from values is 0 and adds nothing
        lhs = sum(c * values[v] for v, c in self.terms if v in values)
        if self.rel == "=":
            return lhs == self.rhs
        if self.rel == "<=":
            return lhs <= self.rhs
        return lhs < self.rhs

    def __str__(self):
        if not self.terms:
            return f"0 {self.rel} {self.rhs}"
        parts = []
        for v, c in self.terms:
            if c == 1:
                body = str(v)
            elif c == -1:
                body = f"-{v}"
            else:
                body = f"{c}*{v}"
            if parts and not body.startswith("-"):
                parts.append(f"+ {body}")
            elif parts:
                parts.append(f"- {body[1:]}")
            else:
                parts.append(body)
        return f"{' '.join(parts)} {self.rel} {self.rhs}"


def exact(q):
    """The rational ``q`` as an ``int`` when it is integral, else as a
    ``Fraction``: the one form of every number on the decider's path."""
    if type(q) is not int and type(q) is not Fraction:
        q = Fraction(q)
    return q.numerator if type(q) is Fraction and q.denominator == 1 else q


def constraint(coeffs, rel, rhs=0):
    """Build a normalized constraint from a var -> coefficient mapping:
    zero coefficients dropped, ``>`` and ``>=`` flipped, every number made
    :func:`exact` and the terms sorted by variable, in tuple order.  The
    rows of fixed shape are written in this form directly, not built here."""
    rhs = exact(rhs)
    coeffs = {v: exact(c) for v, c in coeffs.items() if c != 0}
    if rel in (">", ">="):
        coeffs = {v: -c for v, c in coeffs.items()}
        rhs = -rhs
        rel = "<" if rel == ">" else "<="
    if rel not in ("=", "<=", "<"):
        raise ValueError(f"unknown relation {rel!r}")
    return LinConstraint(tuple(sorted(coeffs.items())), rel, rhs)


def negate_constraint(c):
    """Disjunction of constraints equivalent to the negation of the
    normal-form row ``c``, each built directly in normal form."""
    rel = "<=" if c.rel == "<" else "<"
    flipped = LinConstraint(tuple((v, -a) for v, a in c.terms), rel, -c.rhs)
    if c.rel == "=":
        return [[LinConstraint(c.terms, "<", c.rhs)], [flipped]]
    return [[flipped]]


def constraints_hold(cs, values):
    return all(c.holds(values) for c in cs)


# -- the two constraint systems ----------------------------------------------


def q_obs(a_set):
    """Pair variables of all 2-subsets of ``a_set`` pinned to zero, built
    directly in normal form."""
    return [
        LinConstraint(((PairVar(s1.index, s2.index), 1),), "=", 0)
        for s1, s2 in combinations(sorted(a_set), 2)
    ]


def mass_var(symbols, code):
    """Variable carrying the probability mass of the valuation ``code`` of
    the ascending ``symbols`` (bit j is the value of the j-th symbol): the
    canonical text of ``phi_A_U``, written from its literals."""
    if code < 0 or code >> len(symbols):
        raise UNotSubset(f"code {code} names no valuation of {list(symbols)}")
    lits = [str(s) if code >> j & 1 else f"!{s}" for j, s in enumerate(symbols)]
    if len(lits) < 2:
        return ProbVar(lits[0] if lits else "T")
    # right-nested, as the printer writes it: l1&(l2&(...&(l{n-1}&ln)))
    return ProbVar("&(".join(lits[:-1]) + "&" + lits[-1] + ")" * (len(lits) - 2))


def _mass_row(kind, m):
    """The bound ``kind`` ("mass>=0" or "mass<=1") on the mass ``m``, built directly."""
    if kind == "mass>=0":
        return LinConstraint(((m, -1),), "<=", 0)
    return LinConstraint(((m, 1),), "<=", 1)


def _sum_row(masses):
    """The distinct mass variables ``masses`` summing to one, built
    directly in normal form: ascending by key, each coefficient 1."""
    return LinConstraint(tuple((m, 1) for m in sorted(masses)), "=", 1)


def _pair_row(s1, s2):
    """The pair variable of symbols ``s1`` < ``s2`` nonnegative, built
    directly in normal form."""
    return LinConstraint(((PairVar(s1.index, s2.index), -1),), "<=", 0)


def _formula_row(alpha, symbols, masses):
    """The formula variable of ``alpha`` equal to the sum of the masses
    whose valuation satisfies it: ``masses`` lists, in code order, the mass
    of each valuation of the ascending ``symbols``, a superset of alpha's."""
    table = prop.truth_table(alpha, symbols)
    coeffs = {ProbVar.of(alpha): 1}
    for m, bit in zip(masses, format(table, f"0{1 << len(symbols)}b")[::-1]):
        if bit == "1":
            coeffs[m] = coeffs.get(m, 0) - 1
    return constraint(coeffs, "=", 0)


def q_adams(a_set, delta):
    """The paper's distribution system over ``a_set``: valuation masses in
    [0,1] summing to one, marginal consistency over every subset of
    ``a_set``, nonnegative pair variables, and each formula variable equal
    to the mass of its satisfying valuations.  Repeated formulas of
    ``delta`` give one row, and the identity 0 = 0 is dropped.
    """
    a_set = frozenset(a_set)
    a_list = sorted(a_set)
    # No row is hashed away, as none repeats: rows of different kinds
    # differ in relation, right side or variables, and within a kind each
    # row has its own variable (a mass's two bounds differ in sign), once
    # repeated formulas are dropped: canonical texts round-trip, so they
    # are injective.  The one constant row, 0 = 0, is a formula row whose
    # variable is a mass or a marginal.
    delta = list(dict.fromkeys(delta))
    for alpha in delta:
        if not alpha.symbols() <= a_set:
            raise ValueError(f"formula {alpha} mentions symbols outside the base set")
    # counted before any row is built: 2^(n+1) mass bounds, the sum, a marginal
    # row of 2^(n-k) + 1 terms per valuation of each k-subset (k < n), the
    # pairs, and each formula row at its widest
    n = len(a_list)
    rows = 3**n + 2**n + 1 + n * (n - 1) // 2 + len(delta)
    terms = 4**n + 3**n + 2**n + n * (n - 1) // 2 + sum(1 + (1 << len(a.symbols())) for a in delta)
    if terms > MAX_Q_TERMS:
        raise BudgetExceeded(f"distribution system over {n} symbols has {rows} rows of"
                             f" {terms} terms, past budget {MAX_Q_TERMS} terms")

    # each subset of a_list as the mask of its positions, by size, then as
    # combinations lists them
    subsets = [sum(1 << j for j in c) for r in range(n + 1) for c in combinations(range(n), r)]
    masses = [mass_var(a_list, u) for u in range(1 << n)]
    out = [_mass_row(kind, masses[u]) for u in subsets for kind in ("mass>=0", "mass<=1")]
    out.append(_sum_row(masses))
    # marginals: the valuation v of a proper subset s, in the same order over
    # its positions, sums the masses u with u & s == v, each v | w for a w
    # outside s
    for s in subsets[:-1]:
        positions = [j for j in range(n) if s >> j & 1]
        a_sub = [a_list[j] for j in positions]
        outside = [w for w in range(1 << n) if not w & s]
        for r in range(len(positions) + 1):
            for c in combinations(range(len(positions)), r):
                v = sum(1 << positions[i] for i in c)
                coeffs = {masses[v | w]: -1 for w in outside}
                coeffs[mass_var(a_sub, sum(1 << i for i in c))] = 1
                out.append(constraint(coeffs, "=", 0))
    out += [_pair_row(s1, s2) for s1, s2 in combinations(a_list, 2)]
    for alpha in delta:
        b_alpha = sorted(alpha.symbols())
        masses_alpha = [mass_var(b_alpha, u) for u in range(1 << len(b_alpha))]
        out.append(_formula_row(alpha, b_alpha, masses_alpha))
    return [c for c in out if c.terms]


# -- term linearization ------------------------------------------------------


def linearize_term(t):
    """Decompose a term into (numeric-variable coefficients, constant);
    rejects products of two variable-bearing subterms."""
    if isinstance(t, sx.Const):
        return {}, t.q
    if isinstance(t, sx.NumVar):
        return {NumericVar(t.k): 1}, 0
    if isinstance(t, sx.TNeg):
        coeffs, const = linearize_term(t.child)
        return {v: -c for v, c in coeffs.items()}, -const
    if isinstance(t, sx.Add):
        c1, k1 = linearize_term(t.left)
        c2, k2 = linearize_term(t.right)
        out = dict(c1)
        for v, c in c2.items():
            out[v] = out.get(v, 0) + c
        return out, k1 + k2
    if isinstance(t, sx.Mul):
        c1, k1 = linearize_term(t.left)
        c2, k2 = linearize_term(t.right)
        if c1 and c2:
            raise UnsupportedNonlinear(f"product of variable terms in {t}")
        if c1:
            return {v: c * k2 for v, c in c1.items()}, k1 * k2
        return {v: c * k1 for v, c in c2.items()}, k1 * k2
    raise TypeError(f"not a term node: {t!r}")


# -- literal and formula translation -----------------------------------------


def q_of(f):
    """The paper's distribution system of a formula: ``Q`` over its symbols
    and the classical formulas of its probability atoms, as ``plqo
    translate`` prints it.  The decider solves :class:`DecideSystem` instead."""
    system = DecideSystem.of(f)
    return q_adams(system.base, system.delta)


class DecideSystem:
    """The system the decider solves over ``atoms``, the distinct atoms of
    a formula in first-occurrence order: :meth:`of` reads them off a
    formula, and a sentence's system is built from its literals' atoms
    alone.  It is Fagin, Halpern and Megiddo's: one mass >= 0 per
    valuation of ``A_P``, the symbols of the classical formulas under
    ``P``, the masses summing to one (so each is at most one), and each
    formula variable equal to the sum of the masses whose valuation
    satisfies it.  It names no pair variable; a literal's translation
    bounds the pairs it uses.  Its size is linear in 2^|A_P|; the budget
    stays on |B_phi|, the symbols a countermodel is built over.

    Each row has a name, which a refutation certificate cites and the
    proof checker finds among :meth:`rows`:

    - ``("mass>=0", k)``: the mass of the valuation of code ``k`` of
      ``A_P`` nonnegative;
    - ``("sum",)``: the masses summing to one;
    - ``("formula", k)``: the row of the k-th formula of ``delta``, the
      classical formulas under ``P`` in first-occurrence order.
    """

    def __init__(self, atoms):
        self.base = sorted(frozenset().union(*(a.alpha.symbols() for a in atoms)))
        if len(self.base) > prop.MAX_VALUATION_SYMBOLS:
            raise BudgetExceeded(f"distribution system over {len(self.base)} symbols"
                                 f" exceeds budget {prop.MAX_VALUATION_SYMBOLS}")
        self.delta = list(dict.fromkeys(a.alpha for a in atoms if isinstance(a, ProbAtom)))
        self.a_p = sorted(frozenset().union(*(alpha.symbols() for alpha in self.delta)))

    @classmethod
    def of(cls, f):
        """The system of formula ``f``, from one walk of its atoms."""
        return cls(sx.atoms_of(f))

    @cached_property
    def masses(self):
        """The mass variable of each valuation of ``A_P``, indexed by its
        code.  A solution extends to ``B_phi`` through these alone: each
        valuation keeps its mass, with every other symbol false."""
        return tuple(mass_var(self.a_p, k) for k in range(1 << len(self.a_p)))

    def rows(self):
        """(name, row) for every row, in order, without the identity 0 = 0."""
        # No row is hashed away, as none repeats: rows of different kinds
        # differ in relation, right side or variables, and within a kind
        # each row has its own variable (delta has no repeats).  The one
        # constant row, 0 = 0, is a formula row whose variable is a mass.
        masses = self.masses
        out = [(("mass>=0", k), _mass_row("mass>=0", m)) for k, m in enumerate(masses)]
        out.append((("sum",), _sum_row(masses)))
        for k, alpha in enumerate(self.delta):
            # the masses are in code order over A_P, as the truth table reads them
            c = _formula_row(alpha, self.a_p, masses)
            if c.terms:
                out.append((("formula", k), c))
        return out


def _comparison_constraint(alpha, cmp, term):
    coeffs, const = linearize_term(term)
    lhs = {ProbVar.of(alpha): 1}
    for v, c in coeffs.items():
        lhs[v] = lhs.get(v, 0) - c
    return constraint(lhs, cmp, const)


def translate_atom(atom):
    """Constraint conjunction equivalent to a positive atom."""
    ess = prop.essential_symbols(atom.alpha)
    out = q_obs(ess)
    if isinstance(atom, ProbAtom):
        out.append(_comparison_constraint(atom.alpha, atom.cmp, atom.term))
    return out


def translate_literal(lit):
    """Disjunction of constraint conjunctions equivalent to a literal.

    A negative observability literal becomes the single disjunct asserting
    the sum of its essential pair variables strictly positive, each of
    those pair variables nonnegative; with at most one essential symbol
    there is no pair and the disjunction is empty, i.e. unsatisfiable.  A
    negative probability literal adds the comparison's complement
    disjuncts.
    """
    if lit.positive:
        return [translate_atom(lit.atom)]
    alpha = lit.atom.alpha
    pairs = list(combinations(sorted(prop.essential_symbols(alpha)), 2))
    disjuncts = []
    if pairs:
        # the sum of the pair variables > 0, in normal form: ascending pairs, each -1 < 0
        strict = LinConstraint(tuple((PairVar(s1.index, s2.index), -1) for s1, s2 in pairs), "<", 0)
        disjuncts.append([strict] + [_pair_row(s1, s2) for s1, s2 in pairs])
    if isinstance(lit.atom, ProbAtom):
        cmp_c = _comparison_constraint(alpha, lit.atom.cmp, lit.atom.term)
        disjuncts += negate_constraint(cmp_c)
    return disjuncts


# -- structure-preserving formula translation --------------------------------


@dataclass(frozen=True)
class RAtom:
    constraints: tuple


@dataclass(frozen=True)
class RNeg:
    child: object


@dataclass(frozen=True)
class RImpl:
    left: object
    right: object


def translate_formula(f):
    """Structure-preserving image of ``f``: atoms become constraint
    conjunctions, negation and implication are kept."""
    if sx.is_atom(f):
        return RAtom(tuple(translate_atom(f)))
    if isinstance(f, PNeg):
        return RNeg(translate_formula(f.child))
    if isinstance(f, PImpl):
        return RImpl(translate_formula(f.left), translate_formula(f.right))
    raise TypeError(f"not a formula node: {f!r}")


def eval_rcof(tree, values):
    """Truth of a translated formula under a var -> rational mapping."""
    if isinstance(tree, RAtom):
        return constraints_hold(tree.constraints, values)
    if isinstance(tree, RNeg):
        return not eval_rcof(tree.child, values)
    if isinstance(tree, RImpl):
        return (not eval_rcof(tree.left, values)) or eval_rcof(tree.right, values)
    raise TypeError(f"not a translated node: {tree!r}")
