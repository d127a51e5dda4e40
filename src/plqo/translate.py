"""Translation of formulas and literals into linear constraint systems
over tagged ordered-field variables: the observability system (pair
variables pinned to zero), the probability-distribution system over
valuation masses with consistent marginals, and per-literal constraint
disjunctions consumed by the feasibility solver."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import BudgetExceeded, UnsupportedNonlinear
from . import prop
from .prop import canonical_text, phi_A_U
from . import syntax as sx
from .syntax import PNeg, PImpl, ProbAtom

MAX_ADAMS_SYMBOLS = 12


# -- variables ---------------------------------------------------------------


@dataclass(frozen=True, order=True)
class NumericVar:
    """Solver unknown for the surface term variable x_k."""

    k: int

    def __str__(self):
        return f"xn[{self.k}]"


@dataclass(frozen=True, order=True)
class ProbVar:
    """Probability-of-formula variable, keyed by canonical formula text."""

    key: str

    @staticmethod
    def of(alpha):
        return ProbVar(canonical_text(alpha))

    def __str__(self):
        return f"x[{self.key}]"


@dataclass(frozen=True, order=True)
class PairVar:
    """Compatibility variable for an unordered pair of symbols."""

    i: int
    j: int

    def __post_init__(self):
        if self.i >= self.j:
            raise ValueError("pair must be stored with ascending indices")

    @staticmethod
    def of(s1, s2):
        lo, hi = sorted((s1.index, s2.index))
        return PairVar(lo, hi)

    def __str__(self):
        return f"xp[B{self.i},B{self.j}]"


def _var_key(v):
    if isinstance(v, NumericVar):
        return (0, v.k, "")
    if isinstance(v, ProbVar):
        return (1, 0, v.key)
    return (2, v.i, v.j)


# -- constraints -------------------------------------------------------------


@dataclass(frozen=True)
class LinConstraint:
    """Normalized linear constraint: sum of coeff*var REL rhs with REL in
    {=, <=, <}.  Built via :func:`constraint`, which flips > and >=."""

    terms: tuple
    rel: str
    rhs: Fraction

    def coeffs(self):
        return dict(self.terms)

    def holds(self, values):
        lhs = sum(
            (c * values.get(v, Fraction(0)) for v, c in self.terms), Fraction(0)
        )
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


def constraint(coeffs, rel, rhs=0):
    """Build a normalized constraint from a var -> coefficient mapping."""
    rhs = Fraction(rhs)
    coeffs = {v: Fraction(c) for v, c in coeffs.items() if c != 0}
    if rel in (">", ">="):
        coeffs = {v: -c for v, c in coeffs.items()}
        rhs = -rhs
        rel = "<" if rel == ">" else "<="
    if rel not in ("=", "<=", "<"):
        raise ValueError(f"unknown relation {rel!r}")
    terms = tuple(sorted(coeffs.items(), key=lambda item: _var_key(item[0])))
    return LinConstraint(terms, rel, rhs)


def negate_constraint(c):
    """Disjunction of constraints equivalent to the negation of ``c``."""
    coeffs = c.coeffs()
    if c.rel == "=":
        return [
            [constraint(coeffs, "<", c.rhs)],
            [constraint(coeffs, ">", c.rhs)],
        ]
    if c.rel == "<=":
        return [[constraint(coeffs, ">", c.rhs)]]
    return [[constraint(coeffs, ">=", c.rhs)]]


def constraints_hold(cs, values):
    return all(c.holds(values) for c in cs)


def render_constraints(cs):
    """Stable text form, one constraint per line."""
    return "\n".join(str(c) for c in cs)


def _dedupe(cs):
    out = []
    seen = set()
    for c in cs:
        if not c.terms:
            # trivially decidable; identities drop out, contradictions kept
            if c.holds({}):
                continue
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


# -- the two constraint systems ----------------------------------------------


def q_obs(a_set):
    """Pair variables of all 2-subsets of ``a_set`` pinned to zero."""
    out = []
    for s1, s2 in combinations(sorted(a_set), 2):
        out.append(constraint({PairVar.of(s1, s2): 1}, "=", 0))
    return out


def mass_var(a_set, u_set):
    """Variable carrying the probability mass of the valuation on
    ``a_set`` that makes exactly ``u_set`` true."""
    return ProbVar.of(phi_A_U(a_set, u_set))


def q_adams(a_set, delta):
    """The distribution system over ``a_set``: valuation masses in [0,1]
    summing to one, marginal consistency over every subset of ``a_set``,
    nonnegative pair variables, and each formula variable equal to the
    mass of its satisfying valuations.  Trivial identities (e.g. the
    marginal of ``a_set`` inside itself) are dropped.
    """
    a_list = sorted(set(a_set))
    a_set = frozenset(a_list)
    delta = list(delta)
    for alpha in delta:
        if not alpha.symbols() <= a_set:
            raise ValueError(f"formula {alpha} mentions symbols outside the base set")
    if len(a_list) > MAX_ADAMS_SYMBOLS:
        raise BudgetExceeded(
            f"distribution system over {len(a_list)} symbols exceeds budget {MAX_ADAMS_SYMBOLS}"
        )

    out = []
    subsets_a = [frozenset(c) for r in range(len(a_list) + 1) for c in combinations(a_list, r)]
    masses = {u: mass_var(a_set, u) for u in subsets_a}

    # (i) each mass in [0, 1]
    for u in subsets_a:
        out.append(constraint({masses[u]: 1}, ">=", 0))
        out.append(constraint({masses[u]: 1}, "<=", 1))
    # (ii) masses sum to one
    out.append(constraint({m: 1 for m in masses.values()}, "=", 1))
    # (iii) marginals
    for a_sub in (s for s in subsets_a if s != a_set):
        sub_elems = sorted(a_sub)
        for r in range(len(sub_elems) + 1):
            for u_sub in combinations(sub_elems, r):
                u_sub = frozenset(u_sub)
                coeffs = {mass_var(a_sub, u_sub): Fraction(1)}
                for u in subsets_a:
                    if u & a_sub == u_sub:
                        v = masses[u]
                        coeffs[v] = coeffs.get(v, Fraction(0)) - 1
                out.append(constraint(coeffs, "=", 0))
    # (iv) pair variables nonnegative
    for s1, s2 in combinations(a_list, 2):
        out.append(constraint({PairVar.of(s1, s2): 1}, ">=", 0))
    # (v) formula variables from satisfying-valuation masses
    for alpha in delta:
        b_alpha = frozenset(alpha.symbols())
        coeffs = {ProbVar.of(alpha): Fraction(1)}
        for v in prop.all_valuations(b_alpha):
            if prop.eval_formula(alpha, v):
                u = frozenset(s for s in b_alpha if v[s])
                mv = mass_var(b_alpha, u)
                coeffs[mv] = coeffs.get(mv, Fraction(0)) - 1
        out.append(constraint(coeffs, "=", 0))
    return _dedupe(out)


# -- term linearization ------------------------------------------------------


def linearize_term(t):
    """Decompose a term into (numeric-variable coefficients, constant);
    rejects products of two variable-bearing subterms."""
    if isinstance(t, sx.Const):
        return {}, t.q
    if isinstance(t, sx.NumVar):
        return {NumericVar(t.k): Fraction(1)}, Fraction(0)
    if isinstance(t, sx.TNeg):
        coeffs, const = linearize_term(t.child)
        return {v: -c for v, c in coeffs.items()}, -const
    if isinstance(t, sx.Add):
        c1, k1 = linearize_term(t.left)
        c2, k2 = linearize_term(t.right)
        out = dict(c1)
        for v, c in c2.items():
            out[v] = out.get(v, Fraction(0)) + c
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


def b_phi(f):
    """Union of the classical symbol sets of all atoms of ``f``."""
    out = set()
    for a in sx.atoms_of(f):
        out |= a.alpha.symbols()
    return frozenset(out)


def q_of(f):
    """The distribution system of a formula: ``Q`` over its symbols and
    the classical formulas of its probability atoms."""
    return q_adams(sorted(b_phi(f)), sx.prob_formulas_of(f))


def _comparison_constraint(alpha, cmp, term):
    coeffs, const = linearize_term(term)
    lhs = {ProbVar.of(alpha): Fraction(1)}
    for v, c in coeffs.items():
        lhs[v] = lhs.get(v, Fraction(0)) - c
    return constraint(lhs, cmp, const)


def translate_atom(atom):
    """Constraint conjunction equivalent to a positive atom."""
    ess = prop.essential_symbols(atom.alpha)
    out = q_obs(ess)
    if isinstance(atom, ProbAtom):
        out = out + [_comparison_constraint(atom.alpha, atom.cmp, atom.term)]
    return _dedupe(out)


def translate_literal(lit):
    """Disjunction of constraint conjunctions equivalent to a literal.

    A negative observability literal becomes the single disjunct asserting
    the sum of its essential pair variables strictly positive (the
    negation of all = 0 under the ambient >= 0); with at most one
    essential symbol there is no pair and the disjunction is empty, i.e.
    unsatisfiable.  A negative probability literal adds the comparison's
    complement disjuncts.
    """
    if lit.positive:
        return [translate_atom(lit.atom)]
    alpha = lit.atom.alpha
    ess = sorted(prop.essential_symbols(alpha))
    pairs = {PairVar.of(s1, s2): 1 for s1, s2 in combinations(ess, 2)}
    disjuncts = [[constraint(pairs, ">", 0)]] if pairs else []
    if isinstance(lit.atom, ProbAtom):
        cmp_c = _comparison_constraint(alpha, lit.atom.cmp, lit.atom.term)
        disjuncts = disjuncts + negate_constraint(cmp_c)
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
