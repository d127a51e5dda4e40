"""Independent reference implementations used to cross-check the solver.

The Fourier-Motzkin eliminator here shares no code with the simplex in
plqo.lra: constraints are re-expressed as upper-bound rows and variables
are eliminated one at a time, tracking strictness.

essential_symbols_bruteforce flips each symbol under every valuation,
where plqo.prop reads essential symbols off the algebraic normal form.

The dense matrix helpers and the dense semantics below share no
arithmetic with plqo.hilbert's sparse Matrix: they work on the dense
tuple-of-rows views (``up_projector`` here, ``StateVector.amps``) with
full products, and apply I - P by forming it.

build_observable writes out the full observable of the generic
construction, which the decider never needs but the paper defines.

square_split_bruteforce finds the largest square divisor by trying
every candidate root, where plqo.scalars.square_split divides out primes.

SlackRowTableau is the simplex tableau as first written: columns numbered
by first appearance, one slack row per constraint, one-term ones
included, and a sorted scan of every basic for the smallest violated one
(sorted_scan_out_of_bounds), where plqo.lra._Tableau numbers the
columns no one-term constraint bounds first and turns one-term
constraints into column bounds.  slack_row_feasible decides a system on
it.

every_row_concretize is the concretization of a delta-solution as first
written: it reads every constraint for the cap on delta and checks each
one on the way, where plqo.lra._concretize reads only the constraints
over a column with a delta part and leaves the check of every constraint
to its caller.

two_pass_pivot is the simplex pivot as first written, one pass over the
rows to move the basic values and a second to substitute the entering
column, where plqo.lra._Tableau does both in one pass.

eval_formula evaluates a classical formula by recursion on the tree,
one valuation at a time, where plqo.prop computes the whole truth table
in one walk of bitwise operations.  all_valuations lists valuations as
dicts in lexicographic order, where plqo names each by its code;
valuation_sets lists them as the sets they make true, in code order;
satisfying_sets lists the valuations that satisfy a formula, as sets,
where plqo reads the bits of its truth table.  letters_formula is the TT
line's skeleton as first checked, a classical copy with a fresh letter
per atom, where plqo.decide reads prop.table over the line's own atoms.

set_mass_var names the mass of a valuation given as the set it makes
true, where plqo.translate.mass_var reads the bits of its code.
set_formula_row is the formula row as first written: it keeps a mass when
its valuation, cut down to the formula's symbols, is among the formula's
satisfying sets, one frozenset intersection and hash per mass, where
plqo.translate reads the set bits of one truth table.  set_q_adams is the
paper's Q as first written, every valuation, marginal and mass a set,
where plqo.translate.q_adams works on codes and finds a marginal's masses
as the submasks of the positions it leaves out.

decide_rows lists the rows of the decider's system for a formula, in
the order plqo.decide solves them.

rcof_holds_by_solving is the RCOF side-condition check as first written:
it solves every case-split branch of the sentence again, where
plqo.decide.check_proof checks the certificates the search left in the
sentence and runs no solver.

per_pair_translate_literal is the literal translation as first written,
one disjunct per essential pair of a negative literal, where
plqo.translate asserts the sum of the pair variables positive.

normalized_q_obs, normalized_pair_row, normalized_translate_literal,
normalized_row and normalized_negate_constraint build the rows whose
shape is fixed (each pinned or nonnegative pair variable, a negative
observability literal's sum of pair variables, the masses summing to
one, a row's complement) through constraint(), from a coefficient map,
where plqo.translate writes them directly in normal form.

tree_size counts the nodes of a formula or term by plain recursion, a
shared part at each place it occurs, where plqo.parser records the size
of each node it builds and reads a built part's record back.

token_positions counts the line and column token by token, as the
tokenizer first did, where plqo.parser finds the offset of a token
only for the error it raises and computes its line:column there
(parser._where).

ladder_parse_plqo, ladder_parse_classical and ladder_parse_term are the
parser as first written: a tokenizer that keeps each token's kind and
offset, and one method per precedence level, where plqo.parser reads
the token texts of one findall and climbs prop's precedences in one
loop.

tree_dnf_literals expands the DNF once per path through the formula and
cleans up at the end, where plqo.syntax expands each shared subformula
once and cleans up at every join.

anf_by_valuation is the algebraic normal form as first written, one
evaluation per valuation and a Moebius transform entry by entry, where
plqo.prop transforms the whole bit-parallel truth table by shift and
mask.

radical_add, radical_sub, radical_mul and the complex_ forms are the
exact scalar arithmetic as first written, the general loop for every
operand, where plqo.scalars short-circuits zero and rational operands.
matrices_equal_by_subtraction compares two sparse matrices by their
entrywise difference, where sparse_matrices_equal compares canonical
rows.  sparse_dagger and sparse_matrices_equal form the adjoint and
compare whole sparse matrices, which plqo.hilbert's legality and
commutation checks no longer do: they read only the rows that hold an
entry off the diagonal.

var_key is the solver variables' order as first written, a key read off
each variable's kind and fields, where plqo.translate's variables are
tuples tagged by their kind's rank and sort as tuples.

The last helpers read terms, polynomials and scalars in ways only the
tests need: whether a term is closed, an ANF polynomial's variables and
value, and whether an exact scalar is rational or canonical.
"""

import re
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import gcd, isqrt
from typing import NamedTuple

from plqo.errors import (
    BudgetExceeded, IncompatibleFamily, MissingSymbol, ParseError, SpecInvalid, UNotSubset, verify
)
from plqo.genmodel import build_generic
from plqo.hilbert import Matrix, czero
from plqo.lra import DeltaRational, Feasible, Infeasible, _concretize, feasible
from plqo.parser import MAX_DEPTH, MAX_DIGITS, MAX_UNFOLDED, _NODE_CLASSES, _where
from plqo.prop import (
    FALSUM, MAX_VALUATION_SYMBOLS, VERUM, AnfPoly, Atom, Impl, Neg, PropSymbol, Verum, conj, disj,
    essential_symbols, iff,
)
from plqo.scalars import C_ONE, C_ZERO, ComplexScalar, RadicalScalar
from plqo.syntax import (
    ONE, Add, Const, Mul, NumVar, ObsAtom, PImpl, PNeg, PlqoLiteral, ProbAtom, TNeg, eval_term,
    fraction, is_atom, numeral, pconj, pdisj, piff, prob_ge, prob_gt, prob_le,
)
from plqo.translate import (
    DecideSystem,
    NumericVar,
    PairVar,
    ProbVar,
    _comparison_constraint,
    constraint,
    constraints_hold,
    negate_constraint,
    translate_atom,
    translate_literal,
)


def sorted_scan_out_of_bounds(tableau):
    """The smallest basic outside its bounds, found by testing every
    basic in ascending order, with the side it left by; None if none."""
    for x in sorted(tableau.rows):
        if tableau.lower[x] is not None and tableau.beta[x] < tableau.lower[x]:
            return x, "low"
        if tableau.upper[x] is not None and tableau.beta[x] > tableau.upper[x]:
            return x, "high"
    return None


class SlackRowTableau:
    """Simplex state: slack variable per constraint row, Bland pivoting."""

    def __init__(self, constraints):
        self.var_index = {}
        self.columns = []
        for c in constraints:
            for v, _ in c.terms:
                if v not in self.var_index:
                    self.var_index[v] = len(self.columns)
                    self.columns.append(v)
        self.n_orig = len(self.columns)
        n_rows = len(constraints)
        n_total = self.n_orig + n_rows
        self.lower = [None] * n_total
        self.upper = [None] * n_total
        self.beta = [DeltaRational(Fraction(0))] * n_total
        # rows[basic] = {nonbasic: coeff}; initially slack i = sum of terms
        self.rows = {}
        for i, c in enumerate(constraints):
            s = self.n_orig + i
            self.rows[s] = {self.var_index[v]: Fraction(k) for v, k in c.terms}
            if c.rel == "=":
                self.lower[s] = DeltaRational(c.rhs)
                self.upper[s] = DeltaRational(c.rhs)
            elif c.rel == "<=":
                self.upper[s] = DeltaRational(c.rhs)
            else:  # strict <
                self.upper[s] = DeltaRational(c.rhs, Fraction(-1))

    _out_of_bounds = sorted_scan_out_of_bounds

    def _suitable(self, row, direction):
        # Bland: smallest-index nonbasic column that can move the basic
        # variable toward its violated bound.
        for j in sorted(row):
            if (row[j] > 0) == (direction == "low"):  # column j must go up
                if self.upper[j] is None or self.beta[j] < self.upper[j]:
                    return j
            elif self.lower[j] is None or self.beta[j] > self.lower[j]:
                return j
        return None

    def _pivot_and_update(self, xi, xj, target):
        row = self.rows.pop(xi)
        a_ij = row.pop(xj)
        theta = (target - self.beta[xi]).scale(Fraction(1) / a_ij)
        self.beta[xi] = target
        self.beta[xj] = self.beta[xj] + theta
        new_row = {j: -a / a_ij for j, a in row.items()}
        new_row[xi] = Fraction(1) / a_ij
        for xk, rk in self.rows.items():
            c = rk.pop(xj, None)
            if c is not None:
                self.beta[xk] = self.beta[xk] + theta.scale(c)
                for j, a in new_row.items():
                    rk[j] = rk.get(j, Fraction(0)) + c * a
                    if rk[j] == 0:
                        del rk[j]
        self.rows[xj] = new_row

    def check(self):
        while True:
            violation = self._out_of_bounds()
            if violation is None:
                return True
            xi, direction = violation
            row = self.rows[xi]
            xj = self._suitable(row, direction)
            if xj is None:
                return False
            target = self.lower[xi] if direction == "low" else self.upper[xi]
            self._pivot_and_update(xi, xj, target)

    def values(self):
        return {v: self.beta[j] for v, j in self.var_index.items()}


INFEASIBLE = Infeasible(())  # the references decide, and certify nothing


def slack_row_feasible(constraints):
    """plqo.lra.feasible on SlackRowTableau: Feasible with a rational
    witness, or INFEASIBLE."""
    constraints = list(constraints)
    for c in constraints:
        if not c.terms and not c.holds({}):
            return INFEASIBLE
    constraints = [c for c in constraints if c.terms]
    tableau = SlackRowTableau(constraints)
    if not tableau.check():
        return INFEASIBLE
    witness = _concretize(tableau.values(), constraints)
    verify(constraints_hold(constraints, witness), "witness failed re-verification")
    return Feasible(witness)


def every_row_concretize(delta_values, constraints):
    """A rational witness from a delta-solution: delta is half the
    smallest cap any constraint puts on it, and at most 1/2."""
    delta_cap = Fraction(1)
    for c in constraints:
        a = Fraction(0)
        b = Fraction(0)
        for v, k in c.terms:
            dv = delta_values[v]
            a += k * dv.std
            b += k * dv.inf
        if c.rel == "=":
            verify(a == c.rhs and b == 0, "delta-solution violates an equality")
            continue
        slack = c.rhs - a
        verify(
            slack > 0 or (slack == 0 and (b < 0 or (b <= 0 and c.rel == "<="))),
            "delta-solution violates an inequality",
        )
        if b > 0 and slack > 0:
            delta_cap = min(delta_cap, slack / b)
    delta = delta_cap / 2
    return {v: dv.std + dv.inf * delta for v, dv in delta_values.items()}


def two_pass_pivot(tableau, xi, xj, target):
    """Pivot basic ``xi`` out for ``xj`` and move ``xi`` to ``target``."""
    row = tableau.rows[xi]
    a_ij = row[xj]
    theta = (target - tableau.beta[xi]).scale(Fraction(1) / a_ij)
    tableau.beta[xi] = target
    tableau.beta[xj] = tableau.beta[xj] + theta
    for xk, rk in tableau.rows.items():
        if xk != xi and xj in rk:
            tableau.beta[xk] = tableau.beta[xk] + theta.scale(rk[xj])
    new_row = {j: Fraction(-a) / a_ij for j, a in row.items() if j != xj}
    new_row[xi] = Fraction(1) / a_ij
    del tableau.rows[xi]
    tableau.rows[xj] = new_row
    for xk, rk in tableau.rows.items():
        if xk != xj and xj in rk:
            c = rk.pop(xj)
            for j, a in new_row.items():
                rk[j] = rk.get(j, Fraction(0)) + c * a
                if rk[j] == 0:
                    del rk[j]


def eval_formula(f, valuation):
    """Truth value of ``f`` under ``valuation`` (a symbol -> {0,1} mapping)."""
    if isinstance(f, Verum):
        return 1
    if isinstance(f, Atom):
        try:
            return 1 if valuation[f.symbol] else 0
        except KeyError:
            raise MissingSymbol(f"valuation does not cover {f.symbol}") from None
    if isinstance(f, Neg):
        return 1 - eval_formula(f.child, valuation)
    if isinstance(f, Impl):
        if eval_formula(f.left, valuation) == 0:
            return 1
        return eval_formula(f.right, valuation)
    raise TypeError(f"not a formula node: {f!r}")


def all_valuations(symbols):
    """All valuations on ``symbols``, in lexicographic order by ascending index."""
    syms = sorted(symbols)
    for bits in product((0, 1), repeat=len(syms)):
        yield dict(zip(syms, bits))


def satisfying_sets(f, syms):
    """The valuations of ``syms`` that satisfy ``f``, each as the set of
    symbols it makes true, one valuation at a time."""
    return frozenset(
        frozenset(s for s in v if v[s]) for v in all_valuations(syms) if eval_formula(f, v)
    )


def letters_formula(f):
    """Abstract a formula's atoms into fresh classical letters B0, B1, ...
    in first-occurrence order, so that tautology of the skeleton can be
    decided by classical truth tables."""
    mapping = {}

    def conv(node):
        if is_atom(node):
            if node not in mapping:
                mapping[node] = Atom(PropSymbol(len(mapping)))
            return mapping[node]
        if isinstance(node, PNeg):
            return Neg(conv(node.child))
        if isinstance(node, PImpl):
            return Impl(conv(node.left), conv(node.right))
        raise TypeError(f"not a formula node: {node!r}")

    return conv(f)


def valuation_sets(symbols):
    """The valuations of ``symbols`` as the sets they make true, indexed by
    code: bit j of the code is the value of the j-th listed symbol."""
    n = len(symbols)
    return [frozenset(symbols[j] for j in range(n) if code >> j & 1) for code in range(1 << n)]


def var_key(v):
    """The sort key of a solver variable: numeric term variables by index,
    then formula variables by text, then pair variables by their indices."""
    if isinstance(v, NumericVar):
        return (0, v.k, "")
    if isinstance(v, ProbVar):
        return (1, 0, v.key)
    return (2, v.i, v.j)


def set_mass_var(a_set, u_set):
    """The mass variable of the valuation on ``a_set`` that makes exactly
    ``u_set`` true, written from its literals."""
    u_set = frozenset(u_set)
    if not u_set.issubset(a_set):
        raise UNotSubset(f"{sorted(u_set)} is not a subset of {sorted(a_set)}")
    lits = [str(s) if s in u_set else f"!{s}" for s in sorted(a_set)]
    if len(lits) < 2:
        return ProbVar(lits[0] if lits else "T")
    return ProbVar("&(".join(lits[:-1]) + "&" + lits[-1] + ")" * (len(lits) - 2))


def set_formula_row(alpha, masses):
    """The formula variable of ``alpha`` equal to the sum of the masses
    whose valuation satisfies it; ``masses`` maps each valuation of a
    superset of alpha's symbols, as the set it makes true, to its mass."""
    b_alpha = alpha.symbols()
    satisfying = satisfying_sets(alpha, b_alpha)
    coeffs = {ProbVar.of(alpha): Fraction(1)}
    for u, m in masses.items():
        if u & b_alpha in satisfying:
            coeffs[m] = coeffs.get(m, Fraction(0)) - 1
    return constraint(coeffs, "=", 0)


def set_q_adams(a_set, delta):
    """The paper's distribution system over ``a_set`` as first written,
    every valuation a set: masses and marginals named from sets, each
    marginal summing the masses whose set meets the subset in its own, and
    each formula row read from its satisfying sets.  Rows and terms come in
    the order plqo.translate.q_adams gives them."""
    a_list = sorted(set(a_set))
    subsets_a = [frozenset(c) for r in range(len(a_list) + 1) for c in combinations(a_list, r)]
    masses = {u: set_mass_var(a_list, u) for u in subsets_a}
    out = []
    for m in masses.values():
        out += [constraint({m: 1}, ">=", 0), constraint({m: 1}, "<=", 1)]
    out.append(constraint({m: 1 for m in masses.values()}, "=", 1))
    for a_sub in subsets_a[:-1]:
        for r in range(len(a_sub) + 1):
            for u_sub in combinations(sorted(a_sub), r):
                coeffs = {set_mass_var(a_sub, u_sub): 1}
                for u, m in masses.items():
                    if u & a_sub == frozenset(u_sub):
                        coeffs[m] = -1
                out.append(constraint(coeffs, "=", 0))
    out += [normalized_pair_row(s1, s2) for s1, s2 in combinations(a_list, 2)]
    for alpha in dict.fromkeys(delta):
        out.append(set_formula_row(alpha, _set_masses(tuple(sorted(alpha.symbols())))))
    return [c for c in out if c.terms]


def decide_rows(f):
    """The rows of the decider's system for ``f``."""
    return [c for _, c in DecideSystem.of(f).rows()]


def rcof_holds_by_solving(sent):
    """Whether every case-split branch of the sentence's literals is
    infeasible together with the decider's system for its formula."""
    premise = decide_rows(sent.formula())
    pools = [translate_literal(l) for l in sent.literals()]
    return not any(
        feasible(premise + [c for part in branch for c in part]) for branch in product(*pools)
    )


def per_pair_translate_literal(lit):
    """Disjunction equivalent to a literal, with one disjunct per
    essential pair of a negative literal's formula asserting that pair
    variable strictly positive."""
    if lit.positive:
        return [translate_atom(lit.atom)]
    alpha = lit.atom.alpha
    ess = sorted(essential_symbols(alpha))
    disjuncts = [
        [constraint({PairVar.of(s1, s2): 1}, ">", 0)] for s1, s2 in combinations(ess, 2)
    ]
    if isinstance(lit.atom, ProbAtom):
        cmp_c = _comparison_constraint(alpha, lit.atom.cmp, lit.atom.term)
        disjuncts = disjuncts + negate_constraint(cmp_c)
    return disjuncts


def _pair_var(s1, s2):
    return PairVar(*sorted((s1.index, s2.index)))


def normalized_q_obs(a_set):
    """Pair variables of all 2-subsets of ``a_set`` pinned to zero."""
    return [constraint({_pair_var(s1, s2): 1}, "=", 0) for s1, s2 in combinations(sorted(a_set), 2)]


def normalized_pair_row(s1, s2):
    """The pair variable of symbols ``s1`` and ``s2`` nonnegative."""
    return constraint({_pair_var(s1, s2): 1}, ">=", 0)


def normalized_negate_constraint(c):
    """Disjunction of constraints equivalent to the negation of ``c``."""
    coeffs = c.coeffs()
    if c.rel == "=":
        return [[constraint(coeffs, "<", c.rhs)], [constraint(coeffs, ">", c.rhs)]]
    if c.rel == "<=":
        return [[constraint(coeffs, ">", c.rhs)]]
    return [[constraint(coeffs, ">=", c.rhs)]]


def normalized_translate_literal(lit):
    """Disjunction of constraint conjunctions equivalent to a literal, a
    negative observability literal asserting the sum of its essential pair
    variables positive and each of them nonnegative."""
    alpha = lit.atom.alpha
    comparison = (
        [_comparison_constraint(alpha, lit.atom.cmp, lit.atom.term)]
        if isinstance(lit.atom, ProbAtom) else []
    )
    if lit.positive:
        return [normalized_q_obs(essential_symbols(alpha)) + comparison]
    ess = sorted(essential_symbols(alpha))
    pairs = list(combinations(ess, 2))
    disjuncts = []
    if pairs:
        strict = constraint({_pair_var(s1, s2): 1 for s1, s2 in pairs}, ">", 0)
        disjuncts.append([strict] + [normalized_pair_row(s1, s2) for s1, s2 in pairs])
    for c in comparison:
        disjuncts += negate_constraint(c)
    return disjuncts


@cache
def _set_masses(symbols):
    """Each valuation of ``symbols``, as the set it makes true, to its mass."""
    return {u: set_mass_var(symbols, u) for u in valuation_sets(symbols)}


def normalized_row(system, name):
    """The row of a DecideSystem called ``name``, a name it gives one of
    its rows."""
    kind = name[0]
    if kind == "mass>=0":
        u = {s for j, s in enumerate(system.a_p) if name[1] >> j & 1}
        return constraint({set_mass_var(system.a_p, u): 1}, ">=", 0)
    masses = _set_masses(tuple(system.a_p))
    if kind == "formula":
        return set_formula_row(system.delta[name[1]], masses)
    return constraint({m: 1 for m in masses.values()}, "=", 1)


def tree_size(node):
    """The number of nodes of a formula or term as a tree."""
    if isinstance(node, (Verum, Atom, Const, NumVar)):
        return 1
    if isinstance(node, (Neg, PNeg, TNeg)):
        return 1 + tree_size(node.child)
    if isinstance(node, (Impl, PImpl, Add, Mul)):
        return 1 + tree_size(node.left) + tree_size(node.right)
    if isinstance(node, ObsAtom):
        return 1 + tree_size(node.alpha)
    if isinstance(node, ProbAtom):
        return 1 + tree_size(node.alpha) + tree_size(node.term)
    raise TypeError(f"not a formula or term node: {node!r}")


def token_positions(text):
    """{offset: (line, column)} of each chunk of ``text`` the tokenizer
    reads, whitespace runs included, and of its end: the line and column
    carried along chunk by chunk, a chunk with newlines restarting the
    column after its last one."""
    positions = {}
    line, col, pos = 1, 1, 0
    while pos < len(text):
        positions[pos] = (line, col)
        chunk = _TOKEN_RE.match(text, pos).group()
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos += len(chunk)
    positions[pos] = (line, col)
    return positions


# -- the parser as first written ----------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<sym>B[0-9]+)
  | (?P<var>x[0-9]+)
  | (?P<int>[0-9]+)
  | (?P<op><->|->|<=|>=|[TFOP()!&|=<>+\-*/])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class _LadderToken(NamedTuple):
    kind: str
    text: str
    pos: int


def _ladder_tokenize(text):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        chunk = m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {chunk!r}", *_where(text, m.start()))
        if kind in ("sym", "var", "int"):
            digits = len(chunk) - (kind != "int")
            if digits > MAX_DIGITS:
                line, col = _where(text, m.start())
                raise BudgetExceeded(
                    f"{line}:{col}: numeral of {digits} digits exceeds budget {MAX_DIGITS}"
                )
        tokens.append(_LadderToken(kind, chunk, m.start()))
    tokens.append(_LadderToken("eof", "", len(text)))
    return tokens


class _LadderParser:
    def __init__(self, text):
        self.text = text
        self.tokens = _ladder_tokenize(text)
        self.pos = 0
        self.open = 0
        self.built = {}  # id(node) -> (depth, unfolded size, node)

    def peek(self):
        return self.tokens[self.pos]

    def accept(self, text):
        if self.peek().text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text):
        tok = self.peek()
        if tok.text != text:
            got = "end of input" if tok.kind == "eof" else repr(tok.text)
            self.fail(f"expected {text!r}, got {got}")
        self.pos += 1

    def fail(self, message):
        raise ParseError(message, *_where(self.text, self.peek().pos))

    def over_budget(self, message):
        line, col = _where(self.text, self.peek().pos)
        raise BudgetExceeded(f"{line}:{col}: {message}")

    def within_depth(self, depth):
        if depth > MAX_DEPTH:
            self.over_budget(f"nesting depth {depth} exceeds budget {MAX_DEPTH}")
        return depth

    def nested(self, parse, *args):
        self.open = self.within_depth(self.open + 1)
        out = parse(*args)
        self.open -= 1
        return out

    def build(self, make, *parts):
        depth = 0
        for p in parts:
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
        count = 0
        while self.accept(op):
            count += 1
        node = operand(*args)
        for _ in range(count):
            node = self.build(make, node)
        return node

    def expect_eof(self):
        tok = self.peek()
        if tok.kind != "eof":
            self.fail(f"trailing input starting at {tok.text!r}")

    def formula(self, layer):
        f = self.implication(layer)
        while self.accept("<->"):
            f = self.build(layer.iff, f, self.implication(layer))
        return f

    def implication(self, layer):
        f = self.disjunction(layer)
        if self.accept("->"):
            return self.build(layer.impl, f, self.nested(self.implication, layer))
        return f

    def disjunction(self, layer):
        f = self.conjunction(layer)
        if self.accept("|"):
            return self.build(layer.disj, f, self.nested(self.disjunction, layer))
        return f

    def conjunction(self, layer):
        f = self.negation(layer)
        while self.accept("&"):
            f = self.build(layer.conj, f, self.negation(layer))
        return f

    def negation(self, layer):
        return self.prefixed("!", layer.neg, layer.primary, self)

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
            f = self.nested(self.formula, _LADDER_CLASSICAL)
            self.expect(")")
            return f
        self.fail("expected a classical formula")

    def p_primary(self):
        head = self.peek().text
        if head in ("O", "P"):
            self.pos += 1
            self.expect("(")
            alpha = self.nested(self.formula, _LADDER_CLASSICAL)
            self.expect(")")
            return self.build(ObsAtom, alpha) if head == "O" else self.p_comparison(alpha)
        if self.accept("("):
            f = self.nested(self.formula, _LADDER_PLQO)
            self.expect(")")
            return f
        self.fail("expected a formula")

    def p_comparison(self, alpha):
        for cmp_text, make in _LADDER_COMPARISONS:
            if self.accept(cmp_text):
                return self.build(make, alpha, self.nested(self.term))
        self.fail("expected a comparison")

    def term(self):
        t = self.t_prod()
        while True:
            if self.accept("+"):
                right = self.t_prod()
                n = t.q if isinstance(t, Const) and t.q.denominator == 1 else 0
                t = numeral(n + 1) if n and right == ONE else self.build(Add, t, right)
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
        tok = self.peek()
        if tok.kind == "int":
            self.pos += 1
            m = 1
            if self.accept("/"):
                den = self.peek()
                if den.kind != "int":
                    self.fail("expected a denominator")
                m = int(den.text)
                if m == 0:
                    self.fail("zero denominator")
                self.pos += 1
            return fraction(int(tok.text), m)
        if tok.kind == "var":
            self.pos += 1
            return NumVar(int(tok.text[1:]))
        if self.accept("("):
            t = self.nested(self.term)
            self.expect(")")
            return t
        self.fail("expected a term")


_LADDER_COMPARISONS = (
    ("<=", prob_le),
    (">=", prob_ge),
    ("<", lambda alpha, t: ProbAtom(alpha, "<", t)),
    (">", prob_gt),
    ("=", lambda alpha, t: ProbAtom(alpha, "=", t)),
)


class _Rungs(NamedTuple):
    iff: object
    impl: object
    disj: object
    conj: object
    neg: object
    primary: object


_LADDER_CLASSICAL = _Rungs(iff, Impl, disj, conj, Neg, _LadderParser.c_primary)
_LADDER_PLQO = _Rungs(piff, PImpl, pdisj, pconj, PNeg, _LadderParser.p_primary)


def _ladder_parse(text, entry):
    p = _LadderParser(text)
    out = entry(p)
    p.expect_eof()
    return out


def ladder_parse_classical(text):
    return _ladder_parse(text, lambda p: p.formula(_LADDER_CLASSICAL))


def ladder_parse_plqo(text):
    return _ladder_parse(text, lambda p: p.formula(_LADDER_PLQO))


def ladder_parse_term(text):
    return _ladder_parse(text, _LadderParser.term)


def tree_dnf_literals(f):
    """The DNF of ``f`` as literal lists, expanded along every path of the
    formula tree, then cleaned: duplicate literals dropped, disjuncts with
    a complementary pair pruned, repeated literal sets dropped."""

    def expand(node, positive):
        if is_atom(node):
            return [[PlqoLiteral(positive, node)]]
        if isinstance(node, PNeg):
            return expand(node.child, not positive)
        if isinstance(node, PImpl):
            if positive:
                return expand(node.left, False) + expand(node.right, True)
            out = []
            for a in expand(node.left, True):
                for b in expand(node.right, False):
                    out.append(a + b)
            return out
        raise TypeError(f"not a formula node: {node!r}")

    disjuncts = []
    seen = set()
    for raw in expand(f, True):
        lits = []
        lit_set = set()
        tautologous = False
        for lit in raw:
            if lit.complement() in lit_set:
                tautologous = True
                break
            if lit not in lit_set:
                lit_set.add(lit)
                lits.append(lit)
        if tautologous:
            continue
        key = frozenset(lit_set)
        if key in seen:
            continue
        seen.add(key)
        disjuncts.append(lits)
    return disjuncts


def _rows_of(constraints):
    """Each constraint becomes one or two rows (coeffs, rhs, strict)
    meaning sum coeffs*x <= rhs (or < when strict)."""
    rows = []
    for c in constraints:
        coeffs = {v: Fraction(k) for v, k in c.terms}
        if c.rel == "=":
            rows.append((dict(coeffs), Fraction(c.rhs), False))
            rows.append(({v: -k for v, k in coeffs.items()}, -Fraction(c.rhs), False))
        elif c.rel == "<=":
            rows.append((coeffs, Fraction(c.rhs), False))
        elif c.rel == "<":
            rows.append((coeffs, Fraction(c.rhs), True))
        else:
            raise ValueError(c.rel)
    return rows


def _prune(rows):
    """Drop duplicate and dominated rows: each row is first divided by its
    largest absolute coefficient, so rows that are positive multiples of
    each other share a left-hand side, and for identical left-hand sides
    only the tightest bound matters."""
    best = {}
    for coeffs, rhs, strict in rows:
        if coeffs:
            scale = max(abs(k) for k in coeffs.values())
            coeffs = {v: k / scale for v, k in coeffs.items()}
            rhs = rhs / scale
        key = frozenset(coeffs.items())
        prev = best.get(key)
        # tighter: smaller rhs, or equal rhs but strict
        if prev is None or (rhs, not strict) < (prev[1], not prev[2]):
            best[key] = (coeffs, rhs, strict)
    return list(best.values())


def fourier_motzkin_feasible(constraints):
    """True iff the conjunction has a real solution."""
    rows = _rows_of(constraints)
    remaining = sorted({v for coeffs, _, _ in rows for v in coeffs}, key=str)
    while remaining:
        rows = _prune(rows)
        # eliminate the variable producing the fewest combined rows
        def cost(v):
            up = sum(1 for coeffs, _, _ in rows if coeffs.get(v, 0) > 0)
            lo = sum(1 for coeffs, _, _ in rows if coeffs.get(v, 0) < 0)
            return up * lo - up - lo

        var = min(remaining, key=lambda v: (cost(v), str(v)))
        remaining.remove(var)
        uppers = []
        lowers = []
        rest = []
        for coeffs, rhs, strict in rows:
            a = coeffs.get(var, Fraction(0))
            if a > 0:
                uppers.append((coeffs, rhs, strict, a))
            elif a < 0:
                lowers.append((coeffs, rhs, strict, a))
            else:
                rest.append((coeffs, rhs, strict))
        new_rows = rest
        for uc, ur, us, ua in uppers:
            for lc, lr, ls, la in lowers:
                # combine so var cancels: (1/ua)*upper + (-1/la)*lower
                coeffs = {}
                for v, k in uc.items():
                    coeffs[v] = coeffs.get(v, Fraction(0)) + k / ua
                for v, k in lc.items():
                    coeffs[v] = coeffs.get(v, Fraction(0)) - k / la
                coeffs.pop(var, None)
                coeffs = {v: k for v, k in coeffs.items() if k != 0}
                new_rows.append((coeffs, ur / ua - lr / la, us or ls))
        rows = new_rows
    for coeffs, rhs, strict in rows:
        if coeffs:
            raise AssertionError("elimination left a variable behind")
        if strict:
            if not Fraction(0) < rhs:
                return False
        elif not Fraction(0) <= rhs:
            return False
    return True


def essential_symbols_bruteforce(f):
    """A symbol is essential iff flipping it changes the truth value under
    some valuation."""
    syms = f.symbols()
    essential = set()
    for s in syms:
        for v in all_valuations(syms - {s}):
            if eval_formula(f, v | {s: 0}) != eval_formula(f, v | {s: 1}):
                essential.add(s)
                break
    return frozenset(essential)


def anf_by_valuation(f):
    """Zhegalkin polynomial of ``f``: its truth table one valuation at a
    time, then the Moebius (xor) transform over the subset lattice."""
    syms = sorted(f.symbols())
    if len(syms) > MAX_VALUATION_SYMBOLS:
        raise BudgetExceeded(
            f"anf: {len(syms)} symbols exceeds budget {MAX_VALUATION_SYMBOLS}"
        )
    n = len(syms)
    coeffs = [eval_formula(f, dict(zip(syms, bits))) for bits in product((0, 1), repeat=n)]
    for i in range(n):
        step = 1 << (n - 1 - i)
        for j in range(1 << n):
            if j & step:
                coeffs[j] ^= coeffs[j ^ step]
    monomials = set()
    for j in range(1 << n):
        if coeffs[j]:
            monomials.add(
                frozenset(syms[i] for i in range(n) if j & (1 << (n - 1 - i)))
            )
    return AnfPoly(frozenset(monomials))


# -- exact scalars and sparse matrices -----------------------------------------


def _radical(coeffs):
    return RadicalScalar(tuple((d, c) for d, c in sorted(coeffs.items()) if c != 0))


def radical_add(a, b):
    out = dict(a.terms)
    for d, c in b.terms:
        out[d] = out.get(d, Fraction(0)) + c
    return _radical(out)


def radical_sub(a, b):
    return radical_add(a, RadicalScalar(tuple((d, -c) for d, c in b.terms)))


def radical_mul(a, b):
    out = {}
    for d1, c1 in a.terms:
        for d2, c2 in b.terms:
            # squarefree d1, d2: d1*d2 = g*g * (d1/g)*(d2/g), the last squarefree
            g = gcd(d1, d2)
            d = (d1 // g) * (d2 // g)
            out[d] = out.get(d, Fraction(0)) + c1 * c2 * g
    return _radical(out)


def complex_add(a, b):
    return ComplexScalar(radical_add(a.re, b.re), radical_add(a.im, b.im))


def complex_sub(a, b):
    return ComplexScalar(radical_sub(a.re, b.re), radical_sub(a.im, b.im))


def complex_mul(a, b):
    return ComplexScalar(
        radical_sub(radical_mul(a.re, b.re), radical_mul(a.im, b.im)),
        radical_add(radical_mul(a.re, b.im), radical_mul(a.im, b.re)),
    )


def is_canonical(x):
    """Whether a RadicalScalar's terms have strictly ascending squarefree
    radicands and nonzero Fraction coefficients."""
    ds = [d for d, _ in x.terms]
    return (
        ds == sorted(set(ds))
        and all(square_split_bruteforce(d) == (1, d) for d in ds)
        and all(isinstance(c, Fraction) and c != 0 for _, c in x.terms)
    )


def sparse_dagger(m):
    """The adjoint of a sparse Matrix, entry by entry."""
    rows = [{} for _ in m.rows]
    for i, row in enumerate(m.rows):
        for j, x in row.items():
            rows[j][i] = x.conjugate()
    return Matrix(rows)


def sparse_matrices_equal(a, b, tol=None):
    """Entrywise equality of two sparse Matrix values, exact or within
    ``tol``.  Exact scalars and matrices are canonical (no zero entries,
    radicals of distinct squarefree integers), so exact equality is
    structural."""
    if tol is None:
        return a.rows == b.rows
    return a.dim == b.dim and all(abs(x) <= tol for row in (a - b).rows for x in row.values())


def matrices_equal_by_subtraction(a, b):
    """Whether two exact sparse Matrix values have the same dimension and
    a zero entrywise difference."""
    if a.dim != b.dim:
        return False
    return all(
        complex_sub(ra.get(j, C_ZERO), rb.get(j, C_ZERO)).is_zero()
        for ra, rb in zip(a.rows, b.rows)
        for j in set(ra) | set(rb)
    )


# -- dense matrices ------------------------------------------------------------


def identity(n, exact=True):
    z, o = (C_ZERO, C_ONE) if exact else (0j, 1 + 0j)
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(_dot(row, col) for col in bt) for row in a)


def _dot(u, v):
    """sum u_t v_t, no conjugation."""
    acc = u[0] * v[0]
    for x, y in zip(u[1:], v[1:]):
        acc = acc + x * y
    return acc


def mat_vec(a, v):
    return tuple(_dot(row, v) for row in a)


def dagger(a):
    return tuple(tuple(x.conjugate() for x in col) for col in zip(*a))


def inner(u, v):
    """<u|v>."""
    return _dot(tuple(x.conjugate() for x in u), v)


def _is_zero(x, tol):
    return x.is_zero() if tol is None else abs(x) <= tol


def matrices_equal(a, b, tol=None):
    return all(_is_zero(x, tol) for row in mat_sub(a, b) for x in row)


def matrix_is_zero(a, tol=None):
    """Whether every entry of a dense tuple-of-rows matrix is zero."""
    return all(_is_zero(x, tol) for row in a for x in row)


def dense_projector_defect(m, tol=None):
    """None for a Hermitian idempotent square matrix, else what fails
    first, by dense products."""
    if any(len(row) != len(m) for row in m):
        return "not square"
    if not matrices_equal(m, dagger(m), tol):
        return "not Hermitian"
    if not matrices_equal(mat_mul(m, m), m, tol):
        return "not idempotent"
    return None


def up_projector(pqv):
    """The projector of ``pqv`` as a dense tuple of rows."""
    return pqv.projector.dense(czero(pqv.tol is None))


def dense_compatible(a, b, tol=None):
    return matrices_equal(mat_mul(a, b), mat_mul(b, a), tol)


def dense_is_observable(structure, alpha):
    mats = [up_projector(structure.pqv(s)) for s in sorted(essential_symbols(alpha))]
    return all(dense_compatible(a, b, structure.tol) for a, b in combinations(mats, 2))


def dense_prob(structure, alpha):
    """The probability of alpha summed over ordered dense projector
    products of its essential symbols, as in the paper's definition."""
    tol = structure.tol
    syms = sorted(essential_symbols(alpha))
    mats = {s: up_projector(structure.pqv(s)) for s in syms}
    for a, b in combinations(mats.values(), 2):
        if not dense_compatible(a, b, tol):
            raise IncompatibleFamily("dense reference: incompatible family")
    psi = structure.state.amps
    ident = identity(structure.dim, tol is None)
    padding = {s: 0 for s in alpha.symbols() if s not in syms}
    total = C_ZERO if tol is None else 0j
    for v in all_valuations(syms):
        if eval_formula(alpha, v | padding):
            vec = psi
            for s in syms:
                q = mats[s] if v[s] else mat_sub(ident, mats[s])
                vec = mat_vec(q, vec)
            total = total + inner(psi, vec)
    if tol is None:
        if not total.im.is_zero():
            raise SpecInvalid("dense reference: non-real probability")
        return total.re
    if abs(total.imag) > tol:
        raise SpecInvalid("dense reference: non-real probability")
    return total.real


def dense_satisfies(structure, rho, phi):
    if isinstance(phi, ObsAtom):
        return dense_is_observable(structure, phi.alpha)
    if isinstance(phi, ProbAtom):
        if not dense_is_observable(structure, phi.alpha):
            return False
        p = dense_prob(structure, phi.alpha)
        q = eval_term(phi.term, rho)
        tol = structure.tol
        if tol is None:
            return p.compares(phi.cmp, q)
        if phi.cmp == "=":
            return abs(p - float(q)) <= tol
        return p < float(q) - tol
    if isinstance(phi, PNeg):
        return not dense_satisfies(structure, rho, phi.child)
    if isinstance(phi, PImpl):
        return (not dense_satisfies(structure, rho, phi.left)) or dense_satisfies(
            structure, rho, phi.right
        )
    raise TypeError(f"not a formula node: {phi!r}")


def build_observable(spec, symbol):
    """The full observable O_j of the construction: eigenvalue +1 on
    satisfying valuation vectors, -1 on falsifying ones, and the same
    incompatible-pair blocks as the induced projector (their orthogonal
    complements carry eigenvalue 0)."""
    if symbol not in spec.symbols:
        raise MissingSymbol(f"{symbol} is not in the generic base set")
    structure = build_generic(spec)
    proj = up_projector(structure.pqv(symbol))
    n = len(spec.symbols)
    j = spec.symbols.index(symbol)
    m = [list(row) for row in proj]
    for k in range(1 << n):
        if not (k >> j) & 1:
            m[k][k] = m[k][k] - C_ONE
    return tuple(tuple(row) for row in m)


# -- terms, polynomials and scalars --------------------------------------------


def square_split_bruteforce(n):
    """(s, d) with s*s the largest square dividing n >= 1 and d = n/(s*s)."""
    s = max(k for k in range(1, isqrt(n) + 1) if n % (k * k) == 0)
    return s, n // (s * s)


def closed(t):
    """Whether the term has no numeric variable."""
    if isinstance(t, NumVar):
        return False
    if isinstance(t, TNeg):
        return closed(t.child)
    if isinstance(t, (Add, Mul)):
        return closed(t.left) and closed(t.right)
    return True


def anf_variables(poly):
    """The symbols that occur in some monomial of an ANF polynomial."""
    return frozenset().union(*poly.monomials)


def anf_evaluate(poly, valuation):
    """The GF(2) value of an AnfPoly under a symbol -> {0,1} valuation."""
    acc = 0
    for m in poly.monomials:
        term = 1
        for s in m:
            try:
                term &= 1 if valuation[s] else 0
            except KeyError:
                raise MissingSymbol(f"valuation does not cover {s}") from None
            if term == 0:
                break
        acc ^= term
    return acc


def is_rational(x):
    """Whether a RadicalScalar has no irrational part."""
    return all(d == 1 for d, _ in x.terms)


def as_fraction(x):
    """A rational RadicalScalar as a Fraction; ValueError if irrational."""
    if not is_rational(x):
        raise ValueError(f"{x} is irrational")
    return dict(x.terms).get(1, Fraction(0))
