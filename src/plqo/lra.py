"""Exact feasibility of conjunctions of linear rational constraints,
including strict inequalities, with rational witnesses.

The solver is a general simplex over delta-rationals (pairs a + b*delta
for an infinitesimal positive delta), pivoting exactly with Bland's rule;
strict bounds carry a -1 delta component.  A feasible delta-solution is
turned into a purely rational witness by substituting a concrete delta
small enough for every constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import verify
from .translate import constraints_hold, negate_constraint


@dataclass(frozen=True, order=True)
class DeltaRational:
    """a + b*delta for an infinitesimal delta > 0; ordered lexicographically."""

    std: Fraction
    inf: Fraction = Fraction(0)

    def __add__(self, other):
        return DeltaRational(self.std + other.std, self.inf + other.inf)

    def __sub__(self, other):
        return DeltaRational(self.std - other.std, self.inf - other.inf)

    def scale(self, c):
        return DeltaRational(self.std * c, self.inf * c)


_ZERO = DeltaRational(Fraction(0))


@dataclass(frozen=True)
class Feasible:
    witness: dict

    def __bool__(self):
        return True


@dataclass(frozen=True)
class Infeasible:
    def __bool__(self):
        return False


INFEASIBLE = Infeasible()


class _Tableau:
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
        self.beta = [_ZERO] * n_total
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

    def _out_of_bounds(self):
        for x in sorted(self.rows):
            if self.lower[x] is not None and self.beta[x] < self.lower[x]:
                return x, "low"
            if self.upper[x] is not None and self.beta[x] > self.upper[x]:
                return x, "high"
        return None

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
        # express xj by xi's row; one pass moves and rewrites each row holding xj
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


def _concretize(delta_values, constraints):
    """Substitute a concrete rational delta small enough for every
    constraint, producing an exact rational witness."""
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


def feasible(constraints):
    """Decide feasibility of a constraint conjunction; Feasible results
    carry a rational witness, re-verified by exact substitution."""
    constraints = list(constraints)
    for c in constraints:
        if not c.terms and not c.holds({}):
            return INFEASIBLE
    constraints = [c for c in constraints if c.terms]
    tableau = _Tableau(constraints)
    if not tableau.check():
        return INFEASIBLE
    witness = _concretize(tableau.values(), constraints)
    verify(constraints_hold(constraints, witness), "witness failed re-verification")
    return Feasible(witness)


def first_feasible(premise, pools):
    """Case split: the witness of the first feasible conjunction of
    ``premise`` with one conjunction from each pool, in ``product``
    order, or None when every branch is infeasible."""
    premise = list(premise)
    for branch in product(*pools):
        result = feasible(premise + [c for part in branch for c in part])
        if result:
            return result.witness
    return None


def check_implication(premise, conclusion):
    """Whether the universally closed implication premise -> conclusion
    holds over the reals, for constraint conjunctions: true iff the
    premise joined with each disjunct of the conclusion's negation is
    infeasible."""
    negation = [d for c in conclusion for d in negate_constraint(c)]
    return first_feasible(premise, [negation]) is None
