"""Exact feasibility of conjunctions of linear rational constraints,
including strict inequalities, with rational witnesses.

The solver is the bounded general simplex of Dutertre and de Moura ("A
fast linear-arithmetic solver for DPLL(T)", CAV 2006) over
delta-rationals (pairs a + b*delta for an infinitesimal positive delta,
held as a NamedTuple and ordered as a tuple), pivoting exactly with
Bland's rule; strict bounds carry a delta component of -1 above and +1
below.  A one-term constraint bounds its column, with no division when
its coefficient is 1 or -1, and every other constraint is a slack row;
the columns no one-term constraint bounds are numbered first, and the
basic to fix is found by an ascending scan.  A feasible delta-solution
is turned into a purely rational witness by substituting a concrete
delta small enough for every constraint; only the constraints over a
column with a nonzero delta part can bound it, so only those are read,
and the witness is then checked on every constraint.  An infeasible
system comes with a Farkas certificate over its input constraints: the
conflict explanation of the same paper, each bound the conflict uses
traced back to the constraint that gave it.

Every number is an exact rational, an ``int`` when it is integral and a
``Fraction`` otherwise, never a float: only a ``Fraction`` divides, a pivot
on 1 or -1 multiplies, and an entry a pivot leaves integral is stored
back as an ``int``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import verify
from .translate import constraints_hold, exact, negate_constraint


class DeltaRational(NamedTuple):
    """a + b*delta for an infinitesimal delta > 0; ordered lexicographically,
    as the tuple (std, inf)."""

    std: int | Fraction
    inf: int | Fraction = 0

    def __add__(self, other):
        return DeltaRational(self.std + other.std, self.inf + other.inf)

    def __sub__(self, other):
        return DeltaRational(self.std - other.std, self.inf - other.inf)

    def scale(self, c):
        return DeltaRational(self.std * c, self.inf * c)


# the delta part of a bound: none, or one delta inside a strict bound
_NO_DELTA = 0
_BELOW = -1
_ABOVE = 1
_ZERO = DeltaRational(_NO_DELTA)


@dataclass(frozen=True)
class Feasible:
    witness: dict

    def __bool__(self):
        return True


@dataclass(frozen=True)
class Infeasible:
    """multipliers: (index, multiplier) pairs over the input constraints,
    ascending by index, that refute them.  Each multiplier of an inequality
    is positive; in the combination of the constraints, scaled by their
    multipliers, every variable cancels, leaving ``0 <= c`` with c < 0, or
    ``0 < c`` with c <= 0 when a strict constraint takes part."""

    multipliers: tuple

    def __bool__(self):
        return False


class _Tableau:
    """Simplex state: bounded columns, one slack row per constraint that is
    not one-term, Bland pivoting.

    Columns with no one-term constraint come first, then the bounded ones,
    each group in order of first appearance.  A column with no bound can
    always move, so Bland's rule makes it basic in the row that defines it,
    and it stays there; the decider's masses, all bounded, keep their code
    order.  A one-term constraint is no row but a bound on its column, the
    tightest one kept; bounds that cross make the system infeasible before
    any pivot.  A constraint with no terms is a slack fixed at 0 with no
    column to move, so a false one is refuted by its own row alone.  A
    nonbasic column sits at its lower bound, else its upper bound, else 0.
    Each bound keeps its source: the index of the constraint that gave it
    and that constraint's coefficient on the column (1 for a slack).  The
    basics are scanned in ascending order, so the first violated one is
    the smallest, as Bland's rule needs.
    """

    def __init__(self, constraints):
        bounded = {c.terms[0][0] for c in constraints if len(c.terms) == 1}
        columns = dict.fromkeys(v for c in constraints for v, _ in c.terms)
        self.columns = [v for v in columns if v not in bounded] + [v for v in columns if v in bounded]
        self.var_index = {v: j for j, v in enumerate(self.columns)}
        self.n_orig = len(self.columns)
        self.lower = [None] * self.n_orig
        self.upper = [None] * self.n_orig
        self.lower_src = [None] * self.n_orig
        self.upper_src = [None] * self.n_orig
        rows = []
        for i, c in enumerate(constraints):
            if len(c.terms) == 1:
                ((v, k),) = c.terms
                self._bound(self.var_index[v], k, c, i)
            else:
                rows.append((i, c))
        self.crossed = next(
            (
                j
                for j, (lo, up) in enumerate(zip(self.lower, self.upper))
                if lo is not None and up is not None and lo > up
            ),
            None,
        )
        self.beta = [
            lo if lo is not None else up if up is not None else _ZERO
            for lo, up in zip(self.lower, self.upper)
        ]
        nonzero = {j: b for j, b in enumerate(self.beta) if b != _ZERO}
        # rows[basic] = {nonbasic: coeff}; initially slack s = sum of terms
        self.rows = {}
        for i, c in rows:
            s = len(self.beta)
            row = {self.var_index[v]: k for v, k in c.terms}
            self.rows[s] = row
            self.beta.append(
                sum((nonzero[j].scale(k) for j, k in row.items() if j in nonzero), _ZERO)
            )
            for side in (self.lower, self.upper, self.lower_src, self.upper_src):
                side.append(None)
            self._bound(s, 1, c, i)

    def _bound(self, j, k, c, i):
        """Tighten column j's bounds by constraint i, ``c``, which reads
        k * x_j REL rhs; a strict bound is one delta inside, on the side
        the sign of k says."""
        inf = (_BELOW if k > 0 else _ABOVE) if c.rel == "<" else _NO_DELTA
        std = c.rhs if k == 1 else -c.rhs if k == -1 else exact(c.rhs / Fraction(k))
        bound = DeltaRational(std, inf)
        if c.rel == "=" or k > 0:
            if self.upper[j] is None or bound < self.upper[j]:
                self.upper[j] = bound
                self.upper_src[j] = (i, k)
        if c.rel == "=" or k < 0:
            if self.lower[j] is None or bound > self.lower[j]:
                self.lower[j] = bound
                self.lower_src[j] = (i, k)

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
        inverse = a_ij if a_ij == 1 or a_ij == -1 else exact(1 / Fraction(a_ij))
        theta = (target - self.beta[xi]).scale(inverse)
        self.beta[xi] = target
        self.beta[xj] = self.beta[xj] + theta
        # express xj by xi's row; one pass moves and rewrites each row holding xj
        new_row = {j: exact(-a * inverse) for j, a in row.items()}
        new_row[xi] = inverse
        for xk, rk in self.rows.items():
            c = rk.pop(xj, None)
            if c is not None:
                self.beta[xk] = self.beta[xk] + theta.scale(c)
                for j, a in new_row.items():
                    # c and a are nonzero, so an entry rk lacked stays nonzero
                    v = rk[j] + c * a if j in rk else c * a
                    if v:
                        rk[j] = v if type(v) is int else exact(v)
                    else:
                        del rk[j]
        self.rows[xj] = new_row

    def _explain(self, combination):
        """Farkas multipliers, by constraint index, for a combination
        {column: g} of the columns that is identically zero: column v
        contributes its upper bound scaled by g when g > 0, else its lower
        bound scaled by -g.  A bound from constraint i with coefficient k
        is that constraint scaled by 1/k, or by -1/k for a lower bound."""
        multipliers = {}
        for v, g in combination:
            i, k = (self.upper_src if g > 0 else self.lower_src)[v]
            multipliers[i] = multipliers.get(i, 0) + (g * k if k in (1, -1) else g / Fraction(k))
        return multipliers

    def check(self):
        """None when the bounds can all be met, else Farkas multipliers
        over the constraints: for crossed bounds, x_j - x_j; for a violated
        basic with no suitable column, its row x_i - sum a_ij x_j, signed
        toward the violated bound, every other column at the bound that
        blocks it."""
        if self.crossed is not None:
            return self._explain([(self.crossed, 1), (self.crossed, -1)])
        while True:
            violation = self._out_of_bounds()
            if violation is None:
                return None
            xi, direction = violation
            row = self.rows[xi]
            xj = self._suitable(row, direction)
            if xj is None:
                sign = 1 if direction == "high" else -1
                return self._explain([(xi, sign)] + [(j, -sign * a) for j, a in row.items()])
            target = self.lower[xi] if direction == "low" else self.upper[xi]
            self._pivot_and_update(xi, xj, target)

    def values(self):
        return {v: self.beta[j] for v, j in self.var_index.items()}


def _concretize(delta_values, constraints):
    """Substitute a concrete rational delta small enough for every
    constraint, producing an exact rational witness.  Only a constraint
    over a column with a delta part can cap delta, so only those are
    read, and a column with no delta part keeps its standard value."""
    touched = {v for v, dv in delta_values.items() if dv.inf}
    if not touched:
        return {v: dv.std for v, dv in delta_values.items()}
    delta_cap = 1
    for c in constraints:
        if not any(v in touched for v, _ in c.terms):
            continue
        a = 0
        b = 0
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
            delta_cap = min(delta_cap, slack / Fraction(b))
    delta = delta_cap / Fraction(2)
    return {v: dv.std + dv.inf * delta if dv.inf else dv.std for v, dv in delta_values.items()}


def feasible(constraints):
    """Decide feasibility of a constraint conjunction; Feasible results
    carry a rational witness, re-verified by exact substitution, and
    Infeasible ones a Farkas certificate."""
    constraints = list(constraints)
    tableau = _Tableau(constraints)
    conflict = tableau.check()
    if conflict is not None:
        return Infeasible(tuple(sorted(conflict.items())))
    witness = _concretize(tableau.values(), constraints)
    exact_values = all(type(q) is int or type(q) is Fraction for q in witness.values())
    verify(exact_values, "witness value is not an exact rational")
    verify(constraints_hold(constraints, witness), "witness failed re-verification")
    return Feasible(witness)


def check_implication(premise, conclusion):
    """Whether the universally closed implication premise -> conclusion
    holds over the reals, for constraint conjunctions: true iff the
    premise joined with each disjunct of the conclusion's negation is
    infeasible."""
    premise = list(premise)
    return not any(feasible(premise + d) for c in conclusion for d in negate_constraint(c))
