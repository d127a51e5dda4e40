import random
from fractions import Fraction
from itertools import combinations

import pytest

from plqo.errors import BudgetExceeded, UnsupportedNonlinear
from plqo.lra import feasible
from plqo.parser import parse_plqo
from plqo.prop import (
    PropSymbol,
    VERUM,
    all_valuations,
    atom,
    conj,
    eval_formula,
    phi_A_U,
)
from plqo.syntax import (
    ONE,
    Mul,
    NumVar,
    ObsAtom,
    PlqoLiteral,
    ProbAtom,
    fraction,
    numeral,
)
from plqo.translate import (
    LinConstraint,
    NumericVar,
    PairVar,
    ProbVar,
    b_phi,
    constraint,
    constraints_hold,
    eval_rcof,
    linearize_term,
    mass_var,
    negate_constraint,
    q_adams,
    q_obs,
    translate_atom,
    translate_formula,
    translate_literal,
)

from formgen import gen_plqo, random_feasible_point


def syms(*idx):
    return [PropSymbol(i) for i in idx]


def test_q_obs_counts_and_shape():
    assert q_obs([]) == []
    assert q_obs(syms(1)) == []
    cs = q_obs(syms(1, 2, 3))
    assert len(cs) == 3
    assert all(c.rel == "=" and c.rhs == 0 for c in cs)
    assert {c.terms[0][0] for c in cs} == {PairVar(1, 2), PairVar(1, 3), PairVar(2, 3)}


def test_q_adams_empty_base_pins_verum():
    cs = q_adams([], [])
    x_t = ProbVar.of(VERUM)
    assert constraint({x_t: 1}, "=", 1) in cs
    assert constraints_hold(cs, {x_t: Fraction(1)})
    assert not constraints_hold(cs, {x_t: Fraction(1, 2)})


def test_q_adams_random_points_feasible():
    rng = random.Random(47)
    for _ in range(40):
        base = syms(*rng.sample([1, 2, 3], rng.randint(0, 3)))
        delta = []
        if base:
            delta = [conj(atom(base[0].index), atom(base[-1].index))]
        point = random_feasible_point(rng, base, delta, extra_pairs_positive=True)
        cs = q_adams(base, delta)
        assert constraints_hold(cs, point)


def test_q_adams_rejects_inconsistent_marginal():
    base = syms(1, 2)
    point = random_feasible_point(random.Random(1), base, [])
    point[mass_var(frozenset(base[:1]), frozenset(base[:1]))] += Fraction(1, 7)
    assert not constraints_hold(q_adams(base, []), point)


def test_q_adams_budget():
    with pytest.raises(BudgetExceeded):
        q_adams(syms(*range(1, 14)), [])


def test_q_adams_rejects_outside_symbols():
    with pytest.raises(ValueError):
        q_adams(syms(1), [atom(2)])


def test_linearize():
    t = fraction(1, 2) + NumVar(1) * numeral(3)
    coeffs, const = linearize_term(t)
    assert coeffs == {NumericVar(1): 3}
    assert const == Fraction(1, 2)
    with pytest.raises(UnsupportedNonlinear):
        linearize_term(Mul(NumVar(1), NumVar(2)))


def test_translate_obs_atom():
    cs = translate_atom(ObsAtom(conj(atom(1), atom(2))))
    assert cs == [constraint({PairVar(1, 2): 1}, "=", 0)]
    # inessential symbols do not contribute pairs
    taut_like = conj(atom(1), parse_plqo("O(B2 | !B2)").alpha)
    assert translate_atom(ObsAtom(taut_like)) == []


def test_translate_prob_atom_numeric_var():
    a = ProbAtom(atom(1), "<", fraction(1, 2) + NumVar(3))
    (c,) = translate_atom(a)
    assert c.rel == "<"
    assert c.coeffs() == {ProbVar.of(atom(1)): 1, NumericVar(3): -1}
    assert c.rhs == Fraction(1, 2)


def test_negative_obs_literal_disjunction():
    lit = PlqoLiteral(False, ObsAtom(conj(atom(1), atom(2))))
    disjuncts = translate_literal(lit)
    assert len(disjuncts) == 1
    (c,) = disjuncts[0]
    assert c.rel == "<" and c.coeffs() == {PairVar(1, 2): -1}
    # one essential symbol: negation unsatisfiable, empty disjunction
    assert translate_literal(PlqoLiteral(False, ObsAtom(atom(1)))) == []


def test_negative_obs_literal_is_one_sum_constraint():
    """Not O(alpha) says some essential pair is incompatible: one strict
    sum over the pair variables, not one disjunct per pair."""
    alpha = conj(conj(atom(1), atom(2)), atom(3))
    ((c,),) = translate_literal(PlqoLiteral(False, ObsAtom(alpha)))
    assert c.rel == "<" and c.rhs == 0
    assert c.coeffs() == {PairVar(1, 2): -1, PairVar(1, 3): -1, PairVar(2, 3): -1}
    # the "alpha unobservable" alternative of a negative probability literal
    obs, *complements = translate_literal(PlqoLiteral(False, ProbAtom(alpha, "=", ONE)))
    assert obs == [c] and len(complements) == 2


def test_negative_prob_literal_disjunction():
    lit = PlqoLiteral(False, ProbAtom(atom(1), "=", fraction(1, 2)))
    disjuncts = translate_literal(lit)
    # single essential symbol: only the two comparison complements
    assert len(disjuncts) == 2
    rels = sorted(d[0].rel for d in disjuncts)
    assert rels == ["<", "<"]  # x < 1/2 and -x < -1/2


def test_literal_exclusivity_via_solver():
    """A literal and its complement can never hold together under the
    distribution system."""
    rng = random.Random(53)
    checked = 0
    for _ in range(40):
        phi = gen_plqo(rng, [1, 2], 0)
        lit = PlqoLiteral(True, phi)
        base = sorted(b_phi(phi))
        delta = [phi.alpha] if isinstance(phi, ProbAtom) else []
        premise = q_adams(base, delta)
        for pos in translate_literal(lit):
            for neg in translate_literal(lit.complement()):
                assert not feasible(premise + pos + neg)
                checked += 1
    assert checked > 0


def test_eval_rcof_matches_pointwise():
    rng = random.Random(59)
    for _ in range(60):
        phi = gen_plqo(rng, [1, 2], rng.randint(0, 2))
        base = sorted(b_phi(phi))
        from plqo.syntax import prob_formulas_of

        delta = prob_formulas_of(phi)
        point = random_feasible_point(rng, base, delta, extra_pairs_positive=True)
        tree = translate_formula(phi)
        # sanity: evaluation is defined and boolean
        assert eval_rcof(tree, point) in (True, False)


def test_negate_constraint():
    c = constraint({NumericVar(1): 1}, "<=", 1)
    ((neg,),) = negate_constraint(c)
    assert neg.rel == "<" and neg.coeffs() == {NumericVar(1): -1} and neg.rhs == -1
    eq = constraint({NumericVar(1): 1}, "=", 0)
    assert len(negate_constraint(eq)) == 2


def test_constraint_rendering_stable():
    c = constraint({NumericVar(2): -1, ProbVar.of(atom(1)): 1}, "<=", Fraction(1, 3))
    assert str(c) == "-xn[2] + x[B1] <= 1/3"
