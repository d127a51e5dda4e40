import random
from fractions import Fraction
from itertools import product

import pytest

from plqo import Valid, check_valid, lra
from plqo.decide import check_refutation
from plqo.errors import VerificationFailed
from plqo.lra import (
    _ZERO,
    DeltaRational,
    Feasible,
    Infeasible,
    _concretize,
    _Tableau,
    check_implication,
    feasible,
)
from plqo.syntax import PNeg, nnf_dnf_literals
from plqo.translate import (
    LinConstraint,
    NumericVar,
    constraint,
    constraints_hold,
    q_of,
    translate_literal,
)

from formgen import chain, gen_plqo, iff_chain, obs_ladder, prob_ladder
from oracles import (
    decide_rows,
    every_row_concretize,
    fourier_motzkin_feasible,
    slack_row_feasible,
    two_pass_pivot,
)


def x(k):
    return NumericVar(k)


def certified(cs, result):
    """Whether ``result`` is Infeasible and its certificate, read over
    ``cs``, passes the proof checker's test."""
    return isinstance(result, Infeasible) and check_refutation(
        [(cs[i], m) for i, m in result.multipliers]
    )


def test_delta_rational_order():
    a = DeltaRational(Fraction(1), Fraction(-1))
    b = DeltaRational(Fraction(1))
    c = DeltaRational(Fraction(2), Fraction(-5))
    assert a < b < c
    assert (b - a).inf == 1
    assert a + c == DeltaRational(Fraction(3), Fraction(-6))
    assert c - a == DeltaRational(Fraction(1), Fraction(-4))
    assert c.scale(Fraction(-1, 2)) == DeltaRational(Fraction(-1), Fraction(5, 2))
    assert a - a == _ZERO == DeltaRational(Fraction(0), Fraction(0))
    assert b.scale(Fraction(0)) == _ZERO and a != b
    # a strict bound k*x < k (or >) is one delta inside x <= 1 (or >=),
    # whichever of the two comes first
    one = DeltaRational(Fraction(1))
    for k, (strict, loose), first in product((1, -1, 2, -3), [("<", "<="), (">", ">=")], (0, 1)):
        pair = [constraint({x(1): k}, strict, k), constraint({x(1): k}, loose, k)]
        tableau = _Tableau(pair[first:] + pair[:first])
        if (k > 0) == (strict == "<"):
            assert tableau.upper[0] == DeltaRational(Fraction(1), Fraction(-1)) < one
        else:
            assert tableau.lower[0] == DeltaRational(Fraction(1), Fraction(1)) > one


def test_feasible_simple_box():
    cs = [
        constraint({x(1): 1}, ">=", 0),
        constraint({x(1): 1}, "<=", 1),
        constraint({x(1): 1, x(2): 1}, "=", Fraction(3, 2)),
    ]
    res = feasible(cs)
    assert isinstance(res, Feasible)
    assert constraints_hold(cs, res.witness)


def test_infeasible_equalities():
    cs = [
        constraint({x(1): 1}, "=", 0),
        constraint({x(1): 1}, "=", 1),
    ]
    assert certified(cs, feasible(cs))


def test_strict_boundary_infeasible():
    # x >= 1 and x < 1 touch only at the excluded point
    cs = [
        constraint({x(1): 1}, ">=", 1),
        constraint({x(1): 1}, "<", 1),
    ]
    assert certified(cs, feasible(cs))


def test_strict_open_interval_witness():
    cs = [
        constraint({x(1): 1}, ">", 0),
        constraint({x(1): 1}, "<", Fraction(1, 1000)),
    ]
    res = feasible(cs)
    assert isinstance(res, Feasible)
    assert Fraction(0) < res.witness[x(1)] < Fraction(1, 1000)


def test_empty_lhs_contradiction():
    for c in [
        constraint({}, "<", 0),
        constraint({x(1): 0}, "=", 3),
        constraint({}, "=", -3),
        constraint({}, "<=", -1),
    ]:
        cs = [constraint({x(1): 1}, ">=", 0), c]
        result = feasible(cs)
        assert certified(cs, result)
        assert [i for i, _ in result.multipliers] == [1]


def test_unconstrained_is_feasible():
    assert isinstance(feasible([]), Feasible)


def test_check_implication_basic():
    prem = [
        constraint({x(1): 1}, ">=", 0),
        constraint({x(1): 1}, "<=", Fraction(1, 2)),
    ]
    assert check_implication(prem, [constraint({x(1): 1}, "<", 1)])
    assert not check_implication(prem, [constraint({x(1): 1}, "<", Fraction(1, 2))])
    assert check_implication(prem, [constraint({x(1): 2}, "<=", 1)])


def _random_system(rng, n_vars, n_cons):
    cs = []
    for _ in range(n_cons):
        coeffs = {}
        for k in range(1, n_vars + 1):
            if rng.random() < 0.5:
                coeffs[x(k)] = Fraction(rng.randint(-3, 3))
        rel = rng.choice(["=", "<=", "<", ">=", ">"])
        rhs = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        cs.append(constraint(coeffs, rel, rhs))
    return cs


def test_oracle_agreement_random_corpus():
    rng = random.Random(20240817)
    n_checked = 0
    n_feasible = 0
    for _ in range(150):
        cs = _random_system(rng, rng.randint(1, 6), rng.randint(1, 12))
        ours = feasible(cs)
        oracle = fourier_motzkin_feasible(cs)
        assert bool(ours) == oracle, f"disagreement on:\n" + "\n".join(map(str, cs))
        if ours:
            assert constraints_hold(cs, ours.witness)
            n_feasible += 1
        else:
            assert certified(cs, ours)
        n_checked += 1
    assert n_checked >= 100
    # the corpus should exercise both outcomes
    assert 0 < n_feasible < n_checked


def test_pivots_match_the_two_pass_reference(monkeypatch):
    rng = random.Random(20240818)
    systems = [_random_system(rng, rng.randint(1, 6), rng.randint(1, 12)) for _ in range(150)]

    def run(pivot):
        trail = []

        def recorded(tableau, xi, xj, target):
            trail.append((xi, xj, target))
            pivot(tableau, xi, xj, target)

        monkeypatch.setattr(_Tableau, "_pivot_and_update", recorded)
        results = [feasible(cs) for cs in systems]
        return trail, [r.witness if r else None for r in results]

    ours = run(_Tableau._pivot_and_update)
    reference = run(two_pass_pivot)
    assert len(ours[0]) > 100
    assert ours == reference


def _non_unit_system(rng):
    """A random system with coefficients of magnitude 1, 2, 3 and 5, and
    integral and fractional right sides."""
    n_vars = rng.randint(1, 5)
    cs = []
    for _ in range(rng.randint(1, 10)):
        support = rng.sample(range(1, n_vars + 1), rng.randint(1, n_vars))
        coeffs = {x(k): rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]) for k in support}
        rhs = rng.choice([rng.randint(-4, 4), Fraction(rng.randint(-4, 4), rng.randint(2, 3))])
        cs.append(constraint(coeffs, rng.choice(["=", "<=", "<", ">=", ">"]), rhs))
    return cs


def _exact(q):
    return type(q) is int or type(q) is Fraction


def test_no_float_enters_the_solver():
    """Rows, bounds, values, witnesses and certificates hold ints and
    Fractions only, an entry a pivot leaves integral is an int, and the
    results equal those of the same system with every number a Fraction."""
    rng = random.Random(20261021)
    outcomes = []
    for _ in range(200):
        cs = _non_unit_system(rng)
        tableau = _Tableau(cs)
        tableau.check()
        for bound in tableau.lower + tableau.upper + tableau.beta:
            assert bound is None or (_exact(bound.std) and _exact(bound.inf))
        for row in tableau.rows.values():
            assert all(type(a) is int or (type(a) is Fraction and a.denominator != 1)
                       for a in row.values())
        ours = feasible(cs)
        wrapped = feasible([
            LinConstraint(tuple((v, Fraction(k)) for v, k in c.terms), c.rel, Fraction(c.rhs))
            for c in cs
        ])
        if ours:
            assert all(map(_exact, ours.witness.values()))
            assert ours.witness == wrapped.witness
        else:
            assert all(_exact(m) for _, m in ours.multipliers)
            assert ours.multipliers == wrapped.multipliers
        outcomes.append(bool(ours))
    assert 20 < sum(outcomes) < 180


def test_a_float_witness_value_is_refused(monkeypatch):
    """A witness value that is a float fails feasible's own check, a
    VerificationFailed from verify and not an assert, even when the
    float is exact enough to satisfy every constraint."""
    cs = [constraint({x(1): 2}, ">=", 1), constraint({x(1): 1, x(2): 1}, "<=", 1)]
    concretize = lra._concretize

    def floated(delta_values, constraints):
        witness = concretize(delta_values, constraints)
        witness[x(1)] = float(witness[x(1)])
        return witness

    assert constraints_hold(cs, floated(_Tableau(cs).values(), cs))
    monkeypatch.setattr(lra, "_concretize", floated)
    with pytest.raises(VerificationFailed, match="not an exact rational"):
        feasible(cs)


def test_vertex_spot_check():
    # triangle x>=0, y>=0, x+y<=1: known vertices; every vertex satisfies
    # the system and the oracle agrees on feasibility of each vertex pin
    tri = [
        constraint({x(1): 1}, ">=", 0),
        constraint({x(2): 1}, ">=", 0),
        constraint({x(1): 1, x(2): 1}, "<=", 1),
    ]
    for vx, vy in [(0, 0), (1, 0), (0, 1)]:
        pinned = tri + [
            constraint({x(1): 1}, "=", vx),
            constraint({x(2): 1}, "=", vy),
        ]
        assert isinstance(feasible(pinned), Feasible)
        assert fourier_motzkin_feasible(pinned)
    outside = tri + [
        constraint({x(1): 1}, "=", 1),
        constraint({x(2): 1}, "=", 1),
    ]
    assert certified(outside, feasible(outside))
    assert not fourier_motzkin_feasible(outside)


def _bounded_system(rng):
    """A random system with one-term rows of both signs and every
    relation, some variables bounded twice over and some contradictorily."""
    n_vars = rng.randint(1, 4)
    cs = _random_system(rng, n_vars, rng.randint(0, 5))
    for k in rng.sample(range(1, n_vars + 1), rng.randint(1, n_vars)):
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        rel = rng.choice(["=", "<=", "<", ">=", ">"])
        rhs = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        cs.append(constraint({x(k): coeff}, rel, rhs))
        if rng.random() < 0.2:
            cs.append(constraint({x(k): coeff}, rel, rhs))
        if rng.random() < 0.3:
            # the opposite side, a little beyond or exactly at the bound
            cs.append(constraint({x(k): -coeff}, rel, -rhs + rng.choice([-1, 0, 1])))
    rng.shuffle(cs)
    return cs


def _agrees_with_references(cs, fourier_motzkin=True):
    ours = feasible(cs)
    reference = slack_row_feasible(cs)
    assert bool(ours) == bool(reference), "\n".join(map(str, cs))
    if fourier_motzkin:
        assert bool(ours) == fourier_motzkin_feasible(cs), "\n".join(map(str, cs))
    for result in (ours, reference):
        if result:
            assert constraints_hold(cs, result.witness)
    assert ours or certified(cs, ours)
    return bool(ours)


def test_column_bounds_agree_with_the_references():
    rng = random.Random(20261018)
    verdicts = [_agrees_with_references(_bounded_system(rng)) for _ in range(300)]
    assert 50 < sum(verdicts) < 250


def _query_systems(phi, system=q_of):
    """The paper's Q for the negation of phi, or another ``system`` of
    it, joined with each branch of each disjunct: the systems a search
    over Q would solve for check_valid(phi)."""
    target = PNeg(phi)
    q = system(target)
    for lits in nnf_dnf_literals(target):
        for branch in product(*[translate_literal(l) for l in lits]):
            yield q + [c for part in branch for c in part]


def test_query_systems_agree_with_the_slack_row_reference(monkeypatch):
    formulas = [ladder(n) for ladder in (prob_ladder, obs_ladder) for n in range(3, 7)]
    rng = random.Random(20261019)
    formulas += [gen_plqo(rng, [1, 2, 3], 3, allow_vars=True) for _ in range(40)]
    trail = _record_pivots(monkeypatch)
    verdicts = [
        _agrees_with_references(cs, fourier_motzkin=False)
        for phi in formulas
        for cs in _query_systems(phi)
    ]
    assert 0 < sum(verdicts) < len(verdicts)
    # Q's marginal and formula variables are unbounded, so they are numbered
    # before the masses: 721 pivots; every column in first-appearance order
    # took 3,440 (and 14 s), columns by occurrence count 659
    assert len(trail) <= 1000


def test_concretize_matches_the_every_row_reference():
    """On every delta-solution the simplex reaches, reading only the
    constraints a delta part touches gives the witness the every-row
    loop gives, value for value and in the same order."""
    rng = random.Random(20261018)
    systems = [_bounded_system(rng) for _ in range(300)]
    ladders = [ladder(n) for ladder in (prob_ladder, obs_ladder) for n in range(3, 7)]
    systems += [cs for phi in ladders for cs in _query_systems(phi)]
    systems += [cs for phi in ladders for cs in _query_systems(phi, decide_rows)]
    solved = with_delta = capped = 0
    for cs in systems:
        rows = [c for c in cs if c.terms]
        tableau = _Tableau(rows)
        if tableau.check() is not None:
            continue
        values = tableau.values()
        witness = _concretize(values, rows)
        assert list(witness.items()) == list(every_row_concretize(values, rows).items())
        solved += 1
        with_delta += any(dv.inf for dv in values.values())
        # a constraint capped delta below 1, so it was not 1/2
        capped += any(w != dv.std + dv.inf / 2 for w, dv in zip(witness.values(), values.values()))
    assert solved > 100 and with_delta > 50 and capped > 5


def _record_pivots(monkeypatch):
    """The list every later pivot appends its (xi, xj, target) to."""
    trail = []
    pivot = _Tableau._pivot_and_update

    def recorded(tableau, xi, xj, target):
        trail.append((xi, xj, target))
        pivot(tableau, xi, xj, target)

    monkeypatch.setattr(_Tableau, "_pivot_and_update", recorded)
    return trail


@pytest.mark.parametrize(
    "cs",
    [
        [constraint({x(1): 1}, ">=", 1), constraint({x(1): 1}, "<", 1)],
        [constraint({x(1): 1}, "=", 0), constraint({x(1): 1}, "=", 1)],
        [constraint({x(1): 2}, "<=", 1), constraint({x(1): -3}, "<", Fraction(-3, 2))],
    ],
    ids=["x>=1,x<1", "x=0,x=1", "2x<=1,-3x<-3/2"],
)
def test_crossed_bounds_are_infeasible_without_a_pivot(monkeypatch, cs):
    trail = _record_pivots(monkeypatch)
    assert certified(cs, feasible(cs))
    assert trail == []


def test_strict_bounds_of_both_signs_give_an_interior_witness():
    cs = [constraint({x(1): -2}, ">", Fraction(-1, 500)), constraint({x(1): 1}, ">", 0)]
    res = feasible(cs)
    assert isinstance(res, Feasible)
    assert Fraction(0) < res.witness[x(1)] < Fraction(1, 1000)


def test_a_strict_row_leaves_untouched_integral_values_int():
    """Only x2 has a delta part; x1 and x3 keep their integral standard
    values as ints, and the witness still meets every constraint."""
    cs = [
        constraint({x(1): 1}, "=", 3),
        constraint({x(2): 1}, ">", 0),
        constraint({x(1): 1, x(2): 1, x(3): 1}, "<=", 5),
        constraint({x(3): 1}, ">=", 1),
    ]
    values = _Tableau(cs).values()
    assert [bool(values[x(k)].inf) for k in (1, 2, 3)] == [False, True, False]
    res = feasible(cs)
    assert isinstance(res, Feasible)
    w = res.witness
    assert (w[x(1)], type(w[x(1)])) == (3, int) and (w[x(3)], type(w[x(3)])) == (1, int)
    assert type(w[x(2)]) is Fraction and w[x(2)] > 0
    assert constraints_hold(cs, w)


def test_prob_ladder_pivots_stay_few(monkeypatch):
    # the decider solves the system over the two symbols under P, not the
    # paper's Q over all six, in one pivot; Q in first-appearance order
    # took 382 here
    trail = _record_pivots(monkeypatch)
    check_valid(prob_ladder(6))
    assert 0 < len(trail) <= 64


@pytest.mark.parametrize(
    "phi, valid, most",
    [(chain(10, True), True, 100), (chain(10, False), False, 30), (iff_chain(10, True), True, 400)],
    ids=["chain-valid", "chain-invalid", "iff-chain-valid"],
)
def test_wide_chain_pivots_stay_few(monkeypatch, phi, valid, most):
    # 1,024 masses, all bounded, in code order: 68, 12 and 243 pivots;
    # numbered by occurrence count they took 355, 145 and 1,304
    trail = _record_pivots(monkeypatch)
    assert isinstance(check_valid(phi), Valid) == valid
    assert 0 < len(trail) <= most
