import random
from fractions import Fraction

import pytest

from plqo.lra import DeltaRational, Feasible, Infeasible, _Tableau, check_implication, feasible
from plqo.translate import NumericVar, constraint, constraints_hold

from oracles import fourier_motzkin_feasible, two_pass_pivot


def x(k):
    return NumericVar(k)


def test_delta_rational_order():
    a = DeltaRational(Fraction(1), Fraction(-1))
    b = DeltaRational(Fraction(1))
    c = DeltaRational(Fraction(2), Fraction(-5))
    assert a < b < c
    assert (b - a).inf == 1


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
    assert isinstance(feasible(cs), Infeasible)


def test_strict_boundary_infeasible():
    # x >= 1 and x < 1 touch only at the excluded point
    cs = [
        constraint({x(1): 1}, ">=", 1),
        constraint({x(1): 1}, "<", 1),
    ]
    assert isinstance(feasible(cs), Infeasible)


def test_strict_open_interval_witness():
    cs = [
        constraint({x(1): 1}, ">", 0),
        constraint({x(1): 1}, "<", Fraction(1, 1000)),
    ]
    res = feasible(cs)
    assert isinstance(res, Feasible)
    assert Fraction(0) < res.witness[x(1)] < Fraction(1, 1000)


def test_empty_lhs_contradiction():
    assert isinstance(feasible([constraint({}, "<", 0)]), Infeasible)
    assert isinstance(feasible([constraint({x(1): 0}, "=", 3)]), Infeasible)


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
    assert isinstance(feasible(outside), Infeasible)
    assert not fourier_motzkin_feasible(outside)
