import random

import pytest
from hypothesis import given, strategies as st

from plqo.errors import BudgetExceeded, MissingSymbol, UNotSubset
from plqo.parser import parse_classical
from plqo.prop import (
    Atom,
    FALSUM,
    Impl,
    MAX_VALUATION_SYMBOLS,
    Neg,
    PropSymbol,
    VERUM,
    all_valuations,
    anf,
    atom,
    conj,
    conj_all,
    disj,
    essential_symbols,
    eval_formula,
    iff,
    is_tautology,
    phi_A_U,
    print_prop,
)

from formgen import gen_classical
from oracles import anf_evaluate, essential_symbols_bruteforce


def test_eval_primitives():
    b1, b2 = atom(1), atom(2)
    v = {PropSymbol(1): 1, PropSymbol(2): 0}
    assert eval_formula(VERUM, {}) == 1
    assert eval_formula(FALSUM, {}) == 0
    assert eval_formula(b1, v) == 1
    assert eval_formula(Neg(b1), v) == 0
    assert eval_formula(Impl(b1, b2), v) == 0
    assert eval_formula(Impl(b2, b1), v) == 1
    assert eval_formula(conj(b1, b2), v) == 0
    assert eval_formula(disj(b1, b2), v) == 1
    assert eval_formula(iff(b1, b2), v) == 0


def test_eval_missing_symbol():
    with pytest.raises(MissingSymbol):
        eval_formula(atom(7), {})


def test_tautologies():
    b1 = atom(1)
    assert is_tautology(disj(b1, Neg(b1)))
    assert is_tautology(VERUM)
    assert not is_tautology(b1)
    assert not is_tautology(FALSUM)


def test_all_valuations_order():
    syms = [PropSymbol(2), PropSymbol(1)]
    vals = list(all_valuations(syms))
    assert len(vals) == 4
    # ascending index, lexicographic: B1 is the most significant position
    assert vals[0] == {PropSymbol(1): 0, PropSymbol(2): 0}
    assert vals[1] == {PropSymbol(1): 0, PropSymbol(2): 1}
    assert vals[2] == {PropSymbol(1): 1, PropSymbol(2): 0}


def test_essential_matches_bruteforce_random():
    rng = random.Random(7)
    for _ in range(200):
        f = gen_classical(rng, [1, 2, 3, 4], rng.randint(0, 4))
        assert essential_symbols(f) == essential_symbols_bruteforce(f)


def test_essential_drops_inessential():
    b1, b2 = atom(1), atom(2)
    f = conj(b1, disj(b2, Neg(b2)))
    assert essential_symbols(f) == {PropSymbol(1)}
    assert essential_symbols(VERUM) == frozenset()
    assert essential_symbols(iff(b1, b1)) == frozenset()


def test_anf_same_truth_table():
    rng = random.Random(11)
    for _ in range(200):
        f = gen_classical(rng, [1, 2, 3], rng.randint(0, 4))
        poly = anf(f)
        for v in all_valuations(f.symbols()):
            assert anf_evaluate(poly, v) == eval_formula(f, v)


def test_anf_known_polynomials():
    b1, b2 = atom(1), atom(2)
    assert str(anf(conj(b1, b2))) == "B1*B2"
    assert str(anf(iff(b1, b2))) == "1 + B1 + B2"
    assert str(anf(VERUM)) == "1"
    assert str(anf(FALSUM)) == "0"


def test_phi_a_u():
    a = frozenset({PropSymbol(1), PropSymbol(2)})
    f = phi_A_U(a, {PropSymbol(1)})
    for v in all_valuations(a):
        expected = 1 if (v[PropSymbol(1)], v[PropSymbol(2)]) == (1, 0) else 0
        assert eval_formula(f, v) == expected
    assert phi_A_U(frozenset(), frozenset()) == VERUM
    with pytest.raises(UNotSubset):
        phi_A_U({PropSymbol(1)}, {PropSymbol(2)})


def test_phi_a_u_conjunction_order():
    a = [PropSymbol(3), PropSymbol(1)]
    f = phi_A_U(a, a)
    assert print_prop(f) == "B1 & B3"


def test_conj_all_empty_is_verum():
    assert conj_all([]) == VERUM


def test_print_parse_roundtrip_random():
    rng = random.Random(13)
    for _ in range(300):
        f = gen_classical(rng, [1, 2, 3, 9], rng.randint(0, 5))
        assert parse_classical(print_prop(f)) == f


@given(st.integers(min_value=0, max_value=6), st.integers())
def test_roundtrip_hypothesis(depth, seed):
    rng = random.Random(seed)
    f = gen_classical(rng, [1, 2], depth)
    assert parse_classical(print_prop(f)) == f


def test_symbol_budget():
    assert not is_tautology(conj_all([atom(i) for i in range(1, MAX_VALUATION_SYMBOLS + 1)]))
    f = conj_all([atom(i) for i in range(1, MAX_VALUATION_SYMBOLS + 2)])
    with pytest.raises(BudgetExceeded, match="17 symbols exceeds budget 16"):
        is_tautology(f)
