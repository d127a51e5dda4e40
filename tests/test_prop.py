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
    anf,
    atom,
    conj,
    conj_all,
    disj,
    essential_symbols,
    iff,
    is_tautology,
    phi_A_U,
    print_prop,
    truth_table,
    valuation_sets,
)

from formgen import gen_classical
from oracles import (
    all_valuations,
    anf_by_valuation,
    anf_evaluate,
    essential_symbols_bruteforce,
    eval_formula,
    satisfying_sets,
)


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


def test_valuation_sets_bit_j_is_the_jth_listed_symbol():
    b1, b2, b3 = PropSymbol(1), PropSymbol(2), PropSymbol(3)
    assert valuation_sets([]) == [frozenset()]
    assert valuation_sets([b2, b1]) == [frozenset(), {b2}, {b1}, {b1, b2}]
    assert valuation_sets([b1, b2, b3])[0b101] == {b1, b3}


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


def test_truth_table_bit_k_is_the_kth_valuation():
    rng = random.Random(17)
    for _ in range(200):
        f = gen_classical(rng, [2, 5, 9], rng.randint(0, 4))
        syms = sorted(f.symbols() | {PropSymbol(5)})
        table = truth_table(f, syms)
        assert table >> (1 << len(syms)) == 0
        satisfying = satisfying_sets(f, syms)
        for k, u in enumerate(valuation_sets(syms)):
            v = {s: int(s in u) for s in syms}
            assert table >> k & 1 == eval_formula(f, v)
            assert (u in satisfying) == eval_formula(f, v)
        assert len(satisfying) == bin(table).count("1")


def test_truth_table_without_symbols():
    assert truth_table(VERUM, []) == 1
    assert truth_table(FALSUM, []) == 0
    assert truth_table(VERUM, [PropSymbol(3)]) == 0b11
    assert truth_table(atom(3), [PropSymbol(7), PropSymbol(3)]) == 0b1010
    with pytest.raises(MissingSymbol):
        truth_table(atom(7), [PropSymbol(3)])


def _anf_cases():
    b3, b7 = atom(3), atom(7)
    # (B1 & B2) | (B3 & B4) | ... | (B15 & B16): 255 monomials over 16 symbols
    pairs = [conj(atom(i), atom(i + 1)) for i in range(1, MAX_VALUATION_SYMBOLS, 2)]
    sixteen = pairs[0]
    for p in pairs[1:]:
        sixteen = disj(sixteen, p)
    return [
        VERUM,
        FALSUM,
        iff(VERUM, FALSUM),
        b3,
        conj(b3, Neg(b7)),
        iff(b7, disj(b3, atom(12))),
        sixteen,
    ]


def test_anf_matches_the_per_valuation_reference():
    rng = random.Random(19)
    formulas = _anf_cases()
    formulas += [gen_classical(rng, [3, 7, 8, 12], rng.randint(0, 5)) for _ in range(150)]
    for f in formulas:
        poly = anf(f)
        assert poly == anf_by_valuation(f), print_prop(f)
        assert essential_symbols(f) == poly.variables()
        assert is_tautology(f) == (str(poly) == "1")


def test_essential_symbols_of_sixteen_symbols():
    sixteen = [atom(i) for i in range(1, MAX_VALUATION_SYMBOLS + 1)]
    f = conj(conj_all(sixteen), disj(sixteen[4], Neg(sixteen[4])))
    assert essential_symbols(f) == {PropSymbol(i) for i in range(1, 17)}
    assert str(anf(f)) == "*".join(f"B{i}" for i in range(1, 17))
    g = disj(conj_all(sixteen[:15]), iff(sixteen[15], sixteen[15]))
    assert essential_symbols(g) == frozenset()


@given(st.integers(min_value=0, max_value=6), st.integers())
def test_anf_matches_the_reference_hypothesis(depth, seed):
    rng = random.Random(seed)
    f = gen_classical(rng, [1, 4, 5, 11], depth)
    assert anf(f) == anf_by_valuation(f)
    assert essential_symbols(f) == essential_symbols_bruteforce(f)
