import copy
import pickle
import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, strategies as st

from plqo.errors import BudgetExceeded, MissingSymbol, UNotSubset
from plqo.parser import parse_classical, parse_plqo, print_plqo
from plqo.prop import (
    Atom,
    FALSUM,
    Impl,
    MAX_VALUATION_SYMBOLS,
    Neg,
    PropFormula,
    PropSymbol,
    VERUM,
    anf,
    atom,
    canonical_text,
    conj,
    conj_all,
    disj,
    essential_symbols,
    iff,
    is_tautology,
    leaves,
    phi_A_U,
    print_prop,
    truth_table,
)
from plqo.syntax import ONE, ObsAtom, PImpl, PNeg, ProbAtom, fraction

from formgen import gen_classical, perfbench_workloads
from oracles import (
    all_valuations,
    anf_by_valuation,
    anf_evaluate,
    anf_variables,
    essential_symbols_bruteforce,
    eval_formula,
    satisfying_sets,
    valuation_sets,
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


def test_phi_a_u_names_the_symbols_in_its_error():
    with pytest.raises(UNotSubset, match=r"^\[B2, B3\] is not a subset of \[B1, B3\]$"):
        phi_A_U({PropSymbol(3), PropSymbol(1)}, {PropSymbol(2), PropSymbol(3)})


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


def test_leaves_visit_each_shared_node_once():
    """A <-> chain built through the API shares each link between two
    parents, so its tree doubles per link; its leaves, and so its symbols,
    come from one visit per node, in first-occurrence order."""
    f = atom(0)
    for i in range(1, 41):
        f = iff(f, atom(i))
    assert leaves(f) == [atom(i) for i in range(41)]
    assert f.symbols() == {PropSymbol(i) for i in range(41)}
    assert leaves(Impl(VERUM, Neg(Impl(atom(2), VERUM)))) == [VERUM, atom(2)]


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
        assert essential_symbols(f) == anf_variables(poly)
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


# -- the facts a node keeps ---------------------------------------------------

_PARTS = {Neg: ("child",), Impl: ("left", "right"), ObsAtom: ("alpha",),
          ProbAtom: ("alpha",), PNeg: ("child",), PImpl: ("left", "right")}


def _nodes(f, out=None, seen=None):
    """The formula nodes of ``f``, each once, every child before its parents."""
    out, seen = ([], set()) if out is None else (out, seen)
    if id(f) not in seen:
        seen.add(id(f))
        for name in _PARTS.get(type(f), ()):
            _nodes(getattr(f, name), out, seen)
        out.append(f)
    return out


def _fact_slots(node):
    """The private slots ``node`` keeps its facts in."""
    return ("_hash", "_symbols", "_text", "_essential") if isinstance(node, PropFormula) else ("_hash",)


def _facts(node):
    """What ``node`` answers when asked each of its facts."""
    if isinstance(node, PropFormula):
        return [hash(node), node.symbols(), canonical_text(node), essential_symbols(node)]
    return [hash(node)]


def _walk_symbols(f):
    """The symbols of ``f`` by a walk that keeps nothing."""
    if isinstance(f, Atom):
        return {f.symbol}
    return set().union(*(_walk_symbols(getattr(f, k)) for k in _PARTS.get(type(f), ())))


def _reference(node):
    """``node``'s facts read off a copy parsed from its printed text:
    the copy's hash must be that of its fields, as a frozen dataclass
    hashes them."""
    if isinstance(node, PropFormula):
        fresh = parse_classical(print_prop(node))
        expected = [_walk_symbols(fresh), print_prop(fresh, spaced=False),
                    essential_symbols_bruteforce(fresh)]
    else:
        fresh = parse_plqo(print_plqo(node))
        expected = []
    assert fresh == node
    assert hash(fresh) == hash(tuple(getattr(fresh, f.name) for f in fields(fresh)))
    return [hash(fresh)] + expected


def _fact_corpus():
    """(parse, text) pairs: seeded classical formulas with T, F and <->,
    whose operands the parser shares, and every benchmark query."""
    rng = random.Random(23)
    syms = [1, 2, 5, 9]
    out = [(parse_classical, t) for t in ("T", "F", "!F -> T", "B1 <-> B1", "(B1 & F) <-> T")]
    for _ in range(40):
        a, b = (print_prop(gen_classical(rng, syms, rng.randint(0, 3))) for _ in range(2))
        out += [(parse_classical, f"({a}) <-> ({b})"), (parse_classical, f"({a}) | F -> T & ({b})")]
    workloads = perfbench_workloads()
    for name in workloads.WORKLOADS:
        out += [(parse_plqo, t) for q in workloads.build(name, 1) for t in q.texts]
    return out


@pytest.mark.parametrize("root_first", [True, False], ids=["root-first", "leaves-first"])
def test_each_node_keeps_the_facts_of_its_fields(root_first):
    """Every fact of every node, asked root first or leaves first, equals a
    reference computed afresh: a fact filled on the wrong node shows."""
    for parse, text in _fact_corpus():
        nodes = _nodes(parse(text))
        for node in nodes[::-1] if root_first else nodes:
            _facts(node)
        for node in nodes:
            assert _facts(node) == _reference(node), (text, str(node))


def _example_id(x):
    return "-".join(x) if isinstance(x, dict) else type(x).__name__


def _examples():
    b1b2 = conj(atom(1), atom(2))
    return [
        (Impl(atom(1), atom(2)), {"right": atom(3)}),
        (Neg(b1b2), {"child": atom(4)}),
        (Atom(PropSymbol(1)), {"symbol": PropSymbol(2)}),
        (ObsAtom(b1b2), {"alpha": atom(3)}),
        (ProbAtom(b1b2, "=", ONE), {"cmp": "<"}),
        (PNeg(ObsAtom(b1b2)), {"child": ObsAtom(atom(1))}),
        (PImpl(ObsAtom(b1b2), ObsAtom(VERUM)), {"left": ProbAtom(atom(1), "<", fraction(1, 2))}),
    ]


@pytest.mark.parametrize("node, changes", _examples(), ids=_example_id)
def test_replace_gives_the_facts_of_the_new_fields(node, changes):
    _facts(node)
    new = replace(node, **changes)
    assert new != node
    assert _facts(new) == _reference(new)


@pytest.mark.parametrize("node, changes", _examples(), ids=_example_id)
def test_eq_repr_and_str_ignore_the_fact_slots(node, changes):
    """A node asked its facts, and one whose slots are forged, compare,
    show and print as a fresh equal node does."""
    fresh = type(node)(*(getattr(node, f.name) for f in fields(node)))
    asked, forged = replace(node), replace(node)
    _facts(asked)
    for name in _fact_slots(node):
        object.__setattr__(forged, name, "forged")
    for other in (asked, forged):
        assert other == fresh and fresh == other
        assert (repr(other), str(other)) == (repr(fresh), str(fresh))


@pytest.mark.parametrize("node, changes", _examples(), ids=_example_id)
def test_copies_rebuild_a_node_from_its_fields(node, changes):
    """Copying or unpickling a node, fresh, asked its facts or with forged
    slots, gives an equal node of the same class with no fact slot set;
    asked afresh, the copy's facts are those of its fields."""
    fresh, asked, forged = replace(node), replace(node), replace(node)
    _facts(asked)
    for name in _fact_slots(node):
        object.__setattr__(forged, name, "forged")
    for original in (fresh, asked, forged):
        for dup in (copy.copy, copy.deepcopy, lambda n: pickle.loads(pickle.dumps(n))):
            twin = dup(original)
            assert type(twin) is type(node) and twin == node
            assert not any(hasattr(twin, name) for name in _fact_slots(node))
            assert _facts(twin) == _reference(twin)
