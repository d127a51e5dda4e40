import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from plqo.errors import MissingSymbol, SpecInvalid, WitnessIncomplete
from plqo.genmodel import (
    GenericModelSpec,
    build_generic,
    commutator_witness,
    model_from_witness,
    spec_from_json,
    spec_to_json,
    structure_of_witness,
)
from plqo.hilbert import compatible, prob, satisfies
from plqo.parser import parse_plqo
from plqo.prop import Neg, PropSymbol, VERUM, atom
from plqo.scalars import C_ONE, RadicalScalar
from plqo.syntax import NumVar, ProbAtom, fraction
from plqo.translate import (
    DecideSystem, NumericVar, PairVar, ProbVar, translate_formula, eval_rcof
)

from formgen import gen_plqo, random_feasible_point
from oracles import build_observable, dagger, matrices_equal, matrix_is_zero, up_projector


def B(i):
    return PropSymbol(i)


def uniform_masses(n):
    return [Fraction(1, 1 << n)] * (1 << n)


def all_nc_subsets(symbols):
    pairs = list(combinations(symbols, 2))
    for mask in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if mask >> i & 1]


def test_spec_validation():
    with pytest.raises(SpecInvalid):
        GenericModelSpec.make([B(1)], [], [Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(SpecInvalid):
        GenericModelSpec.make([B(1)], [], [Fraction(1, 2)])
    with pytest.raises(SpecInvalid):
        GenericModelSpec.make([B(1)], [[B(1), B(1)]], uniform_masses(1))
    with pytest.raises(SpecInvalid):
        GenericModelSpec.make([B(1)], [[B(1), B(2)]], uniform_masses(1))


def test_spec_names_a_repeated_symbol():
    with pytest.raises(SpecInvalid, match="symbol B2 named twice"):
        GenericModelSpec.make([B(2), B(2)], [], [Fraction(1, 4), Fraction(3, 4)])
    doc = {"symbols": ["B1", "B01"], "nc": [], "masses": ["1/2", "1/2"]}
    with pytest.raises(SpecInvalid, match="symbol B1 named twice"):
        spec_from_json(doc)
    assert spec_from_json(dict(doc, symbols=["B01"])).symbols == (B(1),)


def test_spec_symbols_must_ascend():
    """Masses are indexed by code over the symbols as given, so a spec
    that lists them out of order is rejected, not re-sorted under them."""
    doc = {"symbols": ["B2", "B1"], "nc": [], "masses": ["0", "1", "0", "0"]}
    with pytest.raises(SpecInvalid, match="symbols must ascend"):
        spec_from_json(doc)
    with pytest.raises(SpecInvalid, match="symbols must ascend"):
        GenericModelSpec.make([B(2), B(1)], [], uniform_masses(2))
    assert spec_from_json(dict(doc, symbols=["B1", "B2"])).symbols == (B(1), B(2))


def test_spec_masses_are_not_booleans():
    for masses in ([True, False], [False, True], ["1", False]):
        with pytest.raises(SpecInvalid, match="bad mass"):
            spec_from_json({"symbols": ["B1"], "nc": [], "masses": masses})
    assert spec_from_json({"symbols": ["B1"], "nc": [], "masses": [1, 0]}).masses == (1, 0)


@pytest.mark.parametrize("masses, named", [
    ((True, False), "True"),
    ((0, True), "True"),
    ((0.5, 0.5), "0.5"),
    ((Fraction(1, 2), 0.5), "0.5"),
    (("1/2", "1/2"), "'1/2'"),
    ((Fraction(1), "0"), "'0'"),
], ids=["bools", "bool-beside-int", "floats", "float-beside-fraction", "texts",
        "text-beside-fraction"])
def test_spec_built_directly_takes_exact_masses_only(masses, named):
    """A spec built without ``make`` holds its masses as given, so each
    must be a Fraction or an int that is not a bool; JSON would otherwise
    write a text that ``spec_from_json`` refuses."""
    with pytest.raises(SpecInvalid, match=re.escape(f"mass {named} is not an exact rational")):
        GenericModelSpec((B(1),), frozenset(), masses)


def test_make_still_reads_texts_and_numbers():
    spec = GenericModelSpec((B(1),), frozenset(), (Fraction(1, 2), Fraction(1, 2)))
    assert GenericModelSpec((B(1),), frozenset(), (1, 0)).masses == (1, 0)
    for masses in (("1/2", "1/2"), (0.5, "0.5"), ("5e-1", Fraction(1, 2))):
        made = GenericModelSpec.make([B(1)], [], masses)
        assert made == spec and all(type(m) is Fraction for m in made.masses)
        assert spec_to_json(made) == spec_to_json(spec)


def test_dimension_law():
    for n in (1, 2, 3):
        symbols = [B(i) for i in range(1, n + 1)]
        for nc in all_nc_subsets(symbols):
            spec = GenericModelSpec.make(symbols, nc, uniform_masses(n))
            s = build_generic(spec)
            assert s.dim == (1 << n) + 2 * len(nc)


def test_single_symbol_uniform():
    spec = GenericModelSpec.make([B(1)], [], [Fraction(1, 2), Fraction(1, 2)])
    s = build_generic(spec)
    assert s.dim == 2
    proj = up_projector(s.pqv(B(1)))
    assert proj[0][0].is_zero() and proj[1][1] == C_ONE
    assert prob(s, atom(1)) == RadicalScalar.rational(Fraction(1, 2))


def test_commutator_dichotomy_exhaustive():
    """Exact commutators: zero iff the pair was not declared incompatible,
    for every base of size 1..3 and every set of declared pairs."""
    cases = 0
    for n in (1, 2, 3):
        symbols = [B(i) for i in range(1, n + 1)]
        for nc in all_nc_subsets(symbols):
            spec = GenericModelSpec.make(symbols, nc, uniform_masses(n))
            s = build_generic(spec)
            nc_sets = {frozenset(p) for p in nc}
            for pair in combinations(symbols, 2):
                comm = commutator_witness(s, pair)
                expect_zero = frozenset(pair) not in nc_sets
                assert matrix_is_zero(comm) == expect_zero
                assert compatible(s.pqv(pair[0]), s.pqv(pair[1])) == expect_zero
            cases += 1
    assert cases == 1 + 2 + 8  # one subset at n=1, two at n=2, eight at n=3


def test_commutator_block_entries():
    spec = GenericModelSpec.make([B(1), B(2)], [[B(1), B(2)]], uniform_masses(2))
    s = build_generic(spec)
    comm = commutator_witness(s, (B(1), B(2)))
    # nonzero only in the 2x2 incompatible-pair block, entries +-1/2
    half = RadicalScalar.rational(Fraction(1, 2))
    for i in range(6):
        for j in range(6):
            entry = comm[i][j]
            if (i, j) == (4, 5):
                assert entry.re == half and entry.im.is_zero()
            elif (i, j) == (5, 4):
                assert entry.re == -half and entry.im.is_zero()
            else:
                assert entry.is_zero()


@pytest.mark.parametrize("symbols, named", [((), "0: ()"), ((1, 2, 3), "3: (B1, B2, B3)")],
                         ids=["none", "three"])
def test_commutator_takes_one_or_two_symbols(symbols, named):
    """B1 and B2 do not commute, so {B1, B2, B3} must not read as a
    compatible pair."""
    spec = GenericModelSpec.make([B(1), B(2), B(3)], [[B(1), B(2)]], uniform_masses(3))
    s = build_generic(spec)
    with pytest.raises(SpecInvalid, match="one or two symbols") as e:
        commutator_witness(s, tuple(B(i) for i in symbols))
    assert str(e.value).endswith(named)
    with pytest.raises(SpecInvalid):
        commutator_witness(s, frozenset(B(i) for i in symbols))
    assert matrix_is_zero(commutator_witness(s, (B(3),)))
    assert matrix_is_zero(commutator_witness(s, frozenset({B(1), B(3)})))
    assert not matrix_is_zero(commutator_witness(s, (B(2), B(1))))


def test_self_commutator_zero():
    spec = GenericModelSpec.make([B(1), B(2)], [[B(1), B(2)]], uniform_masses(2))
    s = build_generic(spec)
    assert matrix_is_zero(commutator_witness(s, (B(1),)))
    with pytest.raises(MissingSymbol):
        commutator_witness(s, (B(1), B(9)))


def test_observable_hermitian_and_projector_legal():
    for nc in all_nc_subsets([B(1), B(2), B(3)]):
        spec = GenericModelSpec.make([B(1), B(2), B(3)], nc, uniform_masses(3))
        s = build_generic(spec)  # Pqv constructor re-checks projector laws
        for sym in spec.symbols:
            obs = build_observable(spec, sym)
            assert matrices_equal(obs, dagger(obs))


def test_nc_empty_all_compatible():
    spec = GenericModelSpec.make([B(1), B(2), B(3)], [], uniform_masses(3))
    s = build_generic(spec)
    for p, q in combinations(spec.symbols, 2):
        assert compatible(s.pqv(p), s.pqv(q))


def test_json_roundtrip():
    spec = GenericModelSpec.make(
        [B(1), B(2)], [[B(1), B(2)]], [Fraction(1, 4)] * 4
    )
    doc = spec_to_json(spec)
    assert doc["generic"]["nc"] == [["B1", "B2"]]
    assert spec_from_json(doc["generic"]) == spec
    with pytest.raises(SpecInvalid):
        spec_from_json({"symbols": ["B1"], "nc": []})


# -- witness-to-countermodel map ---------------------------------------------


def test_model_from_witness_obs_negative():
    phi = parse_plqo("!(O(B1 & B2))")
    base = DecideSystem.of(phi).base
    w = random_feasible_point(random.Random(3), base, [])
    w[PairVar(1, 2)] = Fraction(1)
    structure, rho, spec = model_from_witness(phi, w)
    assert spec.nc == frozenset({frozenset({B(1), B(2)})})
    assert satisfies(structure, rho, phi)


def test_model_from_witness_prob():
    phi = ProbAtom(atom(1), "=", fraction(1, 3))
    w = {
        ProbVar.of(VERUM): Fraction(1),
        ProbVar.of(atom(1)): Fraction(1, 3),
        ProbVar.of(Neg(atom(1))): Fraction(2, 3),
    }
    structure, rho, spec = model_from_witness(phi, w)
    assert prob(structure, atom(1)) == RadicalScalar.rational(Fraction(1, 3))
    assert satisfies(structure, rho, phi)


def test_model_from_witness_numeric_assignment():
    phi = ProbAtom(atom(1), "=", NumVar(1))
    w = {
        ProbVar.of(VERUM): Fraction(1),
        ProbVar.of(atom(1)): Fraction(1, 4),
        ProbVar.of(Neg(atom(1))): Fraction(3, 4),
        NumericVar(1): Fraction(1, 4),
    }
    structure, rho, spec = model_from_witness(phi, w)
    assert rho.value(1) == Fraction(1, 4)
    assert satisfies(structure, rho, phi)


def test_model_from_witness_rejects_bad_distribution():
    phi = ProbAtom(atom(1), "=", fraction(1, 3))
    with pytest.raises(SpecInvalid):
        model_from_witness(phi, {ProbVar.of(atom(1)): Fraction(2)})


def test_model_from_witness_names_a_missing_mass():
    # the masses present sum to one, so only the extension can tell
    phi = ProbAtom(atom(1), "=", fraction(1, 3))
    missing = ProbVar.of(Neg(atom(1)))
    with pytest.raises(WitnessIncomplete, match=re.escape(f"missing mass variable {missing}")):
        model_from_witness(phi, {ProbVar.of(atom(1)): Fraction(1)})


def test_model_from_witness_missing_mass_under_p_with_more_symbols():
    # B2 and B3 are not under P: only the masses over B1 are asked for
    phi = parse_plqo("O(B2 & B3) -> P(B1) = 1/3")
    w = {ProbVar.of(atom(1)): Fraction(1), PairVar(2, 3): Fraction(1)}
    missing = ProbVar.of(Neg(atom(1)))
    with pytest.raises(WitnessIncomplete, match=re.escape(f"missing mass variable {missing}")):
        model_from_witness(phi, w)
    w[missing] = Fraction(0)
    structure, rho, spec = model_from_witness(phi, w)
    assert spec.symbols == (B(1), B(2), B(3))
    assert spec.masses == (0, 1) + (0,) * 6
    assert spec.nc == frozenset({frozenset({B(2), B(3)})})


def test_structure_of_witness_builds_without_checking_the_system():
    """The decider's own witnesses are already re-verified by the solver, so
    the builder does not re-check them; the public map still does."""
    phi = parse_plqo("O(B2 & B3) -> P(B1) = 1/3")
    w = {ProbVar.of(atom(1)): Fraction(1, 3), ProbVar.of(Neg(atom(1))): Fraction(2, 3)}
    w[PairVar(2, 3)] = Fraction(1)
    system = DecideSystem.of(phi)
    structure, rho, spec = structure_of_witness(system.base, system, w)
    checked = model_from_witness(phi, w)
    assert spec == checked[2] and rho == checked[1]
    assert structure.dim == checked[0].dim == 10
    w[PairVar(2, 3)] = Fraction(-1)  # outside Q, which bounds pairs below by 0
    assert structure_of_witness(system.base, system, w)[2].nc == frozenset()
    with pytest.raises(SpecInvalid, match="distribution system"):
        model_from_witness(phi, w)


def test_structure_of_witness_places_masses_in_a_larger_base():
    """A system over A_P = {B3} placed in the base B1, B2, B3: its two
    masses go to codes 0 and 4; a missing one is named.  Over A_P = {B1,
    B3}, each code's bits go to their symbols' places in the base."""
    system = DecideSystem.of(parse_plqo("P(B3) = 0"))
    unset, missing = system.masses
    w = {unset: Fraction(1, 2)}
    with pytest.raises(WitnessIncomplete, match=re.escape(f"missing mass variable {missing}")):
        structure_of_witness([B(1), B(2), B(3)], system, w)
    w[missing] = Fraction(1, 2)
    _, _, spec = structure_of_witness([B(1), B(2), B(3)], system, w)
    assert spec.masses == (Fraction(1, 2), 0, 0, 0, Fraction(1, 2), 0, 0, 0)
    # A_P = B1, B3: its codes 0..3 go to the codes 0, 1, 4 and 5 of the base
    system = DecideSystem.of(parse_plqo("P(B3 & B1) = 0 -> O(B2)"))
    w = {m: Fraction(k + 1, 10) for k, m in enumerate(system.masses)}
    _, _, spec = structure_of_witness(system.base, system, w)
    assert spec.masses == tuple(Fraction(k, 10) for k in (1, 2, 0, 0, 3, 4, 0, 0))


def test_witness_model_equivalence_corpus():
    """satisfies(I, rho, phi) <-> witness |= translate(phi) on random
    pairs, with the witness drawn independently of the solver."""
    rng = random.Random(79)
    n_true = n_false = 0
    for _ in range(120):
        phi = gen_plqo(rng, [1, 2, 3], rng.randint(0, 2), atom_depth=2, allow_vars=True)
        system = DecideSystem.of(phi)
        base = system.base
        if len(base) > 3:
            continue
        delta = system.delta
        w = random_feasible_point(rng, base, delta, extra_pairs_positive=True)
        for k in (1, 2, 3):
            w.setdefault(NumericVar(k), Fraction(rng.randint(0, 4), 4))
        # the equivalence is asserted inside model_from_witness
        structure, rho, spec = model_from_witness(phi, w)
        if eval_rcof(translate_formula(phi), w):
            n_true += 1
        else:
            n_false += 1
    assert n_true + n_false >= 100
    assert n_true > 0 and n_false > 0
