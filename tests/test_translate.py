import copy
import pickle
import random
from fractions import Fraction
from itertools import product

import pytest

from plqo.decide import RcofSentence, check_refutation
from plqo.errors import BudgetExceeded, UNotSubset, UnsupportedNonlinear
from plqo.genmodel import model_from_witness
from plqo.lra import Infeasible, feasible
from plqo.parser import parse_plqo
from plqo.prop import (
    PropSymbol,
    VERUM,
    atom,
    canonical_text,
    conj,
    essential_symbols,
    phi_A_U,
)
from plqo.syntax import (
    ONE,
    Mul,
    NumVar,
    ObsAtom,
    PImpl,
    PNeg,
    PlqoLiteral,
    ProbAtom,
    atoms_of,
    fraction,
    nnf_dnf_literals,
    numeral,
    pconj_all,
)
from plqo.translate import (
    DecideSystem,
    LinConstraint,
    NumericVar,
    PairVar,
    ProbVar,
    _comparison_constraint,
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

from formgen import (
    chain,
    conj_text,
    distribution_point,
    gen_classical,
    gen_plqo,
    iff_chain,
    obs_ladder,
    perfbench_workloads,
    prob_ladder,
    random_feasible_point,
)
from oracles import (
    all_valuations,
    decide_rows,
    normalized_negate_constraint,
    normalized_row,
    normalized_translate_literal,
    set_formula_row,
    set_mass_var,
    set_q_adams,
    valuation_sets,
    var_key,
)


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
    point[mass_var(base[:1], 1)] += Fraction(1, 7)
    assert not constraints_hold(q_adams(base, []), point)


def test_q_adams_budget():
    with pytest.raises(BudgetExceeded):
        q_adams(syms(*range(1, 14)), [])


def test_q_adams_counts_its_terms_before_building():
    """The paper's Q has about 4^n terms over n symbols: 8 symbols are
    built, and 10 are refused at once, naming the rows and terms they
    would hold."""
    assert sum(len(c.terms) for c in q_adams(syms(*range(1, 9)), [])) == 72381
    with pytest.raises(BudgetExceeded, match="10 symbols has 60119 rows of 1108694 terms"):
        q_adams(syms(*range(1, 11)), [])


def test_q_adams_rejects_outside_symbols():
    with pytest.raises(ValueError):
        q_adams(syms(1), [atom(2)])


def _paper_point(spec, witness, delta):
    """The countermodel's masses over B_phi as a point of the paper's Q:
    every marginal and formula variable derived from them, joined with the
    witness's own values, which must agree wherever both name a variable."""
    n = len(spec.symbols)
    joint = {
        frozenset(spec.symbols[j] for j in range(n) if code >> j & 1): m
        for code, m in enumerate(spec.masses)
    }
    point = distribution_point(spec.symbols, joint, delta)
    for v, value in witness.items():
        assert point.setdefault(v, value) == value, v
    return point


def test_q_decide_agrees_with_the_papers_q():
    """Each branch the search solves, over the decider's system and over
    the paper's Q: a witness, extended to B_phi by model_from_witness,
    satisfies all of Q, its pair bounds included, and the branch; a
    refuted branch is refuted on Q too, by a Farkas certificate that
    check_refutation verifies.  The corpus puts negative O literals that
    share pairs no literal pins in one branch: only their own translations
    bound those pairs."""
    formulas = [ladder(n) for ladder in (prob_ladder, obs_ladder) for n in range(3, 7)]
    formulas += [chain(n, valid) for n in range(3, 7) for valid in (True, False)]
    rng = random.Random(20261021)
    formulas += [gen_plqo(rng, [1, 2, 3], 3, allow_vars=True) for _ in range(40)]
    formulas += [
        parse_plqo(t)
        for t in (
            "!(O(B1 & B2 & B3) | O(B2 & B3 & B4)) -> O(B1 & B4)",
            "(!O(B1 & B2 & B3) & !O(B1 & B3 & B4) & O(B1 & B3)) -> O(B2 & B4)",
            "!O(B1 & B2) -> !O(B1 & B2 & B3)",
            "(P(B1 & B2) < 1/2 & !O(B2 & B3)) -> P(B1 | B3) = 1",
            "(O(B1 & B2) & O(B2 & B3)) -> O(B1 & B2 & B3)",
        )
    ]
    rng = random.Random(20261032)
    formulas += [gen_plqo(rng, [1, 2, 3, 4, 5], 3, atom_depth=3, allow_vars=True)
                 for _ in range(100)]
    extended = refuted = incompatible = 0
    for phi in formulas:
        target = PNeg(phi)
        system = DecideSystem.of(target)
        delta = system.delta
        q = decide_rows(target)
        q_full = q_adams(system.base, delta)
        for lits in nnf_dnf_literals(target):
            for parts in product(*[translate_literal(l) for l in lits]):
                branch = [c for part in parts for c in part]
                result = feasible(q + branch)
                if result:
                    _, _, spec = model_from_witness(target, result.witness)
                    point = _paper_point(spec, result.witness, delta)
                    assert constraints_hold(q_full + branch, point)
                    extended += 1
                    incompatible += bool(spec.nc)
                else:
                    rows = q_full + branch
                    on_q = feasible(rows)
                    assert not on_q
                    check_refutation([(rows[i], m) for i, m in on_q.multipliers])
                    refuted += 1
    assert extended > 40 and refuted > 40 and incompatible > 40


def test_q_decide_grows_with_the_symbols_under_p():
    """prob-n12 puts two of its twelve symbols under P: its system has
    2^2 masses, not 3^12 marginals, and no pair variable."""
    phi = PNeg(prob_ladder(12))
    system = DecideSystem.of(phi)
    a_p = system.a_p
    assert len(a_p) == 2 and len(system.base) == 12
    q = decide_rows(phi)
    assert len(q) <= len(system.delta) + 2 ** len(a_p) + 1
    masses = {set_mass_var(a_p, u) for u in valuation_sets(a_p)}
    assert len(masses) == 4
    prob_vars = {v for c in q for v, _ in c.terms if isinstance(v, ProbVar)}
    assert prob_vars <= masses | {ProbVar.of(a) for a in system.delta}
    # Fagin, Halpern and Megiddo's system: a literal's translation bounds
    # the pair variables it uses
    assert not any(isinstance(v, PairVar) for c in q for v, _ in c.terms)


def test_q_decide_budget_is_on_b_phi():
    phi = parse_plqo(f"O({conj_text(17)}) -> P(B1) = 1")
    with pytest.raises(BudgetExceeded, match="over 17 symbols exceeds budget 16"):
        decide_rows(phi)


def _search_system_formulas(phi):
    """The formula of each system the search builds for check_valid(phi)
    and check_sat(phi): the target's, and each disjunct sentence's."""
    out = []
    for target in (PNeg(phi), phi):
        out.append(target)
        for lits in nnf_dnf_literals(target):
            out.append(RcofSentence(tuple(lits[:-1]), lits[-1].complement()).formula())
    return out


def test_no_system_row_repeats_or_is_constant():
    """Neither system hashes its rows, because none repeats: over every
    system the search builds for the workloads and a seeded corpus with T,
    F and mass-named P formulas, no two rows are equal, no row is constant,
    DecideSystem drops only the names of formula rows 0 = 0 and gives no
    pair row, and q_adams ignores repeated delta entries."""
    workloads = perfbench_workloads()
    formulas = []
    for seed in (1, 2):
        for name in workloads.WORKLOADS:
            for q in workloads.build(name, seed):
                fs = [parse_plqo(t) for t in q.texts]
                formulas.append(PImpl(pconj_all(fs[:-1]), fs[-1]) if q.api == "entail" else fs[0])
    rng = random.Random(20261019)
    formulas += [gen_plqo(rng, [1, 2, 3], 3, allow_vars=True) for _ in range(60)]
    formulas += [
        parse_plqo(t)
        for t in (
            "P(T) = 1 & P(F) = 0 -> P(B1 & !B2) < 1/3",
            "(P(!B1 & (B2 & !B3)) = 1/4 & P(B1) = 1/2) -> (P(B2 & B1) < 1 | O(B3))",
            "P(B1 & !B2) = 1/3 & P(B1) = 1/2 & P(T) = 1 -> O(B1 & B2)",
            "P(!B2) = 1/2 & P(!B1 & !B2) = x1 & P(F) < x2",
        )
    ]
    systems = dict.fromkeys(f for phi in formulas for f in _search_system_formulas(phi))
    for f in systems:
        system = DecideSystem.of(f)
        named = dict(system.rows())
        rows = list(named.values())
        assert len(named) == len(system.rows()), f
        assert len(set(rows)) == len(rows) and all(c.terms for c in rows), f
        assert all(name[0] != "pair" for name in named), f
        dropped = {("formula", k) for k in range(len(system.delta))} - set(named)
        assert all(normalized_row(system, name) == constraint({}, "=", 0) for name in dropped), f
        q = q_adams(system.base, system.delta)
        assert len(set(q)) == len(q) and all(c.terms for c in q), f
        assert q_adams(system.base, system.delta + system.delta[::-1]) == q, f
    assert len(systems) > 1000


def test_formula_rows_equal_the_set_based_reference():
    """A formula row read off one truth table, in code order, equals the
    set-based row over the same masses: in the decider's system over A_P
    of up to six symbols, and in q_adams over the formula's own symbols.
    The corpus has T, F and mass-named P formulas, whose row is 0 = 0 and
    whose name the decider's system does not give."""
    rng = random.Random(20261019)
    formulas = [
        parse_plqo(t)
        for t in (
            "P(T) = 1 & P(F) = 0 -> P(B1 & !B2) < 1/3",
            "P(B1) = 1/2 -> P(F) < 1",
            "P(B1 & !B2) = 1/3 & P(B1) = 1/2 & P(T) = 1 -> O(B1 & B2)",
            "P(!B1 & (B2 & !B3)) = 1/4 -> P(B6 & B1) < 1",
        )
    ]
    for _ in range(150):
        symbols = sorted(rng.sample(range(1, 10), rng.randint(1, 6)))
        formulas.append(gen_plqo(rng, symbols, rng.randint(1, 3), atom_depth=3, allow_vars=True))
    widths, constant = set(), 0
    for f in formulas:
        system = DecideSystem.of(f)
        named = dict(system.rows())
        widths.add(len(system.a_p))
        for k, alpha in enumerate(system.delta):
            by_set = dict(zip(valuation_sets(system.a_p), system.masses))
            expected = set_formula_row(alpha, by_set)
            if expected.terms:
                row = named[("formula", k)]
                assert row == expected and str(row) == str(expected), (f, alpha)
            else:
                assert ("formula", k) not in named, (f, alpha)
            b_alpha = sorted(alpha.symbols())
            masses = {u: set_mass_var(b_alpha, u) for u in valuation_sets(b_alpha)}
            expected = set_formula_row(alpha, masses)
            if expected.terms:
                assert q_adams(b_alpha, [alpha])[-1] == expected, alpha
            else:
                assert ProbVar.of(alpha) in masses.values(), alpha
                constant += 1
    assert {0, 6} <= widths and constant >= 3


def _typed_row(c):
    """A row's terms, relation and right side, with the type of each
    number and of each field of each variable."""
    terms = tuple((v, type(v), tuple(map(type, v[1:])), a, type(a)) for v, a in c.terms)
    return terms, c.rel, c.rhs, type(c.rhs)


def test_rows_built_in_normal_form_equal_the_normalized_ones():
    """q_obs, the mass and sum rows, and a negative observability literal's
    sum of pair variables and pair bounds are built directly in normal
    form.  Each equals the row constraint() makes from its coefficient map,
    number types included: every named row of every system the search
    builds, and the translation of each atom's two literals, for the
    workloads at seeds 1 and 2, the -> and <-> chains at n=3..8 and a
    seeded corpus.  rows() names every mass, the sum and each formula whose
    row is not 0 = 0, in that order, and no pair."""
    workloads = perfbench_workloads()
    formulas = []
    for seed in (1, 2):
        for name in workloads.WORKLOADS:
            for q in workloads.build(name, seed):
                fs = [parse_plqo(t) for t in q.texts]
                formulas.append(PImpl(pconj_all(fs[:-1]), fs[-1]) if q.api == "entail" else fs[0])
    formulas += [make(n, valid) for make in (chain, iff_chain) for n in range(3, 9)
                 for valid in (True, False)]
    rng = random.Random(20261020)
    formulas += [gen_plqo(rng, [1, 2, 3, 4, 5], 3, atom_depth=3, allow_vars=True)
                 for _ in range(100)]
    kinds = set()
    for f in dict.fromkeys(f for phi in formulas for f in _search_system_formulas(phi)):
        system = DecideSystem.of(f)
        names = [("mass>=0", k) for k in range(len(system.masses))] + [("sum",)]
        names += [("formula", k) for k in range(len(system.delta))]
        expected = [(name, c) for name in names if (c := normalized_row(system, name)).terms]
        assert [(n, _typed_row(c)) for n, c in system.rows()] == [
            (n, _typed_row(c)) for n, c in expected
        ], f
        kinds.update(name[0] for name, _ in expected)
    literals = dict.fromkeys(
        PlqoLiteral(positive, a) for phi in formulas for a in atoms_of(phi)
        for positive in (True, False)
    )
    widest = 0
    for lit in literals:
        got, expected = translate_literal(lit), normalized_translate_literal(lit)
        assert [[_typed_row(c) for c in d] for d in got] == [
            [_typed_row(c) for c in d] for d in expected
        ], lit
        if not lit.positive and isinstance(lit.atom, ObsAtom) and got:
            widest = max(widest, len(got[0][0].terms))
    assert kinds == {"mass>=0", "sum", "formula"}
    assert len(literals) > 500 and widest >= 6


def _workload_formulas():
    """Each query of the workloads at seeds 1 and 2 as one formula, an
    entailment as its implication."""
    workloads = perfbench_workloads()
    formulas = []
    for seed in (1, 2):
        for name in workloads.WORKLOADS:
            for q in workloads.build(name, seed):
                fs = [parse_plqo(t) for t in q.texts]
                formulas.append(PImpl(pconj_all(fs[:-1]), fs[-1]) if q.api == "entail" else fs[0])
    return formulas


def test_negated_rows_equal_the_normalized_ones():
    """negate_constraint writes the complement of a row directly in normal
    form.  Each equals the rows constraint() makes from the row's
    coefficient map, number types included: the comparison row of every
    probability atom and every row of every system the search builds, for
    the workloads at seeds 1 and 2 and a seeded corpus with numeric
    variables, over all three relations."""
    formulas = _workload_formulas()
    rng = random.Random(20261023)
    formulas += [gen_plqo(rng, [1, 2, 3, 4], 3, allow_vars=True) for _ in range(200)]
    rows = []
    for f in dict.fromkeys(f for phi in formulas for f in _search_system_formulas(phi)):
        rows += [c for _, c in DecideSystem.of(f).rows()]
    atoms = dict.fromkeys(a for phi in formulas for a in atoms_of(phi) if isinstance(a, ProbAtom))
    rows += [_comparison_constraint(a.alpha, a.cmp, a.term) for a in atoms]
    for c in dict.fromkeys(rows):
        assert [[_typed_row(n) for n in d] for d in negate_constraint(c)] == [
            [_typed_row(n) for n in d] for d in normalized_negate_constraint(c)
        ], c
    assert {c.rel for c in rows} == {"=", "<=", "<"}
    assert len(atoms) > 300 and any(type(c.rhs) is Fraction for c in rows)


def test_variables_sort_as_the_reference_key():
    """Variables sort as tuples in the order var_key gives, each row's terms
    are in that order, and no two variables of different kinds are equal:
    every variable of every system the search builds and of each atom's two
    literal translations, for the workloads at seeds 1 and 2 (both ladders
    and the mix) and a seeded corpus with numeric variables."""
    formulas = _workload_formulas()
    rng = random.Random(20261022)
    formulas += [gen_plqo(rng, [1, 2, 3, 4], 3, allow_vars=True) for _ in range(80)]
    rows = []
    for f in dict.fromkeys(f for phi in formulas for f in _search_system_formulas(phi)):
        rows += [c for _, c in DecideSystem.of(f).rows()]
    literals = dict.fromkeys(
        PlqoLiteral(positive, a) for phi in formulas for a in atoms_of(phi)
        for positive in (True, False)
    )
    rows += [c for lit in literals for d in translate_literal(lit) for c in d]
    for c in rows:
        order = [v for v, _ in c.terms]
        assert order == sorted(order, key=var_key), c
    seen = [v for c in rows for v, _ in c.terms]
    variables = list(set(seen))
    assert sorted(variables) == sorted(variables, key=var_key)
    assert len(variables) == len({(type(v), v[1:]) for v in seen})
    assert {type(v) for v in variables} == {NumericVar, ProbVar, PairVar}


def test_values_survive_copy_and_pickle():
    """copy, deepcopy and pickle at every protocol give back an equal value
    of the same type, the variables inside it too: each kind of variable,
    a row over all three and a feasible witness keyed by them."""
    row = constraint({NumericVar(1): 1, ProbVar("B1&B2"): Fraction(-1, 2), PairVar(1, 3): 2}, "<", 1)
    witness = feasible([row])
    assert witness
    values = [NumericVar(1), ProbVar("B1&B2"), PairVar(1, 3), row, witness]
    for value in values:
        twins = [copy.copy(value), copy.deepcopy(value)]
        twins += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins:
            assert twin == value and type(twin) is type(value) and repr(twin) == repr(value)


def test_negative_obs_literal_bounds_each_pair_of_its_sum():
    """A negative O literal's disjunct keeps every pair variable of its
    strict sum nonnegative: with any one of them below 0 it is infeasible.
    Over each such literal with two or more essential symbols among the
    atoms of the workloads at seeds 1 and 2 and of a seeded corpus.  With
    three or more symbols the strict sum alone would allow a negative pair
    (-1, 2 and 0 sum to 1), so only the pair bounds refute it."""
    rng = random.Random(20261023)
    formulas = _workload_formulas()
    formulas += [gen_plqo(rng, [1, 2, 3, 4, 5], 3, atom_depth=3) for _ in range(100)]
    literals = [
        PlqoLiteral(False, a) for a in dict.fromkeys(a for phi in formulas for a in atoms_of(phi))
        if isinstance(a, ObsAtom) and len(essential_symbols(a.alpha)) >= 2
    ]
    widest = 0
    for lit in literals:
        (disjunct,) = translate_literal(lit)
        (strict,) = [c for c in disjunct if c.rel == "<"]
        widest = max(widest, len(strict.terms))
        for xp, _ in strict.terms:
            below = constraint({xp: 1}, "<", 0)
            assert isinstance(feasible(disjunct + [below]), Infeasible), (lit, xp)
    assert widest >= 3


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
    (c, bound) = disjuncts[0]
    assert c.rel == "<" and c.coeffs() == {PairVar(1, 2): -1}
    assert bound == constraint({PairVar(1, 2): 1}, ">=", 0)
    # one essential symbol: negation unsatisfiable, empty disjunction
    assert translate_literal(PlqoLiteral(False, ObsAtom(atom(1)))) == []


def test_negative_obs_literal_is_one_sum_constraint():
    """Not O(alpha) says some essential pair is incompatible: one strict
    sum over the pair variables, not one disjunct per pair, beside the
    bound of each of those pairs."""
    alpha = conj(conj(atom(1), atom(2)), atom(3))
    ((c, *bounds),) = translate_literal(PlqoLiteral(False, ObsAtom(alpha)))
    pairs = [PairVar(1, 2), PairVar(1, 3), PairVar(2, 3)]
    assert c.rel == "<" and c.rhs == 0
    assert c.coeffs() == {p: -1 for p in pairs}
    assert bounds == [constraint({p: 1}, ">=", 0) for p in pairs]
    # the "alpha unobservable" alternative of a negative probability literal
    obs, *complements = translate_literal(PlqoLiteral(False, ProbAtom(alpha, "=", ONE)))
    assert obs == [c, *bounds] and len(complements) == 2


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
        base = DecideSystem.of(phi).base
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
        system = DecideSystem.of(phi)
        base = system.base
        delta = system.delta
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


@pytest.mark.parametrize("idx", [(), (4,), (1, 2), (1, 2, 3), (2, 5, 9), (1, 3, 4, 7, 12)])
def test_mass_var_is_the_text_of_phi_a_u(idx):
    """Every code of up to five symbols names the text of phi_A_U of the
    set it makes true, as the set-based reference does."""
    a = syms(*idx)
    for code, u in enumerate(valuation_sets(a)):
        expected = ProbVar(canonical_text(phi_A_U(a, u)))
        assert mass_var(a, code) == expected == set_mass_var(a, u)
    for code in (-1, 1 << len(a)):
        with pytest.raises(UNotSubset):
            mass_var(a, code)


def test_mass_var_at_sixteen_symbols():
    """Sampled codes of the widest A_P, the one valuation budget of 16
    symbols, and its first and last codes."""
    a = syms(*range(1, 17))
    rng = random.Random(20261020)
    for code in [0, (1 << 16) - 1] + [rng.randrange(1 << 16) for _ in range(200)]:
        u = {s for j, s in enumerate(a) if code >> j & 1}
        assert mass_var(a, code) == ProbVar(canonical_text(phi_A_U(a, u))) == set_mass_var(a, u)


def test_mass_var_texts():
    b1, b2, b3 = syms(1, 2, 3)
    assert mass_var([b1, b2, b3], 0).key == "!B1&(!B2&!B3)"
    assert mass_var([b1, b2], 1).key == "B1&!B2"
    assert mass_var([b1, b2, b3], 0b110).key == "!B1&(B2&B3)"
    assert mass_var([b1], 0).key == "!B1"
    assert mass_var([], 0).key == "T"
    with pytest.raises(UNotSubset, match=r"^code 4 names no valuation of \[B1, B2\]$"):
        mass_var([b1, b2], 4)


def test_q_adams_equals_the_set_based_reference():
    """q_adams over codes gives the rows of the set-based reference, row for
    row and term for term, over zero to six symbols, with formgen deltas,
    a repeated formula and formulas whose row is 0 = 0."""
    rng = random.Random(20261022)
    for n in range(7):
        base = syms(*sorted(rng.sample(range(1, 12), n)))
        indices = [s.index for s in base]
        for _ in range(3 if n < 6 else 1):
            delta = [VERUM, phi_A_U(base[:1], base[:1])]
            if base:
                delta += [gen_classical(rng, indices, rng.randint(0, 3)) for _ in range(3)]
            delta.append(delta[-1])
            q, reference = q_adams(base, delta), set_q_adams(base, delta)
            assert [str(c) for c in q] == [str(c) for c in reference], (base, delta)
            assert q == reference


@pytest.mark.parametrize(
    "phi",
    [parse_plqo("(P(B1 & B2) = 1/3 & P(B3 & B4) = 2/5) -> O(B1 & B2 & B3 & B4)"), chain(4, True)],
    ids=["radical-n4", "chain-n4"],
)
def test_mass_rows_equal_the_normalized_constraints(phi):
    """The decider's masses are bounded below only, one row each, as they
    sum to one; the paper's Q bounds each of its masses in [0,1].  The
    checker's test_proof_checker_rejects_a_malformed_line refuses the
    names of no mass bound."""
    system = DecideSystem.of(PNeg(phi))
    assert len(system.masses) == 16
    named = dict(system.rows())
    names = [name for name in named if name[0].startswith("mass")]
    assert names == [("mass>=0", k) for k in range(16)]
    for k, m in enumerate(system.masses):
        row, expected = named[("mass>=0", k)], constraint({m: 1}, ">=", 0)
        assert row == expected and hash(row) == hash(expected) and str(row) == str(expected)
    q = q_adams(system.base, system.delta)
    for u in valuation_sets(system.base):
        m = set_mass_var(system.base, u)
        for expected in (constraint({m: 1}, ">=", 0), constraint({m: 1}, "<=", 1)):
            (row,) = [c for c in q if c == expected]
            assert hash(row) == hash(expected) and str(row) == str(expected)
