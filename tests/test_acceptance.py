"""End-to-end acceptance checks.

Each test covers one headline property of the library and prints a
single pass/fail line so the suite doubles as a human-readable report:

    python3 -m pytest tests/test_acceptance.py -s
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from plqo.decide import (
    Invalid,
    RcofSentence,
    Valid,
    check_entail,
    check_valid,
    derive_schema,
)
from plqo.genmodel import (
    GenericModelSpec,
    build_generic,
    commutator_witness,
    model_from_witness,
)
from plqo.hilbert import adams_check, prob, satisfies
from plqo.lra import feasible
from plqo.parser import parse_plqo
from plqo.prop import Neg, PropSymbol, atom, conj, is_tautology
from plqo.syntax import (
    ONE,
    PNeg,
    ProbAtom,
    ZERO,
    fraction,
    prob_le,
)
from plqo.translate import (
    DecideSystem,
    NumericVar,
    ProbVar,
    constraint,
    constraints_hold,
    eval_rcof,
    translate_formula,
)
from plqo.prop import VERUM

from formgen import gen_classical, gen_plqo, random_feasible_point
from oracles import (
    all_valuations,
    as_fraction,
    decide_rows,
    eval_formula,
    fourier_motzkin_feasible,
    is_rational,
    matrix_is_zero,
)


def report(number, label, ok):
    print(f"\n[acceptance] {number:>2}. {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({label}) failed"


def test_01_derivation_reproduction():
    a1 = conj(atom(1), atom(2))
    a2 = conj(atom(2), atom(1))
    fig1 = derive_schema("fig1", a1, a2)
    seq1 = [line.justification() for line in fig1.lines]
    fig2 = derive_schema("fig2")
    seq2 = [line.justification() for line in fig2.lines]
    ok = (
        seq1 == ["RCOF", "RR 1", "RCOF", "RR 3", "TT", "MP 2,5", "MP 4,6"]
        and seq2 == ["HYP", "RCOF", "RR 2", "MP 1,3"]
    )
    report(1, "fig1/fig2 derivations reproduce line-for-line", ok)


def test_02_obs_verum_side_condition():
    verdict = check_valid(parse_plqo("O(T)"))
    ok = isinstance(verdict, Valid)
    if ok:
        sentences = [
            l.content for l in verdict.proof.lines if isinstance(l.content, RcofSentence)
        ]
        ok = len(sentences) >= 1
        pin = constraint({ProbVar.of(VERUM): 1}, "=", 1)
        for sent in sentences:
            premise = decide_rows(sent.formula())
            # the premise system contains x_T = 1 and nothing beyond its
            # consequences: the pinned point satisfies every constraint
            ok = ok and pin in premise
            ok = ok and constraints_hold(premise, {ProbVar.of(VERUM): Fraction(1)})
    report(2, "O(T) valid; RR premise reduces to x_T = 1", ok)


def test_03_commutator_dichotomy_exhaustive():
    ok = True
    cases = 0
    for n in (1, 2, 3):
        symbols = [PropSymbol(i) for i in range(1, n + 1)]
        pairs = list(combinations(symbols, 2))
        for mask in range(1 << len(pairs)):
            nc = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            spec = GenericModelSpec.make(
                symbols, nc, [Fraction(1, 1 << n)] * (1 << n)
            )
            s = build_generic(spec)
            declared = {frozenset(p) for p in nc}
            for pair in pairs:
                zero = matrix_is_zero(commutator_witness(s, pair))
                ok = ok and (zero == (frozenset(pair) not in declared))
            cases += 1
    ok = ok and cases == 11
    report(3, "exact commutator zero iff pair compatible (exhaustive)", ok)


def test_04_adams_principles():
    rng = random.Random(20260823)
    ok = True
    n_structures = 0
    while n_structures < 100:
        nsym = rng.randint(1, 4)  # dim = 2^nsym <= 16
        weights = [Fraction(rng.randint(0, 6)) for _ in range(1 << nsym)]
        if sum(weights) == 0:
            continue
        total = sum(weights)
        spec = GenericModelSpec.make(
            [PropSymbol(i) for i in range(1, nsym + 1)],
            [],
            [w / total for w in weights],
        )
        s = build_generic(spec)
        syms = list(range(1, min(nsym, 3) + 1))
        samples = [
            (gen_classical(rng, syms, rng.randint(0, 3)),
             gen_classical(rng, syms, rng.randint(0, 3)))
            for _ in range(5)
        ]
        ok = ok and adams_check(s, samples) == []
        n_structures += 1
    report(4, f"Adams principles hold on {n_structures} structures", ok)


def test_05_witness_model_equivalence():
    rng = random.Random(20260824)
    ok = True
    n_pairs = 0
    n_true = n_false = 0
    while n_pairs < 100:
        phi = gen_plqo(rng, [1, 2, 3], rng.randint(0, 2), allow_vars=True)
        system = DecideSystem.of(phi)
        base = system.base
        if len(base) > 3:
            continue
        witness = random_feasible_point(
            rng, base, system.delta, extra_pairs_positive=True
        )
        for k in (1, 2, 3):
            witness.setdefault(NumericVar(k), Fraction(rng.randint(0, 4), 4))
        structure, rho, _ = model_from_witness(phi, witness)
        sem = satisfies(structure, rho, phi)
        alg = eval_rcof(translate_formula(phi), witness)
        ok = ok and sem == alg
        n_true += sem
        n_false += not sem
        n_pairs += 1
    ok = ok and n_true > 0 and n_false > 0
    report(5, f"satisfaction matches translation on {n_pairs} witness pairs", ok)


def test_06_conservativeness_all_classes():
    rng = random.Random(20260825)
    classes = {}
    vals = list(all_valuations([PropSymbol(1), PropSymbol(2)]))
    while len(classes) < 16:
        alpha = gen_classical(rng, [1, 2], 3)
        key = tuple(eval_formula(alpha, v) for v in vals)
        classes.setdefault(key, alpha)
    ok = True
    from plqo.decide import conservativeness_check

    for key, alpha in classes.items():
        expected = all(key)  # tautology class only
        ok = ok and conservativeness_check(alpha) == expected
        ok = ok and is_tautology(alpha) == expected
    report(6, "conservativeness valid exactly for the tautology class (16/16)", ok)


def test_07_observation_laws():
    rng = random.Random(20260826)
    ok = True
    for _ in range(20):
        alpha = gen_classical(rng, [1, 2, 3], rng.randint(0, 3))
        phi = parse_plqo(f"(O({alpha})) <-> (O(!({alpha})))")
        ok = ok and isinstance(check_valid(phi), Valid)
    conj_law = check_valid(parse_plqo("((O(B1)) & (O(B2))) <-> (O(B1 & B2))"))
    ok = ok and isinstance(conj_law, Invalid)
    if ok:
        ok = conj_law.spec.nc == frozenset(
            {frozenset({PropSymbol(1), PropSymbol(2)})}
        )
        comm = commutator_witness(conj_law.structure, (PropSymbol(1), PropSymbol(2)))
        ok = ok and not matrix_is_zero(comm)
    dist = check_valid(
        parse_plqo("(O(B2 & (B1 | B3))) <-> (O(B2 & B1) | O(B2 & B3))")
    )
    ok = ok and isinstance(dist, Invalid)
    if isinstance(dist, Invalid):
        ok = ok and satisfies(dist.structure, dist.assignment, PNeg(dist_phi()))
    report(7, "negation/conjunction/distribution observation laws", ok)


def dist_phi():
    return parse_plqo("(O(B2 & (B1 | B3))) <-> (O(B2 & B1) | O(B2 & B3))")


def test_08_countermodel_soundness():
    rng = random.Random(20260827)
    corpus = [
        parse_plqo("((O(B1)) & (O(B2))) <-> (O(B1 & B2))"),
        dist_phi(),
        parse_plqo("P(B1) = 1"),
        parse_plqo("O(B1 & B2)"),
    ]
    for _ in range(40):
        corpus.append(gen_plqo(rng, [1, 2, 3], rng.randint(0, 2), allow_vars=True))
    ok = True
    n_invalid = 0
    for phi in corpus:
        verdict = check_valid(phi)
        if isinstance(verdict, Invalid):
            ok = ok and satisfies(verdict.structure, verdict.assignment, PNeg(phi))
            n_invalid += 1
    ok = ok and n_invalid >= 10
    report(8, f"all {n_invalid} countermodels re-verified exactly", ok)


def test_09_noncompactness_finite_stages():
    ok = True
    for n in range(1, 6):
        gamma = [prob_le(atom(1), fraction(1, k)) for k in range(1, n + 1)]
        verdict = check_entail(gamma, ProbAtom(atom(1), "=", ZERO))
        stage_ok = isinstance(verdict, Invalid)
        if stage_ok:
            p = prob(verdict.structure, atom(1))
            stage_ok = is_rational(p) and 0 < as_fraction(p) <= Fraction(1, n)
        ok = ok and stage_ok
    report(9, "finite stages of the non-compact set all consistent (n <= 5)", ok)


def test_10_lra_oracle_agreement():
    rng = random.Random(20260828)
    ok = True
    n_checked = 0
    n_feasible = 0
    for _ in range(120):
        cs = []
        for _ in range(rng.randint(1, 12)):
            coeffs = {
                NumericVar(k): Fraction(rng.randint(-3, 3))
                for k in range(1, rng.randint(1, 6) + 1)
                if rng.random() < 0.6
            }
            rel = rng.choice(["=", "<=", "<", ">=", ">"])
            rhs = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            cs.append(constraint(coeffs, rel, rhs))
        ours = feasible(cs)
        oracle = fourier_motzkin_feasible(cs)
        ok = ok and bool(ours) == oracle
        if ours:
            ok = ok and constraints_hold(cs, ours.witness)
            n_feasible += 1
        n_checked += 1
    ok = ok and n_checked >= 100 and 0 < n_feasible < n_checked
    report(10, f"simplex agrees with Fourier-Motzkin on {n_checked} systems", ok)
