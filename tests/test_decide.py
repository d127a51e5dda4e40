import ast
import copy
import os
import pickle
import random
import subprocess
import sys
import time
from dataclasses import fields, replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from plqo.decide import (
    Invalid,
    Proof,
    ProofLine,
    RcofSentence,
    Satisfiable,
    Unsatisfiable,
    Valid,
    check_entail,
    check_proof,
    check_refutation,
    check_sat,
    check_valid,
    conservativeness_check,
    derive_schema,
)
from plqo import decide, genmodel, lra
from plqo.errors import BudgetExceeded, SchemaPreconditionFailed, VerificationFailed
from plqo.genmodel import GenericModelSpec, build_generic, commutator_witness
from plqo.hilbert import is_observable, prob, satisfies
from plqo.parser import parse_plqo
from plqo.prop import (
    Atom, Impl, Neg, PropSymbol, VERUM, Verum, atom, conj, disj, essential_symbols, is_tautology
)
from plqo.scalars import RadicalScalar
from plqo.syntax import (
    EMPTY_ASSIGNMENT,
    Assignment,
    ONE,
    ZERO,
    ObsAtom,
    PImpl,
    PNeg,
    PlqoLiteral,
    ProbAtom,
    atoms_of,
    fraction,
    nnf_dnf_literals,
    pdisj,
    prob_gt,
    prob_le,
)
from plqo.translate import DecideSystem, NumericVar, constraint

from formgen import (
    chain, gen_classical, gen_plqo, obs_ladder, perfbench_workloads, prob_ladder, rotated_structure
)
from oracles import (
    as_fraction, is_rational, matrix_is_zero, per_pair_translate_literal, rcof_holds_by_solving
)


def justifications(proof):
    return [line.justification() for line in proof.lines]


# -- headline verdicts --------------------------------------------------------


def test_obs_verum_valid():
    verdict = check_valid(parse_plqo("O(T)"))
    assert isinstance(verdict, Valid)
    check_proof(verdict.proof)


def test_obs_negation_equivalence_valid():
    rng = random.Random(83)
    for _ in range(10):
        alpha = gen_classical(rng, [1, 2, 3], rng.randint(0, 3))
        phi = parse_plqo(f"(O({alpha})) <-> (O(!({alpha})))")
        verdict = check_valid(phi)
        assert isinstance(verdict, Valid)


def test_conjunction_law_invalid_with_nc_countermodel():
    phi = parse_plqo("((O(B1)) & (O(B2))) <-> (O(B1 & B2))")
    verdict = check_valid(phi)
    assert isinstance(verdict, Invalid)
    assert verdict.spec.nc == frozenset({frozenset({PropSymbol(1), PropSymbol(2)})})
    comm = commutator_witness(verdict.structure, (PropSymbol(1), PropSymbol(2)))
    assert not matrix_is_zero(comm)
    assert satisfies(verdict.structure, verdict.assignment, PNeg(phi))


def test_distributive_law_invalid():
    phi = parse_plqo("(O(B2 & (B1 | B3))) <-> (O(B2 & B1) | O(B2 & B3))")
    verdict = check_valid(phi)
    assert isinstance(verdict, Invalid)
    assert satisfies(verdict.structure, verdict.assignment, PNeg(phi))


def test_prob_nonneg_entailment_valid():
    alpha = conj(atom(1), atom(2))
    verdict = check_entail([ObsAtom(alpha)], parse_plqo("P(B1 & B2) >= 0"))
    assert isinstance(verdict, Valid)


def test_sat_simple():
    verdict = check_sat(parse_plqo("P(B1) = 1/2"))
    assert isinstance(verdict, Satisfiable)
    assert prob(verdict.structure, atom(1)) == RadicalScalar.rational(Fraction(1, 2))
    verdict = check_sat(parse_plqo("P(T) < 1"))
    assert isinstance(verdict, Unsatisfiable)
    check_proof(verdict.proof)


def test_noncompactness_finite_stages():
    """Every finite stage of the classic non-compact premise set is
    consistent: the countermodel gives B1 a probability in (0, 1/n]."""
    for n in range(1, 6):
        gamma = [prob_gt(atom(1), ZERO)]
        gamma += [prob_le(atom(1), fraction(1, k)) for k in range(1, n + 1)]
        falsum = ProbAtom(VERUM, "<", ONE)
        verdict = check_entail(gamma, falsum)
        assert isinstance(verdict, Invalid)
        p = prob(verdict.structure, atom(1))
        assert is_rational(p)
        q = as_fraction(p)
        assert 0 < q <= Fraction(1, n)


# -- duality and cross-checks -------------------------------------------------


def test_valid_iff_negation_unsat():
    rng = random.Random(89)
    n_valid = 0
    for _ in range(40):
        phi = gen_plqo(rng, [1, 2], rng.randint(0, 2))
        valid = isinstance(check_valid(phi), Valid)
        verdict = check_sat(PNeg(phi))
        unsat = isinstance(verdict, Unsatisfiable)
        assert valid == unsat
        if unsat:
            assert verdict.proof == check_valid(PNeg(PNeg(phi))).proof
        n_valid += valid
    assert 0 < n_valid < 40


def test_proved_formulas_hold_in_structures_genmodel_did_not_build():
    """Every formula check_valid proves holds under satisfies, for random
    rational assignments, in exact structures built from rational
    rotations: the prover against the semantics, prob included."""
    rng = random.Random(97)
    structures = [rotated_structure(rng, 3, rng.randint(2, 4), rng.randint(1, 3)) for _ in range(12)]
    proved = set()
    while len(proved) < 100:
        phi = gen_plqo(rng, [1, 2, 3], rng.randint(1, 3), allow_vars=True)
        if phi not in proved and isinstance(check_valid(phi), Valid):
            proved.add(phi)
    joint = 0  # P atoms over two or more essential symbols that are observable
    for phi in proved:
        for s in structures:
            rho = Assignment({k: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for k in (1, 2, 3)})
            assert satisfies(s, rho, phi), phi
            joint += sum(
                1 for a in atoms_of(phi)
                if isinstance(a, ProbAtom) and len(essential_symbols(a.alpha)) > 1
                and is_observable(s, a.alpha)
            )
    assert joint > 100


def test_unsat_runs_the_search_once(monkeypatch):
    """check_sat's Unsatisfiable proof comes from its own search, not
    from a second search through check_valid, and checking the proof
    runs no solver."""
    calls = []
    real = lra.feasible

    def counting(constraints):
        calls.append(None)
        return real(constraints)

    monkeypatch.setattr(lra, "feasible", counting)
    psi = parse_plqo("P(B1) = 1/3 & P(B1) = 1/2")
    assert isinstance(check_sat(psi), Unsatisfiable)
    sat_calls = len(calls)
    calls.clear()
    assert isinstance(check_valid(PNeg(psi)), Valid)
    assert (sat_calls, len(calls)) == (1, 1)


def test_numerals_cost_their_digits():
    phi = parse_plqo("P(B1) >= 999999/1000000 -> P(B1) > 0")
    verdict = check_valid(phi)
    assert isinstance(verdict, Valid)
    assert check_proof(verdict.proof)
    assert verdict.proof.conclusion() == phi

    start = time.perf_counter()
    verdict = check_valid(parse_plqo("P(B1) < 100000000"))
    assert time.perf_counter() - start < 1.0
    assert isinstance(verdict, Valid)
    assert str(verdict.proof.conclusion()) == "P(B1) < 100000000"
    # a numeral spelled as a sum of ones is still the same atom
    assert parse_plqo("P(B1) = 1 + 1 + 1") == parse_plqo("P(B1) = 3")


def grid_models(base, step=4):
    """Every generic structure over the base whose masses lie on the
    1/step grid, for every set of incompatible pairs."""
    base = sorted(base)
    n = len(base)
    cells = 1 << n
    pairs = list(combinations(base, 2))

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for masses in compositions(step, cells):
        for mask in range(1 << len(pairs)):
            nc = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            spec = GenericModelSpec.make(
                base, nc, [Fraction(m, step) for m in masses]
            )
            yield build_generic(spec)


def test_valid_agrees_with_grid_search():
    """When the procedure says Valid, no grid-point generic structure
    satisfies the negation (an independent, model-side check)."""
    rng = random.Random(97)
    checked_valid = 0
    for _ in range(25):
        phi = gen_plqo(rng, [1, 2], rng.randint(0, 2), atom_depth=2)
        base = DecideSystem.of(phi).base
        if len(base) > 2:
            continue
        verdict = check_valid(phi)
        if isinstance(verdict, Valid):
            checked_valid += 1
            for s in grid_models(base):
                assert not satisfies(s, EMPTY_ASSIGNMENT, PNeg(phi))
        else:
            assert satisfies(verdict.structure, verdict.assignment, PNeg(phi))
    assert checked_valid > 0


def test_countermodels_always_verified():
    rng = random.Random(101)
    n_invalid = 0
    for _ in range(30):
        phi = gen_plqo(rng, [1, 2, 3], rng.randint(0, 2), allow_vars=True)
        verdict = check_valid(phi)
        if isinstance(verdict, Invalid):
            n_invalid += 1
            assert satisfies(verdict.structure, verdict.assignment, PNeg(phi))
    assert n_invalid > 0


def test_one_sum_constraint_decides_as_the_per_pair_split(monkeypatch):
    """A negative O literal over k essential symbols is one strict sum, not
    C(k, 2) branches; verdicts agree with the per-pair reference on
    formulas that put multi-pair negative O literals in the search."""
    rng = random.Random(131)
    cases = []
    while len(cases) < 12:
        symbols = [1, 2, 3] if len(cases) % 2 else [1, 2, 3, 4]
        alpha = gen_classical(rng, symbols, 3)
        if len(essential_symbols(alpha)) < 3:
            continue
        rest = gen_plqo(rng, symbols[:3], rng.randint(0, 1), allow_vars=True)
        obs = ObsAtom(alpha)
        cases.append(PImpl(rest, obs) if rng.random() < 0.5 else pdisj(obs, rest))
    verdicts = [check_valid(phi) for phi in cases]
    monkeypatch.setattr(decide, "translate_literal", per_pair_translate_literal)
    for phi, verdict in zip(cases, verdicts):
        reference = check_valid(phi)
        assert type(verdict) is type(reference), phi
        for found in (verdict, reference):
            if isinstance(found, Invalid):
                assert satisfies(found.structure, found.assignment, PNeg(phi))
    assert {type(v) for v in verdicts} == {Valid, Invalid}


def test_search_verifies_the_model_before_reporting(monkeypatch):
    """A translation that swaps a negative literal for its complement gives
    a witness of the wrong branch; the structure built from it agrees with
    the witness but does not satisfy the target, and must not be reported."""
    original = decide.translate_literal

    def complemented(lit):
        return original(lit if lit.positive else lit.complement())

    monkeypatch.setattr(decide, "translate_literal", complemented)
    with pytest.raises(VerificationFailed):
        check_valid(parse_plqo("O(T)"))


def test_a_sentence_with_no_branch_builds_no_system(monkeypatch):
    """!O(B1) has one essential symbol, so it translates to no disjunct and
    the sentence O(B1 & B2) => O(B1) has no branch: it is refuted with no
    certificate before its system is built, and the checker accepts it."""
    built = []

    def counted(atoms):
        built.append(atoms)
        return DecideSystem(atoms)

    monkeypatch.setattr(decide, "DecideSystem", counted)
    sent = RcofSentence((PlqoLiteral(True, ObsAtom(conj(atom(1), atom(2)))),),
                        PlqoLiteral(True, ObsAtom(atom(1))))
    assert decide._refute(sent) == sent and built == []
    monkeypatch.undo()
    verdict = check_valid(parse_plqo("O(B1 & B2) -> O(B1)"))
    assert isinstance(verdict, Valid) and check_proof(verdict.proof)
    [rcof] = [line.content for line in verdict.proof.lines if line.kind == "RCOF"]
    assert rcof.certificates == ()


def test_the_search_stops_at_the_first_feasible_branch(monkeypatch):
    """Sixteen negated P(B1 & B2) = c literals split into 3^16 branches.
    The first, every pair variable positive, is feasible, so the search
    builds that one branch and no other."""
    pulled = []
    branches = decide._branches

    def counted(sent):
        for branch in branches(sent):
            pulled.append(branch)
            yield branch

    monkeypatch.setattr(decide, "_branches", counted)
    phi = parse_plqo(" & ".join(f"!(P(B1 & B2) = 1/{k})" for k in range(2, 18)))
    assert isinstance(check_sat(phi), Satisfiable)
    assert len(pulled) == 1


def test_a_model_is_checked_once_by_satisfaction(monkeypatch):
    """An Invalid and a Satisfiable verdict build the decider's system once
    and never translate the target: the structure is checked against the
    formula itself."""
    calls = {}

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    count(DecideSystem, "rows")
    for module in (decide, genmodel):
        if hasattr(module, "translate_formula"):
            count(module, "translate_formula")
    for query, kind in [
        (lambda: check_valid(parse_plqo("O(B1 & B2) -> O(B1 & B2 & B3)")), Invalid),
        (lambda: check_sat(parse_plqo("P(B1) = x1 & P(B2) > x1 & !O(B1 & B2)")), Satisfiable),
    ]:
        calls.clear()
        assert isinstance(query(), kind)
        assert calls == {"rows": 1}


def test_search_rejects_a_structure_without_its_incompatible_pairs(monkeypatch):
    """The witness is right but the structure built from it lacks the
    incompatible pair the countermodel needs; satisfaction catches it."""

    def without_nc(base, system, witness):
        _, rho, spec = genmodel.structure_of_witness(base, system, witness)
        spec = GenericModelSpec(spec.symbols, frozenset(), spec.masses)
        return build_generic(spec), rho, spec

    phi = parse_plqo("(O(B1) & O(B2)) -> O(B1 & B2)")
    assert check_valid(phi).spec.nc == frozenset({frozenset({PropSymbol(1), PropSymbol(2)})})
    monkeypatch.setattr(decide, "structure_of_witness", without_nc)
    with pytest.raises(VerificationFailed):
        check_valid(phi)


def test_countermodel_lifted_from_a_smaller_a_p():
    """The feasible sentence puts only B3 under P, the target B1, B2 and
    B3: the witness's two masses are placed in the target's base with B1
    and B2 false."""
    phi = parse_plqo("P(B3) = 0 & P(B1 | B2) = 1/4")
    (lits, _), target = nnf_dnf_literals(PNeg(phi)), DecideSystem.of(PNeg(phi))
    sentence = RcofSentence(tuple(lits[:-1]), lits[-1].complement())
    assert DecideSystem.of(sentence.formula()).a_p == [PropSymbol(3)]
    assert target.a_p == [PropSymbol(i) for i in (1, 2, 3)]
    verdict = check_valid(phi)
    assert isinstance(verdict, Invalid)
    assert verdict.spec.symbols == tuple(PropSymbol(i) for i in (1, 2, 3))
    half = Fraction(1, 2)
    assert verdict.spec.masses == (half, 0, 0, 0, half, 0, 0, 0)
    assert verdict.spec.nc == frozenset()
    assert not satisfies(verdict.structure, verdict.assignment, phi)


# -- proofs and their checker -------------------------------------------------


def test_proof_checker_rejects_tampering():
    proof = check_valid(parse_plqo("O(T)")).proof
    check_proof(proof)
    # swap the final conclusion for an unrelated formula
    bad_last = ProofLine(
        proof.lines[-1].number,
        parse_plqo("P(B1) = 1"),
        proof.lines[-1].kind,
        proof.lines[-1].refs,
    )
    tampered = Proof(proof.lines[:-1] + (bad_last,), proof.hypotheses)
    with pytest.raises(AssertionError):
        check_proof(tampered)


def test_proof_checker_rejects_false_tt():
    line = ProofLine(1, parse_plqo("P(B1) = 1"), "TT")
    with pytest.raises(AssertionError):
        check_proof(Proof((line,)))


def test_proof_checker_rejects_a_classical_formula_on_a_tt_line():
    """B1 -> B1 is a classical tautology, not a formula of the logic."""
    line = ProofLine(1, Impl(atom(1), atom(1)), "TT")
    with pytest.raises(VerificationFailed, match="not a formula node"):
        check_proof(Proof((line,)))


def test_proof_checker_rejects_undeclared_hyp():
    line = ProofLine(1, parse_plqo("O(B1)"), "HYP")
    with pytest.raises(AssertionError):
        check_proof(Proof((line,)))


def _sentence_line(proof):
    """The index of the proof's first RCOF line and its sentence."""
    i = next(i for i, line in enumerate(proof.lines) if line.kind == "RCOF")
    return i, proof.lines[i].content


def _with_certificates(proof, edit):
    """The proof with its first sentence's certificates replaced by
    ``edit(certificates)``."""
    i, sent = _sentence_line(proof)
    line = proof.lines[i]
    sent = replace(sent, certificates=edit(sent.certificates))
    tampered = ProofLine(line.number, sent, line.kind, line.refs)
    return Proof(proof.lines[:i] + (tampered,) + proof.lines[i + 1:], proof.hypotheses)


def _ladder_proof():
    """prob-n3's proof; its one certificate cites a mass bound, a formula
    row and two literal rows."""
    proof = check_valid(prob_ladder(3)).proof
    _, sent = _sentence_line(proof)
    (certificate,) = sent.certificates
    kinds = sorted(name[0] for name, _ in certificate)
    assert kinds == ["formula", "literal", "literal", "mass>=0"]
    return proof


def _edit_entry(kind, change):
    """Apply ``change`` to the (name, multiplier) entry of the first
    certificate that cites a row of this kind."""

    def edit(certificates):
        first = list(certificates[0])
        j = next(j for j, (name, _) in enumerate(first) if name[0] == kind)
        first[j:j + 1] = change(first[j])
        return (tuple(first),) + certificates[1:]

    return edit


def test_proof_checker_rejects_a_flipped_multiplier_sign():
    proof = _ladder_proof()
    check_proof(proof)
    with pytest.raises(VerificationFailed):
        check_proof(_with_certificates(proof, _edit_entry("mass>=0", lambda e: [(e[0], -e[1])])))


def test_proof_checker_rejects_a_dropped_row():
    proof = _ladder_proof()
    with pytest.raises(VerificationFailed):
        check_proof(_with_certificates(proof, _edit_entry("literal", lambda e: [])))


def test_proof_checker_rejects_a_scaled_equality():
    """The formula row's multiplier doubled: its terms no longer cancel."""
    proof = _ladder_proof()
    with pytest.raises(VerificationFailed):
        check_proof(_with_certificates(proof, _edit_entry("formula", lambda e: [(e[0], 2 * e[1])])))


@pytest.mark.parametrize(
    "name",
    [
        ("pair", PropSymbol(1), PropSymbol(4)),
        ("pair", PropSymbol(2), PropSymbol(1)),
        ("formula", 2),
        ("mass>=0", frozenset({PropSymbol(2)})),
        ("literal", 3, 0),
        ("literal", 2, 1),
    ],
    ids=["pair-outside-base", "pair-descending", "k-past-delta", "u-outside-a_p",
         "literal-past-branch", "row-past-disjunct"],
)
def test_proof_checker_rejects_a_row_outside_the_system(name):
    """A foreign row cited with multiplier zero leaves the combination as
    it was: only the name check can reject it."""
    proof = _ladder_proof()
    _, sent = _sentence_line(proof)
    system = DecideSystem.of(sent.formula())
    assert len(system.delta) == 2 and system.base == [PropSymbol(i) for i in (1, 2, 3)]
    with pytest.raises(VerificationFailed):
        check_proof(_with_certificates(proof, lambda cs: ((*cs[0], (name, Fraction(0))),)))


def _with_line(proof, position, **changes):
    """The proof with its line at ``position`` changed by ``changes``."""
    lines = list(proof.lines)
    lines[position - 1] = replace(lines[position - 1], **changes)
    return Proof(tuple(lines), proof.hypotheses)


def _with_sentence(proof, **changes):
    """The proof with the sentence on its first line changed by ``changes``."""
    return _with_line(proof, 1, content=replace(proof.lines[0].content, **changes))


def _citing(name):
    """Adds a row called ``name``, with multiplier zero, to the first
    certificate."""
    return lambda proof: _with_certificates(proof, lambda cs: ((*cs[0], (name, Fraction(0))),))


class _EqualsAnything(ObsAtom):
    """An observability atom that claims to equal every formula."""

    def __eq__(self, other):
        return True

    __hash__ = ObsAtom.__hash__


def _forged_rr():
    """obs_taut's RCOF line for O(T), then an RR line restating the
    invalid O(B1 & B2) through an atom whose __eq__ lies."""
    rcof = derive_schema("obs_taut").lines[0]
    return Proof((rcof, ProofLine(2, _EqualsAnything(conj(atom(1), atom(2))), "RR", (1,))))


def _forged(cls, *values):
    """A ``cls`` node with these field values, past its constructor's checks."""
    node = cls.__new__(cls)
    node.__setstate__(list(values))
    return node


def _with_conclusion_atom(proof, make):
    """The proof with its sentence's conclusion atom replaced by
    ``make(atom)``."""
    conclusion = proof.lines[0].content.conclusion
    return _with_sentence(proof, conclusion=replace(conclusion, atom=make(conclusion.atom)))


class _Int(int):
    pass


# prob-n3's proof is 1 RCOF, 2 RR 1, 3 TT, 4 MP 2,3
_MALFORMED = {
    "mp-cites-a-later-line": lambda p: _with_line(p, 4, refs=(2, 5)),
    "mp-one-ref": lambda p: _with_line(p, 4, refs=(3,)),
    "rr-two-refs": lambda p: _with_line(p, 2, refs=(1, 1)),
    "rr-ref-past-the-end": lambda p: _with_line(p, 2, refs=(9,)),
    # line 0 would be read as the last line, here the sentence itself
    "rr-ref-zero": lambda p: Proof(
        (replace(p.lines[1], number=1, refs=(0,)), replace(p.lines[0], number=2))
    ),
    "misnumbered": lambda p: _with_line(p, 4, number=5),
    "tt-not-a-formula": lambda p: _with_line(p, 3, content=p.lines[0].content),
    "empty-name": _citing(()),
    "literal-one-index": _citing(("literal", 0)),
    "pair-one-symbol": _citing(("pair", 1)),
    "formula-text-index": _citing(("formula", "x")),
    "mass-list-set": _citing(("mass>=0", [1])),
    # the ladder's certificate cites the mass of code 1 over A_P = B1, B3:
    # by its old set name, or by True, which equals 1 and hashes as 1
    "mass-old-set-name": lambda p: _with_certificates(
        p, _edit_entry("mass>=0", lambda e: [(("mass>=0", frozenset({PropSymbol(1)})), e[1])])
    ),
    "mass-code-true": lambda p: _with_certificates(
        p, _edit_entry("mass>=0", lambda e: [(("mass>=0", True), e[1])])
    ),
    "mass-code-negative": _citing(("mass>=0", -1)),
    "mass-code-past-a_p": _citing(("mass>=0", 4)),
    # cited with multiplier 0, so only the name check can reject them: the
    # first three equal and hash as the name ("mass>=0", 1) of a row
    "mass-code-true-cited": _citing(("mass>=0", True)),
    "mass-code-float-one": _citing(("mass>=0", 1.0)),
    "mass-code-int-subclass": _citing(("mass>=0", _Int(1))),
    "mass-code-sixteen": _citing(("mass>=0", 16)),
    "mass-code-float": _citing(("mass>=0", 16.0)),
    "mass-code-wide": _citing(("mass>=0", 1 << 64)),
    "mass-code-frozenset": _citing(("mass>=0", frozenset())),
    "mass-upper-bound": _citing(("mass<=1", 0)),
    # the decider's system has no pair rows, and drops its one identity
    # 0 = 0, the row of P(B1 & B3), whose variable is a mass
    "pair-of-the-base": _citing(("pair", PropSymbol(1), PropSymbol(3))),
    "formula-dropped-identity": _citing(("formula", 0)),
    "text-multiplier": lambda p: _with_certificates(
        p, _edit_entry("mass>=0", lambda e: [(e[0], "1")])
    ),
    "conclusion-a-formula": lambda p: _with_sentence(
        p, conclusion=p.lines[0].content.conclusion.formula()
    ),
    "conclusion-none": lambda p: _with_sentence(p, conclusion=None),
    "premise-not-a-literal": lambda p: _with_sentence(p, premise_literals=(1,)),
    "premises-none": lambda p: _with_sentence(p, premise_literals=None),
    "premises-a-list": lambda p: _with_sentence(
        p, premise_literals=list(p.lines[0].content.premise_literals)
    ),
    # fig2's HYP line looks its formula up among the hypotheses
    "hypotheses-none": lambda p: replace(derive_schema("fig2"), hypotheses=None),
    "line-a-string": lambda p: Proof(p.lines[:1] + ("x",) + p.lines[2:]),
    "nonlinear-premise": lambda p: _with_sentence(
        p,
        premise_literals=p.lines[0].content.premise_literals
        + (PlqoLiteral(True, parse_plqo("P(B1) < x1 * x2")),),
    ),
    "obs-atom-of-an-int": lambda p: _with_sentence(p, conclusion=PlqoLiteral(True, ObsAtom(3))),
    "rr-formula-equals-anything": lambda p: _forged_rr(),
    "forged-relation": lambda p: _with_conclusion_atom(
        p, lambda a: _forged(ProbAtom, a.alpha, "!", ZERO)
    ),
    "forged-negative-constant": lambda p: _with_conclusion_atom(
        p, lambda a: ProbAtom(a.alpha, a.cmp, _forged(type(ZERO), Fraction(-1)))
    ),
    "certificate-entry-not-a-pair": lambda p: _with_certificates(p, lambda cs: ((*cs[0], "x"),)),
    "unknown-line-kind": lambda p: _with_line(p, 3, kind="XX"),
}


@pytest.mark.parametrize("tamper", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_proof_checker_rejects_a_malformed_line(tamper):
    """A malformed line raises VerificationFailed, never another error."""
    with pytest.raises(VerificationFailed):
        check_proof(tamper(_ladder_proof()))


def test_check_proof_walks_node_fields_not_fact_slots():
    """The checker's walk of a formula lists each node's dataclass fields;
    the slots a node keeps its facts in are none of them."""
    expected = {
        Verum: (), Atom: ("symbol",), Neg: ("child",), Impl: ("left", "right"),
        ObsAtom: ("alpha",), ProbAtom: ("alpha", "cmp", "term"), PNeg: ("child",),
        PImpl: ("left", "right"),
    }
    assert {c: tuple(f.name for f in fields(c)) for c in expected} == expected
    assert {c: decide._NODE_FIELDS[c] for c in expected} == expected


def test_check_proof_requires_exact_node_classes():
    """A node whose __eq__ lies, in a hypothesis or deep in an RCOF
    sentence's literal, would let a line match a formula it is not."""

    class TrueAnything(VERUM.__class__):
        def __eq__(self, other):
            return True

        __hash__ = VERUM.__class__.__hash__

    fig2 = derive_schema("fig2")
    assert check_proof(fig2)
    with pytest.raises(VerificationFailed):
        check_proof(replace(fig2, hypotheses=(_EqualsAnything(atom(1)),)))
    b12 = parse_plqo("O(B1 & B2)")
    sent = decide._refuted((), PlqoLiteral(True, ObsAtom(TrueAnything())))
    forged = Proof((ProofLine(1, sent, "RCOF"), ProofLine(2, b12, "RR", (1,))))
    with pytest.raises(VerificationFailed):
        check_proof(forged)


def test_copied_and_pickled_proofs_are_checked_afresh():
    """Copying or unpickling a proof rebuilds each node from its fields:
    the valid ladder's proofs and the three schemas pass the checker so,
    and a copy holding a node subclass is rejected as the original is."""
    queries = perfbench_workloads().build("valid-ladder", 1)
    proofs = [check_valid(parse_plqo(q.texts[0])).proof for q in queries]
    proofs += [derive_schema("fig1", conj(atom(1), atom(2)), conj(atom(2), atom(1)))]
    proofs += [derive_schema("fig2"), derive_schema("obs_taut")]
    for proof in proofs:
        assert check_proof(pickle.loads(pickle.dumps(proof)))
    for dup in (copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))):
        forged = dup(_forged_rr())
        assert type(forged.lines[1].content) is _EqualsAnything
        with pytest.raises(VerificationFailed):
            check_proof(forged)


def test_proof_checker_rejects_a_literal_subclass():
    """A literal whose complement() lies: the refuted literal -O(T) has no
    branch, so zero certificates would pass, and the RR line restates the
    invalid O(B1 & B2)."""

    class Lying(PlqoLiteral):
        def complement(self):
            return PlqoLiteral(False, ObsAtom(VERUM))

    b12 = parse_plqo("O(B1 & B2)")
    assert isinstance(check_valid(b12), Invalid)
    proof = Proof(
        (
            ProofLine(1, RcofSentence((), Lying(True, b12)), "RCOF"),
            ProofLine(2, b12, "RR", (1,)),
        )
    )
    with pytest.raises(VerificationFailed):
        check_proof(proof)


class _Str(str):
    pass


class _Fraction(Fraction):
    pass


def _fig2_with_hypothesis_symbols(index):
    """fig2 with its hypothesis O(B1 & B2), on the HYP line and among the
    declared hypotheses, rebuilt over the symbols ``index(1)`` and ``index(2)``."""
    fig2 = derive_schema("fig2")
    hyp = ObsAtom(conj(Atom(PropSymbol(index(1))), Atom(PropSymbol(index(2)))))
    return Proof((replace(fig2.lines[0], content=hyp),) + fig2.lines[1:], hypotheses=(hyp,))


def _fig2_with_conclusion(cmp, q):
    """fig2 with its conclusion P(B1 & B2) >= 0 rebuilt from the relation
    ``cmp`` and a constant holding ``q``, past the constant's constructor."""
    fig2 = derive_schema("fig2")
    concl = fig2.lines[3].content
    atom_ = ProbAtom(concl.child.alpha, cmp, _forged(type(ZERO), q))
    return Proof(fig2.lines[:3] + (replace(fig2.lines[3], content=PNeg(atom_)),), fig2.hypotheses)


@pytest.mark.parametrize(
    "forge, exact, subclass",
    [
        (_fig2_with_hypothesis_symbols, int, _Int),
        (lambda make: _fig2_with_conclusion(make("<"), Fraction(0)), str, _Str),
        (lambda make: _fig2_with_conclusion("<", make(0)), Fraction, _Fraction),
    ],
    ids=["int-symbol-index", "str-relation", "fraction-constant"],
)
def test_proof_checker_rejects_leaf_subclasses(forge, exact, subclass):
    """A leaf value of a subclass of int, str or Fraction equals the exact
    one, so each forged proof passes every other check, as the same proof
    with exact leaves does; the checker rejects it."""
    assert check_proof(forge(exact))
    with pytest.raises(VerificationFailed):
        check_proof(forge(subclass))


def test_proof_checker_rejects_inexact_multipliers():
    """Float multipliers 1e17, 1 and 1e17 round the x term away, though
    the three rows are satisfiable together."""
    x, y = NumericVar(1), NumericVar(2)
    rows = [
        constraint({x: 1, y: -1}, "<=", 0),
        constraint({x: 1}, "<=", -1),
        constraint({y: 1, x: -1}, "<=", 0),
    ]
    assert lra.feasible(rows)
    with pytest.raises(VerificationFailed, match="not an exact rational"):
        check_refutation(zip(rows, (1e17, 1.0, 1e17)))
    with pytest.raises(VerificationFailed, match="do not cancel"):
        check_refutation(zip(rows, (10**17, 1, 10**17)))


@pytest.mark.parametrize(
    "edit", [lambda cs: cs[:-1], lambda cs: cs + cs[-1:]], ids=["missing", "extra"]
)
def test_proof_checker_rejects_a_missing_or_extra_certificate(edit):
    proof = check_valid(chain(3, True)).proof
    _, sent = _sentence_line(proof)
    assert len(sent.certificates) == 2  # P(B3) < 1 and P(B3) > 1
    check_proof(proof)
    with pytest.raises(VerificationFailed):
        check_proof(_with_certificates(proof, edit))


def test_proof_checker_runs_no_solver(monkeypatch):
    proofs = [check_valid(phi).proof for phi in (prob_ladder(4), chain(4, True))]
    proofs += [check_sat(parse_plqo("P(T) < 1")).proof, derive_schema("fig2")]
    proofs.append(derive_schema("fig1", atom(1), Neg(Neg(atom(1)))))

    def refuse(constraints):
        raise AssertionError("the checker ran the solver")

    monkeypatch.setattr(lra, "feasible", refuse)
    for proof in proofs:
        assert check_proof(proof)


def test_certificates_agree_with_re_solving():
    """Each disjunct's sentence is refuted, with certificates the checker
    accepts, exactly when solving its branches again finds none feasible."""
    formulas = [ladder(n) for ladder in (prob_ladder, obs_ladder) for n in range(3, 7)]
    formulas += [chain(n, valid) for n in range(3, 7) for valid in (True, False)]
    rng = random.Random(20261019)
    formulas += [gen_plqo(rng, [1, 2, 3], rng.randint(0, 2), allow_vars=True) for _ in range(40)]
    outcomes = set()
    for phi in formulas:
        for lits in nnf_dnf_literals(PNeg(phi)):
            sent = RcofSentence(tuple(lits[:-1]), lits[-1].complement())
            found = decide._refute(sent)
            refuted = isinstance(found, RcofSentence)
            assert refuted == rcof_holds_by_solving(sent), phi
            if refuted:
                assert check_proof(Proof((ProofLine(1, found, "RCOF"),)))
            outcomes.add(refuted)
    assert outcomes == {True, False}


def test_proof_checker_rejects_tampering_under_optimize():
    """The tamper cases above and the search's model check, run by a
    child interpreter under -O, which strips assert statements."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(root / "tests" / "test_decide.py"), "-k",
         "(proof_checker_rejects and not optimize) or search_verifies_the_model_before_reporting"],
        capture_output=True, text=True, env=env, cwd=root, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "62 passed" in done.stdout


def test_no_assert_in_src():
    """Load-bearing checks go through errors.verify; an assert would
    vanish under -O."""
    src = Path(__file__).resolve().parents[1] / "src" / "plqo"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_sixteen_symbols_are_decided():
    """The decider's base B_phi may reach the one valuation budget, 16; the
    CLI test with 17 symbols pins the budget error."""
    verdict = check_valid(prob_ladder(16))
    assert isinstance(verdict, Valid) and check_proof(verdict.proof)


def _spread(n):
    """P(B1) = 0 -> (P(B1) = 0 | P(B1) = 1/n | ... | P(B1) = (n-1)/n): n
    atoms, valid by its skeleton alone."""
    atoms = ["P(B1) = 0"] + [f"P(B1) = {k}/{n}" for k in range(1, n)]
    return parse_plqo(f"P(B1) = 0 -> ({' | '.join(atoms)})")


def test_sixteen_atoms_are_one_tt_line_and_seventeen_are_over_budget():
    """The same budget bounds the atoms of a DNF and the letters of a TT line."""
    verdict = check_valid(_spread(16))
    assert isinstance(verdict, Valid)
    (line,) = verdict.proof.lines
    assert line.kind == "TT" and len(decide.letters_formula(line.content).symbols()) == 16
    assert check_proof(verdict.proof)
    with pytest.raises(BudgetExceeded, match="17 distinct atoms exceeds DNF budget 16"):
        check_valid(_spread(17))


def test_proof_conclusion_and_json():
    verdict = check_valid(parse_plqo("O(T)"))
    phi = parse_plqo("O(T)")
    assert verdict.proof.conclusion() == phi
    doc = verdict.proof.to_json()
    assert doc["lines"][-1]["formula"] == "O(T)"
    assert all("justification" in l for l in doc["lines"])


# -- derivation schemas -------------------------------------------------------


def test_schema_fig1_sequence():
    a1 = atom(1)
    a2 = Neg(Neg(atom(1)))
    proof = derive_schema("fig1", a1, a2)
    assert justifications(proof) == [
        "RCOF", "RR 1", "RCOF", "RR 3", "TT", "MP 2,5", "MP 4,6",
    ]
    from plqo.syntax import pconj_all

    impl12 = proof.lines[1].content
    impl21 = proof.lines[3].content
    assert proof.conclusion() == pconj_all([impl12, impl21])


def test_schema_fig1_precondition():
    with pytest.raises(SchemaPreconditionFailed):
        derive_schema("fig1", atom(1), atom(2))


def test_schema_fig2_sequence():
    proof = derive_schema("fig2")
    assert justifications(proof) == ["HYP", "RCOF", "RR 2", "MP 1,3"]
    assert str(proof.conclusion()) == "P(B1 & B2) >= 0"
    assert proof.hypotheses == (ObsAtom(conj(atom(1), atom(2))),)


def test_schema_obs_taut_sequence():
    proof = derive_schema("obs_taut")
    assert justifications(proof) == ["RCOF", "RR 1"]
    assert proof.conclusion() == ObsAtom(VERUM)


def test_schema_unknown():
    with pytest.raises(SchemaPreconditionFailed):
        derive_schema("fig9")


# -- conservativeness ---------------------------------------------------------


def test_conservativeness_examples():
    assert conservativeness_check(disj(atom(1), Neg(atom(1))))
    assert conservativeness_check(VERUM)
    assert not conservativeness_check(atom(1))
    assert not conservativeness_check(conj(atom(1), Neg(atom(1))))


def test_conservativeness_matches_tautology():
    rng = random.Random(103)
    both = set()
    for _ in range(15):
        alpha = gen_classical(rng, [1, 2], rng.randint(0, 3))
        taut = is_tautology(alpha)
        assert conservativeness_check(alpha) == taut
        both.add(taut)
    assert both == {True, False}
