import json
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from plqo import hilbert
from plqo.errors import DimMismatch, IncompatibleFamily, MissingSymbol, SpecInvalid
from plqo.genmodel import GenericModelSpec, build_generic
from plqo.hilbert import (
    Matrix,
    Pqv,
    QuantumStructure,
    StateVector,
    adams_check,
    compatible,
    czero,
    is_observable,
    load_structure,
    prob,
    satisfies,
    structure_from_json,
)
from plqo.prop import (
    FALSUM,
    Impl,
    PropSymbol,
    VERUM,
    atom,
    conj,
    disj,
    iff,
    Neg,
)
from plqo.scalars import C_ONE, C_ZERO, ComplexScalar, RAD_ZERO, RadicalScalar
from plqo.syntax import (
    EMPTY_ASSIGNMENT,
    ObsAtom,
    PImpl,
    PNeg,
    ProbAtom,
    fraction,
    numeral,
    term_of_fraction,
)

from formgen import gen_classical, gen_plqo, rotated_structure
from oracles import (
    all_valuations,
    dense_compatible,
    dense_is_observable,
    dense_prob,
    dense_projector_defect,
    dense_satisfies,
    eval_formula,
    identity,
    inner,
    mat_sub,
    mat_vec,
    matrices_equal_by_subtraction,
    sparse_dagger,
    sparse_matrices_equal,
    up_projector,
)


def diagonal_structure(masses, nsym):
    """nc-free generic structure: diagonal projectors, rational masses."""
    spec = GenericModelSpec.make(
        [PropSymbol(i) for i in range(1, nsym + 1)], [], masses
    )
    return build_generic(spec)


UNIFORM2 = diagonal_structure([Fraction(1, 4)] * 4, 2)


def test_state_vector_must_be_unit():
    with pytest.raises(SpecInvalid):
        StateVector(2, (C_ONE, C_ONE))
    with pytest.raises(DimMismatch):
        StateVector(3, (C_ONE, C_ZERO))


def test_pqv_must_be_projector():
    not_idempotent = ((C_ONE, C_ONE), (C_ONE, C_ONE))
    with pytest.raises(SpecInvalid):
        Pqv(not_idempotent)
    half = ComplexScalar.real(Fraction(1, 2))
    i_half = ComplexScalar(RadicalScalar.rational(0), RadicalScalar.rational(Fraction(1, 2)))
    not_hermitian = ((half, i_half), (i_half, half))
    with pytest.raises(SpecInvalid):
        Pqv(not_hermitian)
    # a genuine rank-1 projector onto (1,1)/sqrt(2)
    ok = Pqv(((half, half), (half, half)))
    assert ok.dim == 2


def test_structure_mixes_no_arithmetic():
    """Exact and float parts never meet in one structure; float parts of
    another tolerance still do."""
    exact_state, float_state = StateVector(1, (C_ONE,)), StateVector(1, (1 + 0j,), 1e-9)
    exact_pqv, float_pqv = Pqv(((C_ONE,),)), Pqv(((1 + 0j,),), 1e-9)
    for state, pqv, tol in [
        (exact_state, float_pqv, None),
        (exact_state, exact_pqv, 1e-9),
        (float_state, exact_pqv, 1e-9),
    ]:
        with pytest.raises(SpecInvalid, match="exact or all in tolerance mode"):
            QuantumStructure(1, state, {PropSymbol(1): pqv}, tol)
    loose = QuantumStructure(1, float_state, {PropSymbol(1): Pqv(((1 + 0j,),), 1e-6)}, 1e-9)
    assert abs(prob(loose, atom(1)) - 1) < 1e-9


def test_structure_and_state_dimensions_must_match():
    with pytest.raises(DimMismatch, match="state dimension"):
        QuantumStructure(2, StateVector(1, (C_ONE,)), {})


def test_compatible_trivia():
    p = UNIFORM2.pqv(PropSymbol(1))
    q = UNIFORM2.pqv(PropSymbol(2))
    assert compatible(p, p)
    assert compatible(p, q)
    with pytest.raises(DimMismatch):
        compatible(p, Pqv(((C_ONE,),)))


def test_is_observable_verum_and_singletons():
    assert is_observable(UNIFORM2, VERUM)
    assert is_observable(UNIFORM2, atom(1))
    assert is_observable(UNIFORM2, conj(atom(1), atom(2)))
    with pytest.raises(MissingSymbol):
        is_observable(UNIFORM2, atom(9))


def test_prob_basics():
    assert prob(UNIFORM2, VERUM) == RadicalScalar.rational(1)
    assert prob(UNIFORM2, conj(atom(1), Neg(atom(1)))) == RadicalScalar.rational(0)
    assert prob(UNIFORM2, atom(1)) == RadicalScalar.rational(Fraction(1, 2))
    assert prob(UNIFORM2, conj(atom(1), atom(2))) == RadicalScalar.rational(Fraction(1, 4))


def test_prob_uniform_single_symbol():
    s = diagonal_structure([Fraction(1, 2), Fraction(1, 2)], 1)
    assert prob(s, atom(1)) == RadicalScalar.rational(Fraction(1, 2))


def test_prob_incompatible_family_errors():
    spec = GenericModelSpec.make(
        [PropSymbol(1), PropSymbol(2)],
        [[PropSymbol(1), PropSymbol(2)]],
        [Fraction(1, 4)] * 4,
    )
    s = build_generic(spec)
    with pytest.raises(IncompatibleFamily):
        prob(s, conj(atom(1), atom(2)))


def test_prob_essential_vs_full_family():
    """An inessential symbol with an incompatible projector: the
    probability is taken over the essential family."""
    spec = GenericModelSpec.make(
        [PropSymbol(1), PropSymbol(2)],
        [[PropSymbol(1), PropSymbol(2)]],
        [Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0)],
    )
    s = build_generic(spec)
    # B1 & (B2 | !B2) mentions B2 but B2 is inessential
    alpha = conj(atom(1), disj(atom(2), Neg(atom(2))))
    assert prob(s, alpha) == RadicalScalar.rational(Fraction(1, 2))
    assert satisfies(
        s, EMPTY_ASSIGNMENT, ProbAtom(alpha, "=", fraction(1, 2))
    )


def test_partition_property():
    base = [PropSymbol(1), PropSymbol(2)]
    total = RadicalScalar.rational(0)
    for v in all_valuations(base):
        from plqo.prop import phi_A_U

        u = frozenset(s for s in base if v[s])
        total = total + prob(UNIFORM2, phi_A_U(base, u))
    assert total == RadicalScalar.rational(1)


def test_prob_order_independence():
    s = diagonal_structure([Fraction(k, 28) for k in (1, 2, 3, 4, 5, 6, 0, 7)], 3)
    base = [PropSymbol(1), PropSymbol(2), PropSymbol(3)]
    alpha = disj(conj(atom(1), atom(2)), atom(3))
    reference = prob(s, alpha)
    # permuting the product order leaves the value unchanged
    for perm in permutations(base):
        total = C_ZERO
        for v in all_valuations(base):
            if eval_formula(alpha, v):
                ident = identity(s.dim)
                vec = s.state.amps
                for sym in perm:
                    p = up_projector(s.pqv(sym))
                    q = p if v[sym] else mat_sub(ident, p)
                    vec = mat_vec(q, vec)
                total = total + inner(s.state.amps, vec)
        assert total.im.is_zero() and total.re == reference


def test_prob_depends_only_on_truth_table():
    rng = random.Random(61)
    for _ in range(30):
        f = gen_classical(rng, [1, 2], rng.randint(1, 3))
        g = Neg(Neg(f))
        if f.symbols() == g.symbols():
            assert prob(UNIFORM2, f) == prob(UNIFORM2, g)


def test_complementarity():
    rng = random.Random(67)
    one = RadicalScalar.rational(1)
    for _ in range(30):
        f = gen_classical(rng, [1, 2], rng.randint(0, 3))
        assert prob(UNIFORM2, f) + prob(UNIFORM2, Neg(f)) == one


def test_satisfies_connectives_and_abbreviation():
    phi = ObsAtom(atom(1))
    assert satisfies(UNIFORM2, EMPTY_ASSIGNMENT, phi)
    assert not satisfies(UNIFORM2, EMPTY_ASSIGNMENT, PNeg(phi))
    # !psi is semantically the same as psi -> (P(T) < 1)
    falsum = ProbAtom(VERUM, "<", numeral(1))
    rng = random.Random(71)
    from formgen import gen_plqo

    for _ in range(40):
        psi = gen_plqo(rng, [1, 2], rng.randint(0, 2))
        assert satisfies(UNIFORM2, EMPTY_ASSIGNMENT, PNeg(psi)) == satisfies(
            UNIFORM2, EMPTY_ASSIGNMENT, PImpl(psi, falsum)
        )


def test_prob_atom_requires_observability():
    spec = GenericModelSpec.make(
        [PropSymbol(1), PropSymbol(2)],
        [[PropSymbol(1), PropSymbol(2)]],
        [Fraction(1, 4)] * 4,
    )
    s = build_generic(spec)
    alpha = conj(atom(1), atom(2))
    assert not satisfies(s, EMPTY_ASSIGNMENT, ObsAtom(alpha))
    # any probability claim on an unobservable formula is false
    for cmp, q in (("=", fraction(1, 4)), ("<", numeral(2))):
        assert not satisfies(s, EMPTY_ASSIGNMENT, ProbAtom(alpha, cmp, q))


def test_adams_principles_on_diagonal_structures():
    rng = random.Random(73)
    s = diagonal_structure([Fraction(k, 10) for k in (1, 2, 3, 4)], 2)
    samples = []
    for _ in range(25):
        samples.append(
            (gen_classical(rng, [1, 2], rng.randint(0, 3)),
             gen_classical(rng, [1, 2], rng.randint(0, 3)))
        )
    samples.append((VERUM, VERUM))
    samples.append((atom(1), Neg(atom(1))))
    samples.append((conj(atom(1), atom(2)), atom(1)))
    assert adams_check(s, samples) == []


# tolerance mode: B1 and B2 project on the two basis vectors, masses 0.36 and 0.64
FLOAT2 = structure_from_json(
    {"dim": 2, "state": [0.6, 0.8], "pqvs": {"B1": [[1.0, 0], [0, 0]], "B2": [[0, 0], [0, 1.0]]}}
)


def test_adams_principles_in_tolerance_mode():
    assert FLOAT2.tol is not None
    b1, b2 = atom(1), atom(2)
    samples = [(VERUM, VERUM), (b1, Neg(b1)), (b1, b2), (conj(b1, b2), b1), (b1, disj(b1, b2))]
    assert adams_check(FLOAT2, samples) == []


@pytest.mark.parametrize("structure", [UNIFORM2, FLOAT2], ids=["exact", "tolerance"])
def test_adams_check_reports_each_principle(monkeypatch, structure):
    """A correct prob on a compatible family keeps P1-P4, so a wrong one
    stands in: each principle it breaks is reported in its own words."""
    b1, b2 = atom(1), atom(2)
    wrong = {VERUM: Fraction(1, 2), b1: Fraction(1, 4), conj(b1, b2): Fraction(3, 4),
             Neg(b1): Fraction(2), disj(Neg(b1), b1): Fraction(1, 2)}
    value = RadicalScalar.rational if structure.tol is None else float
    monkeypatch.setattr(hilbert, "prob", lambda s, alpha: value(wrong[alpha]))
    half, two, sum_ = (str(value(q)) for q in (Fraction(1, 2), Fraction(2), Fraction(9, 4)))
    assert adams_check(structure, [(VERUM, b1), (conj(b1, b2), b1), (b1, Neg(b1))]) == [
        f"P2: P(T) = {half} for a tautology",
        "P3: P(B1 & B2) > P(B1) despite entailment",
        f"P1: P(!B1) = {two} out of range",
        f"P4: P(!B1 | B1) = {half} but P+P = {sum_}",
    ]


def test_adams_check_requires_compatibility():
    spec = GenericModelSpec.make(
        [PropSymbol(1), PropSymbol(2)],
        [[PropSymbol(1), PropSymbol(2)]],
        [Fraction(1, 4)] * 4,
    )
    with pytest.raises(IncompatibleFamily):
        adams_check(build_generic(spec), [(VERUM, VERUM)])


# -- file format --------------------------------------------------------------


def test_structure_json_exact():
    doc = {
        "dim": 2,
        "state": ["1/2*sqrt(2)", "1/2*sqrt(2)"],
        "pqvs": {"B1": [["1", "0"], ["0", "0"]]},
    }
    s = structure_from_json(doc)
    assert s.tol is None
    assert prob(s, atom(1)) == RadicalScalar.rational(Fraction(1, 2))


def test_structure_json_complex_pairs():
    doc = {
        "dim": 2,
        "state": [["0", "1/2*sqrt(2)"], ["1/2*sqrt(2)", "0"]],
        "pqvs": {"B1": [["0", "0"], ["0", "1"]]},
    }
    s = structure_from_json(doc)
    assert prob(s, atom(1)) == RadicalScalar.rational(Fraction(1, 2))


def test_structure_json_float_mode():
    doc = {
        "dim": 2,
        "state": [0.7071067811865476, 0.7071067811865476],
        "pqvs": {"B1": [[1.0, 0.0], [0.0, 0.0]]},
    }
    s = structure_from_json(doc)
    assert s.tol is not None
    assert abs(prob(s, atom(1)) - 0.5) < 1e-9
    assert satisfies(s, EMPTY_ASSIGNMENT, ProbAtom(atom(1), "=", fraction(1, 2)))


_FLOAT_B1 = {"dim": 2, "state": [0.6, 0.8], "pqvs": {"B1": [[1.0, 0.0], [0.0, 0.0]]}}


def test_tolerance_mode_decides_constants_beyond_float_range():
    """P(B1) = 0.36: a constant past float range is no error, P(B1) lies
    below the positive one and equals neither."""
    s = structure_from_json(_FLOAT_B1)
    huge = 10**400
    for q, less in [(huge, True), (-huge, False), (Fraction(huge, 3), True), (-huge - 1, False)]:
        term = term_of_fraction(q)
        assert satisfies(s, EMPTY_ASSIGNMENT, ProbAtom(atom(1), "<", term)) is less
        assert satisfies(s, EMPTY_ASSIGNMENT, ProbAtom(atom(1), "=", term)) is False
    # in range, the comparison still rounds as floats do: 0.6 ** 2 is 0.36 within 1e-9
    assert satisfies(s, EMPTY_ASSIGNMENT, ProbAtom(atom(1), "=", fraction(9, 25)))
    assert not satisfies(s, EMPTY_ASSIGNMENT, ProbAtom(atom(1), "<", fraction(9, 25)))


@pytest.mark.parametrize(
    "entry, named",
    [
        ("1e400", "'1e400'"),
        (10**400, "1" + "0" * 400),
        (["0", "-1e400*sqrt(2)"], "'-1e400*sqrt(2)'"),
    ],
    ids=["text", "integer", "imaginary-radical"],
)
def test_tolerance_mode_entry_beyond_float_range_is_spec_invalid(entry, named):
    with pytest.raises(SpecInvalid, match="beyond float range") as e:
        structure_from_json(dict(_FLOAT_B1, state=[0.6, entry]))
    assert f"scalar {named} is" in str(e.value)
    # in an exact structure the same entry is a number like any other
    with pytest.raises(SpecInvalid, match="not a unit vector"):
        structure_from_json({"dim": 2, "state": ["3/5", entry], "pqvs": {}})


def test_structure_json_generic_shorthand(tmp_path):
    doc = {
        "generic": {
            "symbols": ["B1"],
            "nc": [],
            "masses": ["1/2", "1/2"],
        }
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    s = load_structure(path)
    assert prob(s, atom(1)) == RadicalScalar.rational(Fraction(1, 2))


def test_structure_json_rejects_garbage():
    with pytest.raises(SpecInvalid):
        structure_from_json({"dim": 1, "state": ["1"], "pqvs": {"Q1": [["1"]]}})
    with pytest.raises(SpecInvalid):
        structure_from_json({"state": ["1"], "pqvs": {}})


# -- sparse matrices against the dense reference -------------------------------


def _cscalar(z):
    """An exact complex scalar from a (re, im) pair of rationals."""
    return ComplexScalar(RadicalScalar.rational(z[0]), RadicalScalar.rational(z[1]))


def _gaussian_vector(rng, dim):
    while True:
        v = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(dim)]
        if any(z != (0, 0) for z in v):
            return v


def _rank1_projector(v):
    """|v><v| / <v|v> with rational complex entries, as (re, im) pairs."""
    norm = sum(a * a + b * b for a, b in v)
    return [
        [(Fraction(a * c + b * d, norm), Fraction(b * c - a * d, norm)) for c, d in v]
        for a, b in v
    ]


def _rank1_block(rng, k):
    """A rank-1 projector on k coordinates with an entry off its diagonal."""
    while True:
        block = _rank1_projector(_gaussian_vector(rng, k))
        if any(block[i][j] != (0, 0) for i in range(k) for j in range(k) if i != j):
            return block


def _random_projector(rng, dim):
    if rng.random() < 0.5:
        ones = [rng.random() < 0.5 for _ in range(dim)]
        return [[(Fraction(int(i == j and ones[i])), Fraction(0)) for j in range(dim)]
                for i in range(dim)]
    return _rank1_projector(_gaussian_vector(rng, dim))


def _corrupt(rng, m):
    """A copy of m that is no longer Hermitian, or Hermitian but not
    idempotent, or unchanged but for an entry below the float tolerance."""
    m = [list(row) for row in m]
    dim = len(m)
    i, j = rng.randrange(dim), rng.randrange(dim)
    kind = rng.choice(["asym", "herm", "tiny"])
    if kind == "asym" and dim > 1:
        j = (i + 1) % dim
        m[i][j] = (m[i][j][0] + Fraction(1, 3), m[i][j][1])
    elif kind == "tiny":
        m[i][j] = (m[i][j][0] + Fraction(1, 10**12), m[i][j][1])
    else:
        m[i][i] = (m[i][i][0] + Fraction(1, 3), m[i][i][1])
    return m


def _beside_diagonal(rng, dim, at, block):
    """A dim x dim matrix holding ``block`` on the coordinates ``at`` and
    0 or 1 on the diagonal elsewhere."""
    ones = [rng.random() < 0.5 for _ in range(dim)]
    m = [[(Fraction(int(i == j and ones[i])), Fraction(0)) for j in range(dim)]
         for i in range(dim)]
    for a, i in enumerate(at):
        for b, j in enumerate(at):
            m[i][j] = block[a][b]
    return m


def _complement(block):
    return [[(int(i == j) - re, -im) for j, (re, im) in enumerate(row)]
            for i, row in enumerate(block)]


def _block_doc(rng, nsym, exact):
    """A structure document whose projectors are diagonal beside one
    shared 3x3 or 4x4 block: a fixed rank-1 projector there, its
    complement, a fresh random projector, or the identity or zero on the
    block."""
    k = rng.choice([3, 4])
    dim = k + rng.randint(1, 3)
    at = sorted(rng.sample(range(dim), k))
    shared = _rank1_block(rng, k)
    zero = [[(Fraction(0), Fraction(0))] * k for _ in range(k)]

    def projector(rng, dim):
        fresh = _random_projector(rng, k)
        block = rng.choice([shared, _complement(shared), fresh, zero, _complement(zero)])
        return _beside_diagonal(rng, dim, at, block)

    return _file_doc(rng, nsym, exact, dim, projector)


def _file_doc(rng, nsym, exact, dim=None, projector=_random_projector):
    """A structure document with complex entries: a unit state with
    radical amplitudes and per-symbol projectors from ``projector``,
    diagonal or rank-1 by default."""
    dim = dim or rng.randint(2, 4)
    v = _gaussian_vector(rng, dim)
    scale = RadicalScalar.sqrt_of(Fraction(1, sum(a * a + b * b for a, b in v)))

    def entry(re, im):
        if exact:
            return [str(re), str(im)]
        return [float(re), float(im)]

    state = [entry(scale * a, scale * b) for a, b in v]
    pqvs = {
        f"B{k}": [[entry(*z) for z in row] for row in projector(rng, dim)]
        for k in range(1, nsym + 1)
    }
    return {"dim": dim, "state": state, "pqvs": pqvs}


def _random_generic(rng, nsym):
    symbols = [PropSymbol(i) for i in range(1, nsym + 1)]
    nc = [p for p in combinations(symbols, 2) if rng.random() < 0.4]
    weights = [rng.randint(0, 3) for _ in range(1 << nsym)]
    weights[0] += 1
    total = sum(weights)
    spec = GenericModelSpec.make(symbols, nc, [Fraction(w, total) for w in weights])
    return build_generic(spec)


def _outcome(f, *args):
    """f's result, or IncompatibleFamily if it raised that."""
    try:
        return f(*args)
    except IncompatibleFamily:
        return IncompatibleFamily


def _legality(m, exact):
    """What Pqv and the dense reference each say of the matrix ``m``, of
    (re, im) pairs: None, "not Hermitian" or "not idempotent"."""
    tol = None if exact else 1e-9
    dense = tuple(
        tuple(_cscalar(z) if exact else complex(*map(float, z)) for z in row) for row in m
    )
    try:
        Pqv(dense, tol)
        got = None
    except SpecInvalid as e:
        got = str(e).removeprefix("projector is ")
    return got, dense_projector_defect(dense, tol)


def _named_legality_cases(rng):
    """(matrix, defect in exact mode, defect in tolerance mode) for a
    projector with a 3x3 or 4x4 block beside diagonal rows, and for
    mutants of it that only the off-diagonal rows or only the rows that
    are their diagonal show."""
    k = rng.choice([3, 4])
    dim = k + 2
    at = sorted(rng.sample(range(dim), k))
    legal = _beside_diagonal(rng, dim, at, _rank1_block(rng, k))
    i, j = next((i, j) for i in at for j in at if i != j and legal[i][j] != (0, 0))
    d = next(r for r in range(dim) if r not in at)
    legal[d][d] = (Fraction(1), Fraction(0))
    cases = [(legal, None, None)]

    def mutant(r, c, z, exact_defect, tolerance_defect):
        m = [list(row) for row in legal]
        m[r][c] = z
        cases.append((m, exact_defect, tolerance_defect))

    re, im = legal[i][j]
    mutant(i, j, (re + Fraction(1, 3), im), "not Hermitian", "not Hermitian")
    mutant(i, j, (re, im + Fraction(1, 10**12)), "not Hermitian", None)
    mutant(d, d, (Fraction(1, 2), Fraction(0)), "not idempotent", "not idempotent")
    mutant(i, d, (Fraction(1, 3), Fraction(0)), "not Hermitian", "not Hermitian")
    mutant(d, d, (Fraction(1), Fraction(1, 10**6)), "not Hermitian", "not Hermitian")
    mutant(d, d, (Fraction(1), Fraction(1, 10**12)), "not Hermitian", None)
    return cases


def test_projector_legality_matches_dense_reference():
    rng = random.Random(131)
    seen = set()
    for _ in range(120):
        m = _random_projector(rng, rng.randint(1, 4))
        if rng.random() < 0.7:
            m = _corrupt(rng, m)
        for exact in (True, False):
            got, defect = _legality(m, exact)
            assert got == defect
            seen.add((exact, defect))
    # both rejections and acceptance occur in both modes
    for exact in (True, False):
        for defect in (None, "not Hermitian", "not idempotent"):
            assert (exact, defect) in seen
    # blocks wider than 2x2 beside diagonal rows, random mutants of them,
    # and named mutants: one wrong entry off the diagonal, a diagonal row
    # of 1/2, a diagonal row whose column holds an entry in another row,
    # and a non-real diagonal
    for _ in range(30):
        k = rng.choice([3, 4])
        dim = k + rng.randint(1, 3)
        m = _beside_diagonal(rng, dim, sorted(rng.sample(range(dim), k)), _random_projector(rng, k))
        if rng.random() < 0.7:
            m = _corrupt(rng, m)
        for exact in (True, False):
            got, defect = _legality(m, exact)
            assert got == defect
        for m, exact_defect, tolerance_defect in _named_legality_cases(rng):
            for exact, want in ((True, exact_defect), (False, tolerance_defect)):
                assert _legality(m, exact) == (want, want)


def test_sparse_semantics_match_dense_reference():
    rng = random.Random(137)
    structures = [_random_generic(rng, rng.randint(1, 4)) for _ in range(16)]
    for exact in (True, False):
        for _ in range(10):
            structures.append(structure_from_json(_file_doc(rng, 3, exact)))
    # blocks wider than 2x2 beside diagonal rows, shared by every projector
    first_block = len(structures)
    for exact in (True, False):
        for _ in range(10):
            structures.append(structure_from_json(_block_doc(rng, 3, exact)))
    incompatible = compatible_seen = 0
    block_outcomes = set()
    for n, s in enumerate(structures):
        tol = s.tol
        symbols = sorted(s.pqvs)
        for a, b in combinations(symbols, 2):
            pa, pb = s.pqv(a), s.pqv(b)
            sparse = compatible(pa, pb, tol)
            assert sparse == dense_compatible(up_projector(pa), up_projector(pb), tol)
            compatible_seen += sparse
            incompatible += not sparse
            if n >= first_block:
                block_outcomes.add((tol is None, sparse))
        idx = [x.index for x in symbols]
        for _ in range(4):
            alpha = gen_classical(rng, idx, rng.randint(0, 3))
            assert is_observable(s, alpha) == dense_is_observable(s, alpha)
            x = _outcome(prob, s, alpha)
            y = _outcome(dense_prob, s, alpha)
            if x is IncompatibleFamily or y is IncompatibleFamily:
                assert x is y
            else:
                assert x == y if tol is None else abs(x - y) <= tol
            phi = gen_plqo(rng, idx, rng.randint(0, 2))
            assert satisfies(s, EMPTY_ASSIGNMENT, phi) == dense_satisfies(
                s, EMPTY_ASSIGNMENT, phi
            )
    assert incompatible > 0 and compatible_seen > 0
    assert block_outcomes == {(True, True), (True, False), (False, True), (False, False)}
    # one wrong entry off the diagonal, within a projector's own looser
    # tolerance, is seen by the structure's
    for _ in range(20):
        doc = _block_doc(rng, 1, False)
        legal = [[complex(*z) for z in row] for row in doc["pqvs"]["B1"]]
        m = [list(row) for row in legal]
        i, j = rng.sample(range(len(m)), 2)
        m[i][j] += 1e-7j
        p, q = Pqv(tuple(map(tuple, legal)), 1e-9), Pqv(tuple(map(tuple, m)), 1e-6)
        for a, b in ((p, q), (q, p), (q, q)):
            assert compatible(a, b, 1e-9) == dense_compatible(up_projector(a), up_projector(b), 1e-9)


def _deep(leaves, left):
    """Implications nested ``leaves`` deep, to the left or to the right."""
    out = leaves[0]
    for leaf in leaves[1:]:
        out = Impl(out, leaf) if left else Impl(leaf, out)
    return out


_B1, _B2, _B3, _B9 = atom(1), atom(2), atom(3), atom(9)
_LEAVES = [_B1, Neg(_B2), _B3, Neg(_B1), _B2, FALSUM, Neg(_B3), _B1, VERUM, Neg(_B2)]
# No structure below has a quantum variable for B9.
PROB_SHAPES = {
    "inessential": [
        conj(_B1, disj(_B2, Neg(_B2))), Impl(_B3, _B3), disj(_B1, Impl(_B9, _B9)),
        conj(_B2, Neg(conj(_B9, Neg(_B9)))), Impl(conj(_B9, Neg(_B9)), _B3),
        conj(Impl(_B2, _B2), Impl(_B1, conj(_B3, disj(_B9, Neg(_B9))))),
    ],
    "verum-falsum": [
        VERUM, FALSUM, Neg(FALSUM), Impl(_B1, FALSUM), Impl(VERUM, _B2), Impl(FALSUM, _B1),
        conj(_B1, VERUM), disj(FALSUM, _B3), Neg(Impl(_B2, VERUM)), conj(Neg(_B1), Impl(_B3, FALSUM)),
    ],
    "iff": [
        iff(_B1, _B2), iff(_B1, Neg(_B3)), iff(iff(_B1, _B2), _B3), iff(_B1, _B1),
        iff(_B2, iff(_B3, Neg(_B2))), conj(iff(_B1, _B2), iff(_B2, _B3)),
    ],
    "deep-implication": [
        _deep(_LEAVES, left) if k == 0 else Neg(_deep(_LEAVES[k:], left))
        for left in (False, True) for k in range(4)
    ] + [_deep([_B1, _B2, _B3, _B1, _B2], False), _deep([_B3, _B1, _B2, _B3], True)],
}


def _shape_structures():
    """Exact structures over B1..B3 with distinct, non-uniform masses."""
    rng = random.Random(151)
    out = [diagonal_structure([Fraction(k, 36) for k in range(1, 9)], 3)]
    out += [build_generic(GenericModelSpec.make(
        [PropSymbol(i) for i in (1, 2, 3)], nc, [Fraction(k, 36) for k in (8, 1, 7, 2, 6, 3, 5, 4)]
    )) for nc in ([[PropSymbol(1), PropSymbol(3)]], [[PropSymbol(2), PropSymbol(3)]])]
    out += [rotated_structure(rng, 3, 4, frames) for frames in (1, 1, 2, 2)]
    return out


@pytest.mark.parametrize("shape", sorted(PROB_SHAPES))
def test_prob_matches_dense_reference_on_named_shapes(shape):
    """The walk of alpha against the paper's sum over valuations, exactly,
    on inessential symbols (B9 has no quantum variable), T and F leaves,
    <-> and deep implications."""
    values = set()
    for s in _shape_structures():
        for alpha in PROB_SHAPES[shape]:
            x = _outcome(prob, s, alpha)
            assert x == _outcome(dense_prob, s, alpha), (shape, alpha)
            values.add(x)
    # every shape meets values other than 0 and 1, and an unobservable family
    assert IncompatibleFamily in values
    assert len(values - {IncompatibleFamily, RadicalScalar.rational(0), RadicalScalar.rational(1)}) > 5


def test_compatible_on_a_projector_hermitian_only_within_tolerance():
    """EF against FE agrees with the dense check of both products on float
    projectors that are Hermitian only within a tolerance: one whose
    adjoint differs from it by less than the structure's tolerance, and
    one accepted at a looser tolerance of its own, which still commutes
    with itself."""
    tol = 1e-9
    p = Pqv(((0.5 + 0j, 0.5 + 3e-12j), (0.5 + 0j, 0.5 + 0j)), tol)
    assert not sparse_matrices_equal(p.projector, sparse_dagger(p.projector))
    commuting = Pqv(((0.5 + 0j, -0.5 + 0j), (-0.5 + 0j, 0.5 + 0j)), tol)
    diagonal = Pqv(((1 + 0j, 0j), (0j, 0j)), tol)
    for q, commutes in ((p, True), (commuting, True), (diagonal, False)):
        for a, b in ((p, q), (q, p)):
            assert compatible(a, b, tol) is commutes
            assert dense_compatible(up_projector(a), up_projector(b), tol) is commutes
    loose = Pqv(((0.5 + 0j, 0.5 + 1e-7j), (0.5 + 0j, 0.5 + 0j)), 1e-6)
    b1, b2 = PropSymbol(1), PropSymbol(2)
    s = QuantumStructure(2, StateVector(2, (1 + 0j, 0j), tol), {b1: loose, b2: loose}, tol)
    pa, pb = s.pqv(b1), s.pqv(b2)
    assert compatible(pa, pb, s.tol) is dense_compatible(up_projector(pa), up_projector(pb), s.tol)
    assert compatible(pa, pb, s.tol) is True
    alpha = conj(atom(1), atom(2))
    assert is_observable(s, alpha) and dense_is_observable(s, alpha)
    # observable, so prob gets as far as the value, whose imaginary part
    # (5e-8) exceeds the structure's tolerance
    with pytest.raises(SpecInvalid, match="non-real"):
        prob(s, alpha)


def test_generic_structure_beyond_dense_reach():
    """Eight symbols and two incompatible pairs: dimension 260, where each
    dense projector check would need about 10^8 exact products."""
    rng = random.Random(139)
    symbols = [PropSymbol(i) for i in range(1, 9)]
    weights = [rng.randint(1, 4) for _ in range(256)]
    masses = [Fraction(w, sum(weights)) for w in weights]
    spec = GenericModelSpec.make(
        symbols, [[PropSymbol(1), PropSymbol(2)], [PropSymbol(3), PropSymbol(4)]], masses
    )
    s = build_generic(spec)
    assert s.dim == 260
    assert not is_observable(s, conj(atom(1), atom(2)))
    assert not is_observable(s, disj(atom(3), atom(4)))
    assert is_observable(s, conj(conj(atom(1), atom(3)), conj(atom(5), atom(8))))
    # B5 & B8 holds on the valuation codes with bits 4 and 7 set
    expected = sum((m for code, m in enumerate(masses) if code & 0b10010000 == 0b10010000),
                   Fraction(0))
    assert prob(s, conj(atom(5), atom(8))) == RadicalScalar.rational(expected)


# -- exact matrix equality by canonical rows -------------------------------------

_HALF = ComplexScalar.real(Fraction(1, 2))
_ENTRIES = [
    C_ONE,
    -C_ONE,
    _HALF,
    -_HALF,
    ComplexScalar(RAD_ZERO, RadicalScalar.rational(1)),
    ComplexScalar.real(RadicalScalar.sqrt_of(2)),
    ComplexScalar.real(-RadicalScalar.sqrt_of(2)),
]


def _sparse(rng, dim, density):
    return Matrix(
        {j: rng.choice(_ENTRIES) for j in range(dim) if rng.random() < density}
        for _ in range(dim)
    )


def test_exact_equality_matches_subtraction_on_random_sparse_matrices():
    rng = random.Random(149)
    verdicts = set()
    cancelled = 0
    for _ in range(300):
        dim = rng.randint(1, 4)
        a, b, c = (_sparse(rng, dim, rng.choice([0.3, 0.6, 1.0])) for _ in range(3))
        ab, ba = a @ b, b @ a
        # an entry whose terms cancel is absent from the product
        cancelled += sum(
            1 for i, row in enumerate(ab.rows) for j in range(dim)
            if j not in row and any(j in b.rows[k] for k in a.rows[i])
        )
        for x, y in ((ab, ba), (ab, c), (a, sparse_dagger(sparse_dagger(a))), (ab @ c, a @ (b @ c))):
            want = matrices_equal_by_subtraction(x, y)
            assert sparse_matrices_equal(x, y) == want
            verdicts.add(want)
    assert verdicts == {True, False}
    assert cancelled > 20


def test_exact_equality_of_products_that_cancel_to_zero():
    # P (I - P) = 0 for the projector P onto (|0> + |1>)/sqrt(2)
    p = Matrix([{0: _HALF, 1: _HALF}, {0: _HALF, 1: _HALF}])
    q = Matrix([{0: _HALF, 1: -_HALF}, {0: -_HALF, 1: _HALF}])
    zero = Matrix([{}, {}])
    assert (p @ q).rows == ({}, {})
    assert sparse_matrices_equal(p @ q, zero) and matrices_equal_by_subtraction(p @ q, zero)
    assert sparse_matrices_equal(p @ p, p)
    assert not sparse_matrices_equal(p, q)


def _apply_case(rng, exact):
    """A Matrix of empty rows, one-entry rows and one 2x2 or 3x3 block, and
    a sparse vector; entries are signed rationals times sqrt(1), sqrt(2)
    or sqrt(3), some with an imaginary part.  A block row lists its
    columns in ascending order, the dense product's order, so float sums
    agree to the last bit."""
    dim = rng.randint(3, 8)
    at = sorted(rng.sample(range(dim), rng.choice([2, 3])))

    def scalar():
        re, im = (RadicalScalar.rational(Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3)))
                  * RadicalScalar.sqrt_of(rng.choice([1, 2, 3])) for _ in range(2))
        z = ComplexScalar(re, im if rng.random() < 0.3 else RAD_ZERO)
        return z if exact else complex(z)

    rows = [{} for _ in range(dim)]
    for i in range(dim):
        if i in at:
            rows[i] = {j: scalar() for j in at}
        elif rng.random() < 0.5:
            rows[i] = {rng.randrange(dim): scalar()}
    vec = {k: scalar() for k in rng.sample(range(dim), rng.randint(1, dim))}
    return Matrix(rows), vec


def test_apply_matches_the_dense_product():
    """``Matrix.apply`` skips the rows that meet no entry of the vector,
    empty rows included; every other row is the dense product's, and no
    entry of the result is zero.  Each matrix is applied to its case's
    vector and to one entry of it, whose support misses most rows."""
    rng = random.Random(163)
    shapes, missed = set(), 0
    for exact in (True, False):
        for _ in range(150):
            m, vec = _apply_case(rng, exact)
            zero = czero(exact)
            for v in (vec, dict([rng.choice(list(vec.items()))])):
                dense_vec = tuple(v.get(k, zero) for k in range(m.dim))
                want = {i: x for i, x in enumerate(mat_vec(m.dense(zero), dense_vec)) if x}
                got = m.apply(v, zero)
                assert got == want
                assert all(got.values())
                missed += sum(1 for row in m.rows if row and not row.keys() & v.keys())
            shapes.update(len(row) for row in m.rows)
    assert shapes == {0, 1, 2, 3} and missed > 300
    # a block row whose products cancel leaves no entry
    half = ComplexScalar.real(Fraction(1, 2))
    p = Matrix([{0: half, 1: -half}, {}, {2: C_ONE}])
    assert p.apply({0: half, 1: half}, C_ZERO) == {}
    assert p.apply({0: C_ONE, 2: half}, C_ZERO) == {0: half, 2: half}
    assert Matrix([{0: 0.5, 1: -0.5}, {}]).apply({0: 1j, 1: 1j}, 0j) == {}


def test_exact_equality_needs_equal_dimensions():
    one, two = Matrix([{0: C_ONE}]), Matrix([{0: C_ONE}, {1: C_ONE}])
    assert not sparse_matrices_equal(one, two) and not sparse_matrices_equal(two, one)
    assert not sparse_matrices_equal(Matrix([{}]), Matrix([{}, {}]))
    assert not sparse_matrices_equal(Matrix([{}]), Matrix([{}, {}]), 1e-9)


def test_explicit_zero_entries_are_dropped():
    with_zeros = Matrix([{0: C_ONE, 1: C_ZERO}, {0: C_ZERO, 1: C_ZERO}])
    assert with_zeros.rows == ({0: C_ONE}, {})
    assert sparse_matrices_equal(with_zeros, Matrix([{0: C_ONE}, {}]))
    assert Pqv(((C_ONE, C_ZERO), (C_ZERO, C_ZERO))).projector.rows == ({0: C_ONE}, {})


def test_exact_projector_laws_still_checked():
    s2 = RadicalScalar.sqrt_of(2)
    with pytest.raises(SpecInvalid, match="not idempotent"):
        Pqv(Matrix([{0: _HALF}]))
    with pytest.raises(SpecInvalid, match="not idempotent"):
        Pqv(Matrix([{0: C_ONE, 1: C_ZERO}, {1: C_ONE * ComplexScalar.real(s2)}]))
    with pytest.raises(SpecInvalid, match="not Hermitian"):
        Pqv(Matrix([{1: C_ONE}, {}]))
    i_half = ComplexScalar(RAD_ZERO, RadicalScalar.rational(Fraction(1, 2)))
    with pytest.raises(SpecInvalid, match="not Hermitian"):
        Pqv(Matrix([{0: _HALF, 1: i_half}, {0: i_half, 1: _HALF}]))
    # the same matrix with the adjoint's sign is a projector
    Pqv(Matrix([{0: _HALF, 1: i_half}, {0: -i_half, 1: _HALF}]))
