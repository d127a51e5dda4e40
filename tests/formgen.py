"""Seeded random generators for classical and observation-logic
formulas, shared across test modules."""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

from plqo.parser import parse_plqo
from plqo.prop import Atom, Impl, Neg, PropSymbol, VERUM, conj, disj
from plqo.syntax import NumVar, ObsAtom, PImpl, PNeg, ProbAtom, term_of_fraction


def gen_classical(rng, symbols, depth):
    """A random classical formula over the given symbol indices."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.08:
            return VERUM
        return Atom(PropSymbol(rng.choice(symbols)))
    kind = rng.choice(["neg", "impl", "conj", "disj"])
    a = gen_classical(rng, symbols, depth - 1)
    if kind == "neg":
        return Neg(a)
    b = gen_classical(rng, symbols, depth - 1)
    return {"impl": Impl, "conj": conj, "disj": disj}[kind](a, b)


def gen_rational(rng, max_den=4):
    den = rng.randint(1, max_den)
    num = rng.randint(0, den)
    return Fraction(num, den)


def gen_term(rng, allow_vars=False):
    t = term_of_fraction(gen_rational(rng))
    if allow_vars and rng.random() < 0.3:
        t = t + NumVar(rng.randint(1, 3))
    return t


def gen_atom(rng, symbols, depth=2, allow_vars=False):
    alpha = gen_classical(rng, symbols, depth)
    if rng.random() < 0.5:
        return ObsAtom(alpha)
    cmp = rng.choice(["=", "<"])
    return ProbAtom(alpha, cmp, gen_term(rng, allow_vars))


def gen_plqo(rng, symbols, depth, atom_depth=2, allow_vars=False):
    """A random observation-logic formula."""
    if depth == 0 or rng.random() < 0.3:
        return gen_atom(rng, symbols, atom_depth, allow_vars)
    if rng.random() < 0.4:
        return PNeg(gen_plqo(rng, symbols, depth - 1, atom_depth, allow_vars))
    return PImpl(
        gen_plqo(rng, symbols, depth - 1, atom_depth, allow_vars),
        gen_plqo(rng, symbols, depth - 1, atom_depth, allow_vars),
    )


def conj_text(n):
    return " & ".join(f"B{i}" for i in range(1, n + 1))


def prob_ladder(n):
    """Valid: n symbols in Q, two of them under P."""
    return parse_plqo(f"(O({conj_text(n)}) & P(B1 & B{n}) = 1/3) -> P(B1) >= 1/3")


def obs_ladder(n):
    """Invalid, with a countermodel of dimension 2^n + 2."""
    return parse_plqo(f"O(B1 & B2) -> O({conj_text(n)})")


def chain(n, valid):
    """P(B1) = 1 and P(Bi -> Bi+1) = 1 along the chain, then P(Bn) = 1
    (valid) or P(Bn & B1) < 1 (invalid): every symbol is under P."""
    links = [f"P(B{i} -> B{i + 1}) = 1" for i in range(1, n)]
    concl = f"P(B{n}) = 1" if valid else f"P(B{n} & B1) < 1"
    return parse_plqo(f"({' & '.join(['P(B1) = 1'] + links)}) -> {concl}")


def iff_chain(n, valid):
    """P(B1) = 1/2 and P(Bi <-> Bi+1) = 1 along the chain, then P(Bn) = 1/2
    (valid) or P(Bn) = 1/3 (invalid)."""
    links = [f"P(B{i} <-> B{i + 1}) = 1" for i in range(1, n)]
    concl = "1/2" if valid else "1/3"
    return parse_plqo(f"({' & '.join(['P(B1) = 1/2'] + links)}) -> P(B{n}) = {concl}")


def random_feasible_point(rng, base, delta, extra_pairs_positive=False):
    """A feasible point of q_adams(base, delta), built independently of
    the solver: draw a random joint distribution over the base and derive
    every marginal, formula and pair variable from it."""
    from itertools import combinations

    from oracles import valuation_sets
    from plqo.translate import PairVar

    base = sorted(base)
    weights = [Fraction(rng.randint(0, 5)) for _ in range(1 << len(base))]
    if sum(weights) == 0:
        weights[0] = Fraction(1)
    total = sum(weights)
    joint = {u: w / total for u, w in zip(valuation_sets(base), weights)}
    values = distribution_point(base, joint, delta)
    for s1, s2 in combinations(base, 2):
        if extra_pairs_positive and rng.random() < 0.5:
            values[PairVar.of(s1, s2)] = Fraction(rng.randint(1, 3), 2)
        else:
            values[PairVar.of(s1, s2)] = Fraction(0)
    return values


def distribution_point(base, joint, delta):
    """The values q_adams(base, delta) gives its mass, marginal and
    formula variables under ``joint``, a map from each valuation of
    ``base`` (the set it makes true) to its mass."""
    from itertools import combinations

    from oracles import all_valuations, eval_formula, set_mass_var
    from plqo.translate import ProbVar

    values = {}
    for r in range(len(base) + 1):
        for a_sub in combinations(sorted(base), r):
            a_sub = frozenset(a_sub)
            for r2 in range(len(a_sub) + 1):
                for u_sub in combinations(sorted(a_sub), r2):
                    u_sub = frozenset(u_sub)
                    values[set_mass_var(a_sub, u_sub)] = sum(
                        (m for u, m in joint.items() if u & a_sub == u_sub),
                        Fraction(0),
                    )
    for alpha in delta:
        b_alpha = frozenset(alpha.symbols())
        acc = Fraction(0)
        for v in all_valuations(b_alpha):
            if eval_formula(alpha, v):
                u = frozenset(s for s in b_alpha if v[s])
                acc += values[set_mass_var(b_alpha, u)]
        values[ProbVar.of(alpha)] = acc
    return values


def rational_rotation(rng, dim):
    """A rational orthogonal matrix, as a list of rows: the Cayley
    transform (I - S)(I + S)^-1 of a random rational skew-symmetric S,
    whose I + S is always invertible."""
    s = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            s[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            s[j][i] = -s[i][j]
    eye = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    # Gauss-Jordan on [I + S | I - S] leaves (I + S)^-1 (I - S), the same matrix
    rows = [[eye[i][j] + s[i][j] for j in range(dim)] + [eye[i][j] - s[i][j] for j in range(dim)]
            for i in range(dim)]
    for c in range(dim):
        p = next(r for r in range(c, dim) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(dim):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[dim:] for row in rows]


def rotated_structure(rng, nsym, dim, frames):
    """A random exact structure that genmodel does not build.  Each of
    B1..B<nsym> projects onto a random set of columns of one of ``frames``
    rational rotations, of rank between 1 and dim - 1 (symbols that share
    a rotation commute), and the state is a column of one more rotation."""
    from plqo.hilbert import Pqv, QuantumStructure, StateVector
    from plqo.scalars import ComplexScalar

    rotations = [rational_rotation(rng, dim) for _ in range(frames + 1)]
    col = rng.randrange(dim)
    state = StateVector(dim, tuple(ComplexScalar.real(row[col]) for row in rotations[-1]))
    pqvs = {}
    for i in range(1, nsym + 1):
        q = rng.choice(rotations[:-1])
        cols = rng.sample(range(dim), rng.randint(1, dim - 1))
        pqvs[PropSymbol(i)] = Pqv(tuple(
            tuple(ComplexScalar.real(sum((a[k] * b[k] for k in cols), Fraction(0))) for b in q)
            for a in q
        ))
    return QuantumStructure(dim, state, pqvs)


def perfbench_workloads():
    """``perfbench/workloads.py`` as a module, imported without writing
    bytecode into ``perfbench/``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
        del sys.modules[spec.name]
    return module
