"""Generic finite-dimensional structures and the witness-to-countermodel
map.

A generic structure over an ordered symbol set B' with declared
incompatible pairs nc and a mass distribution over the valuations of B'
lives in dimension 2^|B'| + 2|nc|: one basis vector per valuation of B'
plus two extra vectors per incompatible pair.  The quantum variable for a
symbol projects onto the valuation vectors satisfying it; on each
incompatible pair's two extra dimensions, the smaller-indexed symbol of
the pair gets the projector onto (|ovl> + |udl>)/sqrt(2) and the larger
gets the projector onto |udl>, which is what makes exactly the declared
pairs non-commuting.  Pairs not involving the symbol contribute the
identity on their block.

The mass normalization is stated as a unit square root of the mass sum,
which is equivalent to the masses summing to one; the latter is what the
spec stores and validates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import SpecInvalid, WitnessIncomplete, verify
from .hilbert import (
    Matrix, Pqv, QuantumStructure, StateVector, czero, expect_type, satisfies, symbol_of
)
from .scalars import C_ONE, C_ZERO, ComplexScalar, RAD_ZERO, RadicalScalar, parse_rational
from .syntax import Assignment
from .translate import DecideSystem, NumericVar, PairVar, constraints_hold, eval_rcof, translate_formula


@dataclass(frozen=True)
class GenericModelSpec:
    """symbols: ascending tuple of PropSymbol; nc: frozenset of 2-element
    frozensets over symbols; masses: tuple of 2^|symbols| nonnegative
    rationals summing to 1, each a Fraction or an int (not a bool), indexed
    by valuation code (bit j of the code is the value of the j-th symbol).
    :meth:`make` reads masses from texts and other numbers."""

    symbols: tuple
    nc: frozenset
    masses: tuple

    def __post_init__(self):
        for a, b in zip(self.symbols, self.symbols[1:]):
            if not a < b:
                raise SpecInvalid(f"symbol {a} named twice" if a == b else "symbols must ascend")
        if len(self.masses) != 1 << len(self.symbols):
            raise SpecInvalid(
                f"need {1 << len(self.symbols)} masses, got {len(self.masses)}"
            )
        for m in self.masses:
            if type(m) is bool or not isinstance(m, (int, Fraction)):
                raise SpecInvalid(f"mass {m!r} is not an exact rational")
        if any(m < 0 for m in self.masses):
            raise SpecInvalid("masses must be nonnegative")
        if sum((m for m in self.masses if m), Fraction(0)) != 1:
            raise SpecInvalid("masses must sum to 1")
        base = set(self.symbols)
        for pair in self.nc:
            if len(pair) != 2 or not pair <= base:
                raise SpecInvalid(f"malformed nc pair {sorted(pair)}")

    @staticmethod
    def make(symbols, nc, masses):
        """Normalize the masses, each a rational or its text; the symbols keep their order."""
        fractions = []
        for m in masses:
            try:
                fractions.append(parse_rational(m))
            except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                raise SpecInvalid(f"bad mass {m!r}") from None
        return GenericModelSpec(
            tuple(symbols),
            frozenset(frozenset(p) for p in nc),
            tuple(fractions),
        )


def _nc_order(spec):
    """Deterministic pair order; pair t occupies coordinates
    2^n + 2t (ovl) and 2^n + 2t + 1 (udl)."""
    return sorted(tuple(sorted(p)) for p in spec.nc)


def build_generic(spec):
    """The structure I^{B', nc, f} with amplitudes sqrt(mass)."""
    n = len(spec.symbols)
    nc_list = _nc_order(spec)
    dim = (1 << n) + 2 * len(nc_list)
    half = ComplexScalar.real(Fraction(1, 2))

    pqvs = {}
    for j, s in enumerate(spec.symbols):
        rows = [{k: C_ONE} if (k >> j) & 1 else {} for k in range(1 << n)]
        for lo, hi in nc_list:
            o = len(rows)
            u = o + 1
            if s == lo:
                rows += [{o: half, u: half}, {o: half, u: half}]
            elif s == hi:
                rows += [{}, {u: C_ONE}]
            else:
                rows += [{o: C_ONE}, {u: C_ONE}]
        pqvs[s] = Pqv(Matrix(rows))

    amps = [ComplexScalar(RadicalScalar.sqrt_of(mass), RAD_ZERO) if mass else C_ZERO
            for mass in spec.masses]
    amps += [C_ZERO] * (2 * len(nc_list))
    state = StateVector(dim, tuple(amps))
    return QuantumStructure(dim, state, pqvs)


def commutator_witness(structure, pair):
    """The exact commutator matrix of the projectors of ``pair``, one or
    two symbols; the zero matrix iff the pair is compatible."""
    symbols = tuple(pair)
    if len(symbols) not in (1, 2):
        raise SpecInvalid(
            f"a commutator takes one or two symbols, not {len(symbols)}: "
            f"({', '.join(map(str, symbols))})"
        )
    a, b = (structure.pqv(s).projector for s in (symbols[0], symbols[-1]))
    return (a @ b - b @ a).dense(czero(structure.tol is None))


def spec_from_json(doc):
    try:
        symbols = expect_type(doc["symbols"], list, "symbols")
        nc = expect_type(doc["nc"], list, "nc")
        masses = expect_type(doc["masses"], list, "masses")
    except KeyError as e:
        raise SpecInvalid(f"generic spec missing field {e.args[0]!r}") from None

    return GenericModelSpec.make(
        [symbol_of(s) for s in symbols],
        [[symbol_of(s) for s in expect_type(p, list, "an nc pair")] for p in nc],
        masses,
    )


def spec_to_json(spec):
    return {
        "generic": {
            "symbols": [str(s) for s in spec.symbols],
            "nc": [[str(s) for s in p] for p in _nc_order(spec)],
            "masses": [str(m) for m in spec.masses],
        }
    }


def structure_of_witness(base, system, witness):
    """The generic structure (plus assignment) over the ascending ``base``
    that a feasible witness of the decider's ``system`` describes.  The
    witness's fit to that system is not re-checked here; the spec, each
    projector's legality and the state's norm are.  The symbols of the
    system's ``A_P`` are among ``base``: each valuation of ``A_P`` keeps its
    mass, with every other symbol false, and the other valuations of
    ``base`` have none.

    Returns (structure, assignment, spec).
    """
    codes = [0]  # codes[k]: the code over base of the valuation of code k over A_P
    for bit in [1 << base.index(s) for s in system.a_p]:
        codes += [c | bit for c in codes]
    placed = [0] * (1 << len(base))
    for code, var in zip(codes, system.masses):
        if var not in witness:
            raise WitnessIncomplete(f"witness missing mass variable {var}")
        placed[code] = witness[var]
    nc = frozenset(
        frozenset(pair) for pair in combinations(base, 2)
        if witness.get(PairVar.of(*pair), 0) > 0
    )
    spec = GenericModelSpec(tuple(base), nc, tuple(placed))
    rho = Assignment(
        {v.k: val for v, val in witness.items() if isinstance(v, NumericVar)}
    )
    return build_generic(spec), rho, spec


def model_from_witness(phi, witness):
    """``structure_of_witness`` for a witness from outside the decider: its
    fit to the decider's system for ``phi`` and the satisfaction
    equivalence are verified.  That system bounds no pair variable, so
    each of the witness's is checked nonnegative here, as ``Q`` bounds it."""
    system = DecideSystem.of(phi)
    if not constraints_hold([c for _, c in system.rows()], witness) or any(
        value < 0 for v, value in witness.items() if isinstance(v, PairVar)
    ):
        raise SpecInvalid("witness does not satisfy the distribution system")
    structure, rho, spec = structure_of_witness(system.base, system, witness)
    verify(
        satisfies(structure, rho, phi) == eval_rcof(translate_formula(phi), witness),
        "witness-to-structure map broke the satisfaction equivalence",
    )
    return structure, rho, spec
