"""Finite-dimensional quantum interpretation structures.

A structure carries a unit state vector and, per propositional symbol, a
propositional quantum variable represented by its induced projector.
Compatibility is commutation of projectors; a classical formula is
observable when its essential symbols form a pairwise-compatible family.
The commuting projectors of such a family generate a Boolean algebra, in
which an observable formula alpha denotes a projector E_alpha, and its
probability is <psi|E_alpha psi>, the paper's sum over the satisfying
valuations of alpha's essential symbols.

Scalars are exact (ComplexScalar) by default.  Structures loaded from
files with floating-point entries use builtin complex arithmetic with a
tolerance instead.  Either way projectors are held as sparse Matrix rows,
and their legality and commutation are checked on the rows that hold an
entry off the diagonal: a row that is only its diagonal is legal iff its
entry is real and idempotent, and commutes with any other such row.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (
    DimMismatch,
    IncompatibleFamily,
    MissingSymbol,
    SpecInvalid,
)
from .prop import Atom, Impl, Neg, PropSymbol, Verum, conj, disj, essential_symbols, is_tautology
from .parser import MAX_DIGITS
from .scalars import C_ZERO, ComplexScalar, parse_radical, parse_rational
from .syntax import EMPTY_ASSIGNMENT, Assignment, ObsAtom, PImpl, PNeg, ProbAtom, eval_term

DEFAULT_TOL = 1e-9


# -- sparse exact/float matrices ---------------------------------------------


def czero(exact=True):
    return C_ZERO if exact else 0j


def scalar_is_zero(x, tol=None):
    if tol is None:
        return x.is_zero()
    return abs(x) <= tol


class Matrix:
    """A square matrix held by rows: ``rows[i]`` maps a column index to the
    nonzero scalar there (exact ComplexScalar, or builtin complex in
    tolerance mode); the constructor drops zero entries, so exact
    matrices are canonical, and records in ``off`` the rows that hold an
    entry off the diagonal.  A generic structure is diagonal plus one 2x2
    block per incompatible pair, so its projectors have O(dim) entries
    and ``off`` has two rows per block."""

    __slots__ = ("rows", "off")

    def __init__(self, rows):
        kept, off = [], []
        for i, row in enumerate(rows):
            if not all(row.values()):
                row = {j: x for j, x in row.items() if x}
            if len(row) > (i in row):
                off.append(i)
            kept.append(row)
        self.rows = tuple(kept)
        self.off = frozenset(off)

    @property
    def dim(self):
        return len(self.rows)

    def dense(self, zero):
        """The matrix as a tuple of rows, with ``zero`` in the gaps."""
        return tuple(tuple(row.get(j, zero) for j in range(self.dim)) for row in self.rows)

    def __matmul__(self, other):
        return Matrix(_times(row, other) for row in self.rows)

    def __sub__(self, other):
        return Matrix(_sub(ra, rb) for ra, rb in zip(self.rows, other.rows))

    def apply(self, vec, zero):
        """The product with a vector held as an {index: nonzero scalar} map;
        a row that meets no entry of the vector, an empty one included,
        contributes nothing and costs no sum."""
        out = {}
        support = vec.keys()
        for i, row in enumerate(self.rows):
            if not support.isdisjoint(row):
                y = sum((x * vec[k] for k, x in row.items() if k in vec), zero)
                if y:
                    out[i] = y
        return out


def _times(row, m):
    """The row vector ``row``, an {index: scalar} map, times the Matrix
    ``m``; entries that cancel stay in the map as zeros."""
    out = {}
    for k, x in row.items():
        for j, y in m.rows[k].items():
            out[j] = out[j] + x * y if j in out else x * y
    return out


def _close(x, y, tol):
    """x = y for scalars, exactly (exact scalars are canonical) or within ``tol``."""
    return x == y if tol is None else abs(x - y) <= tol


def _rows_close(u, v, tol):
    """Entrywise equality of two {index: scalar} rows that may hold zeros."""
    if tol is None:
        return {j: x for j, x in u.items() if x} == {j: x for j, x in v.items() if x}
    return all(abs(u.get(j, 0j) - v.get(j, 0j)) <= tol for j in u.keys() | v.keys())


def _sub(u, v):
    """u - v for {index: scalar} maps, without exact zeros."""
    out = dict(u)
    for k, y in v.items():
        d = out.pop(k) - y if k in out else -y
        if d:
            out[k] = d
    return out


# -- structures --------------------------------------------------------------


@dataclass(frozen=True)
class StateVector:
    dim: int
    amps: tuple
    tol: object = None  # None = exact scalars; a float enables tolerance mode

    def __post_init__(self):
        if len(self.amps) != self.dim:
            raise DimMismatch("state length does not match dim")
        norm = sum((x.conjugate() * x for x in self.amps if x), czero(self.tol is None))
        if not scalar_is_zero(norm - 1, self.tol):
            raise SpecInvalid(f"state vector is not a unit vector (|.|^2 = {norm})")


@dataclass(frozen=True)
class Pqv:
    """A propositional quantum variable, carried by its induced projector:
    a Matrix, or a dense tuple of rows that is converted to one.

    The projector must be Hermitian, then idempotent, exactly or within
    ``tol``.  A row whose only entry is its diagonal d needs only d real
    and d*d = d; each row in ``off`` is checked entry by entry against its
    mirror and against its own row of P*P, so no product is formed."""

    projector: Matrix
    tol: object = None

    def __post_init__(self):
        m = self.projector
        if not isinstance(m, Matrix):
            if any(len(row) != len(m) for row in m):
                raise DimMismatch("projector is not square")
            m = Matrix(dict(enumerate(row)) for row in m)
            object.__setattr__(self, "projector", m)
        rows, off, tol = m.rows, m.off, self.tol
        zero = czero(tol is None)
        # each distinct scalar object once: a generic structure shares one 1
        diagonal = {id(row[i]): row[i] for i, row in enumerate(rows) if row and i not in off}.values()
        if not (all(_close(d, d.conjugate(), tol) for d in diagonal) and all(
            _close(x, rows[j].get(i, zero).conjugate(), tol) for i in off for j, x in rows[i].items()
        )):
            raise SpecInvalid("projector is not Hermitian")
        if not (all(_close(d * d, d, tol) for d in diagonal)
                and all(_rows_close(_times(rows[i], m), rows[i], tol) for i in off)):
            raise SpecInvalid("projector is not idempotent")

    @property
    def dim(self):
        return self.projector.dim


@dataclass(frozen=True)
class QuantumStructure:
    dim: int
    state: StateVector
    pqvs: dict  # PropSymbol -> Pqv
    tol: object = None

    def __post_init__(self):
        if self.state.dim != self.dim:
            raise DimMismatch("state dimension mismatch")
        for s, p in self.pqvs.items():
            if p.dim != self.dim:
                raise DimMismatch(f"projector for {s} has wrong dimension")
        # float parts may differ in tolerance, but exact and float never mix
        parts = (self.state, *self.pqvs.values())
        if any((part.tol is None) != (self.tol is None) for part in parts):
            raise SpecInvalid("state and projectors must all be exact or all in tolerance mode")

    def pqv(self, symbol):
        try:
            return self.pqvs[symbol]
        except KeyError:
            raise MissingSymbol(f"structure has no quantum variable for {symbol}") from None


def compatible(y1, y2, tol=None):
    """True iff the two induced projectors E and F commute exactly (or
    within ``tol`` in float mode): EF and FE agree on every row in
    ``E.off`` or ``F.off``.  On any other row both are diagonal, so both
    products hold the one entry e*f = f*e there."""
    if y1.dim != y2.dim:
        raise DimMismatch("projectors of different dimension")
    e, f = y1.projector, y2.projector
    return all(_rows_close(_times(e.rows[i], f), _times(f.rows[i], e), tol) for i in e.off | f.off)


def _compatible_family(structure, symbols):
    pqvs = [structure.pqv(s) for s in symbols]
    return all(compatible(p1, p2, structure.tol) for p1, p2 in combinations(pqvs, 2))


def is_observable(structure, alpha):
    """Whether alpha's essential symbols map to a pairwise-compatible
    family; vacuously true for at most one essential symbol."""
    return _compatible_family(structure, sorted(essential_symbols(alpha)))


def _as_real(x, tol):
    if tol is None:
        if not x.im.is_zero():
            raise SpecInvalid(f"probability came out non-real: {x}")
        return x.re
    if abs(x.imag) > tol:
        raise SpecInvalid(f"probability came out non-real: {x}")
    return x.real


def prob(structure, alpha):
    """Probability of alpha in the structure, <psi|E_alpha psi>.  Raises
    IncompatibleFamily iff alpha is not observable.

    E_alpha psi comes from one walk of alpha that carries a polarity:
    E_!f v = v - E_f v and E_!(a -> b) v = E_a (E_!b v), which hold
    because the projectors of alpha's essential symbols commute.  An
    essential atom applies its projector, ``T`` is the identity, and an
    inessential atom, whose truth value cannot change alpha's, reads as
    false."""
    essential = essential_symbols(alpha)
    syms = sorted(essential)
    if not _compatible_family(structure, syms):
        raise IncompatibleFamily(f"symbol family {[str(s) for s in syms]} is not pairwise compatible")
    zero = czero(structure.tol is None)

    def walk(f, vec, positive):
        """E_f vec if ``positive``, else E_!f vec."""
        if isinstance(f, Neg):
            return walk(f.child, vec, not positive)
        if isinstance(f, Impl):
            out = walk(f.left, walk(f.right, vec, False), True)
            return _sub(vec, out) if positive else out
        if isinstance(f, Atom) and f.symbol in essential:
            out = structure.pqv(f.symbol).projector.apply(vec, zero)
        else:
            out = vec if isinstance(f, Verum) else {}
        return out if positive else _sub(vec, out)

    psi = {i: x for i, x in enumerate(structure.state.amps) if x}
    vec = walk(alpha, psi, True)
    return _as_real(sum((psi[k].conjugate() * y for k, y in vec.items() if k in psi), zero),
                    structure.tol)


def _prob_compare(structure, p_value, cmp, q):
    if structure.tol is None:
        return p_value.compares(cmp, q)
    tol = structure.tol
    try:
        q = float(q)
    except OverflowError:  # q lies beyond float range, so compare exactly
        p_value, tol = Fraction(p_value), Fraction(tol)
    if cmp == "=":
        return abs(p_value - q) <= tol
    return p_value < q - tol


def satisfies(structure, rho, phi):
    """The satisfaction relation.  A probability atom holds only when
    alpha is observable, which ``prob`` decides."""
    if isinstance(phi, ObsAtom):
        return is_observable(structure, phi.alpha)
    if isinstance(phi, ProbAtom):
        try:
            value = prob(structure, phi.alpha)
        except IncompatibleFamily:
            return False
        return _prob_compare(structure, value, phi.cmp, eval_term(phi.term, rho))
    if isinstance(phi, PNeg):
        return not satisfies(structure, rho, phi.child)
    if isinstance(phi, PImpl):
        return (not satisfies(structure, rho, phi.left)) or satisfies(
            structure, rho, phi.right
        )
    raise TypeError(f"not a formula node: {phi!r}")


def adams_check(structure, samples):
    """Check the probability-assignment principles on the given (alpha,
    beta) formula pairs; returns a list of violation descriptions (empty
    means all principles hold).

    P1: 0 <= P(alpha) <= 1.  P2: tautologies have probability 1.
    P3: if alpha classically entails beta then P(alpha) <= P(beta).
    P4: if alpha and beta are exclusive then P(alpha|beta) = P(alpha)+P(beta).
    """
    if not _compatible_family(structure, structure.pqvs):
        raise IncompatibleFamily("structure has incompatible quantum variables")

    tol = structure.tol
    slack = 0 if tol is None else tol
    violations = []
    for alpha, beta in samples:
        pa = prob(structure, alpha)
        pb = prob(structure, beta)
        for f, pf in ((alpha, pa), (beta, pb)):
            if not -slack <= pf <= 1 + slack:
                violations.append(f"P1: P({f}) = {pf} out of range")
            if is_tautology(f) and not scalar_is_zero(pf - 1, tol):
                violations.append(f"P2: P({f}) = {pf} for a tautology")
        if is_tautology(Neg(conj(alpha, Neg(beta)))) and not pa <= pb + slack:
            violations.append(f"P3: P({alpha}) > P({beta}) despite entailment")
        if is_tautology(Neg(conj(beta, alpha))):
            por = prob(structure, disj(beta, alpha))
            if not scalar_is_zero(por - (pb + pa), tol):
                violations.append(
                    f"P4: P({beta} | {alpha}) = {por} but P+P = {pb + pa}"
                )
    return violations


# -- file format -------------------------------------------------------------


def expect_type(value, kind, what):
    """``value`` when it is a ``kind`` (a JSON true/false never counts as a
    number), else SpecInvalid naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise SpecInvalid(f"{what} must be of type {kind.__name__}, not {type(value).__name__}")
    return value


def _parse_scalar(raw, exact):
    """One scalar from JSON: rational/radical string or a number; in
    tolerance mode, one beyond float range is a SpecInvalid."""
    if isinstance(raw, str):
        try:
            value = parse_radical(raw)
        except (ValueError, ZeroDivisionError):
            raise SpecInvalid(f"bad scalar {raw!r}") from None
        if exact:
            return ComplexScalar.real(value)
    elif isinstance(raw, (int, float)) and not isinstance(raw, bool):
        value = raw
        if exact and isinstance(raw, int):
            return ComplexScalar.real(raw)
    else:
        raise SpecInvalid(f"not a scalar: {raw!r}")
    try:
        return float(value)
    except OverflowError:
        raise SpecInvalid(f"scalar {raw!r} is beyond float range") from None


def _parse_entry(raw, exact):
    """A complex entry: [re, im] pair or a bare real scalar."""
    if isinstance(raw, list):
        if len(raw) != 2:
            raise SpecInvalid(f"complex entry must be a [re, im] pair: {raw!r}")
        re = _parse_scalar(raw[0], exact)
        im = _parse_scalar(raw[1], exact)
        if exact:
            return ComplexScalar(re.re, im.re)
        return complex(re, im)
    value = _parse_scalar(raw, exact)
    return value if exact else complex(value, 0.0)


def _scan_for_floats(node):
    if isinstance(node, float):
        return True
    if isinstance(node, list):
        return any(_scan_for_floats(x) for x in node)
    if isinstance(node, dict):
        return any(_scan_for_floats(x) for x in node.values())
    return False


def symbol_of(name):
    """The symbol a structure or spec names ``B<k>``; any other value,
    string or not, is a SpecInvalid."""
    if not (isinstance(name, str) and re.fullmatch(rf"B[0-9]{{1,{MAX_DIGITS}}}", name)):
        raise SpecInvalid(f"bad symbol name {name!r}")
    return PropSymbol(int(name[1:]))


def structure_from_json(doc, tol=None):
    """Build a structure from its JSON document.  Floating-point entries
    force tolerance mode (default tolerance if none was given)."""
    expect_type(doc, dict, "a structure document")
    if tol is not None and not (isinstance(tol, (int, float)) and 0 <= tol < math.inf):
        raise SpecInvalid(f"tolerance must be a finite number >= 0, not {tol!r}")
    if "generic" in doc:
        from .genmodel import spec_from_json, build_generic

        return build_generic(spec_from_json(expect_type(doc["generic"], dict, "generic")))
    if tol is None and _scan_for_floats(doc):
        tol = DEFAULT_TOL
    exact = tol is None
    try:
        dim = expect_type(doc["dim"], int, "dim")
        state_raw = expect_type(doc["state"], list, "state")
        pqvs_raw = expect_type(doc["pqvs"], dict, "pqvs")
    except KeyError as e:
        raise SpecInvalid(f"structure file missing field {e.args[0]!r}") from None
    amps = tuple(_parse_entry(x, exact) for x in state_raw)
    state = StateVector(dim, amps, tol)
    pqvs = {}
    for name, rows in pqvs_raw.items():
        rows = expect_type(rows, list, f"projector {name}")
        matrix = tuple(
            tuple(_parse_entry(x, exact) for x in expect_type(row, list, f"a row of {name}"))
            for row in rows
        )
        symbol = symbol_of(name)
        if symbol in pqvs:
            raise SpecInvalid(f"projector {name} names {symbol} a second time")
        pqvs[symbol] = Pqv(matrix, tol)
    return QuantumStructure(dim, state, pqvs, tol)


def read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as e:  # not JSON, or not UTF-8 text
            raise SpecInvalid(f"{path} is not a JSON document: {e}") from None


def load_structure(path, tol=None):
    return structure_from_json(read_json(path), tol)


def assignment_from_json(doc):
    """Rational values of the variables ``x<k>`` from a JSON object: an
    assignment file, or the ``assignment`` member of a model file."""
    expect_type(doc, dict, "an assignment document")
    numeric = {}
    for key, raw in doc.items():
        if not re.fullmatch(rf"x[0-9]{{1,{MAX_DIGITS}}}", key):
            raise SpecInvalid(f"bad assignment variable {key!r}")
        k = int(key[1:])
        if k in numeric:
            raise SpecInvalid(f"assignment variable {key} names x{k} a second time")
        try:
            numeric[k] = parse_rational(raw)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise SpecInvalid(f"bad value of {key}: {raw!r}") from None
    return Assignment(numeric)


def load_assignment(path):
    return assignment_from_json(read_json(path))
