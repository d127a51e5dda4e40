"""Classical propositional formulas: evaluation, tautology checking,
essential symbols, algebraic normal form and valuation-identifying formulas.

A valuation of ascending symbols is named by its code, an int whose bit j
is the value of the j-th symbol; every table over valuations is indexed so.

Formulas are immutable trees over verum, atoms, negation and implication;
the other connectives are builders that expand into those primitives.
Observation formulas share the connective walks, given their own negation
and implication classes: :func:`print_connectives`, :func:`leaves` and
:func:`table`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, MissingSymbol, UNotSubset

# The one cap on every table over valuations: truth tables, ANF, DNF atoms,
# the decider's masses and the countermodel basis.
MAX_VALUATION_SYMBOLS = 16


@dataclass(frozen=True, order=True, repr=False)
class PropSymbol:
    """The symbol B<index>, its name also as its repr, so messages show it."""

    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("symbol index must be nonnegative")

    def __repr__(self):
        return f"B{self.index}"

    __str__ = __repr__  # str() skips object.__str__'s call to repr


def node(cls):
    """Declare a formula node: a frozen, slotted dataclass without repr,
    whose ``__hash__`` computes the dataclass's hash of its fields, kept as
    ``_field_hash``, once into the ``_hash`` slot of the node's base.
    Copying or unpickling rebuilds a node from its fields alone, so no fact
    slot is carried over.  Unpickling untrusted bytes is never safe, so
    proof files stay JSON."""
    cls = dataclass(frozen=True, repr=False, slots=True)(cls)
    cls._field_hash = cls.__hash__
    cls.__hash__ = _kept_hash
    return cls


def _kept_hash(self):
    """The hash of the node's fields, computed once per node."""
    h = getattr(self, "_hash", None)
    if h is None:
        h = self._field_hash()
        object.__setattr__(self, "_hash", h)
    return h


class PropFormula:
    """Base class for formula nodes, each declared with :func:`node`.

    A node keeps four facts about itself in private slots, each computed
    from its own fields the first time it is asked and then read back: its
    hash, :meth:`symbols`, :func:`canonical_text` and
    :func:`essential_symbols`.  The slots are no dataclass fields, so
    ``==``, ``repr`` and ``dataclasses.replace`` ignore them, and a node
    made by its constructor or by ``replace``, or copied or unpickled,
    starts with none filled.  ``decide.check_proof`` trusts what they
    hold."""

    __slots__ = ("_hash", "_symbols", "_text", "_essential")

    def symbols(self):
        out = getattr(self, "_symbols", None)
        if out is None:
            out = frozenset(leaf.symbol for leaf in leaves(self) if isinstance(leaf, Atom))
            object.__setattr__(self, "_symbols", out)
        return out

    def __and__(self, other):
        return conj(self, other)

    def __or__(self, other):
        return disj(self, other)

    def __invert__(self):
        return Neg(self)

    def __rshift__(self, other):
        return Impl(self, other)

    def __str__(self):
        return print_prop(self)

    def __repr__(self):
        return f"<PropFormula {print_prop(self)}>"


@node
class Verum(PropFormula):
    pass


@node
class Atom(PropFormula):
    symbol: PropSymbol


@node
class Neg(PropFormula):
    child: PropFormula


@node
class Impl(PropFormula):
    left: PropFormula
    right: PropFormula


VERUM = Verum()
FALSUM = Neg(VERUM)


def atom(index):
    return Atom(PropSymbol(index))


def conj(a, b):
    return Neg(Impl(a, Neg(b)))


def disj(a, b):
    return Impl(Neg(a), b)


def iff(a, b):
    return conj(Impl(a, b), Impl(b, a))


def conj_all(formulas):
    """Right-nested conjunction; verum for the empty sequence."""
    formulas = list(formulas)
    if not formulas:
        return VERUM
    out = formulas[-1]
    for f in reversed(formulas[:-1]):
        out = conj(f, out)
    return out


def leaves(f, neg=Neg, impl=Impl):
    """The distinct leaves of ``f``, built from the node classes ``neg`` and
    ``impl``: each node of neither class, in first-occurrence order.  One
    walk that expands each inner node once, however many parents share it."""
    found = {}  # leaf -> None, in first-occurrence order
    walked = {}  # id(node) -> node for the inner nodes; holding the node keeps its id unique
    stack = [f]
    while stack:
        node = stack.pop()
        if not isinstance(node, (neg, impl)):
            found[node] = None
        elif id(node) not in walked:
            walked[id(node)] = node
            stack += (node.child,) if isinstance(node, neg) else (node.right, node.left)
    return list(found)


def check_budget(symbols, what):
    """Raise BudgetExceeded when ``symbols`` are past the valuation budget."""
    if len(symbols) > MAX_VALUATION_SYMBOLS:
        raise BudgetExceeded(
            f"{what}: {len(symbols)} symbols exceeds budget {MAX_VALUATION_SYMBOLS}"
        )


def _column(n, i):
    """The truth table column of the i-th of n symbols: bit k is set iff
    the symbol is true in the valuation of code k, whose bit i it is."""
    width = 1 << i
    block = ((1 << width) - 1) << width
    return (1 << (1 << n)) // ((1 << 2 * width) - 1) * block


def table(f, letters, neg=Neg, impl=Impl):
    """The truth table of ``f``, built from the node classes ``neg`` and
    ``impl``, over the sequence ``letters`` as one int: bit k is its value
    under the valuation of code k, whose bit j is the j-th letter's value.
    An ``Atom`` reads its symbol's column and ``Verum`` is true; any other
    leaf is a letter, and KeyError is raised if it is missing.  One walk,
    each node one bitwise operation; the caller bounds ``letters``."""
    n = len(letters)
    full = (1 << (1 << n)) - 1
    columns = {s: _column(n, i) for i, s in enumerate(letters)}

    def walk(node):
        if isinstance(node, Atom):
            return columns[node.symbol]
        if isinstance(node, neg):
            return full ^ walk(node.child)
        if isinstance(node, impl):
            return (full ^ walk(node.left)) | walk(node.right)
        if isinstance(node, Verum):
            return full
        return columns[node]

    return walk(f)


def truth_table(f, syms):
    """:func:`table` of the classical ``f`` over the ascending ``syms``."""
    try:
        return table(f, sorted(syms))
    except KeyError as e:
        if isinstance(e.args[0], PropSymbol):
            raise MissingSymbol(f"valuation does not cover {e.args[0]}") from None
        raise TypeError(f"not a formula node: {e.args[0]!r}") from None


def _true_sets(table, syms):
    """The set bits of a table over the ascending ``syms``, each as the
    set of symbols its valuation makes true."""
    n = len(syms)
    bits = format(table, f"0{1 << n}b")[::-1]
    return frozenset(
        frozenset(s for i, s in enumerate(syms) if k >> i & 1)
        for k, bit in enumerate(bits) if bit == "1"
    )


def is_tautology(f):
    syms = f.symbols()
    check_budget(syms, "is_tautology")
    return truth_table(f, syms) == (1 << (1 << len(syms))) - 1


@dataclass(frozen=True)
class AnfPoly:
    """GF(2) multilinear polynomial: a set of monomials, each a set of
    symbols; the empty monomial is the constant 1."""

    monomials: frozenset

    def __str__(self):
        if not self.monomials:
            return "0"
        parts = []
        for m in sorted(self.monomials, key=lambda m: (len(m), sorted(m))):
            parts.append("*".join(str(s) for s in sorted(m)) if m else "1")
        return " + ".join(parts)


def _anf_table(f):
    """``f``'s symbols, ascending, and its truth table over them."""
    syms = sorted(f.symbols())
    check_budget(syms, "anf")
    return syms, truth_table(f, syms)


def anf(f):
    """Zhegalkin polynomial of ``f`` via the Moebius transform of its
    truth table: per symbol, every entry where it is true xors in the
    entry where it is false, one shift and mask on the whole table.  The
    variables of the result are exactly the essential symbols of ``f``."""
    syms, coeffs = _anf_table(f)
    n = len(syms)
    full = (1 << (1 << n)) - 1
    for i in range(n):
        coeffs ^= (coeffs & (full ^ _column(n, i))) << (1 << i)
    return AnfPoly(_true_sets(coeffs, syms))


def essential_symbols(f):
    """Essential symbols of ``f``, the variables of its ANF: those whose
    two cofactors differ in the truth table.  Computed once per node."""
    ess = getattr(f, "_essential", None)
    if ess is None:
        syms, table = _anf_table(f)
        n = len(syms)
        full = (1 << (1 << n)) - 1
        # the entry where s is true sits 2^i bits above the one where it is false
        ess = frozenset(
            s for i, s in enumerate(syms)
            if ((table >> (1 << i)) ^ table) & (full ^ _column(n, i))
        )
        object.__setattr__(f, "_essential", ess)
    return ess


def phi_A_U(a_set, u_set):
    """The formula identifying, among valuations on ``a_set``, the one that
    makes exactly the symbols in ``u_set`` true.  Verum when ``a_set`` is
    empty.  Conjunction order is ascending symbol index."""
    a_set = frozenset(a_set)
    u_set = frozenset(u_set)
    if not u_set <= a_set:
        raise UNotSubset(f"{sorted(u_set)} is not a subset of {sorted(a_set)}")
    if not a_set:
        return VERUM
    lits = []
    for s in sorted(a_set):
        lit = Atom(s) if s in u_set else Neg(Atom(s))
        lits.append(lit)
    return conj_all(lits)


# -- printing ----------------------------------------------------------------

# precedence levels of the connectives, loosest first; both formula sorts
# print through print_connectives with this one table
PREC_IFF, PREC_IMPL, PREC_OR, PREC_AND, PREC_NEG = range(5)


def print_connectives(f, ctx, leaf, neg, impl, sep=" "):
    """Render ``f``, built from the node classes ``neg`` and ``impl``, at
    precedence ``ctx`` with the fewest parentheses: ``<->``, ``&`` and
    ``|`` sugar is re-folded, ``<->`` is left- and ``->`` right-associative.
    ``leaf(node, ctx)`` renders atoms and any other sugar of the sort, and
    returns None for a bare connective."""
    s = leaf(f, ctx)
    if s is not None:
        return s
    rest = (leaf, neg, impl, sep)  # recursing directly: one frame per level
    if (isinstance(f, neg) and isinstance(f.child, impl) and isinstance(f.child.left, impl)
            and f.child.right == neg(impl(f.child.left.right, f.child.left.left))):
        a = print_connectives(f.child.left.left, PREC_IFF, *rest)
        s = f"{a}{sep}<->{sep}{print_connectives(f.child.left.right, PREC_IFF + 1, *rest)}"
        return f"({s})" if ctx > PREC_IFF else s
    if isinstance(f, neg) and isinstance(f.child, impl) and isinstance(f.child.right, neg):
        a = print_connectives(f.child.left, PREC_AND, *rest)
        s = f"{a}{sep}&{sep}{print_connectives(f.child.right.child, PREC_NEG, *rest)}"
        return f"({s})" if ctx > PREC_AND else s
    if isinstance(f, impl) and isinstance(f.left, neg):
        a = print_connectives(f.left.child, PREC_OR + 1, *rest)
        s = f"{a}{sep}|{sep}{print_connectives(f.right, PREC_OR, *rest)}"
        return f"({s})" if ctx > PREC_OR else s
    if isinstance(f, neg):
        return f"!{print_connectives(f.child, PREC_NEG, *rest)}"
    if isinstance(f, impl):
        a = print_connectives(f.left, PREC_IMPL + 1, *rest)
        s = f"{a}{sep}->{sep}{print_connectives(f.right, PREC_IMPL, *rest)}"
        return f"({s})" if ctx > PREC_IMPL else s
    raise TypeError(f"not a formula node: {f!r}")


def _leaf(f, ctx):
    if isinstance(f, Verum):
        return "T"
    if f == FALSUM:
        return "F"
    if isinstance(f, Atom):
        return str(f.symbol)
    return None


def print_prop(f, spaced=True):
    """Render a formula in the surface grammar.  Conjunction and
    disjunction sugar is re-folded so output stays readable; the result
    reparses to a structurally identical tree."""
    return print_connectives(f, PREC_IFF, _leaf, Neg, Impl, " " if spaced else "")


def canonical_text(f):
    """Compact, whitespace-free rendering; used as the identity of
    probability variables indexed by formulas.  Computed once per node."""
    text = getattr(f, "_text", None)
    if text is None:
        text = print_prop(f, spaced=False)
        object.__setattr__(f, "_text", text)
    return text
