"""The top-level decision procedure.

Validity of a formula is decided by negating it, taking the disjunctive
normal form over its atoms, and refuting every disjunct: a disjunct is
the RCOF sentence deriving the complement of its last literal from the
others, and it is refuted when every case-split branch of its literal
translations is infeasible together with the sentence's own distribution
system.  That system is ``translate.DecideSystem``, over the symbols
under ``P``; it is equisatisfiable with the paper's ``Q`` over all of
``B_phi``, which the proof text still names as ``Q[base;delta]``.  Each
infeasible branch leaves a Farkas certificate in the sentence.  If all
disjuncts are refuted the formula is valid and a proof object is
assembled (one RCOF/RR line pair per disjunct, a tautological glue line,
and modus ponens steps); otherwise the first feasible branch's witness is
turned into a verified finite quantum countermodel.  Satisfiability runs
the same search on the formula itself: a feasible branch is a model, and
refuting every disjunct proves the negation.

The proof checker never runs the solver: it builds each sentence's rows
once, as the search does, reads each row a certificate cites by its name,
and checks one exact linear combination of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, product

from .errors import PlqoError, SchemaPreconditionFailed, VerificationFailed, verify
from . import prop
from .prop import Impl, Neg, atom as prop_atom, conj as prop_conj, is_tautology
from . import syntax as sx
from .syntax import (
    ObsAtom,
    PImpl,
    PNeg,
    PlqoLiteral,
    ProbAtom,
    ONE,
    ZERO,
    is_atom,
    nnf_dnf_literals,
    pconj_all,
    piff,
    prob_ge,
)
from .translate import DecideSystem, translate_literal
from . import lra
from .genmodel import structure_of_witness
from .hilbert import satisfies


# -- RCOF sentences and branch feasibility -----------------------------------


@dataclass(frozen=True)
class RcofSentence:
    """The universally closed implication justifying one RR line: the
    distribution system of the derived implication, joined with the
    premise literals' translations, entails the conclusion literal's
    translation.  That system is built from the literals' atoms
    (:meth:`atoms`), without the implication itself.

    ``certificates`` holds one Farkas certificate per case-split branch of
    :meth:`literals`, in ``product`` order: the (row name, multiplier)
    pairs that refute the branch.  A row name is one of
    :class:`translate.DecideSystem`'s, or ``("literal", k, i)`` for
    constraint i of the k-th literal's disjunct in the branch.
    Certificates are not printed."""

    premise_literals: tuple
    conclusion: PlqoLiteral
    certificates: tuple = ()

    def formula(self):
        """The derived implication itself."""
        concl = self.conclusion.formula()
        if not self.premise_literals:
            return concl
        return PImpl(pconj_all([l.formula() for l in self.premise_literals]), concl)

    def atoms(self):
        """The distinct atoms of the literals, premises then conclusion, in
        first-occurrence order: those of :meth:`formula`."""
        return tuple(dict.fromkeys([l.atom for l in self.premise_literals] + [self.conclusion.atom]))

    def literals(self):
        """The literals refuted together: the premises and the
        conclusion's complement."""
        return self.premise_literals + (self.conclusion.complement(),)

    def __str__(self):
        system = DecideSystem(self.atoms())
        base, delta = ",".join(map(str, system.base)), ",".join(f"({a})" for a in system.delta)
        parts = [f"Q[{base};{delta}]"] + [f"({l.formula()})^R" for l in self.premise_literals]
        concl = f"({self.conclusion.formula()})^R"
        return f"forall (({' & '.join(parts)}) -> {concl})"


def _branches(sent):
    """The case-split branches of the sentence's literal translations, in
    ``product`` order: one disjunct of each literal."""
    return product(*[translate_literal(l) for l in sent.literals()])


def _literal_rows(branch):
    return [(("literal", k, i), c) for k, part in enumerate(branch) for i, c in enumerate(part)]


def _refute(sent):
    """Case-split ``sent``'s literals against its system.  Returns
    ``sent`` carrying one certificate per branch when every branch is
    infeasible, else the first feasible branch's witness with the
    system it satisfies.  Branches are built one at a time, so a feasible
    one ends the split before the rest exist.  A literal with no disjunct
    leaves no branch, and the system is not built."""
    branches = _branches(sent)
    first = next(branches, None)
    if first is None:
        return replace(sent, certificates=())
    system = DecideSystem(sent.atoms())
    premise = system.rows()
    certificates = []
    for branch in chain((first,), branches):
        rows = premise + _literal_rows(branch)
        result = lra.feasible([c for _, c in rows])
        if result:
            return result.witness, system
        certificates.append(tuple((rows[i][0], m) for i, m in result.multipliers))
    return replace(sent, certificates=tuple(certificates))


def check_refutation(cited):
    """Verify a Farkas refutation given as (constraint, multiplier) pairs:
    each inequality's multiplier is nonnegative, every variable cancels
    in the sum of the scaled constraints, and that sum reads ``0 <= c``
    with c < 0, or ``0 < c`` with c <= 0 when a strict constraint has a
    positive multiplier.  Each multiplier must be exact, an int or a
    Fraction: float rounding could cancel a term that does not cancel.
    Raises VerificationFailed otherwise."""
    total = {}
    rhs = 0
    strict = False
    for c, m in cited:
        if type(m) is not int and type(m) is not Fraction:
            raise VerificationFailed(f"multiplier {m!r} on {c} is not an exact rational")
        if c.rel != "=":
            if m < 0:
                raise VerificationFailed(f"negative multiplier {m} on inequality {c}")
            strict = strict or (c.rel == "<" and m > 0)
        for v, a in c.terms:
            total[v] = total.get(v, 0) + m * a
        rhs += m * c.rhs
    verify(not any(total.values()), "the certificate's variables do not cancel")
    verify(
        rhs < 0 or (strict and rhs == 0),
        f"the certificate sums to 0 {'<' if strict else '<='} {rhs}, no contradiction",
    )
    return True


def _check_certificates(sent):
    """Each case-split branch of ``sent`` refuted by its own certificate.
    The sentence's system and each branch's literal rows are built once,
    and each cited row is read from them by its name: a tuple of exact
    ``str`` and ``int`` parts, so that no ``True``, ``1.0`` or ``int``
    subclass, which equal and hash as an ``int``, matches a name."""
    system = dict(DecideSystem(sent.atoms()).rows())
    branches = list(_branches(sent))
    certificates = sent.certificates
    verify(type(certificates) is tuple, "the certificates are not a tuple")
    verify(
        len(certificates) == len(branches),
        f"{len(certificates)} certificates for {len(branches)} branches",
    )
    for branch, certificate in zip(branches, certificates):
        verify(type(certificate) is tuple, "a certificate is not a tuple")
        literal_rows = dict(_literal_rows(branch))
        cited = []
        for entry in certificate:
            if not (type(entry) is tuple and len(entry) == 2 and type(entry[0]) is tuple):
                raise VerificationFailed(f"{entry!r} is not a (row name, multiplier) pair")
            name, m = entry
            row = None
            if all(type(part) is str or type(part) is int for part in name):
                row = system.get(name) or literal_rows.get(name)
            if row is None:
                raise VerificationFailed(f"no row of the system is named {name}")
            cited.append((row, m))
        check_refutation(cited)


# -- proof objects -----------------------------------------------------------


@dataclass(frozen=True)
class ProofLine:
    number: int
    content: object  # PlqoFormula or RcofSentence
    kind: str  # TT | MP | RR | RCOF | HYP
    refs: tuple = ()

    def justification(self):
        if self.kind in ("TT", "RCOF", "HYP"):
            return self.kind
        return f"{self.kind} {','.join(str(r) for r in self.refs)}"

    def render(self):
        return f"{self.number:>3}  {self.content}  [{self.justification()}]"


@dataclass(frozen=True)
class Proof:
    lines: tuple
    hypotheses: tuple = ()

    def conclusion(self):
        return self.lines[-1].content

    def render(self):
        return "\n".join(line.render() for line in self.lines)

    def to_json(self):
        return {
            "hypotheses": [str(h) for h in self.hypotheses],
            "lines": [
                {
                    "n": line.number,
                    "formula": str(line.content),
                    "justification": line.justification(),
                }
                for line in self.lines
            ],
        }


def letters_formula(f):
    """Abstract a formula's atoms into fresh propositional letters, so
    tautology of the skeleton can be decided by truth tables."""
    mapping = {}

    def conv(node):
        if is_atom(node):
            if node not in mapping:
                mapping[node] = prop_atom(len(mapping))
            return mapping[node]
        if isinstance(node, PNeg):
            return Neg(conv(node.child))
        if isinstance(node, PImpl):
            return Impl(conv(node.left), conv(node.right))
        raise VerificationFailed(f"not a formula node: {node!r}")

    return conv(f)


_NODE_FIELDS = {c: tuple(c.__dataclass_fields__) for c in (
    PlqoLiteral, ObsAtom, ProbAtom, PNeg, PImpl, prop.Verum, prop.Atom, Neg, Impl,
    prop.PropSymbol, sx.Const, sx.NumVar, sx.TNeg, sx.Add, sx.Mul,
)}
# Field values of these exact types are leaves the walk skips; a value of a
# subclass is walked like a node and, having no entry in _NODE_FIELDS, rejected
_EXACT_LEAVES = frozenset((bool, str, int, Fraction))


def _exact_nodes(f, seen):
    """Whether each node of ``f`` has exactly one of the classes literals
    and formulas are built from (a subclass could override __eq__ and match
    any formula), and the field values their constructors enforce; ``seen``
    holds the ids of nodes found so, and grows."""
    stack = [f]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            kind = type(node)
            fields = _NODE_FIELDS.get(kind)
            if (
                fields is None
                or kind is ProbAtom and not (type(node.cmp) is str and node.cmp in ("=", "<"))
                or kind is sx.Const and not (type(node.q) is Fraction and node.q >= 0)
            ):
                return False
            seen.add(id(node))
            for name in fields:
                child = getattr(node, name)
                if type(child) not in _EXACT_LEAVES:
                    stack.append(child)
    return True


def check_proof(proof):
    """Independent checker: TT lines by truth table over atom letters, MP
    by shape, RCOF lines by their certificates, RR against the sentence
    it cites, HYP against the declared hypotheses.  It runs no solver.
    Raises VerificationFailed (an AssertionError) on any bad line, and on a
    subclass of a proof, line, sentence, literal or formula node, which
    could override a method such as ``complement`` or ``__eq__``.

    It trusts the facts a formula node keeps in its private slots, filled
    from its own fields when first asked (``prop.PropFormula``): its hash,
    and for a classical formula its symbols, canonical text and essential
    symbols, which the search has mostly filled already.  The constructor
    and ``dataclasses.replace`` start a node with none filled, and so do
    copying and unpickling, which rebuild a node from its fields; a
    subclass is rejected.  Only ``object.__setattr__`` can forge a slot,
    as it can rewrite a frozen field after this check returns.  Unpickling
    untrusted bytes is never safe, whatever this check then says, so proof
    files stay JSON."""
    derived, seen = {}, set()  # the proof holds each node in seen, so their ids stay unique
    verify(
        type(proof) is Proof and type(proof.lines) is tuple and type(proof.hypotheses) is tuple
        and all(_exact_nodes(h, seen) for h in proof.hypotheses),
        "not a Proof with a tuple of lines and a tuple of exact hypotheses",
    )
    for position, line in enumerate(proof.lines, 1):
        if type(line) is not ProofLine:
            raise VerificationFailed(f"line {position} is not a ProofLine")
        if type(line.number) is not int or line.number != position:
            raise VerificationFailed(f"line {position} is numbered {line.number!r}")
        wanted = 1 if line.kind == "RR" else 2 if line.kind == "MP" else 0
        if not (
            type(line.refs) is tuple
            and len(line.refs) == wanted
            and all(type(r) is int and 1 <= r < position for r in line.refs)
        ):
            raise VerificationFailed(
                f"line {position} cites {line.refs!r}, not {wanted} earlier lines"
            )
        if line.kind == "RCOF":
            sent = line.content
            if not (
                type(sent) is RcofSentence
                and type(sent.premise_literals) is tuple
                and all(
                    type(l) is PlqoLiteral and type(l.atom) in (ObsAtom, ProbAtom)
                    and _exact_nodes(l, seen) for l in sent.premise_literals + (sent.conclusion,)
                )
            ):
                raise VerificationFailed(f"RCOF line {line.number} is not a sentence over literals")
            try:
                _check_certificates(sent)
            except (PlqoError, TypeError, AttributeError) as e:
                raise VerificationFailed(f"side condition fails on line {line.number}: {e}") from None
        elif not _exact_nodes(line.content, seen):
            raise VerificationFailed(f"line {position} is not a formula of the exact node classes")
        elif line.kind == "HYP":
            verify(line.content in proof.hypotheses, "undeclared hypothesis")
        elif line.kind == "TT":
            verify(is_tautology(letters_formula(line.content)), f"TT line {position} is no tautology")
        elif line.kind == "RR":
            (ref,) = line.refs
            cited = proof.lines[ref - 1]
            # an earlier RCOF line was checked above, its sentence's shape included
            verify(cited.kind == "RCOF", "RR must cite an RCOF line")
            verify(cited.content.formula() == line.content, "RR formula differs from its sentence")
        elif line.kind == "MP":
            minor, major = line.refs
            impl = derived.get(major)  # an RCOF line derives nothing
            verify(isinstance(impl, PImpl), "MP major premise is not an implication")
            verify(derived.get(minor) == impl.left, "MP minor premise mismatch")
            verify(impl.right == line.content, "MP conclusion mismatch")
        else:
            raise VerificationFailed(f"unknown justification {line.kind}")
        if line.kind != "RCOF":
            derived[line.number] = line.content
    return True


def _assemble_proof(phi, sentences):
    """The completeness-recipe proof of phi, given the sentences that
    refute the disjuncts of its negation."""
    lines = []
    c_lines = []
    n = 1
    for sent in sentences:
        lines.append(ProofLine(n, sent, "RCOF"))
        c_formula = sent.formula()
        lines.append(ProofLine(n + 1, c_formula, "RR", (n,)))
        c_lines.append((n + 1, c_formula))
        n += 2
    glue = phi
    for _, cf in reversed(c_lines):
        glue = PImpl(cf, glue)
    lines.append(ProofLine(n, glue, "TT"))
    major = n
    current = glue
    n += 1
    for cn, _ in c_lines:
        current = current.right
        lines.append(ProofLine(n, current, "MP", (cn, major)))
        major = n
        n += 1
    return Proof(tuple(lines))


# -- verdicts ----------------------------------------------------------------


@dataclass(frozen=True)
class Valid:
    proof: Proof


@dataclass(frozen=True)
class Invalid:
    structure: object
    assignment: object
    spec: object


@dataclass(frozen=True)
class Satisfiable:
    structure: object
    assignment: object
    spec: object


@dataclass(frozen=True)
class Unsatisfiable:
    proof: Proof


def _search(target, conclusion):
    """Refute or satisfy ``target`` by one search: each DNF disjunct of
    ``target`` is case-split against its own sentence's distribution
    system over the symbols under ``P``.
    The first feasible branch gives a model checked to satisfy ``target``, as
    ``(structure, assignment, spec)``; when every disjunct is refuted, the
    checked proof of ``conclusion`` (the negation of ``target`` up to
    double negation) is returned."""
    disjuncts = nnf_dnf_literals(target)
    base = DecideSystem.of(target).base  # checks the symbol budget on B_phi(target)
    sentences = []
    for lits in disjuncts:
        found = _refute(RcofSentence(tuple(lits[:-1]), lits[-1].complement()))
        if not isinstance(found, RcofSentence):
            witness, system = found
            structure, rho, spec = structure_of_witness(base, system, witness)
            verify(satisfies(structure, rho, target), "the model does not satisfy the target")
            return structure, rho, spec
        sentences.append(found)
    proof = _assemble_proof(conclusion, sentences)
    check_proof(proof)
    return proof


def check_valid(phi):
    """Valid(proof) or Invalid(countermodel); the countermodel is
    verified to satisfy the negation."""
    found = _search(PNeg(phi), phi)
    return Valid(found) if isinstance(found, Proof) else Invalid(*found)


def check_sat(phi):
    """Satisfiable(model) or Unsatisfiable(proof of the negation)."""
    found = _search(phi, PNeg(phi))
    return Unsatisfiable(found) if isinstance(found, Proof) else Satisfiable(*found)


def check_entail(gamma, phi):
    """Finite entailment, reduced to validity of the implication."""
    gamma = list(gamma)
    if not gamma:
        return check_valid(phi)
    return check_valid(PImpl(pconj_all(gamma), phi))


def conservativeness_check(alpha):
    """Whether (O alpha) -> (P(alpha) = 1) is valid; coincides with
    classical tautology of alpha."""
    starred = PImpl(ObsAtom(alpha), ProbAtom(alpha, "=", ONE))
    return isinstance(check_valid(starred), Valid)


# -- derivation schemas ------------------------------------------------------


def derive_schema(name, *args):
    if name == "fig1":
        return _schema_obs_equiv(*args)
    if name == "fig2":
        return _schema_prob_nonneg()
    if name == "obs_taut":
        return _schema_obs_verum()
    raise SchemaPreconditionFailed(f"unknown schema {name!r}")


def _refuted(premise_literals, conclusion):
    """The sentence deriving ``conclusion`` from ``premise_literals``,
    carrying its certificates; its side condition must hold."""
    found = _refute(RcofSentence(premise_literals, conclusion))
    verify(isinstance(found, RcofSentence), "the schema's side condition fails")
    return found


def _schema_obs_equiv(alpha1, alpha2):
    """Seven-line derivation of (O alpha1) <-> (O alpha2) for classically
    equivalent alpha1, alpha2."""
    if not is_tautology(prop.iff(alpha1, alpha2)):
        raise SchemaPreconditionFailed("the two formulas are not classically equivalent")
    o1 = PlqoLiteral(True, ObsAtom(alpha1))
    o2 = PlqoLiteral(True, ObsAtom(alpha2))
    equiv = piff(o1.atom, o2.atom)
    proof = _assemble_proof(equiv, [_refuted((o1,), o2), _refuted((o2,), o1)])
    check_proof(proof)
    return proof


def _schema_prob_nonneg():
    """Four-line derivation of P(B1 & B2) >= 0 from the hypothesis
    O(B1 & B2)."""
    alpha = prop_conj(prop_atom(1), prop_atom(2))
    hyp = ObsAtom(alpha)
    concl_lit = PlqoLiteral(False, ProbAtom(alpha, "<", ZERO))
    sent = _refuted((PlqoLiteral(True, hyp),), concl_lit)
    impl = sent.formula()
    verify(impl.right == prob_ge(alpha, ZERO), "fig2 conclusion is not P(B1 & B2) >= 0")
    proof = Proof(
        (
            ProofLine(1, hyp, "HYP"),
            ProofLine(2, sent, "RCOF"),
            ProofLine(3, impl, "RR", (2,)),
            ProofLine(4, impl.right, "MP", (1, 3)),
        ),
        hypotheses=(hyp,),
    )
    check_proof(proof)
    return proof


def _schema_obs_verum():
    """Two-line derivation of O(T): the side condition's premise system
    over the empty base reduces to x_T = 1."""
    lit = PlqoLiteral(True, ObsAtom(prop.VERUM))
    sent = _refuted((), lit)
    proof = Proof(
        (
            ProofLine(1, sent, "RCOF"),
            ProofLine(2, sent.formula(), "RR", (1,)),
        )
    )
    check_proof(proof)
    return proof
